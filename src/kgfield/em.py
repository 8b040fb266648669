"""Minimal coupling to stationary magnetic backgrounds on small lattices.

With a static vector potential and no scalar potential the gauged wave
operator stays Hermitian and time-independent, so the whole free-field
construction carries over with D replaced by D_q.  Fractional powers of
a non-diagonal operator need full spectral data, hence dense
eigendecomposition and the deliberately small lattices.  D_q is built
from one-axis derivative matrices that the lattice's own transforms make,
so it calls no FFT of its own (tests/oracles.py keeps a batched-FFT one).

Nonstationary backgrounds are covered only algebraically: a manufactured
solution pushed through the scalar-potential phase map must satisfy the
transformed equation identically, and we measure that residual at
sampled events with second-order Taylor jets.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.lib.mixins import NDArrayOperatorsMixin

from ._blas import one_thread
from .amplitudes import gauss_legendre_nodes
from .core import ModelParams, MomentumLattice

MAX_NODES = 32


@dataclass(frozen=True)
class EMBackground:
    """Static vector potential sampled on the lattice, plus the coupling.

    Stationary-magnetic mode only: no scalar potential, time-independent
    A.  The scalar-potential physics lives in the manufactured-solution
    check, not here.
    """

    avec: np.ndarray        # shape (d, *nodes), real
    q: float

    def __post_init__(self):
        a = np.asarray(self.avec, dtype=float)
        if a.ndim < 2 or a.shape[0] != a.ndim - 1:
            raise ValueError("avec must have shape (d, *spatial nodes)")
        for name, value in (("avec", a), ("q", self.q)):
            if not np.isfinite(value).all():
                raise ValueError(f"{name} must be finite")
        object.__setattr__(self, "avec", a)

    @property
    def dim(self) -> int:
        return self.avec.shape[0]


def _check_lattice(bg: EMBackground, lattice: MomentumLattice):
    if lattice.dim != 2:
        raise ValueError(
            "magnetic coupling needs two spatial dimensions; three makes "
            "the dense operator exceed desk scale and is not supported")
    if bg.dim != lattice.dim:
        raise ValueError("background dimension does not match the lattice")
    if tuple(bg.avec.shape[1:]) != tuple(lattice.nodes):
        raise ValueError("background grid does not match the lattice")
    if max(lattice.nodes) > MAX_NODES:
        raise ValueError(
            f"dense operator capped at {MAX_NODES} nodes per axis")


@dataclass(frozen=True)
class DenseOperator:
    """Hermitian lattice operator with its full eigensystem."""

    lattice: MomentumLattice
    params: ModelParams
    matrix: np.ndarray
    eigenvalues: np.ndarray
    eigenvectors: np.ndarray       # columns, orthonormal
    sym_residual: float

    def apply_power(self, alpha: float, grid: np.ndarray) -> np.ndarray:
        with one_thread():
            coeff = self.eigenvectors.conj().T @ grid.ravel()
            out = self.eigenvectors @ (self.eigenvalues ** alpha * coeff)
        return out.reshape(grid.shape)


def _gauged_laplacian(bg: EMBackground, lat: MomentumLattice) -> np.ndarray:
    """-(grad - iqA)^2 on the C-order flattened grid.  D is axis i's
    derivative matrix (the lattice route on a 1-D lattice of that axis,
    Nyquist included), np.kron-ed into the identity; with b = qA_i,
    (D - ib)^2 is entry by entry D^2 - i D * (b_j + b_k) - diag(b^2)."""
    eyes = [np.eye(m) for m in lat.nodes]
    h = np.zeros((lat.total_nodes,) * 2, dtype=complex)
    for i, (box, m) in enumerate(zip(lat.box_lengths, lat.nodes)):
        line = MomentumLattice([box], [m])
        d = np.column_stack([line.modes_to_grid(
            1j * line.k_grids[0] * line.grid_to_modes(e)) for e in eyes[i]])
        d, d2 = (np.kron(*eyes[:i], x, *eyes[i + 1:]) for x in (d, d @ d))
        b = bg.q * bg.avec[i].reshape(-1)
        h += 1j * d * np.add.outer(b, b) - d2
        h[np.diag_indices_from(h)] += b * b
    return h


def build_Dq(bg: EMBackground, lattice: MomentumLattice,
             params: ModelParams) -> DenseOperator:
    """Assemble -(grad - iqA)^2 + M^2 densely and eigendecompose.

    The assembled matrix must already be Hermitian to rounding (spectral
    derivatives are exactly anti-Hermitian and real multiplication
    operators exactly Hermitian); a larger residual signals a
    discretization bug.  The symmetrized operator is positive with all
    eigenvalues at least M^2.
    """
    _check_lattice(bg, lattice)
    h = _gauged_laplacian(bg, lattice)
    h[np.diag_indices_from(h)] += params.mass ** 2
    residual = float(np.abs(h - h.conj().T).max() / max(np.abs(h).max(), 1.0))
    if not residual <= 1e-10:
        raise FloatingPointError(
            f"assembled operator is not Hermitian (residual {residual:.3e})")
    h = 0.5 * (h + h.conj().T)
    with one_thread():
        lam, vec = np.linalg.eigh(h)
    floor = params.mass ** 2 * (1.0 - 1e-9)
    if not lam[0] >= floor:
        raise FloatingPointError(
            f"eigenvalue {lam[0]!r} below the mass-squared floor")
    return DenseOperator(lattice, params, h, lam, vec, residual)


def em_evolve(psi0: np.ndarray, psidot0: np.ndarray, op: DenseOperator,
              t: float) -> tuple:
    """Evolve second-order initial data through the eigenbasis."""
    if psi0.shape != tuple(op.lattice.nodes):
        raise ValueError("initial data does not match the operator lattice")
    omega = np.sqrt(op.eigenvalues)
    wt = omega * t
    with one_thread():
        c = op.eigenvectors.conj().T @ psi0.ravel()
        cdot = op.eigenvectors.conj().T @ psidot0.ravel()
        psi = op.eigenvectors @ (c * np.cos(wt) + cdot * np.sin(wt) / omega)
        psidot = op.eigenvectors @ (-c * omega * np.sin(wt) + cdot * np.cos(wt))
    return psi.reshape(psi0.shape), psidot.reshape(psi0.shape)


def em_inner(pair1: tuple, pair2: tuple, op: DenseOperator) -> complex:
    """The a-family inner product with D replaced by the gauged operator."""
    psi1, psidot1 = pair1
    psi2, psidot2 = pair2
    lat = op.lattice
    params = op.params
    cell = lat.cell_volume
    d_half = op.apply_power(0.5, psi2)
    d_mhalf = op.apply_power(-0.5, psidot2)
    term = (np.vdot(psi1, d_half) + np.vdot(psidot1, d_mhalf)
            + 1j * params.a * (np.vdot(psi1, psidot2)
                               - np.vdot(psidot1, psi2)))
    return complex(params.kappa / (2.0 * params.mass) * cell * term)


# ----------------------------------------------------------------- gauge map

# Gauss-Legendre order for the value of the phase integral.  That value
# only sets the unimodular factor u, which multiplies every term of the
# residual, so the rule needs no tuning.
_PHASE_NODES = 24


class _Jet(NDArrayOperatorsMixin):
    """Second-order Taylor jet in one coordinate, over a batch of events.

    c0, c1, c2 are complex arrays over the events with
    f(x + h) = c0 + c1 h + c2 h^2 + O(h^3), so f' = c1 and f'' = 2 c2.
    Truncated Taylor arithmetic (Griewank & Walther, Evaluating
    Derivatives, ch. 13) keeps both derivatives exact to rounding through
    the ufuncs in _JET_RULES; any other ufunc raises TypeError rather
    than return a wrong derivative.
    """

    __slots__ = ("c0", "c1", "c2")

    def __init__(self, c0, c1, c2):
        self.c0, self.c1, self.c2 = (np.asarray(c, dtype=complex)
                                     for c in (c0, c1, c2))

    def __array_ufunc__(self, ufunc, method, *inputs, **kwargs):
        rule = _JET_RULES.get(ufunc)
        if rule is None or method != "__call__" or kwargs:
            raise TypeError(f"second-order jets do not support "
                            f"{ufunc.__name__}.{method}")
        return rule(*((x.c0, x.c1, x.c2) if isinstance(x, _Jet)
                      else (x, 0.0, 0.0) for x in inputs))


def _jet_mul(a, b):
    return _Jet(a[0] * b[0], a[0] * b[1] + a[1] * b[0],
                a[0] * b[2] + a[1] * b[1] + a[2] * b[0])


def _jet_div(a, b):
    c0 = a[0] / b[0]
    c1 = (a[1] - c0 * b[1]) / b[0]
    return _Jet(c0, c1, (a[2] - c0 * b[2] - c1 * b[1]) / b[0])


def _jet_exp(a):
    e = np.exp(a[0])
    return _Jet(e, e * a[1], e * (a[2] + 0.5 * a[1] * a[1]))


def _jet_sin(a):
    s, c = np.sin(a[0]), np.cos(a[0])
    return _Jet(s, c * a[1], c * a[2] - 0.5 * s * a[1] * a[1])


def _jet_cos(a):
    s, c = np.sin(a[0]), np.cos(a[0])
    return _Jet(c, -s * a[1], -s * a[2] - 0.5 * c * a[1] * a[1])


_JET_RULES = {
    np.add: lambda a, b: _Jet(a[0] + b[0], a[1] + b[1], a[2] + b[2]),
    np.subtract: lambda a, b: _Jet(a[0] - b[0], a[1] - b[1], a[2] - b[2]),
    np.negative: lambda a: _Jet(-a[0], -a[1], -a[2]),
    np.multiply: _jet_mul,
    np.true_divide: _jet_div,
    np.exp: _jet_exp,
    np.sin: _jet_sin,
    np.cos: _jet_cos,
}


def _profile(p):
    return p if callable(p) else (lambda x0, x1, x2: p)


def _along(profile, events: np.ndarray, axis: int) -> _Jet:
    """Jet of a profile in coordinate `axis` at every event."""
    coords = list(events.T)
    coords[axis] = _Jet(coords[axis], 1.0, 0.0)
    val = profile(*coords)
    if isinstance(val, _Jet):
        return val
    return _Jet(np.broadcast_to(val, (len(events),)), 0.0, 0.0)


def _phase_integral(phi, events: np.ndarray) -> np.ndarray:
    """Int_0^{x0} phi(tau, x1, x2) dtau at every event."""
    x0, x1, x2 = events.T
    nodes, weights = gauss_legendre_nodes(_PHASE_NODES)
    half = 0.5 * x0
    tau = half * (1.0 + nodes[:, None])
    return half * (weights @ np.broadcast_to(phi(tau, x1, x2), tau.shape))


def _gauged_square(f: _Jet, a: _Jet, q: float) -> np.ndarray:
    """(d - iqa)^2 f from the jets of f and a along one axis."""
    return (2.0 * f.c2 - 1j * q * (a.c1 * f.c0 + 2.0 * a.c0 * f.c1)
            - q * q * a.c0 * a.c0 * f.c0)


def em_gauge_residual(phi_profile, psi_solution, sample_events, *,
                      avec_profile=None, q: float, mass: float) -> float:
    """Residual of the scalar-potential phase map on a manufactured field.

    phi_profile and psi_solution are numpy callables f(x0, x1, x2), such
    as ``lambda x0, x1, x2: 0.5 * np.sin(x1) + 0.2``, built from +, -, *,
    /, exp, sin and cos; a bare number is a constant profile.
    avec_profile, when given, is a pair of such profiles.  The
    manufactured field defines the source
    s = psi'' + 2iq phi psi' + (gauged spatial operator) psi, and the
    phase-mapped field chi = u psi with u = exp[iq Int_0^{x0} phi]
    must satisfy chi'' + u (-(grad - iqA)^2 + M^2) psi = u s as an
    algebraic identity.  Returns the largest residual over the events
    (rows (x0, x1, x2)); raises FloatingPointError naming the first event
    where it is not finite.

    Derivatives come from second-order jets seeded in one coordinate at
    a time, so chi'' is the jet product of u and psi, independent of the
    hand-derived source.
    """
    events = np.asarray(sample_events, dtype=float)
    if events.ndim != 2 or events.shape[1] != 3:
        raise ValueError("sample events must be rows (x0, x1, x2)")
    phi = _profile(phi_profile)
    psi = _profile(psi_solution)
    avec = (0.0, 0.0) if avec_profile is None else avec_profile
    with np.errstate(all="ignore"):
        psi_t = _along(psi, events, 0)
        phi_t = _along(phi, events, 0)
        # Phi = Int phi dtau: its x0-jet is phi's own jet shifted one order
        big_phi = _Jet(_phase_integral(phi, events),
                       phi_t.c0, 0.5 * phi_t.c1)
        u = np.exp(1j * q * big_phi)
        chi = u * psi_t
        gauged = sum(_gauged_square(_along(psi, events, axis),
                                    _along(_profile(a), events, axis), q)
                     for axis, a in zip((1, 2), avec))
        source = (2.0 * psi_t.c2 + 2j * q * phi_t.c0 * psi_t.c1 - gauged
                  + (1j * q * phi_t.c1 - q ** 2 * phi_t.c0 ** 2
                     + mass ** 2) * psi_t.c0)
        lhs = 2.0 * chi.c2 + u.c0 * (-gauged + mass ** 2 * psi_t.c0)
        residual = lhs - u.c0 * source
    bad = ~np.isfinite(residual)
    if bad.any():
        ev = tuple(events[np.argmax(bad)].tolist())
        raise FloatingPointError("manufactured solution is not finite "
                                 f"at event {ev!r}")
    return float(np.abs(residual).max())
