"""Two-component maps, position operator, localized states, wavefunctions.

The field theory becomes ordinary quantum mechanics after a frequency-
weighted change of variables: the map to L2 + L2 sends the two energy
sectors to two component functions, position acts by coordinate
multiplication there, and pulling back gives localized states whose
profiles have a closed Bessel-K form in the 3-D continuum limit.

The reference time is an explicit argument throughout.  The change of
variables (and with it every wavefunction) genuinely depends on it, so
hiding it inside the field object would invite silent bugs.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .core import LatticeField, ModelParams, MomentumLattice
from .inner import inner_0

# Gamma(1/4) to 25 significant digits (computed once with mpmath at
# 50-digit precision; mpmath.gamma(mpmath.mpf(1)/4)).
GAMMA_QUARTER = 3.625609908221908311930685

_INTERIOR_MASS = 0.999


@dataclass
class TwoComponent:
    """Mode-coefficient pair representing a field in the L2 + L2 picture."""

    lattice: MomentumLattice
    params: ModelParams
    xi1: np.ndarray
    xi2: np.ndarray
    t0: float

    def __post_init__(self):
        shape = tuple(self.lattice.nodes)
        if self.xi1.shape != shape or self.xi2.shape != shape:
            raise ValueError("component shapes must match the lattice")

    def grids(self):
        return (self.lattice.modes_to_grid(self.xi1),
                self.lattice.modes_to_grid(self.xi2))


def map_Ua(field: LatticeField, a: float | None = None,
           t0: float | None = None) -> TwoComponent:
    """Frequency-weighted unitary onto the two-component picture.

    xi1 = sqrt(kappa/M) sqrt(1+a) D^{1/4} (+ sector at t0),
    xi2 = sqrt(kappa/M) sqrt(1-a) D^{1/4} (- sector at t0).
    Unitary: pair sums of images reproduce the a-form inner product.
    """
    params = field.params
    if a is None:
        a = params.a
    if not -1.0 < a < 1.0:
        raise ValueError("sector weight parameter must lie in (-1, 1)")
    if t0 is None:
        t0 = field.t0
    wq = field.omega ** 0.5
    p, m = field.mode_pair(t0)
    root = np.sqrt(params.kappa / params.mass)
    return TwoComponent(field.lattice, params,
                        root * np.sqrt(1.0 + a) * wq * p,
                        root * np.sqrt(1.0 - a) * wq * m, float(t0))


def map_U_inverse(xi: TwoComponent, a: float = 0.0) -> LatticeField:
    """Inverse of map_Ua at the matching sector weight.

    Reconstructs the field with reference time xi.t0; evolution to any
    other time is the usual mode re-phasing.
    """
    if not -1.0 < a < 1.0:
        raise ValueError("sector weight parameter must lie in (-1, 1)")
    params = xi.params
    winv = xi.lattice.omega(params.mass) ** -0.5
    root = np.sqrt(params.mass / params.kappa)
    phi_p = root * winv * xi.xi1 / np.sqrt(1.0 + a)
    phi_m = root * winv * xi.xi2 / np.sqrt(1.0 - a)
    return LatticeField(xi.lattice, params, phi_p, phi_m, t0=xi.t0)


def mixture_map(field: LatticeField, a: float, t0: float | None = None) -> LatticeField:
    """Sector re-balancing: invert the a-map after applying the 0-map.

    The image carries parameter a, and its a-form inner products equal
    the 0-form inner products of the source.
    """
    xi = map_Ua(field, 0.0, t0)
    newparams = ModelParams(field.params.mass, field.params.kappa, a)
    return map_U_inverse(TwoComponent(xi.lattice, newparams, xi.xi1, xi.xi2,
                                      xi.t0), a)


def wavefunction_f(field: LatticeField, t0: float | None = None):
    """Position wavefunctions: f(eps) = sqrt(kappa/M) D^{1/4} (eps sector at t0).

    Returns (f_plus, f_minus) spatial grids.  Cell-weighted square sums
    over both sectors reproduce the a = 0 norm (Parseval), and the pair
    is unchanged if the field is first passed through mixture_map.
    """
    return map_Ua(field, 0.0, t0).grids()


def position_density(field: LatticeField, t0: float | None = None) -> np.ndarray:
    fp, fm = wavefunction_f(field, t0)
    return np.abs(fp) ** 2 + np.abs(fm) ** 2


def _box_mask(selections) -> np.ndarray:
    """The nodes selected on every axis, from one boolean array per axis."""
    return functools.reduce(np.logical_and,
                            np.meshgrid(*selections, indexing="ij", sparse=True))


def _interior_mass_fraction(lattice: MomentumLattice, dens: np.ndarray) -> float:
    mask = _box_mask([np.abs(x) <= L / 4.0 for x, L in
                      zip(lattice.coordinate_axes(), lattice.box_lengths)])
    total = dens.sum()
    if total == 0.0:
        return 1.0
    return float(dens[mask].sum() / total)


def position_apply(field: LatticeField,
                   t0: float | None = None) -> list[LatticeField]:
    """Apply the position operator along each axis: conjugate coordinate
    multiplication by the two-component map.

    The continuum closed form x + i k/(2(k^2 + M^2)) is the tests'
    cross-check (position_closed_form in tests/oracles.py); it matches
    this route exactly only in the continuum, not on the lattice.

    Coordinate multiplication on a periodic box only makes sense away
    from the wrap, so fields must hold 99.9% of their position density
    in the central half of the box.
    """
    if t0 is None:
        t0 = field.t0
    lat = field.lattice
    g1, g2 = wavefunction_f(field, t0)
    frac = _interior_mass_fraction(lat, np.abs(g1) ** 2 + np.abs(g2) ** 2)
    if frac < _INTERIOR_MASS:
        raise ValueError(
            f"field is not interior-localized (central-half mass {frac:.6f})")
    return [map_U_inverse(TwoComponent(lat, field.params,
                                       lat.grid_to_modes(xg * g1),
                                       lat.grid_to_modes(xg * g2), t0), 0.0)
            for xg in lat.coordinate_grids()]


# -------------------------------------------------------- localized states


@dataclass
class LocalizedState:
    """Best-localized basis state at a grid node in one charge sector."""

    epsilon: int
    y: np.ndarray            # node coordinates
    index: tuple[int, ...]   # node index
    field: LatticeField


def _node_index(lattice: MomentumLattice, y) -> tuple[int, ...]:
    y = np.atleast_1d(np.asarray(y, dtype=float))
    if y.shape != (len(lattice.nodes),):
        raise ValueError("point dimension does not match the lattice")
    if not np.isfinite(y).all():
        raise ValueError(f"point y must be finite, got {y.tolist()}")
    idx = []
    for i, (L, n) in enumerate(zip(lattice.box_lengths, lattice.nodes)):
        dx = L / n
        pos = (y[i] + L / 2.0) / dx
        j = int(np.rint(pos))
        if abs(pos - j) > 1e-9:
            raise ValueError(f"coordinate {y[i]} is off the grid on axis {i}")
        idx.append(j % n)
    return tuple(idx)


def localized_state(epsilon: int, y, lattice: MomentumLattice,
                    params: ModelParams, t0: float = 0.0) -> LocalizedState:
    """The state whose position wavefunction is a lattice delta at y.

    Mode content sqrt(M/kappa) D^{-1/4} applied to the Kronecker delta
    over sqrt(cell volume); the family over all nodes and both sectors
    is orthonormal in the a = 0 inner product (Kronecker normalization;
    dividing by another sqrt(cell volume) would give the Dirac-type
    continuum normalization instead).
    """
    if epsilon not in (1, -1):
        raise ValueError("sector label must be +1 or -1")
    idx = _node_index(lattice, y)
    phi = lattice._analyze_delta(idx, 1.0 / np.sqrt(lattice.cell_volume),
                                 params.mass,
                                 np.sqrt(params.mass / params.kappa))
    f = LatticeField._one_sector(lattice, params, phi, epsilon, t0)
    axes = lattice.coordinate_axes()
    ycoord = np.array([axes[i][idx[i]] for i in range(len(idx))])
    return LocalizedState(epsilon, ycoord, idx, f)


def expand_in_localized_basis(field: LatticeField, t0: float | None = None):
    """Coefficients of the field in the localized-state basis.

    With Kronecker-normalized states these are just the wavefunction
    values scaled by sqrt(cell volume).
    """
    fp, fm = wavefunction_f(field, t0)
    s = np.sqrt(field.lattice.cell_volume)
    return fp * s, fm * s


# ------------------------------------------------------------- regions


@dataclass(frozen=True)
class Region:
    """Axis-aligned box; membership is half-open, lo <= x < hi."""

    lo: tuple[float, ...]
    hi: tuple[float, ...]

    def __post_init__(self):
        if len(self.lo) != len(self.hi):
            raise ValueError("bound dimensions differ")
        for a, b in zip(self.lo, self.hi):
            if not a < b:
                raise ValueError("need lo < hi on every axis")

    def mask(self, lattice: MomentumLattice) -> np.ndarray:
        if len(self.lo) != len(lattice.nodes):
            raise ValueError("region dimension does not match the lattice")
        for lo, hi, L in zip(self.lo, self.hi, lattice.box_lengths):
            if lo < -L / 2 - 1e-12 or hi > L / 2 + 1e-12:
                raise ValueError("region extends beyond the box")
        return _box_mask([(x >= lo) & (x < hi) for x, lo, hi in
                          zip(lattice.coordinate_axes(), self.lo, self.hi)])


def probability_region(field: LatticeField, region: Region,
                       t0: float | None = None,
                       normalize: bool = False) -> float:
    """Probability of localization inside the region at the reference time.

    Cell-weighted sum of |f|^2 over grid nodes in the region, both
    sectors.  The field must be normalized in the a = 0 inner product to
    1e-10 unless normalize=True is passed.
    """
    norm2 = inner_0(field, field).real
    if abs(norm2 - 1.0) > 1e-10:
        if not normalize:
            raise ValueError(
                f"field norm^2 is {norm2!r}, not 1; pass normalize=True")
        if norm2 <= 0.0:
            raise ValueError("cannot normalize a null field")
    else:
        normalize = False
    dens = position_density(field, t0)
    mask = region.mask(field.lattice)
    val = float(dens[mask].sum() * field.lattice.cell_volume)
    if normalize:
        val /= norm2
    if val < -1e-12 or val > 1.0 + 1e-12:
        raise FloatingPointError("probability fell outside [0, 1]")
    return float(min(max(val, 0.0), 1.0))


# ------------------------------------------------- continuum radial profile


def _cosh_quadrature(z: float):
    """Integrand and upper limit of the cosh route to K_{5/4}(z).

    K_{5/4}(z) = int_0^tmax exp(-z cosh t) cosh(5t/4) dt to double
    precision.  The integrand uses numpy ufuncs only, so its value at each
    node of an array is its value at that node alone (the integrand
    contract of kgfield._qags).
    """
    # beyond cosh t = 746/z the integrand underflows double precision
    tmax = float(np.arccosh(max(746.0 / z, 2.0)))
    return (lambda t: np.exp(-z * np.cosh(t)) * np.cosh(1.25 * t)), tmax


def besselK_profile(r: float, params: ModelParams) -> float:
    """Continuum 3-D localized-state profile at reference time.

    sqrt(M/kappa) [2^{3/4} pi^{3/2} Gamma(1/4)]^{-1} (M/r)^{5/4} K_{5/4}(M r),
    with the Bessel K evaluated by quadrature of its integral
    representation K_nu(z) = int_0^inf exp(-z cosh t) cosh(nu t) dt,
    truncated where the integrand underflows.  The quadrature is the
    in-package port of QUADPACK's QAGS (kgfield._qags) at epsabs 1e-14,
    epsrel 1e-13 and 200 subintervals, which returns the bits of
    scipy.integrate.quad on this integrand without importing
    scipy.integrate.  Raises FloatingPointError, naming the radius, the
    flag, the integral and its error estimate, when QUADPACK flags a
    failure (ier != 0) or the profile is not finite, and naming the
    radius and the node when the integrand is not finite there (below
    M r of about 1e-243, where cosh(5t/4) overflows).
    """
    from ._qags import qags

    if not 0.0 < r < np.inf:
        raise ValueError(f"radius must be positive and finite, got {r!r}")
    M = params.mass
    f, tmax = _cosh_quadrature(M * r)
    try:
        val, err, ier, _ = qags(f, 0.0, tmax, 1e-14, 1e-13, 200)
    except ValueError as exc:           # a non-finite integrand value
        raise FloatingPointError(
            f"Bessel-profile quadrature failed at r={r!r}: {exc}") from exc
    const = 2.0 ** 0.75 * np.pi ** 1.5 * GAMMA_QUARTER
    out = float(np.sqrt(M / params.kappa) / const * (M / r) ** 1.25 * val)
    if ier != 0 or not np.isfinite(out):
        raise FloatingPointError(
            f"Bessel-profile quadrature failed at r={r!r}: QUADPACK ier "
            f"{ier}, value {val!r}, error estimate {err!r}")
    return out


@functools.lru_cache(maxsize=1)
def _de_sine_rule() -> tuple[np.ndarray, np.ndarray]:
    """Nodes x_n, weights w_n: int_0^inf g(x) sin(x) dx ~ sum w_n g(x_n).

    Ooura and Mori's double-exponential rule for Fourier sine integrals
    (J. Comput. Appl. Math. 112, 229-241 (1999)): x = (pi/h) phi(t) with
    phi(t) = t / (1 - exp(-u(t))), u(t) = 2t + alpha (1 - e^{-t})
    + beta (e^t - 1), summed at t = n h.  As t grows the nodes approach
    the zeros n pi of sin double-exponentially, so a slowly decaying g
    needs no truncation of its own.  The arrays are read-only, because
    every caller shares them.
    """
    h = 0.075
    big_m = np.pi / h
    beta = 0.25
    alpha = beta / np.sqrt(1.0 + big_m * np.log1p(big_m) / (4.0 * np.pi))
    t = h * np.arange(-110, 501)
    # phi is 0/0 at t = 0, and left of t = -9.7 (past the first node)
    # e^{-u} overflows and phi' is nan; neither is warned about: the t = 0
    # node takes its limits, and the mask drops any node whose map is not
    # finite or whose phi has underflowed to 0
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        u = 2.0 * t - alpha * np.expm1(-t) + beta * np.expm1(t)
        den = -np.expm1(-u)                                 # 1 - e^{-u}
        phi = t / den
        du = 2.0 + alpha * np.exp(-t) + beta * np.exp(t)
        dphi = (den - t * du * np.exp(-u)) / den ** 2
    # the t = 0 node carries weight: take phi and phi' there as limits
    u1, u2 = 2.0 + alpha + beta, beta - alpha
    zero = t == 0.0
    phi[zero] = 1.0 / u1
    dphi[zero] = (u1 * u1 - u2) / (2.0 * u1 * u1)
    keep = np.isfinite(phi) & np.isfinite(dphi) & (phi > 0.0)
    x = big_m * phi[keep]
    w = np.pi * np.sin(x) * dphi[keep]                      # h (pi/h) = pi
    x.flags.writeable = False
    w.flags.writeable = False
    return x, w


def besselK_profile_momentum_route(r: float, params: ModelParams) -> float:
    """Same profile from the oscillatory momentum integral.

    sqrt(M/kappa) (2 pi^2 r)^{-1} int_0^inf k sin(k r) (k^2+M^2)^{-1/4} dk,
    an Abel-summed integral: the amplitude grows like k^{1/2}.  That
    asymptote is subtracted and its Abel value Gamma(3/2) sin(3 pi/4)
    r^{-3/2} = sqrt(2 pi)/4 r^{-3/2} (Gradshteyn & Ryzhik 3.761.4) added
    back.  The remainder k^{1/2} expm1(-log1p(M^2/k^2)/4), which decays
    like k^{-3/2}, goes to Ooura and Mori's double-exponential sine rule
    (_de_sine_rule) at k = x_n / r: about 600 fixed nodes evaluated with
    numpy ufuncs, sharing no code with the cosh route of besselK_profile.
    Against scipy.special.kv the relative error is below 3e-14 up to
    M r = 3 and below 4e-11 up to M r = 10: as the profile decays, the
    rule's absolute error becomes a larger share of it.
    """
    if not 0.0 < r < np.inf:
        raise ValueError(f"radius must be positive and finite, got {r!r}")
    M = params.mass
    x, w = _de_sine_rule()
    k = x / r
    remainder = np.sqrt(k) * np.expm1(-0.25 * np.log1p((M / k) ** 2))
    val = float(np.sum(w * remainder)) / r
    val += np.sqrt(2.0 * np.pi) / 4.0 * r ** -1.5
    out = float(np.sqrt(M / params.kappa) * val / (2.0 * np.pi ** 2 * r))
    if not np.isfinite(out):
        raise FloatingPointError(
            f"momentum-route quadrature failed at r={r!r}: value {out!r}")
    return out
