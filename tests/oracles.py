"""Cross-check routes that only the tests call.

Each function here is an independent derivation of a quantity that a
production module computes another way.  The module lives beside the
tests, outside the installed package, so neither it nor its heavy
dependency (sympy) can reach a command-line path.  It imports only
public kgfield names.  The sections follow the production module whose
quantity they check.
"""

from __future__ import annotations

import numpy as np

from kgfield.amplitudes import AmplitudeField, QuadratureRule
from kgfield.core import (
    LatticeField,
    ModelParams,
    MomentumLattice,
    PlaneWaveField,
    from_initial_data,
    minkowski_dot,
)
from kgfield.currents import PAD, FourVectorGrid, current_calJa, current_Ja
from kgfield.em import DenseOperator, EMBackground
from kgfield.limits import LimitSweep, fit_slope
from kgfield.localization import TwoComponent, map_U_inverse, position_apply


# ------------------------------------------------------------- currents


def density_Ja_direct(field: LatticeField, t: float, pad: int = PAD) -> np.ndarray:
    """Time slot of the conserved current from the quadratic-form route.

    (kappa/2M){psi* D^{1/2} psi + psidot* D^{-1/2} psidot
               + i a [psi* psidot - psidot* psi]};
    used as an independent cross-check of current_Ja's component 0.
    """
    lat = field.lattice
    params = field.params
    w = field.omega
    psi_m = field.mode_psi(t)
    psidot_m = field.mode_psidot(t)
    psi = lat.modes_to_grid(psi_m, pad)
    psidot = lat.modes_to_grid(psidot_m, pad)
    dhalf = lat.modes_to_grid(w * psi_m, pad)
    dminus = lat.modes_to_grid(psidot_m / w, pad)
    quad = (np.conj(psi) * dhalf + np.conj(psidot) * dminus
            + 1j * params.a * (np.conj(psi) * psidot - np.conj(psidot) * psi))
    return 0.5 * params.kappa / params.mass * quad


def rho_a_symmetrized(field: LatticeField, t: float, pad: int = 1) -> np.ndarray:
    """Same density as rho_a via the half-angle mixture route.

    psi' = alpha_+ psi + i alpha_- D^{-1/2} psidot with
    alpha_pm = (sqrt(1+a) +/- sqrt(1-a))/2 turns the density into a plain
    two-term sum of squares; used as an independent oracle for rho_a.
    """
    lat = field.lattice
    params = field.params
    w = field.omega
    ap = 0.5 * (np.sqrt(1 + params.a) + np.sqrt(1 - params.a))
    am = 0.5 * (np.sqrt(1 + params.a) - np.sqrt(1 - params.a))
    p, m = field.mode_pair(t)
    psi_m = p + m
    psic_m = p - m                      # i D^{-1/2} psidot
    prime = ap * psi_m + am * psic_m
    primedot = -1j * w * (ap * (p - m) + am * (p + m))
    A = lat.modes_to_grid(w ** 0.5 * prime, pad)
    B = lat.modes_to_grid(primedot / w ** 0.5, pad)
    return 0.5 * params.kappa / params.mass * (np.abs(A) ** 2 + np.abs(B) ** 2)


def split_re_im(field: LatticeField, t: float, pad: int = PAD):
    """Real and imaginary parts of the conserved current as separate grids.

    re^mu = (kappa/M) Im[(1+a) psi+* d^mu psi+ - (1-a) psi-* d^mu psi-
                         + a W^mu],
    im^mu = (kappa/M) Re W^mu,  W^mu = psi+* d^mu psi- - (d^mu psi+)* psi-.

    im vanishes identically for definite-charge fields and for real-data
    fields whose Nyquist rows are empty (an occupied Nyquist bin has no
    conjugate partner on the lattice, so the padded interpolant of a
    "real" field acquires spurious imaginary parts between coarse nodes).
    """
    lat = field.lattice
    params = field.params
    d = len(lat.nodes)
    pm_p, pm_m = field.mode_pair(t)
    w = field.omega

    def grids(modes, dotmodes):
        val = lat.modes_to_grid(modes, pad)
        der = [-lat.modes_to_grid(dotmodes, pad)]      # d^0 = -d_0
        der += [lat.modes_to_grid(1j * k * modes, pad) for k in lat.k_grids]
        return val, der

    plus, dplus = grids(pm_p, -1j * w * pm_p)
    minus, dminus = grids(pm_m, 1j * w * pm_m)

    shape = plus.shape
    re = np.empty((d + 1,) + shape, dtype=float)
    im = np.empty((d + 1,) + shape, dtype=float)
    a = params.a
    fac = params.kappa / params.mass
    for mu in range(d + 1):
        W = np.conj(plus) * dminus[mu] - np.conj(dplus[mu]) * minus
        re[mu] = fac * (np.imag((1 + a) * np.conj(plus) * dplus[mu]
                                - (1 - a) * np.conj(minus) * dminus[mu])
                        + a * np.imag(W))
        im[mu] = fac * np.real(W)
    ev_lat = lat.refined(pad)
    return FourVectorGrid(re, ev_lat), FourVectorGrid(im, ev_lat)


def planewave_values(field: PlaneWaveField, events: np.ndarray) -> np.ndarray:
    """Field values at event rows (t, x1..xd)."""
    events = np.atleast_2d(np.asarray(events, dtype=float))
    vals = np.zeros(events.shape[0], dtype=complex)
    for (eps, kvec, coeff), p in zip(field.modes, field.mode_fourvectors()):
        vals += coeff * np.exp(1j * minkowski_dot(p, events))
    return vals


def psic_at(field: PlaneWaveField, events: np.ndarray) -> np.ndarray:
    """Values of the charge-graded field i D^{-1/2} psidot."""
    graded = [(eps, kvec, eps * coeff) for eps, kvec, coeff in field.modes]
    return planewave_values(PlaneWaveField(field.params, graded, field.dim),
                            events)


def planewave_current_calJa(field: PlaneWaveField, events: np.ndarray) -> np.ndarray:
    """Closed-form probability current of a plane-wave superposition.

    Same four-bundle structure as the grid version, with quarter powers
    of the mode frequencies.  Returns (n_events, d+1) real components.
    """
    events = np.atleast_2d(np.asarray(events, dtype=float))
    params = field.params
    fv = field.mode_fourvectors()
    coeffs = np.array([c for _, _, c in field.modes])
    eps = np.array([e for e, _, _ in field.modes], dtype=float)
    om = np.array([field.mode_omega(k) for _, k, _ in field.modes])
    eta = events[:, 1:] @ fv[:, 1:].T - events[:, :1] * fv[:, 0][None, :]
    phase = np.exp(1j * eta)

    bundles = {
        "P": om ** 0.5 * coeffs,
        "Pc": eps * om ** 0.5 * coeffs,
        "Q": om ** -0.5 * coeffs,
        "Qc": eps * om ** -0.5 * coeffs,
    }

    def value(name):
        return phase @ bundles[name]

    def deriv(name):
        # contravariant d^mu of the bundle: i p^mu per mode
        return np.stack([phase @ (1j * fv[:, mu] * bundles[name])
                         for mu in range(fv.shape[1])], axis=-1)

    P, Pc = value("P"), value("Pc")
    dQ, dQc = deriv("Q"), deriv("Qc")
    s = (np.conj(P)[:, None] * dQc - Pc[:, None] * np.conj(dQ)
         + params.a * (np.conj(P)[:, None] * dQ
                       - Pc[:, None] * np.conj(dQc)))
    return 0.5 * params.kappa / params.mass * np.imag(s)


# ---------------------------------------------------------------- gauge


def charge_phase_space(field: LatticeField, t: float) -> float:
    """Conserved charge evaluated on canonical phase-space variables.

    Uses the momentum conjugate to the field value, pi = (lambda/2)
    d(psi)*/dt with lambda = 1/M, and spectral half-powers of the
    spatial operator.  Equals the total probability.
    """
    lat = field.lattice
    params = field.params
    lam = 1.0 / params.mass
    w = field.omega
    psi = field.psi_grid(t)
    psi_m = field.mode_psi(t)
    psidot_m = field.mode_psidot(t)
    pi_grid = 0.5 * lam * np.conj(lat.modes_to_grid(psidot_m))

    d_half_psi = lat.modes_to_grid(w * psi_m)
    d_mhalf_pibar = 0.5 * lam * lat.modes_to_grid(psidot_m / w)
    integrand = (np.conj(psi) * d_half_psi
                 + 4.0 / lam ** 2 * pi_grid * d_mhalf_pibar
                 + 2j / lam * params.a * (np.conj(psi) * np.conj(pi_grid)
                                          - psi * pi_grid))
    val = params.kappa / (2.0 * params.mass) * lat.integrate(integrand)
    if abs(val.imag) > 1e-10 * max(abs(val.real), 1.0):
        raise FloatingPointError("charge came out non-real")
    return float(val.real)


# ----------------------------------------------------------- amplitudes


def with_quad(field: AmplitudeField, quad: QuadratureRule) -> AmplitudeField:
    return AmplitudeField(field.params, field.dim, field.amp_plus,
                          field.amp_minus, quad)


def evaluate_at(field: AmplitudeField, events: np.ndarray) -> np.ndarray:
    """Quadrature approximation of the field at event rows (t, x)."""
    events = np.atleast_2d(np.asarray(events, dtype=float))
    k = field.quad.nodes
    w = field.quad.weights
    om = field.omega(k)
    kx = events[:, 1:] @ k.T                    # (nev, nq)
    out = np.zeros(events.shape[0], dtype=complex)
    for eps in (1, -1):
        a = field.amplitude(eps, k)
        if not np.any(a):
            continue
        phase = np.exp(1j * (kx - eps * om[None, :] * events[:, :1]))
        out += phase @ (w * a)
    return out


def kg_inner_amplitude(f1: AmplitudeField, f2: AmplitudeField, g: float,
                       t: float = 0.0) -> complex:
    """Charge-type form i g [<psi1|psidot2> - <psidot1|psi2>] by quadrature."""
    if f1.params != f2.params or f1.dim != f2.dim:
        raise ValueError("amplitude fields are not compatible")
    rule = f1.quad
    k, w = rule.nodes, rule.weights
    om = np.sqrt(np.sum(k * k, axis=-1) + f1.params.mass ** 2)
    def hat(f, deriv):
        val = np.zeros(k.shape[0], dtype=complex)
        for eps in (1, -1):
            a = f.amplitude(eps, k)
            ph = np.exp(-1j * eps * om * t)
            val += (-1j * eps * om) ** deriv * a * ph
        return val
    psi1, psidot1 = hat(f1, 0), hat(f1, 1)
    psi2, psidot2 = hat(f2, 0), hat(f2, 1)
    bra_ket = np.sum(w * np.conj(psi1) * psidot2)
    ket_bra = np.sum(w * np.conj(psidot1) * psi2)
    return complex(1j * g * (2.0 * np.pi) ** f1.dim * (bra_ket - ket_bra))


# --------------------------------------------------------------- limits


def conjugate_deviation(field: LatticeField, t: float | None = None) -> float:
    """Relative distance between the charge conjugate and the field."""
    if t is None:
        t = field.t0
    p, m = field.mode_pair(t)
    return 2.0 * np.linalg.norm(m) / np.linalg.norm(p + m)


def tilde_deviation(field: LatticeField, t: float | None = None) -> float:
    """Relative distance of the a-weighted combination from (1+a) psi."""
    if t is None:
        t = field.t0
    a = field.params.a
    p, m = field.mode_pair(t)
    return 2.0 * np.linalg.norm(m) / ((1.0 + a) * np.linalg.norm(p + m))


def schrodinger_residual(field: LatticeField, t: float | None = None) -> float:
    """Residual of the free Schrodinger equation for e^{iMt} psi.

    Computes ||i d(chi)/dt + grad^2 chi/(2M)|| / (M ||chi||) in mode
    space at time t; the phase peel makes this finite as M grows.
    """
    if t is None:
        t = field.t0
    mass = field.params.mass
    lat = field.lattice
    p, m = field.mode_pair(t)
    w = field.omega
    num = w * (p - m) - mass * (p + m) - lat.ksq / (2.0 * mass) * (p + m)
    return np.linalg.norm(num) / (mass * np.linalg.norm(p + m))


def current_mutual_deviation(sweep: LimitSweep, t: float = 0.0) -> dict:
    """Distance between the two current families along the ladder.

    Both tend to the same Schrodinger pair, so their mutual relative
    deviation decays near slope -2 as well.
    """
    devs = []
    for mass in sweep.masses:
        f = sweep.packet(mass)
        ja = current_Ja(f, t)
        ca = current_calJa(f, t)
        devs.append(np.linalg.norm(ja.components - ca.components)
                    / np.linalg.norm(ja.components))
    masses = np.asarray(sweep.masses, dtype=float)
    return {
        "masses": masses,
        "dev": np.asarray(devs),
        "slope": fit_slope(masses, devs),
    }


# --------------------------------------------------------- localization


def field_from_wavefunctions(fp: np.ndarray, fm: np.ndarray,
                             lattice: MomentumLattice, params: ModelParams,
                             t0: float = 0.0) -> LatticeField:
    """Inverse of wavefunction_f."""
    xi = TwoComponent(lattice, params,
                      lattice.grid_to_modes(np.asarray(fp, dtype=complex)),
                      lattice.grid_to_modes(np.asarray(fm, dtype=complex)),
                      float(t0))
    return map_U_inverse(xi, 0.0)


def position_closed_form(field: LatticeField,
                         t0: float | None = None) -> list[LatticeField]:
    """Position operator per axis from its continuum closed form.

    x + i k/(2(k^2 + M^2)) acts on the value slot and its adjoint on the
    derivative slot.  It matches localization.position_apply exactly
    only in the continuum; on the lattice the gap scales like
    (M dx)^(3/2) weighted by the field's mode content near the cutoff.
    """
    if t0 is None:
        t0 = field.t0
    lat = field.lattice
    params = field.params
    psi_modes, psidot_modes = field.mode_psi(t0), field.mode_psidot(t0)
    psi0 = lat.modes_to_grid(psi_modes)
    psidot0 = lat.modes_to_grid(psidot_modes)
    out = []
    for k, xg in zip(lat.k_grids, lat.coordinate_grids()):
        mult = k / (2.0 * (lat.ksq + params.mass ** 2))
        val = xg * psi0 + lat.modes_to_grid(1j * mult * psi_modes)
        dot = xg * psidot0 - lat.modes_to_grid(1j * mult * psidot_modes)
        out.append(from_initial_data(lat, params, val, dot, t0=t0))
    return out


def position_apply_checked(field: LatticeField,
                           t0: float | None = None) -> list[LatticeField]:
    """localization.position_apply, checked axis by axis against
    position_closed_form to 1e-9 of its largest coefficient.

    Smooth packets sit far below 1e-9, but states that saturate the band
    (lattice-delta localized states) disagree at the percent level no
    matter how fine the grid.  A NaN on either side fails the check.
    """
    via = position_apply(field, t0)
    for got, want in zip(via, position_closed_form(field, t0)):
        scale = np.max([np.abs(got.phi_plus).max(),
                        np.abs(got.phi_minus).max(), 1e-300])
        dev = np.max([np.abs(got.phi_plus - want.phi_plus).max(),
                      np.abs(got.phi_minus - want.phi_minus).max()])
        if not dev <= 1e-9 * scale:
            raise FloatingPointError(
                f"position operator routes disagree (rel dev "
                f"{dev/scale:.3e}, bound 1e-9); band-saturating or "
                f"wrapping field")
    return via


def pair_sum(xi: TwoComponent, other: TwoComponent) -> complex:
    """The plain L2 + L2 inner product of two images, cell-weighted."""
    if xi.lattice != other.lattice:
        raise ValueError("lattices differ")
    v = xi.lattice.volume
    return complex(v * (np.vdot(xi.xi1, other.xi1)
                        + np.vdot(xi.xi2, other.xi2)))


def momentum_apply(field: LatticeField, t0: float | None = None) -> list[LatticeField]:
    """Momentum operator per axis: spectral multiplication by k."""
    if t0 is None:
        t0 = field.t0
    p, m = field.mode_pair(t0)
    out = []
    for k in field.lattice.k_grids:
        out.append(LatticeField(field.lattice, field.params,
                                k * p, k * m, t0=t0))
    return out


# ------------------------------------------------------------------- em


def gauged_laplacian_fft(bg: EMBackground,
                         lattice: MomentumLattice) -> np.ndarray:
    """-(grad - iqA)^2 as a dense matrix, by batched FFTs of the identity.

    The independent route for build_Dq's assembly from one-axis derivative
    matrices: every basis vector goes through numpy's fftn/ifftn at once,
    multiplied by i k from the public k_grids.  The centering phases
    cancel in any multiplier sandwich, so the raw FFTs realize the same
    spectral derivative as the lattice methods.  Column c is the image of
    basis vector c.
    """
    n = lattice.total_nodes
    shape = (n,) + tuple(lattice.nodes)
    basis = np.eye(n, dtype=complex).reshape(shape)
    axes = tuple(range(1, lattice.dim + 1))
    hat = np.fft.fftn(basis, axes=axes)
    total = np.zeros(shape, dtype=complex)
    for i in range(lattice.dim):
        k = lattice.k_grids[i]
        qa = bg.q * bg.avec[i]
        g = np.fft.ifftn(1j * k * hat, axes=axes) - 1j * qa * basis
        gh = np.fft.fftn(g, axes=axes)
        total += np.fft.ifftn(1j * k * gh, axes=axes) - 1j * qa * g
    return -total.reshape(n, n).T


def matrix_power(op: DenseOperator, alpha: float) -> np.ndarray:
    """The dense matrix of op^alpha, rebuilt from the eigensystem."""
    return (op.eigenvectors * op.eigenvalues ** alpha) \
        @ op.eigenvectors.conj().T


def em_gauge_residual_symbolic(phi_profile, psi_solution, sample_events, *,
                               avec_profile=None, q: float,
                               mass: float) -> float:
    """Residual of the scalar-potential phase map, derived symbolically.

    The sympy witness for ``em.em_gauge_residual``: same contract, but
    phi_profile and psi_solution are sympy expressions in the symbols
    (x0, x1, x2) and avec_profile, when given, is a pair of such
    expressions.  Every derivative and the phase integral are taken by
    sympy, then the residual is lambdified and evaluated per event.
    """
    import sympy

    x0, x1, x2 = sympy.symbols("x0 x1 x2", real=True)
    coords = (x0, x1, x2)
    tau = sympy.Symbol("tau", real=True)
    phi = sympy.sympify(phi_profile)
    psi = sympy.sympify(psi_solution)
    if avec_profile is None:
        avec = (sympy.Integer(0), sympy.Integer(0))
    else:
        avec = tuple(sympy.sympify(c) for c in avec_profile)

    def gauged_square(f):
        out = sympy.Integer(0)
        for xi, ai in zip((x1, x2), avec):
            g = sympy.diff(f, xi) - sympy.I * q * ai * f
            out += sympy.diff(g, xi) - sympy.I * q * ai * g
        return out

    u = sympy.exp(sympy.I * q
                  * sympy.integrate(phi.subs(x0, tau), (tau, 0, x0)))
    source = (sympy.diff(psi, x0, 2) + 2 * sympy.I * q * phi * sympy.diff(psi, x0)
              - gauged_square(psi)
              + (sympy.I * q * sympy.diff(phi, x0) - q ** 2 * phi ** 2
                 + mass ** 2) * psi)
    chi = u * psi
    lhs = sympy.diff(chi, x0, 2) + u * (-gauged_square(psi) + mass ** 2 * psi)
    residual = lhs - u * source
    fn = sympy.lambdify(coords, residual, modules="numpy")
    worst = 0.0
    for ev in sample_events:
        try:
            with np.errstate(all="ignore"):
                val = complex(fn(*(np.float64(c) for c in ev)))
        except ZeroDivisionError:
            raise FloatingPointError("manufactured solution is not finite "
                                     f"at event {tuple(ev)!r}") from None
        if not np.isfinite(val.real) or not np.isfinite(val.imag):
            raise FloatingPointError("manufactured solution is not finite "
                                     f"at event {tuple(ev)!r}")
        worst = max(worst, abs(val))
    return worst
