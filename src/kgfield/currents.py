"""Conserved current, probability current, densities, and closed-form oracles.

Two current families live here.  current_Ja is the conserved, covariant
one built from the charge-graded field; current_calJa is the genuinely
probabilistic one built from quarter-power frequency weights, which is
real and nonnegative in its time slot but neither conserved nor
covariant.  Closed forms make both failure modes quantitative:
planewave_current_Ja sums any PlaneWaveField, and two_mode_oracle and
noncovariance_demo take a PlaneWaveField of two positive-energy modes
with non-zero coefficients and raise ValueError for any other.

Quadratic products double the spectral bandwidth, so every grid current
is evaluated on a 2x zero-padded lattice and spatial derivatives are
taken spectrally there; continuity then holds at rounding level instead
of at aliasing level.  Time derivatives always come from mode phases.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import (
    Boost,
    LatticeField,
    PlaneWaveField,
    boost_planewave,
    minkowski_dot,
)

PAD = 2   # bandwidth factor for quadratic products


@dataclass
class FourVectorGrid:
    """d+1 component grids sampled on an evaluation lattice at fixed t."""

    components: np.ndarray           # shape (d+1, *grid_shape)
    lattice: "object"                # lattice the grids are sampled on

    def __post_init__(self):
        if self.components.shape[0] != len(self.lattice.nodes) + 1:
            raise ValueError("component count must be d + 1")


def _ja_and_rate(field: LatticeField, t: float):
    """current_Ja and d_t of its time slot, from one set of padded grids.

    d_t J^0 = (i kappa / 2M) [psi* psi_tilde'' - (psi'')* psi_tilde]:
    the first-derivative terms cancel, and psi'' = -omega^2 psi.
    """
    lat = field.lattice
    params = field.params
    pm_p, pm_m = field.mode_pair(t)
    psi_modes = pm_p + pm_m
    tp, tm = (1.0 + params.a) * pm_p, -(1.0 - params.a) * pm_m
    til_modes = tp + tm
    w = field.omega
    fine = lat.refined(PAD)
    # slots 0-3: psi, til, psidot, tildot; 4-5: each axis's derivatives,
    # then the second time derivatives
    ws = np.empty((6,) + fine.nodes, dtype=complex)

    psi = lat.modes_to_grid(psi_modes, PAD, ws[0])
    til = lat.modes_to_grid(til_modes, PAD, ws[1])
    psidot = lat.modes_to_grid(-1j * w * (pm_p - pm_m), PAD, ws[2])
    tildot = lat.modes_to_grid(-1j * w * (tp - tm), PAD, ws[3])

    pref = -0.5j * params.kappa / params.mass
    comps = np.empty((lat.dim + 1,) + psi.shape, dtype=complex)
    # d^0 = -d_0: both derivative hits flip sign
    comps[0] = pref * (-np.conj(psi) * tildot + np.conj(psidot) * til)
    for i, k in enumerate(lat.k_grids):
        dpsi = lat.modes_to_grid(1j * k * psi_modes, PAD, ws[4])
        dtil = lat.modes_to_grid(1j * k * til_modes, PAD, ws[5])
        comps[1 + i] = pref * (np.conj(psi) * dtil - np.conj(dpsi) * til)
    w2 = w ** 2
    psidd = lat.modes_to_grid(-w2 * psi_modes, PAD, ws[4])
    tildd = lat.modes_to_grid(-w2 * til_modes, PAD, ws[5])
    dj0dt = (0.5j * params.kappa / params.mass
             * (np.conj(psi) * tildd - np.conj(psidd) * til))
    cur = FourVectorGrid(comps, fine)
    return cur, dj0dt


def current_Ja(field: LatticeField, t: float) -> FourVectorGrid:
    """Conserved covariant current on the padded grid.

    J^mu = -(i kappa / 2M) [psi* d^mu psi_tilde - (d^mu psi*) psi_tilde],
    with the tilde field carrying sector weights (1+a), -(1-a).
    """
    return _ja_and_rate(field, t)[0]


def _calja_and_rate(field: LatticeField, t: float):
    """current_calJa and d_t of its time slot, from one set of padded grids.

    The time slot is rho_a's _density on the padded grid (d^0 Q = i Pc and
    d^0 Qc = i P reduce the Im-bracket to it), so
    d_t calJ^0 = (kappa/M) Re{P* P' + Pc* Pc' + a [P'* Pc + P* Pc']}.
    Each spatial component is assembled as soon as its two grids exist.
    """
    lat = field.lattice
    params = field.params
    w = field.omega
    p, m = field.mode_pair(t)
    psi_m = p + m
    psic_m = p - m
    psidot_m = -1j * w * (p - m)
    psicdot_m = -1j * w * (p + m)   # d_t psi_c = i D^{-1/2} psiddot = -i D^{1/2} psi
    up, down = w ** 0.5, w ** -0.5  # D^{+-1/4} as omega^{+-1/2}
    Q_m, Qc_m = down * psi_m, down * psic_m

    fine = lat.refined(PAD)
    # slots 0-1: P, Pc; 2-3: each axis's derivatives, then the time ones
    ws = np.empty((4,) + fine.nodes, dtype=complex)
    P = lat.modes_to_grid(up * psi_m, PAD, ws[0])
    Pc = lat.modes_to_grid(up * psic_m, PAD, ws[1])
    pref = 0.5 * params.kappa / params.mass
    comps = np.empty((lat.dim + 1,) + P.shape, dtype=float)
    comps[0] = pref * _density(P, Pc, params.a)
    for i, k in enumerate(lat.k_grids):
        dQ = lat.modes_to_grid(1j * k * Q_m, PAD, ws[2])
        dQc = lat.modes_to_grid(1j * k * Qc_m, PAD, ws[3])
        s = (np.conj(P) * dQc - Pc * np.conj(dQ)
             + params.a * (np.conj(P) * dQ - Pc * np.conj(dQc)))
        comps[1 + i] = pref * np.imag(s)

    P_dot = lat.modes_to_grid(up * psidot_m, PAD, ws[2])
    Pc_dot = lat.modes_to_grid(up * psicdot_m, PAD, ws[3])
    s = (np.conj(P_dot) * Pc + np.conj(P) * Pc_dot)
    dj0dt = pref * (2.0 * np.real(np.conj(P) * P_dot)
                    + 2.0 * np.real(np.conj(Pc) * Pc_dot)
                    + 2.0 * params.a * np.real(s))
    cur = FourVectorGrid(comps, fine)
    return cur, dj0dt


def current_calJa(field: LatticeField, t: float) -> FourVectorGrid:
    """Probability current: real-valued, nonnegative time slot, not conserved.

    (kappa/2M) Im{ P* d^mu Qc - Pc (d^mu Q)*
                   + a [P* d^mu Q - Pc (d^mu Qc)*] }
    with P = D^{1/4} psi, Pc = D^{1/4} psi_c, Q = D^{-1/4} psi,
    Qc = D^{-1/4} psi_c.
    """
    return _calja_and_rate(field, t)[0]


def _density(P: np.ndarray, Pc: np.ndarray, a: float) -> np.ndarray:
    """|P|^2 + |Pc|^2 + 2a Re(P* Pc) of P = D^{1/4}psi, Pc = D^{1/4}psi_c."""
    return np.abs(P) ** 2 + np.abs(Pc) ** 2 + 2 * a * np.real(np.conj(P) * Pc)


def rho_a(field: LatticeField, t: float) -> np.ndarray:
    """Probability density (kappa/2M) _density(D^{1/4}psi, D^{1/4}psi_c, a),
    calJ_a's time slot, on the native grid.

    Nonnegative by the arithmetic-geometric inequality with |a| < 1;
    rounding negatives below 1e-14 of the max are clipped, anything
    larger raises, and so does a non-finite value.
    """
    lat, params, up = field.lattice, field.params, field.omega ** 0.5
    p, m = field.mode_pair(t)
    dens = _density(lat.modes_to_grid(up * (p + m)),
                    lat.modes_to_grid(up * (p - m)), params.a)
    dens *= 0.5 * params.kappa / params.mass
    if not np.isfinite(dens).all():
        raise FloatingPointError("density is not finite")
    top = dens.max() if dens.size else 0.0
    floor = -1e-14 * max(top, 1e-300)
    if dens.min() < floor:
        raise FloatingPointError("density came out negative beyond rounding")
    return np.clip(dens, 0.0, None)


def total_probability(field: LatticeField, t: float) -> float:
    """Box integral of the probability density (exact on the native grid)."""
    return float(field.lattice.integrate(rho_a(field, t)))


_CURRENT_AND_RATE = {"J_a": _ja_and_rate, "calJ_a": _calja_and_rate}


def _divergence(field: LatticeField, t: float, which: str):
    """The current and its pointwise d_mu (current)^mu grid."""
    cur, dj0dt = _CURRENT_AND_RATE[which](field, t)
    lattice = cur.lattice
    div = 0.0      # sum_i i k_i FFT(J^i), synthesized once
    for k, comp in zip(lattice.k_grids, cur.components[1:]):
        div = div + 1j * k * lattice.grid_to_modes(np.asarray(comp, complex))
    return cur, dj0dt + lattice.modes_to_grid(div)


def continuity_residual(field: LatticeField, t: float,
                        which: str = "J_a") -> float:
    """Max-norm of d_mu (current)^mu relative to the current's max-norm.

    Time derivative is exact (mode phases); spatial divergence is
    spectral on the padded grid where the quadratic product is fully
    resolved.
    """
    if which not in _CURRENT_AND_RATE:
        raise ValueError("which must be 'J_a' or 'calJ_a'")
    cur, div = _divergence(field, t, which)
    scale = max(np.abs(cur.components).max(), 1e-300)
    return float(np.abs(div).max() / scale)


# ------------------------------------------------------------ plane waves


def planewave_current_Ja(field: PlaneWaveField, events: np.ndarray) -> np.ndarray:
    """Closed-form conserved current of a finite plane-wave superposition.

    J^mu(x) = (kappa/2M) sum_{lm} conj(c_l) c_m (eps_m + a)
              (p_l + p_m)^mu e^{i(eta_m - eta_l)}.
    Returns an (n_events, d+1) complex array of contravariant components.
    """
    events = np.atleast_2d(np.asarray(events, dtype=float))
    params = field.params
    fv = field.mode_fourvectors()                    # rows (eps w, k)
    coeffs = np.array([c for _, _, c in field.modes])
    eps = np.array([e for e, _, _ in field.modes], dtype=float)
    # eta(p, x) = -p^0 t + k.x per event and mode
    eta = events[:, 1:] @ fv[:, 1:].T - events[:, :1] * fv[:, 0][None, :]
    phase = np.exp(1j * eta)                         # (nev, nm)
    pref = 0.5 * params.kappa / params.mass
    nm = len(coeffs)
    d1 = fv.shape[1]
    out = np.zeros((events.shape[0], d1), dtype=complex)
    for l in range(nm):
        for m in range(nm):
            amp = np.conj(coeffs[l]) * coeffs[m] * (eps[m] + params.a)
            psum = fv[l] + fv[m]
            cross = np.conj(phase[:, l]) * phase[:, m]
            out += pref * amp * cross[:, None] * psum[None, :]
    return out


# -------------------------------------------------------- two-mode oracle


def _two_mode_fourvectors(field: PlaneWaveField) -> np.ndarray:
    """Rows p1, p2 of a field of two positive-energy modes with non-zero
    coefficients, the only fields the closed forms below describe."""
    if len(field.modes) != 2:
        raise ValueError("needs exactly two modes")
    if any(eps != 1 for eps, _, _ in field.modes):
        raise ValueError("both modes must be positive-energy")
    if any(c == 0 for _, _, c in field.modes):
        raise ValueError("needs two nonzero coefficients")
    return field.mode_fourvectors()


def two_mode_oracle(field: PlaneWaveField, x: np.ndarray) -> dict:
    """All the closed forms at one event x = (t, x1..xd).

    K^mu mixes the two on-shell four-vectors with square-root frequency
    ratios; its squared length uses the assigned k.k = -M^2, which is
    exactly what makes it fail to be a scalar.
    """
    x = np.asarray(x, dtype=float)
    p1, p2 = _two_mode_fourvectors(field)
    (_, _, c1), (_, _, c2) = field.modes
    params = field.params
    w1, w2 = p1[0], p2[0]
    r12 = np.sqrt(w2 / w1)
    K = r12 * p1 + p2 / r12
    dot12 = minkowski_dot(p1, p2)
    Ksq = 2.0 * dot12 - params.mass ** 2 * (w2 / w1 + w1 / w2)

    eta1 = -p1[0] * x[0] + p1[1:] @ x[1:]
    eta2 = -p2[0] * x[0] + p2[1:] @ x[1:]
    cross = c1 * np.conj(c2) * np.exp(1j * (eta1 - eta2))
    base = (np.abs(c1) ** 2 * p1 + np.abs(c2) ** 2 * p2)
    fac = params.kappa / params.mass

    calJ = (1.0 + params.a) * fac * (base + np.real(cross) * K)
    J = (1.0 + params.a) * fac * (base + np.real(cross) * (p1 + p2))
    F = -(1.0 + params.a) * fac * np.imag(cross)
    div_calJ = ((params.mass ** 2 + dot12)
                * (np.sqrt(w1 / w2) - np.sqrt(w2 / w1)) * F)
    return {
        "calJ": calJ,
        "J": J.astype(complex),
        "K": K,
        "Ksq": float(Ksq),
        "div_calJ": float(div_calJ),
        "div_J": 0.0,
    }


def noncovariance_demo(field: PlaneWaveField, boost: Boost) -> dict:
    """Boost the two modes exactly and watch K.K change.

    The honest scalar 2 k1.k2 stays put; the frequency-ratio term does
    not, which is the whole point.
    """
    p1, p2 = _two_mode_fourvectors(field)
    if abs(p1[0] - p2[0]) < 1e-9:
        raise ValueError("equal mode frequencies: the obstruction vanishes")
    boosted = boost_planewave(field, boost)
    q1, q2 = boosted.mode_fourvectors()
    origin = np.zeros(field.dim + 1)
    before = two_mode_oracle(field, origin)["Ksq"]
    after = two_mode_oracle(boosted, origin)["Ksq"]
    return {
        "Ksq_before": before,
        "Ksq_after": after,
        "delta": abs(after - before),
        "dot_before": float(minkowski_dot(p1, p2)),
        "dot_after": float(minkowski_dot(q1, q2)),
    }
