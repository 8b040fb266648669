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


def _halves(grid: np.ndarray) -> np.ndarray:
    """The two contiguous float grids that share one complex grid's bytes."""
    return grid.reshape(-1).view(float).reshape((2,) + grid.shape)


def _bracket(u, v, x, y, c, out):
    """out = c * (conj(u) * v - conj(x) * y) in place; x is overwritten.

    The plain expression's temporaries are all left operands, so each
    product keeps its operand order and its bytes at every grid size (c
    is pure imaginary, and c * z then rounds as z * c does)."""
    np.multiply(np.conj(u, out=out), v, out=out)
    np.multiply(np.conj(x, out=x), y, out=x)
    np.subtract(out, x, out=out)
    return np.multiply(c, out, out=out)


def _fill_ja(field: LatticeField, t: float):
    """J_a and d_t of its time slot in one workspace of 6 + d padded grids.

    Returns (fine, time, space, rate, free), the padded lattice and views
    of the workspace: J^0, the d spatial components, d_t J^0 and slots 0-1,
    which are free again.  Slots 0-1 hold psi and psi_tilde; 2-3 their
    time derivatives, then each axis's derivatives, then the second time
    derivatives; 4 J^0; then J^1..J^d and the rate.
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
    ws = np.empty((6 + lat.dim,) + fine.nodes, dtype=complex)
    psi, til, a, b, time = ws[:5]
    lat.modes_to_grid(psi_modes, PAD, psi)
    lat.modes_to_grid(til_modes, PAD, til)
    lat.modes_to_grid(-1j * w * (pm_p - pm_m), PAD, a)
    lat.modes_to_grid(-1j * w * (tp - tm), PAD, b)
    del pm_p, pm_m, tp, tm

    pref = -0.5j * params.kappa / params.mass
    # d^0 = -d_0 flips both derivative hits:
    # J^0 = pref * (-conj(psi) * tildot + conj(psidot) * til)
    np.multiply(np.negative(np.conj(psi, out=time), out=time), b, out=time)
    np.multiply(np.conj(a, out=a), til, out=a)
    np.multiply(pref, np.add(time, a, out=time), out=time)
    for k, comp in zip(lat.k_grids, ws[5:-1]):
        lat.modes_to_grid(1j * k * psi_modes, PAD, a)
        lat.modes_to_grid(1j * k * til_modes, PAD, b)
        _bracket(psi, b, a, til, pref, comp)
    w2 = w ** 2
    lat.modes_to_grid(-w2 * psi_modes, PAD, a)
    lat.modes_to_grid(-w2 * til_modes, PAD, b)
    _bracket(psi, b, a, til, 0.5j * params.kappa / params.mass, ws[-1])
    return fine, time, ws[5:-1], ws[-1], ws[:2]


def current_Ja(field: LatticeField, t: float) -> FourVectorGrid:
    """Conserved covariant current on the padded grid.

    J^mu = -(i kappa / 2M) [psi* d^mu psi_tilde - (d^mu psi*) psi_tilde],
    with the tilde field carrying sector weights (1+a), -(1-a).
    """
    return _current_and_rate(field, t, "J_a")[0]


def _fill_calja(field: LatticeField, t: float):
    """calJ_a and d_t of its time slot in one workspace of 6 + d padded
    grids, returned as _fill_ja returns J_a.

    Slots 0-1 hold P and Pc; 2-3 each axis's dQ and dQc (then, in place,
    conj(dQ) Pc and conj(dQc) Pc), then P' and Pc'; 4 scratch; then
    J^1..J^d, real with +0 imaginary parts; the last holds the two float
    grids calJ^0 and the rate.  The time slot is
    rho_a's _density on the padded grid (d^0 Q = i Pc and d^0 Qc = i P
    reduce the Im-bracket to it), so
    d_t calJ^0 = (kappa/M) Re{P* P' + Pc* Pc' + a [P'* Pc + P* Pc']}.
    """
    lat = field.lattice
    params = field.params
    w = field.omega
    p, m = field.mode_pair(t)
    psi_m, psic_m = p + m, p - m
    del p, m
    up, down = w ** 0.5, w ** -0.5  # D^{+-1/4} as omega^{+-1/2}
    Q_m, Qc_m = down * psi_m, down * psic_m

    fine = lat.refined(PAD)
    ws = np.empty((6 + lat.dim,) + fine.nodes, dtype=complex)
    P, Pc, a, b, s = ws[:5]
    time, rate = _halves(ws[-1])
    lat.modes_to_grid(up * psi_m, PAD, P)
    lat.modes_to_grid(up * psic_m, PAD, Pc)
    pref = 0.5 * params.kappa / params.mass
    np.multiply(pref, _density(P, Pc, params.a, (time, rate), a), out=time)
    for k, comp in zip(lat.k_grids, ws[5:-1]):
        dQ = lat.modes_to_grid(1j * k * Q_m, PAD, a)
        dQc = lat.modes_to_grid(1j * k * Qc_m, PAD, b)
        # s = conj(P) dQc - conj(dQ) Pc + a [conj(P) dQ - conj(dQc) Pc]
        np.multiply(np.conj(P, out=s), dQc, out=s)
        np.multiply(np.conj(P, out=comp), dQ, out=comp)
        np.subtract(s, np.multiply(np.conj(dQ, out=dQ), Pc, out=dQ), out=s)
        np.subtract(comp, np.multiply(np.conj(dQc, out=dQc), Pc, out=dQc),
                    out=comp)
        np.add(s, np.multiply(params.a, comp, out=comp), out=s)
        np.multiply(pref, s.imag, out=comp.real)
        comp.imag = 0.0

    psidot_m = -1j * w * psic_m     # d_t psi = -i w (p - m)
    psicdot_m = -1j * w * psi_m     # d_t psi_c = i D^{-1/2} psiddot = -i D^{1/2} psi
    P_dot = lat.modes_to_grid(up * psidot_m, PAD, a)
    Pc_dot = lat.modes_to_grid(up * psicdot_m, PAD, b)
    # 2 Re(conj(P) P') + 2 Re(conj(Pc) Pc') + 2a Re(conj(P') Pc + conj(P) Pc')
    np.multiply(np.conj(P, out=s), P_dot, out=s)
    np.multiply(2.0, s.real, out=rate)
    np.multiply(np.conj(Pc, out=s), Pc_dot, out=s)
    np.add(rate, np.multiply(2.0, s.real, out=s.real), out=rate)
    np.multiply(np.conj(P_dot, out=P_dot), Pc, out=P_dot)
    np.multiply(np.conj(P, out=s), Pc_dot, out=s)
    np.add(P_dot, s, out=P_dot)
    np.multiply(2.0 * params.a, P_dot.real, out=P_dot.real)
    np.multiply(pref, np.add(rate, P_dot.real, out=rate), out=rate)
    return fine, time, ws[5:-1], rate, ws[:2]


def current_calJa(field: LatticeField, t: float) -> FourVectorGrid:
    """Probability current: real-valued, nonnegative time slot, not conserved.

    (kappa/2M) Im{ P* d^mu Qc - Pc (d^mu Q)*
                   + a [P* d^mu Q - Pc (d^mu Qc)*] }
    with P = D^{1/4} psi, Pc = D^{1/4} psi_c, Q = D^{-1/4} psi,
    Qc = D^{-1/4} psi_c.
    """
    return _current_and_rate(field, t, "calJ_a")[0]


def _density(P, Pc, a, out, scratch):
    """|P|^2 + |Pc|^2 + 2a Re(P* Pc) of P = D^{1/4}psi, Pc = D^{1/4}psi_c,
    into out[0] of the two float grids out; scratch is a complex grid,
    P itself if P may go."""
    sq, term = out
    np.square(np.abs(P, out=sq), out=sq)
    np.add(sq, np.square(np.abs(Pc, out=term), out=term), out=sq)
    np.multiply(np.conj(P, out=scratch), Pc, out=scratch)
    return np.add(sq, np.multiply(2 * a, scratch.real, out=term), out=sq)


def rho_a(field: LatticeField, t: float) -> np.ndarray:
    """Probability density (kappa/2M) _density(D^{1/4}psi, D^{1/4}psi_c, a),
    calJ_a's time slot, on the native grid.

    Nonnegative by the arithmetic-geometric inequality with |a| < 1;
    rounding negatives below 1e-14 of the max are clipped, anything
    larger raises, and so does a non-finite value.
    """
    lat, params, up = field.lattice, field.params, field.omega ** 0.5
    p, m = field.mode_pair(t)
    P = lat.modes_to_grid(up * (p + m))
    dens = _density(P, lat.modes_to_grid(up * (p - m)), params.a,
                    np.empty((2,) + P.shape), P)
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


_FILL = {"J_a": _fill_ja, "calJ_a": _fill_calja}


def _current_and_rate(field: LatticeField, t: float, which: str):
    """The current and d_t of its time slot, copied out of the workspace."""
    fine, time, space, rate, _ = _FILL[which](field, t)
    comps = np.concatenate((time[None], space.real if np.isrealobj(time)
                            else space))
    return FourVectorGrid(comps, fine), rate.copy()


def _continuity(field: LatticeField, t: float, which: str):
    """(scale, div, spare): the current's max-norm, its pointwise
    d_mu (current)^mu grid and a free float grid, from one workspace.

    sum_i i k_i FFT(J^i) is summed in mode space, in a free slot, from
    the spectra that grid_to_modes returns, and synthesized there once.
    """
    fine, time, space, rate, (div, spare) = _FILL[which](field, t)
    spare = _halves(spare)[0]
    # np.max keeps a nan that max() of the component maxima could drop
    scale = np.max([np.abs(g, out=spare).max() for g in (time, *space)])
    for i, (k, comp) in enumerate(zip(fine.k_grids, space)):
        term = fine.grid_to_modes(comp)
        # the first sum is 0.0 + term, which turns every -0 into +0
        np.add(div if i else 0.0, np.multiply(1j * k, term, out=term), out=div)
        del term    # before the next spectrum is made
    fine.modes_to_grid(div, out=div)
    return max(scale, 1e-300), np.add(rate, div, out=div), spare


def continuity_residual(field: LatticeField, t: float,
                        which: str = "J_a") -> float:
    """Max-norm of d_mu (current)^mu relative to the current's max-norm.

    Time derivative is exact (mode phases); spatial divergence is
    spectral on the padded grid where the quadratic product is fully
    resolved.
    """
    if which not in _FILL:
        raise ValueError("which must be 'J_a' or 'calJ_a'")
    scale, div, spare = _continuity(field, t, which)
    return float(np.abs(div, out=spare).max() / scale)


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
