"""Nonrelativistic-limit diagnostics: mass ladders and decay-rate fits.

With M = (mass) x (speed of light) in natural units, dialing the speed
of light up at fixed particle content means growing M while the spatial
profile stays put.  Every limit statement then becomes a measurable
decay rate along a geometric ladder of masses, fitted in log-log.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dataclass_field

import numpy as np

from .core import LatticeField, ModelParams, MomentumLattice, schrodinger_packet
from .currents import _CURRENT_AND_RATE, PAD

DEFAULT_MASSES = tuple(0.75 * 2.0 ** j for j in range(6))

# time after a packet's reference slice at which a limit is measured: at
# the slice itself the first correction degenerates
LIMIT_TIME = 0.7


def _l2(grid: np.ndarray) -> float:
    return float(np.linalg.norm(np.ravel(grid)))


def fit_slope(masses, deviations) -> float:
    """Least-squares slope of log(dev) against log(M)."""
    masses = np.asarray(masses, dtype=float)
    deviations = np.asarray(deviations, dtype=float)
    if masses.size < 4:
        raise ValueError("ladder too short for a slope fit (need >= 4)")
    if not all(np.all((0.0 < v) & (v < np.inf)) for v in (masses, deviations)):
        raise ValueError("masses and deviations must be positive and finite")
    return float(np.polyfit(np.log(masses), np.log(deviations), 1)[0])


def limit_kappa(a: float) -> float:
    """The limit convention kappa = 1/(1+a), the choice that sends the
    currents to the Schrodinger pair."""
    return 1.0 / (1.0 + a)


@dataclass(frozen=True)
class LimitSweep:
    """Fixed spatial packet swept over a geometric mass ladder.

    The profile (width sigma, carrier kcarrier) is held fixed; only the
    mass moves.  The normalization convention of limit_kappa,
    kappa = 1/(1+a), is baked in.
    """

    lattice: MomentumLattice
    sigma: float
    kcarrier: tuple
    a: float = 0.0
    masses: tuple = dataclass_field(default=DEFAULT_MASSES)

    def __post_init__(self):
        if not -1.0 < self.a < 1.0:
            raise ValueError("sector weight parameter must lie in (-1, 1)")
        if len(self.masses) < 4:
            raise ValueError("mass ladder needs at least 4 points")
        m = np.asarray(self.masses, dtype=float)
        if not (0.0 < m[0] and m[-1] < np.inf and np.all(np.diff(m) > 0.0)):
            raise ValueError("mass ladder must be positive, finite, increasing")
        k = np.asarray(self.kcarrier, dtype=float)
        if k.size != self.lattice.dim:
            raise ValueError("carrier dimension mismatch")
        if np.all(k == 0.0):
            raise ValueError(
                "zero carrier gives a vanishing reference current; "
                "pick a moving packet")

    @property
    def kappa(self) -> float:
        return self.params(1.0).kappa

    def params(self, mass: float) -> ModelParams:
        return ModelParams(mass=float(mass), kappa=limit_kappa(self.a), a=self.a)

    def packet(self, mass: float) -> LatticeField:
        return schrodinger_packet(self.lattice, self.params(mass),
                                  self.sigma, kcarrier=self.kcarrier)


def schrodinger_reference(field: LatticeField, t: float) -> tuple:
    """Schrodinger probability density and current of the field value.

    rho = |psi|^2 and j = -(i/2M)[psi* grad psi - psi grad psi*]
    = Im(psi* grad psi)/M with the gradient spectral, sampled on the
    PAD-refined grid so the output aligns with the relativistic currents.
    """
    lat = field.lattice
    mass = field.params.mass
    psi_m = field.mode_psi(t)
    # slot 0: psi; slot 1: each axis's gradient in turn
    ws = np.empty((2,) + lat.refined(PAD).nodes, dtype=complex)
    psi = lat.modes_to_grid(psi_m, PAD, ws[0])
    rho = np.abs(psi) ** 2
    jvec = np.empty((lat.dim,) + psi.shape, dtype=float)
    for i, k in enumerate(lat.k_grids):
        cross = np.conj(psi) * lat.modes_to_grid(1j * k * psi_m, PAD, ws[1])
        jvec[i] = np.imag(cross) * (1.0 / mass)   # rounds as -(i/2M)(c - c*)
    return rho, jvec


def operator_expansion_deviation(lattice: MomentumLattice, mass: float,
                                 profile_modes: np.ndarray) -> float:
    """Error of the two-term inverse-square-root expansion, mode-wise.

    Measures ||(D^{-1/2} - (1/M - k^2/(2 M^3))) phi|| / ||phi|| for a
    fixed band-limited profile; the leading neglected term carries M^-5.
    """
    w = lattice.omega(mass)
    approx = 1.0 / mass - lattice.ksq / (2.0 * mass ** 3)
    diff = (1.0 / w - approx) * profile_modes
    return _l2(diff) / _l2(profile_modes)


def schrodinger_deviation(field: LatticeField, which: str,
                          t: float) -> tuple[float, float]:
    """Relative L2 distances of a current from its Schrodinger pair at t.

    Returns (time slot vs rho, spatial part vs j) for one field, with
    the current family named by which.
    """
    if which not in _CURRENT_AND_RATE:
        raise ValueError(f"unknown current family {which!r}")
    cur = _CURRENT_AND_RATE[which](field, t)[0]
    rho, jvec = schrodinger_reference(field, t)
    return (_l2(cur.components[0] - rho) / _l2(rho),
            _l2(cur.components[1:] - jvec) / max(_l2(jvec), 1e-300))


def limit_deviation(sweep: LimitSweep, which: str) -> dict:
    """Deviation of the chosen current from its Schrodinger limit.

    For each ladder mass, builds the packet (reference slice t = 0) and
    records the relative L2 deviations of schrodinger_deviation at
    LIMIT_TIME.  Returns the table along with fitted log-log slopes; both
    should sit near -2.
    """
    dev_rho, dev_j = zip(*(schrodinger_deviation(sweep.packet(mass), which,
                                                 LIMIT_TIME)
                           for mass in sweep.masses))
    masses = np.asarray(sweep.masses, dtype=float)
    return {
        "which": which,
        "masses": masses,
        "dev_rho": np.asarray(dev_rho),
        "dev_j": np.asarray(dev_j),
        "slope_rho": fit_slope(masses, dev_rho),
        "slope_j": fit_slope(masses, dev_j),
    }
