"""Mass-ladder convergence to the Schrodinger description."""

import numpy as np
import pytest

from kgfield.core import (
    LatticeField,
    ModelParams,
    MomentumLattice,
    from_initial_data,
    random_field,
)
from kgfield.limits import (
    DEFAULT_MASSES,
    LimitSweep,
    fit_slope,
    limit_deviation,
    operator_expansion_deviation,
    schrodinger_deviation,
    schrodinger_reference,
)

from oracles import (
    conjugate_deviation,
    current_mutual_deviation,
    schrodinger_residual,
    tilde_deviation,
)

LADDER = tuple(1.5 * 2.0 ** j for j in range(6))


def make_sweep(a=0.3):
    lat = MomentumLattice([16.0], [128])
    return LimitSweep(lat, sigma=1.5, kcarrier=(0.4,), a=a, masses=LADDER)


def test_reference_plane_wave():
    lat = MomentumLattice([8.0], [32])
    params = ModelParams(mass=1.5)
    phi = np.zeros(32, dtype=complex)
    phi[4] = 0.6 + 0.2j
    f = LatticeField(lat, params, phi, np.zeros_like(phi))
    k = lat.k_grids[0][4]
    rho, j = schrodinger_reference(f, 0.9)
    mag = abs(phi[4]) ** 2
    assert np.abs(rho - mag).max() < 1e-13 * mag
    assert np.abs(j[0] - mag * k / params.mass).max() < 1e-13 * mag


def test_reference_standing_and_zero():
    lat = MomentumLattice([8.0], [64])
    params = ModelParams(mass=1.0)
    seed = random_field(lat, params, seed=7)
    psi0 = seed.psi_grid(0.0).real    # band-limited real profile
    f = from_initial_data(lat, params, psi0, np.zeros_like(psi0))
    rho, j = schrodinger_reference(f, 0.0)
    assert np.abs(j).max() < 1e-13 * rho.max()
    zero = LatticeField(lat, params, np.zeros(64, dtype=complex),
                        np.zeros(64, dtype=complex))
    rho, j = schrodinger_reference(zero, 0.0)
    assert rho.max() == 0.0 and np.abs(j).max() == 0.0


def test_sweep_validation():
    lat = MomentumLattice([16.0], [128])
    with pytest.raises(ValueError):
        LimitSweep(lat, sigma=1.5, kcarrier=(0.4,), masses=(1.0, 2.0, 4.0))
    with pytest.raises(ValueError):
        LimitSweep(lat, sigma=1.5, kcarrier=(0.4,), masses=(1.0, 2.0, 2.0, 4.0))
    with pytest.raises(ValueError):
        LimitSweep(lat, sigma=1.5, kcarrier=(0.0,))
    with pytest.raises(ValueError):
        LimitSweep(lat, sigma=1.5, kcarrier=(0.4, 0.4))
    with pytest.raises(ValueError):
        LimitSweep(lat, sigma=1.5, kcarrier=(0.4,), a=1.0)


def test_kappa_convention_enforced():
    sweep = make_sweep(a=0.25)
    assert sweep.kappa == pytest.approx(1.0 / 1.25)
    p = sweep.params(3.0)
    assert p.kappa == pytest.approx(1.0 / 1.25)
    assert p.a == 0.25
    assert sweep.packet(3.0).params.kappa == pytest.approx(1.0 / 1.25)


def test_fit_slope_validation():
    with pytest.raises(ValueError):
        fit_slope([1.0, 2.0, 4.0], [1e-1, 1e-2, 1e-3])
    with pytest.raises(ValueError):
        fit_slope([1.0, 2.0, 4.0, 8.0], [1e-1, 0.0, 1e-3, 1e-4])
    slope = fit_slope([1.0, 2.0, 4.0, 8.0], [1.0, 0.25, 0.0625, 0.015625])
    assert slope == pytest.approx(-2.0)


def test_a_nan_fails_the_ladder_checks():
    lat = MomentumLattice([16.0], [128])
    for masses in ((1.5, np.nan, 6.0, 12.0), (1.5, 3.0, 6.0, np.inf),
                   (np.nan, 3.0, 6.0, 12.0), (-np.inf, 3.0, 6.0, 12.0)):
        with pytest.raises(ValueError, match="mass ladder"):
            LimitSweep(lat, sigma=1.5, kcarrier=(0.4,), masses=masses)
    good = [1.0, 2.0, 3.0, 4.0]
    for bad in ([1.0, np.nan, 3.0, 4.0], [1.0, 2.0, 3.0, np.inf],
                [-1.0, 2.0, 3.0, 4.0]):
        for masses, deviations in ((good, bad), (bad, good)):
            with pytest.raises(ValueError, match="positive and finite"):
                fit_slope(masses, deviations)


def test_operator_expansion_slope():
    lat = MomentumLattice([16.0], [128])
    k = lat.k_grids[0]
    # band-limited by construction: a gaussian directly in mode space has
    # no grid-seam tail to pollute the high-order fit
    prof = np.exp(-((k - 0.4) ** 2))
    devs = [operator_expansion_deviation(lat, M, prof) for M in LADDER]
    assert all(d2 < d1 for d1, d2 in zip(devs, devs[1:]))
    assert -5.4 <= fit_slope(LADDER, devs) <= -4.6


def test_conjugate_and_tilde_slopes():
    sweep = make_sweep(a=0.3)
    conj_devs = [conjugate_deviation(sweep.packet(M)) for M in LADDER]
    tilde_devs = [tilde_deviation(sweep.packet(M)) for M in LADDER]
    assert -2.4 <= fit_slope(LADDER, conj_devs) <= -1.6
    assert -2.4 <= fit_slope(LADDER, tilde_devs) <= -1.6
    # the a-weighted combination tends to (1+a) psi, so the two ladders
    # differ by exactly the constant 1/(1+a)
    ratio = np.asarray(tilde_devs) / np.asarray(conj_devs)
    assert np.allclose(ratio, 1.0 / 1.3, rtol=1e-12)


def test_schrodinger_residual_slope():
    sweep = make_sweep()
    devs = [schrodinger_residual(sweep.packet(M)) for M in LADDER]
    assert -2.4 <= fit_slope(LADDER, devs) <= -1.6


@pytest.mark.parametrize("which", ["J_a", "calJ_a"])
def test_current_limits(which):
    sweep = make_sweep(a=0.3)
    out = limit_deviation(sweep, which)
    assert -2.4 <= out["slope_rho"] <= -1.6
    assert -2.4 <= out["slope_j"] <= -1.6
    assert out["dev_rho"][-1] < 1e-3
    assert out["dev_j"][-1] < 1e-3


def test_limit_rows_are_per_mass_schrodinger_deviations():
    sweep = make_sweep(a=0.3)
    out = limit_deviation(sweep, "calJ_a")
    for mass, dr, dj in zip(sweep.masses, out["dev_rho"], out["dev_j"]):
        assert (dr, dj) == schrodinger_deviation(sweep.packet(mass), "calJ_a", 0.7)
    with pytest.raises(ValueError):
        schrodinger_deviation(sweep.packet(1.5), "K_a", 0.7)


def test_limit_deviation_rejects_unknown_family():
    with pytest.raises(ValueError):
        limit_deviation(make_sweep(), "K_a")


def test_mutual_deviation_decays():
    # the two families share their leading relativistic correction, so
    # the mutual gap falls off at least as fast as either family's own
    # distance to the limit (measured near slope -3)
    out = current_mutual_deviation(make_sweep(a=0.3), t=0.7)
    assert out["slope"] <= -1.6
    assert all(d2 < d1 for d1, d2 in zip(out["dev"], out["dev"][1:]))


def test_default_ladder_is_geometric():
    m = np.asarray(DEFAULT_MASSES)
    assert m.size == 6
    assert np.allclose(m[1:] / m[:-1], 2.0)
