"""Current families: conservation, covariance dichotomy, closed-form oracles."""

import numpy as np
import pytest

from kgfield.core import (
    Boost,
    LatticeField,
    ModelParams,
    MomentumLattice,
    PlaneWaveField,
    boost_planewave,
    energy_split,
    from_initial_data,
    random_field,
)
from kgfield.currents import (
    _continuity,
    continuity_residual,
    current_calJa,
    current_Ja,
    noncovariance_demo,
    planewave_current_Ja,
    rho_a,
    total_probability,
    two_mode_oracle,
)
from kgfield.inner import inner_a

from oracles import (
    density_Ja_direct,
    planewave_current_calJa,
    rho_a_symmetrized,
    split_re_im,
)


def divergence_grid(field: LatticeField, t: float) -> np.ndarray:
    """Pointwise d_mu calJ_a^mu of the probability current (not normalized),
    the grid whose max-norm continuity_residual(field, t, "calJ_a") scales."""
    return np.real(_continuity(field, t, "calJ_a")[1])


def test_single_mode_currents():
    lat = MomentumLattice([8.0], [32])
    params = ModelParams(mass=1.5, kappa=0.7, a=0.3)
    c = 0.8 - 0.3j
    modes = np.zeros(32, dtype=complex)
    modes[3] = c
    zero = np.zeros_like(modes)
    k = 2 * np.pi * 3 / 8.0
    w = np.sqrt(k * k + params.mass ** 2)

    plus = LatticeField(lat, params, modes.copy(), zero.copy())
    cur = current_Ja(plus, 0.4)
    expect0 = params.kappa * (1 + params.a) / params.mass * abs(c) ** 2 * w
    expect1 = params.kappa * (1 + params.a) / params.mass * abs(c) ** 2 * k
    assert np.abs(cur.components[0] - expect0).max() < 1e-12 * expect0
    assert np.abs(cur.components[1] - expect1).max() < 1e-12 * expect0
    assert np.abs(cur.components.imag).max() < 1e-13 * expect0

    minus = LatticeField(lat, params, zero.copy(), modes.copy())
    cm = current_Ja(minus, 0.4)
    # negative sector: coefficient -(1-a) against four-vector (-w, k)
    expect0m = params.kappa * (1 - params.a) / params.mass * abs(c) ** 2 * w
    assert np.abs(cm.components[0] - expect0m).max() < 1e-12 * expect0m
    assert cm.components[0].real.min() > 0


def test_time_component_matches_direct_form():
    lat = MomentumLattice([7.0, 5.0], [16, 16])
    params = ModelParams(mass=1.1, kappa=1.4, a=-0.6)
    f = random_field(lat, params, seed=11)
    cur = current_Ja(f, 0.9)
    direct = density_Ja_direct(f, 0.9)
    scale = np.abs(direct).max()
    assert np.abs(cur.components[0] - direct).max() < 1e-12 * scale


def test_mixed_energy_time_component_is_complex_somewhere():
    lat = MomentumLattice([8.0], [32])
    params = ModelParams(mass=1.0, a=0.2)
    f = random_field(lat, params, seed=13)
    cur = current_Ja(f, 0.0)
    assert np.abs(cur.components[0].imag).max() > 1e-6 * np.abs(
        cur.components[0]).max()


@pytest.mark.parametrize("a", [-0.9, 0.0, 0.9])
def test_conserved_current_continuity(a):
    lat = MomentumLattice([6.0, 6.0], [24, 24])
    params = ModelParams(mass=0.8, kappa=1.1, a=a)
    for seed in (1, 2, 3):
        f = random_field(lat, params, seed=seed)
        assert continuity_residual(f, 0.7, "J_a") < 1e-12


def test_probability_current_not_conserved_generically():
    lat = MomentumLattice([6.0], [32])
    params = ModelParams(mass=1.0, a=0.0)
    f = random_field(lat, params, seed=5)
    assert continuity_residual(f, 0.3, "calJ_a") > 1e-4


def test_probability_time_slot_and_density_routes():
    lat = MomentumLattice([9.0], [64])
    params = ModelParams(mass=1.2, kappa=0.9, a=0.55)
    f = random_field(lat, params, seed=17)
    cur = current_calJa(f, 1.1)
    # the half-angle route on the padded grid, independent of _density
    alt = rho_a_symmetrized(f, 1.1, pad=2)
    scale = alt.max()
    assert np.abs(cur.components[0] - alt).max() < 1e-12 * scale
    assert cur.components[0].min() >= 0.0
    dens = rho_a(f, 1.1)
    assert np.abs(rho_a_symmetrized(f, 1.1) - dens).max() < 1e-12 * scale
    # the native grid is every other node of the padded one
    assert np.abs(cur.components[0][::2] - dens).max() < 1e-12 * scale
    assert np.abs(cur.components.imag).max() == 0.0  # real dtype by construction


def test_rho_a_rejects_non_finite_density():
    # fields reject NaN at construction, so the NaN goes into a finite
    # field in place; dens.min() < floor is False for NaN and np.clip
    # keeps it, so only an explicit check stops it
    lat = MomentumLattice([9.0], [64])
    f = random_field(lat, ModelParams(mass=1.2, kappa=0.9, a=0.55), seed=17)
    f.phi_minus[7] = np.nan
    with pytest.raises(FloatingPointError, match="not finite"):
        rho_a(f, 0.4)


def test_total_probability_routes_and_conservation():
    lat = MomentumLattice([10.0], [64])
    params = ModelParams(mass=1.0, kappa=1.3, a=-0.4)
    f = random_field(lat, params, seed=23)
    norm = inner_a(f, f).real
    p0 = total_probability(f, 0.0)
    assert abs(p0 - norm) < 1e-12 * norm
    cur = current_Ja(f, 0.0)
    j0_int = float(cur.lattice.integrate(cur.components[0]).real)
    assert abs(j0_int - norm) < 1e-12 * norm
    for t in (0.9, 4.2, -2.6):
        assert abs(total_probability(f, t) - p0) < 1e-12 * norm


def test_split_reassembles_current():
    lat = MomentumLattice([7.0], [48])
    params = ModelParams(mass=1.3, kappa=0.8, a=0.35)
    f = random_field(lat, params, seed=29)
    re, im = split_re_im(f, 0.6)
    cur = current_Ja(f, 0.6)
    rebuilt = re.components + 1j * im.components
    scale = np.abs(cur.components).max()
    assert np.abs(rebuilt - cur.components).max() < 1e-12 * scale


def test_definite_charge_current_is_real():
    lat = MomentumLattice([8.0], [32])
    params = ModelParams(mass=1.0, a=0.45)
    f = random_field(lat, params, seed=31)
    plus, minus = energy_split(f)
    for g in (plus, minus):
        _, im = split_re_im(g, 0.2)
        assert np.abs(im.components).max() < 1e-13


def test_real_field_current_independent_of_a():
    # band-limited real data: an occupied Nyquist row has no conjugate
    # partner on the lattice, which would leak imaginary parts into the
    # padded-grid interpolant
    lat = MomentumLattice([8.0], [32])
    seed_f = random_field(lat, ModelParams(mass=1.0), seed=37)
    psi0 = seed_f.psi_grid(0.0).real
    psidot0 = seed_f.psidot_grid(0.0).real
    grids = []
    for a in (-0.5, 0.0, 0.7):
        params = ModelParams(mass=1.0, a=a)
        f = from_initial_data(lat, params, psi0, psidot0)
        _, im = split_re_im(f, 0.4)
        assert np.abs(im.components).max() < 1e-12
        grids.append(current_Ja(f, 0.4).components)
    scale = np.abs(grids[0]).max()
    assert np.abs(grids[1] - grids[0]).max() < 1e-12 * scale
    assert np.abs(grids[2] - grids[0]).max() < 1e-12 * scale


# ------------------------------------------------------ two-mode closed forms


def reference_oracle(a=0.3, kappa=0.8):
    params = ModelParams(mass=1.0, kappa=kappa, a=a)
    return PlaneWaveField(params, [(1, [0.0], 0.7 + 0.4j),
                                   (1, [np.sqrt(3.0)], -0.3 + 0.9j)], dim=1)


def test_reference_Ksq_value():
    o = reference_oracle()
    rec = two_mode_oracle(o, np.array([0.0, 0.0]))
    assert abs(rec["Ksq"] - (-6.5)) < 1e-12
    assert rec["div_J"] == 0.0


def test_oracle_rejects_zero_coefficients():
    params = ModelParams(mass=1.0)
    field = PlaneWaveField(params, [(1, [0.0], 0.0), (1, [1.0], 1.0)], dim=1)
    with pytest.raises(ValueError, match="nonzero coefficients"):
        two_mode_oracle(field, np.zeros(2))


def test_oracle_matches_planewave_sums_at_events():
    pw = reference_oracle()
    rng = np.random.default_rng(41)
    events = np.column_stack([rng.uniform(-3, 3, 1000),
                              rng.uniform(-6, 6, 1000)])
    J = planewave_current_Ja(pw, events)
    calJ = planewave_current_calJa(pw, events)
    scale = np.abs(J).max()
    for i, x in enumerate(events):
        rec = two_mode_oracle(pw, x)
        assert np.abs(J[i] - rec["J"]).max() < 1e-12 * scale
        assert np.abs(calJ[i] - rec["calJ"]).max() < 1e-12 * scale


def test_small_second_coefficient_limit():
    # as c2 -> 0 the oracle tends to the one-mode current scaled by (1+a)
    params = ModelParams(mass=1.0, kappa=0.8, a=0.25)
    c1 = 0.7 + 0.4j
    o = PlaneWaveField(params, [(1, [0.0], c1), (1, [np.sqrt(3.0)], 1e-9)],
                       dim=1)
    rec = two_mode_oracle(o, np.array([0.3, -0.7]))
    p1 = o.mode_fourvectors()[0]
    one_mode = (1 + params.a) * params.kappa / params.mass \
        * abs(c1) ** 2 * p1
    assert np.abs(rec["calJ"] - one_mode).max() < 1e-8
    assert np.abs(rec["J"] - one_mode).max() < 1e-8


def two_mode_lattice_field(params, c1, c2, n2=3, N=32):
    # box tuned so mode n2 sits exactly at |k| = sqrt(3)
    L = 2 * np.pi * n2 / np.sqrt(3.0)
    lat = MomentumLattice([L], [N])
    modes = np.zeros(N, dtype=complex)
    modes[0] = c1
    modes[n2] = c2
    f = LatticeField(lat, params, modes, np.zeros_like(modes))
    return f, lat


def test_lattice_two_mode_matches_closed_forms():
    params = ModelParams(mass=1.0, kappa=0.8, a=0.3)
    c1, c2 = 0.7 + 0.4j, -0.3 + 0.9j
    f, lat = two_mode_lattice_field(params, c1, c2)
    k2 = lat.k_grids[0][3]
    o = PlaneWaveField(params, [(1, [0.0], c1), (1, [k2], c2)], dim=1)
    t = 0.45
    cur = current_calJa(f, t)
    curJ = current_Ja(f, t)
    xs = cur.lattice.coordinate_axes()[0]
    events = np.column_stack([np.full_like(xs, t), xs])
    scale = np.abs(cur.components).max()
    for i, x in enumerate(events):
        rec = two_mode_oracle(o, x)
        got = cur.components[:, i]
        assert np.abs(got - rec["calJ"]).max() < 1e-12 * scale
        assert np.abs(curJ.components[:, i] - rec["J"]).max() < 1e-12 * scale
    # pointwise divergence against the closed form
    divgrid = divergence_grid(f, t)
    expected = np.array([two_mode_oracle(o, x)["div_calJ"] for x in events])
    assert np.abs(divgrid - expected).max() < 1e-10 * max(np.abs(expected).max(), 1.0)
    assert continuity_residual(f, t, "J_a") < 1e-12


def test_equal_frequency_two_modes_conserve_probability():
    # |k1| = |k2| makes the frequency-ratio prefactor vanish
    lat = MomentumLattice([8.0, 8.0], [16, 16])
    params = ModelParams(mass=1.0, a=0.4)
    modes = np.zeros((16, 16), dtype=complex)
    modes[2, 1] = 0.8 + 0.1j
    modes[1, 2] = -0.2 + 0.5j
    f = LatticeField(lat, params, modes, np.zeros_like(modes))
    assert continuity_residual(f, 0.3, "calJ_a") < 1e-12


def test_covariance_dichotomy():
    rng = np.random.default_rng(43)
    params = ModelParams(mass=1.0, kappa=0.9, a=0.2)
    modes = [(int(e), rng.uniform(-1.5, 1.5, size=1), complex(*rng.uniform(-1, 1, 2)))
             for e in rng.choice([1, -1], size=5)]
    pw = PlaneWaveField(params, modes, dim=1)
    b = Boost((0.5,))
    bw = boost_planewave(pw, b)
    events = np.column_stack([rng.uniform(-2, 2, 200), rng.uniform(-4, 4, 200)])
    J = planewave_current_Ja(pw, events)
    Jb = planewave_current_Ja(bw, b.transform_events(events))
    expect = J @ b.matrix.T
    scale = np.abs(J).max()
    assert np.abs(Jb - expect).max() < 1e-10 * scale

    # the probability current fails the same comparison badly
    pw2 = reference_oracle()
    bw2 = boost_planewave(pw2, b)
    cal = planewave_current_calJa(pw2, events)
    calb = planewave_current_calJa(bw2, b.transform_events(events))
    expect2 = cal @ b.matrix.T
    assert np.abs(calb - expect2).max() > 1e-3 * np.abs(cal).max()


def test_noncovariance_demo_reference():
    o = reference_oracle()
    rec = noncovariance_demo(o, Boost((0.5,)))
    assert rec["delta"] > 1e-3
    assert abs(rec["dot_before"] - rec["dot_after"]) < 1e-12
    rec0 = noncovariance_demo(o, Boost((0.0,)))
    assert rec0["delta"] < 1e-12


def test_noncovariance_demo_equal_frequencies_rejected():
    params = ModelParams(mass=1.0)
    o = PlaneWaveField(params, [(1, [1.0, 0.0], 1.0), (1, [0.0, 1.0], 1.0)],
                       dim=2)
    with pytest.raises(ValueError):
        noncovariance_demo(o, Boost((0.3, 0.0)))


def _transform_counts(monkeypatch, nodes):
    """Syntheses (modes_to_grid) + analyses (grid_to_modes) of current_Ja,
    current_calJa, both continuity residuals and divergence_grid of one
    random field at t = 0.3.  They are counted at the lattice's entry
    points: a padded synthesis makes several np.fft.ifft calls."""
    calls = [0]
    for name in ("modes_to_grid", "grid_to_modes"):
        def counted(*args, _original=getattr(MomentumLattice, name), **kwargs):
            calls[0] += 1
            return _original(*args, **kwargs)
        monkeypatch.setattr(MomentumLattice, name, counted)
    lat = MomentumLattice([16.0] * len(nodes), nodes)
    f = random_field(lat, ModelParams(mass=1.2, kappa=0.9, a=0.3), seed=3)

    def count(fn, *args):
        calls[0] = 0
        fn(f, 0.3, *args)
        return calls[0]

    return (count(current_Ja), count(current_calJa),
            count(continuity_residual, "J_a"),
            count(continuity_residual, "calJ_a"), count(divergence_grid))


# each family's padded grids are built once: value grids, d spatial
# gradient pairs and d_t of the time slot (J_a: 4 + 2d + 2; calJ_a, whose
# time slot is the density of its value grids: 2 + 2d + 2), and a
# divergence takes d forward transforms and one synthesis
def test_transform_counts_at_64_squared(monkeypatch):
    assert _transform_counts(monkeypatch, [64, 64]) == (10, 8, 13, 11, 11)


def test_transform_counts_at_16_cubed(monkeypatch):
    assert _transform_counts(monkeypatch, [16] * 3) == (12, 10, 16, 14, 14)


def test_divergence_grid_matches_continuity_residual():
    f = random_field(MomentumLattice([9.0, 7.0], [16, 12]),
                     ModelParams(mass=1.1, kappa=0.7, a=-0.4), seed=12)
    cur = current_calJa(f, 0.6)
    div = divergence_grid(f, 0.6)
    assert div.shape == cur.components[0].shape
    want = np.abs(div).max() / np.abs(cur.components).max()
    assert continuity_residual(f, 0.6, "calJ_a") == pytest.approx(want, rel=1e-12)
    with pytest.raises(ValueError):
        continuity_residual(f, 0.6, "K_a")
