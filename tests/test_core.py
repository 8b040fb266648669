"""Field representation, exact evolution, operator powers, exact boosts."""

import numpy as np
import pytest

from kgfield.core import (
    Boost,
    LatticeField,
    ModelParams,
    MomentumLattice,
    PlaneWaveField,
    apply_C,
    apply_D_power,
    boost_matrix,
    boost_planewave,
    energy_split,
    evolve,
    from_initial_data,
    gaussian_profile,
    kg_residual,
    minkowski_dot,
    random_field,
)

from oracles import planewave_values, psic_at


def make_lattice(d=1, L=8.0, N=32):
    return MomentumLattice([L] * d, [N] * d)


def test_params_validation():
    with pytest.raises(ValueError):
        ModelParams(mass=0.0)
    with pytest.raises(ValueError):
        ModelParams(mass=1.0, kappa=-1.0)
    with pytest.raises(ValueError):
        ModelParams(mass=1.0, a=1.0)
    with pytest.raises(ValueError):
        ModelParams(mass=1.0, a=-1.5)


def test_lattice_validation():
    with pytest.raises(ValueError):
        MomentumLattice([8.0], [7])       # odd
    with pytest.raises(ValueError):
        MomentumLattice([8.0], [2])       # too small
    with pytest.raises(ValueError):
        MomentumLattice([8.0, 8.0, 8.0, 8.0], [8, 8, 8, 8])


def test_lattice_rejects_a_non_integral_node_count():
    with pytest.raises(ValueError, match="got 16.9"):
        MomentumLattice([8.0], [16.9])      # int() truncates it to 16
    assert MomentumLattice([8.0], [16.0]).nodes == (16,)


@pytest.mark.parametrize("count", [np.inf, -np.inf, np.nan])
def test_lattice_rejects_a_non_finite_node_count(count):
    with pytest.raises(ValueError, match=f"got {count!r}"):
        MomentumLattice([8.0, 8.0], [8, count])


def test_params_reject_non_finite_mass():
    for mass in (np.inf, np.nan):
        with pytest.raises(ValueError):
            ModelParams(mass=mass)


def test_params_reject_non_finite_kappa():
    for kappa in (np.inf, np.nan):
        with pytest.raises(ValueError):
            ModelParams(mass=1.0, kappa=kappa)


def test_lattice_rejects_non_finite_box_length():
    with pytest.raises(ValueError):
        MomentumLattice([np.inf], [8])
    with pytest.raises(ValueError):
        MomentumLattice([8.0, np.nan], [8, 8])


def test_lattice_field_rejects_non_finite_plus_sector():
    f = random_field(make_lattice(), ModelParams(mass=1.0), seed=4)
    for bad in (np.nan, np.inf, complex(0.0, -np.inf)):
        phi_plus = f.phi_plus.copy()
        phi_plus[3] = bad
        with pytest.raises(ValueError, match="phi_plus"):
            f.copy_with(phi_plus=phi_plus)


def test_lattice_field_rejects_non_finite_minus_sector():
    f = random_field(make_lattice(d=2, N=8), ModelParams(mass=1.0), seed=4)
    phi_minus = f.phi_minus.copy()
    phi_minus[2, 5] = complex(np.nan, 0.0)
    with pytest.raises(ValueError, match="phi_minus"):
        LatticeField(f.lattice, f.params, f.phi_plus, phi_minus)


NON_FINITE = [complex(np.nan, 0.0), complex(np.inf, 0.0),
              complex(-np.inf, 0.0), complex(0.0, np.nan),
              complex(0.0, np.inf), complex(0.0, -np.inf)]


@pytest.mark.parametrize("name", ["phi_plus", "phi_minus"])
@pytest.mark.parametrize("bad", NON_FINITE, ids=repr)
def test_lattice_field_rejects_each_non_finite_part(name, bad):
    f = random_field(make_lattice(d=2, N=8), ModelParams(mass=1.0), seed=4)
    for where in (0, 31, 63):           # first, middle and last entry
        for base in (getattr(f, name), np.zeros(f.lattice.nodes, complex)):
            phi = base.copy()
            phi.reshape(-1)[where] = bad
            with pytest.raises(ValueError,
                               match=f"^{name} holds a non-finite "
                                     f"coefficient$"):
                f.copy_with(**{name: phi})


def test_lattice_field_accepts_extreme_finite_parts():
    f = random_field(make_lattice(d=2, N=8), ModelParams(mass=1.0), seed=4)
    big, tiny = np.finfo(float).max, np.finfo(float).smallest_subnormal
    extremes = [complex(big, -big), complex(-big, big), complex(tiny, -tiny),
                complex(-tiny, 2 * tiny), complex(-0.0, -0.0),
                complex(-0.0, 1.0), complex(1.0, -0.0)]
    for name in ("phi_plus", "phi_minus"):
        for base in (getattr(f, name), np.zeros(f.lattice.nodes, complex)):
            phi = base.copy()
            phi.reshape(-1)[[0, 9, 31, 40, 52, 60, 63]] = extremes
            g = f.copy_with(**{name: phi})
            assert getattr(g, name).tobytes() == phi.tobytes()
    only_signed_zeros = np.full(f.lattice.nodes, complex(-0.0, -0.0))
    g = f.copy_with(phi_minus=only_signed_zeros)
    assert g.zero_sectors == (False, False)


def test_lattice_field_rejects_non_finite_start_time():
    f = random_field(make_lattice(), ModelParams(mass=1.0), seed=4)
    for t0 in (np.nan, np.inf, -np.inf):
        with pytest.raises(ValueError, match="t0"):
            f.copy_with(t0=t0)


def test_planewave_field_rejects_non_finite_wave_vector():
    params = ModelParams(mass=1.0)
    for k in ([0.3, np.nan], [np.inf, 0.0]):
        with pytest.raises(ValueError, match="finite"):
            PlaneWaveField(params, [(1, np.array(k), 1.0)], dim=2)


def test_planewave_field_rejects_non_finite_coefficient():
    params = ModelParams(mass=1.0)
    for c in (complex(np.nan, 0.0), complex(1.0, np.inf)):
        with pytest.raises(ValueError, match="finite"):
            PlaneWaveField(params, [(1, np.array([0.3]), 0.5),
                                    (-1, np.array([0.1]), c)], dim=1)


def test_lattice_k_meshes_and_phase_are_open():
    L, N = (6.0, 5.0, 4.0), (8, 6, 4)
    lat = MomentumLattice(L, N)
    axes = [2.0 * np.pi * np.fft.fftfreq(n, d=l / n) for l, n in zip(L, N)]
    for i, (k, phase) in enumerate(zip(lat.k_grids, lat._phase0)):
        shape = [1, 1, 1]
        shape[i] = N[i]
        assert k.shape == phase.shape == tuple(shape)
        assert np.array_equal(k.ravel(), axes[i])
    full = np.meshgrid(*axes, indexing="ij")
    want = full[0] * full[0] + full[1] * full[1] + full[2] * full[2]
    assert lat.ksq.shape == N
    assert lat.ksq.tobytes() == want.tobytes()
    # e^{i k x0} at x0 = -L/2 is (-1)^(n1 + n2 + n3) over signed mode indices
    signed = np.meshgrid(*(np.rint(a * l / (2.0 * np.pi)).astype(int)
                           for a, l in zip(axes, L)), indexing="ij")
    table = np.where(sum(signed) % 2 == 0, 1.0, -1.0)
    product = lat._phase0[0] * lat._phase0[1] * lat._phase0[2]
    assert np.array_equal(np.broadcast_to(product, N), table)


@pytest.mark.parametrize("pad", [2, 3])
def test_padded_grid_refines_native_grid(pad):
    lat = MomentumLattice([7.0, 5.0], [8, 6])
    f = random_field(lat, ModelParams(mass=1.0), seed=4, band_fraction=0.9)
    modes = f.mode_psi(0.3)
    fine = lat.modes_to_grid(modes, pad)
    assert fine.shape == (8 * pad, 6 * pad)
    # the fine grid holds the coarse nodes at every pad-th sample
    native = lat.modes_to_grid(modes)
    assert np.abs(fine[::pad, ::pad] - native).max() < 1e-12 * np.abs(native).max()
    # and its modes are the coarse ones, zero-padded
    fine_lat, corners, _ = lat._refinement(pad)
    assert fine_lat is lat.refined(pad)
    back = fine_lat.grid_to_modes(fine)
    kept = np.zeros(back.shape, dtype=bool)
    for _, block in corners:
        kept[block] = True
    assert np.abs(back[kept] - modes.ravel()).max() < 1e-12 * np.abs(modes).max()
    assert np.abs(back[~kept]).max() < 1e-12 * np.abs(modes).max()
    assert lat._refinement(pad) is lat._refinement(pad)


@pytest.mark.parametrize("d,N", [(1, 32), (2, 16), (3, 8)])
def test_mode_grid_roundtrip(d, N):
    lat = make_lattice(d, 7.3, N)
    rng = np.random.default_rng(11)
    modes = rng.standard_normal([N] * d) + 1j * rng.standard_normal([N] * d)
    grid = lat.modes_to_grid(modes)
    back = lat.grid_to_modes(grid)
    assert np.abs(back - modes).max() < 1e-12 * np.abs(modes).max()


def test_single_mode_evaluation_matches_exponential():
    lat = make_lattice(1, L=8.0, N=32)
    modes = np.zeros(32, dtype=complex)
    modes[3] = 1.0            # k = 2 pi 3 / L
    grid = lat.modes_to_grid(modes)
    x = lat.coordinate_axes()[0]
    k = 2 * np.pi * 3 / 8.0
    assert np.abs(grid - np.exp(1j * k * x)).max() < 1e-13


def test_from_initial_data_sector_assignment():
    # data (e^{ikx}, -i w e^{ikx}) must land entirely in the + sector
    lat = make_lattice(1, L=8.0, N=32)
    params = ModelParams(mass=1.5)
    x = lat.coordinate_axes()[0]
    k = 2 * np.pi * 3 / 8.0
    w = np.sqrt(k * k + params.mass ** 2)
    psi0 = np.exp(1j * k * x)
    f = from_initial_data(lat, params, psi0, -1j * w * psi0)
    assert abs(f.phi_plus[3] - 1.0) < 1e-12
    f.phi_plus[3] = 0.0
    assert np.abs(f.phi_plus).max() < 1e-12
    assert np.abs(f.phi_minus).max() < 1e-12


def test_initial_data_roundtrip():
    lat = make_lattice(2, L=6.0, N=16)
    params = ModelParams(mass=0.8)
    rng = np.random.default_rng(5)
    psi0 = rng.standard_normal((16, 16)) + 1j * rng.standard_normal((16, 16))
    psidot0 = rng.standard_normal((16, 16)) + 1j * rng.standard_normal((16, 16))
    f = from_initial_data(lat, params, psi0, psidot0, t0=0.3)
    psi, psidot = f.psi_grid(0.3), f.psidot_grid(0.3)
    assert np.abs(psi - psi0).max() < 1e-11
    assert np.abs(psidot - psidot0).max() < 1e-11


def test_evaluate_matches_cosine_sine_form():
    # independent oracle: psi(t) = cos(w dt) psi0 + sin(w dt) psidot0 / w
    lat = make_lattice(1, L=10.0, N=64)
    params = ModelParams(mass=1.2)
    f = random_field(lat, params, seed=42)
    t = 0.77
    psi0, psidot0 = f.mode_psi(f.t0), f.mode_psidot(f.t0)
    w = f.omega
    dt = t - f.t0
    oracle = np.cos(w * dt) * psi0 + np.sin(w * dt) * psidot0 / w
    got = f.mode_psi(t)
    assert np.abs(got - oracle).max() < 1e-12 * np.abs(oracle).max()


def test_apply_D_power_constant_grid():
    lat = make_lattice(1, L=8.0, N=32)
    params = ModelParams(mass=1.0)
    f = from_initial_data(lat, params, np.ones(32, dtype=complex),
                          np.zeros(32, dtype=complex))
    g = apply_D_power(f, -0.5)
    psi = g.psi_grid(0.0)
    assert np.abs(psi - 1.0).max() < 1e-13


def test_apply_D_power_single_mode():
    # lattice chosen so one mode has |k|^2 = 3, then (3 + 1)^{1/2} = 2
    L = 2 * np.pi * 3 / np.sqrt(3.0)
    lat = make_lattice(1, L=L, N=32)
    params = ModelParams(mass=1.0)
    modes = np.zeros(32, dtype=complex)
    modes[3] = 1.0
    f = LatticeField(lat, params, modes, np.zeros_like(modes))
    g = apply_D_power(f, 0.5)
    assert abs(g.phi_plus[3] - 2.0) < 1e-12


def test_apply_D_power_composition_and_inverse():
    lat = make_lattice(2, L=7.0, N=16)
    params = ModelParams(mass=0.9)
    f = random_field(lat, params, seed=3)
    g = apply_D_power(apply_D_power(f, 0.25), 0.25)
    h = apply_D_power(f, 0.5)
    assert np.abs(g.phi_plus - h.phi_plus).max() < 1e-12
    idf = apply_D_power(apply_D_power(f, 0.5), -0.5)
    assert np.abs(idf.phi_plus - f.phi_plus).max() < 1e-12
    assert np.abs(idf.phi_minus - f.phi_minus).max() < 1e-12


def test_charge_grading_involution_and_eigensectors():
    lat = make_lattice(1, L=9.0, N=32)
    params = ModelParams(mass=1.1)
    f = random_field(lat, params, seed=8)
    ff = apply_C(apply_C(f))
    assert np.abs(ff.phi_plus - f.phi_plus).max() == 0.0
    assert np.abs(ff.phi_minus - f.phi_minus).max() == 0.0
    plus, minus = energy_split(f)
    cp = apply_C(plus)
    cm = apply_C(minus)
    assert np.abs(cp.phi_plus - plus.phi_plus).max() == 0.0
    assert np.abs(cm.phi_minus + minus.phi_minus).max() == 0.0


def test_charge_grading_is_iDhalfinv_timederivative():
    # C psi = i D^{-1/2} psidot, checked on grids at a generic time
    lat = make_lattice(1, L=9.0, N=64)
    params = ModelParams(mass=0.7)
    f = random_field(lat, params, seed=21)
    t = 1.3
    lhs = apply_C(f).psi_grid(t)
    dinv_dot = lat.modes_to_grid(f.mode_psidot(t) / f.omega)
    assert np.abs(lhs - 1j * dinv_dot).max() < 1e-12


def test_energy_split_completeness():
    lat = make_lattice(2, L=5.0, N=16)
    params = ModelParams(mass=1.3)
    f = random_field(lat, params, seed=13)
    plus, minus = energy_split(f)
    t = 0.4
    psi_sum = plus.psi_grid(t) + minus.psi_grid(t)
    assert np.abs(psi_sum - f.psi_grid(t)).max() < 1e-12
    # projections are idempotent
    pp, pm = energy_split(plus)
    assert np.abs(pp.phi_plus - plus.phi_plus).max() == 0.0
    assert np.abs(pm.phi_minus).max() == 0.0


def test_real_initial_data_mode_conjugation():
    lat = make_lattice(1, L=8.0, N=32)
    params = ModelParams(mass=1.0)
    rng = np.random.default_rng(2)
    psi0 = rng.standard_normal(32)
    psidot0 = rng.standard_normal(32)
    f = from_initial_data(lat, params, psi0, psidot0)
    rev = (np.arange(32)[::-1] + 1) % 32
    assert np.abs(f.phi_minus - np.conj(f.phi_plus[rev])).max() < 1e-13


def test_evolve_composition_and_consistency():
    lat = make_lattice(1, L=12.0, N=64)
    params = ModelParams(mass=0.6)
    f = random_field(lat, params, seed=4)
    g = evolve(evolve(f, 0.3), 0.5)
    h = evolve(f, 0.8)
    assert abs(g.t0 - h.t0) < 1e-15
    assert np.abs(g.phi_plus - h.phi_plus).max() < 1e-13
    # evolution relabels the reference time without changing the field
    t = 2.1
    assert np.abs(evolve(f, 0.8).psi_grid(t) - f.psi_grid(t)).max() < 1e-12


def test_kg_residual_and_corruption_hook():
    lat = make_lattice(2, L=6.0, N=16)
    params = ModelParams(mass=1.4)
    f = random_field(lat, params, seed=6)
    scale = np.abs(f.psi_grid(0.9)).max()
    assert kg_residual(f, 0.9) < 1e-10 * scale
    assert kg_residual(f, 0.9, _omega_scale=1.001) > 1e-3 * scale
    pw = PlaneWaveField(params, [(1, np.array([0.5, 0.2]), 1.0)], dim=2)
    with pytest.raises(TypeError, match="PlaneWaveField"):
        kg_residual(pw, 0.9)


# ---------------------------------------------------------------- boosts


def test_boost_matrix_one_dimensional_oracle():
    L = boost_matrix(np.array([0.6]))
    assert np.allclose(L, [[1.25, -0.75], [-0.75, 1.25]], atol=1e-14)


def test_boost_matrix_superluminal_rejected():
    with pytest.raises(ValueError):
        boost_matrix(np.array([0.8, 0.7]))
    with pytest.raises(ValueError):
        Boost((1.0,))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_boost_rejects_a_non_finite_velocity(bad):
    # nan fails both b2 >= 1 and b2 < 1, so the check is not b2 < 1
    with pytest.raises(ValueError, match="finite"):
        Boost((bad,))
    with pytest.raises(ValueError, match="finite"):
        Boost((0.1, bad))
    with pytest.raises(ValueError, match="finite"):
        boost_matrix(np.array([0.1, bad]))


def test_boost_matrix_preserves_metric():
    rng = np.random.default_rng(17)
    for _ in range(20):
        beta = rng.uniform(-0.5, 0.5, size=3)
        L = boost_matrix(beta)
        eta = np.diag([-1.0, 1.0, 1.0, 1.0])
        assert np.abs(L.T @ eta @ L - eta).max() < 1e-12


def test_rest_mode_boost_oracle():
    # k = 0, M = 1 boosted with beta = 0.6 gives (w', k') = (1.25, -0.75)
    params = ModelParams(mass=1.0)
    f = PlaneWaveField(params, [(1, np.array([0.0]), 1.0)], dim=1)
    g = boost_planewave(f, Boost((0.6,)))
    eps, kvec, coeff = g.modes[0]
    assert abs(g.mode_omega(kvec) - 1.25) < 1e-14
    assert abs(kvec[0] + 0.75) < 1e-14
    assert coeff == 1.0


@pytest.mark.parametrize("eps", [1, -1])
def test_boost_preserves_mass_shell(eps):
    rng = np.random.default_rng(23)
    params = ModelParams(mass=1.7)
    modes = [(eps, rng.uniform(-2, 2, size=3), 0.3 + 0.1j) for _ in range(4)]
    f = PlaneWaveField(params, modes, dim=3)
    g = boost_planewave(f, Boost((0.3, -0.2, 0.4)))
    for p in g.mode_fourvectors():
        assert abs(minkowski_dot(p, p) + params.mass ** 2) < 1e-12


@pytest.mark.parametrize("eps", [1, -1])
def test_plane_wave_values_are_frame_scalars(eps):
    rng = np.random.default_rng(31)
    params = ModelParams(mass=1.0)
    modes = [(eps, rng.uniform(-1.5, 1.5, size=2), complex(*rng.uniform(-1, 1, 2)))
             for _ in range(5)]
    f = PlaneWaveField(params, modes, dim=2)
    b = Boost((0.5, -0.3))
    g = boost_planewave(f, b)
    events = np.column_stack([rng.uniform(-3, 3, 1000),
                              rng.uniform(-5, 5, 1000),
                              rng.uniform(-5, 5, 1000)])
    events_b = b.transform_events(events)
    assert np.abs(planewave_values(g, events_b)
                  - planewave_values(f, events)).max() < 1e-12


def test_charge_graded_field_is_frame_scalar():
    # i D^{-1/2} psidot evaluated in both frames at matched events
    rng = np.random.default_rng(37)
    params = ModelParams(mass=1.3)
    modes = [(int(e), rng.uniform(-1, 1, size=1), complex(*rng.uniform(-1, 1, 2)))
             for e in rng.choice([1, -1], size=6)]
    f = PlaneWaveField(params, modes, dim=1)
    b = Boost((0.45,))
    g = boost_planewave(f, b)
    events = np.column_stack([rng.uniform(-2, 2, 500), rng.uniform(-4, 4, 500)])
    assert np.abs(psic_at(g, b.transform_events(events))
                  - psic_at(f, events)).max() < 1e-10


def test_lattice_field_boost_rejected():
    lat = make_lattice(1, L=8.0, N=32)
    f = random_field(lat, ModelParams(mass=1.0), seed=1)
    with pytest.raises(TypeError):
        boost_planewave(f, Boost((0.5,)))


def test_gaussian_profile_rejects_a_bad_width_center_or_carrier():
    # unchecked, sigma -1 builds the |sigma| packet, inf a flat one, 0
    # fails later as a non-finite coefficient, and a one-entry center on
    # a 2-D lattice builds a stripe, flat along axis 1
    lat = make_lattice(d=2, N=8)
    for sigma in (-1.0, 0.0, np.inf, np.nan):
        with pytest.raises(ValueError, match="sigma must be positive"):
            gaussian_profile(lat, sigma)
    for name in ("center", "kcarrier"):
        for bad in ([0.0, np.nan], [np.inf, 0.0], [1.0], [0.0, 0.0, 0.0]):
            with pytest.raises(ValueError,
                               match=f"{name} must hold 2 finite numbers"):
                gaussian_profile(lat, 0.5, **{name: bad})


def test_random_field_rejects_a_band_fraction_outside_0_inf():
    # unchecked, -0.5 builds the 0.5 field
    lat, params = make_lattice(d=2, N=8), ModelParams(mass=1.0)
    for band in (-0.5, 0.0, np.inf, np.nan):
        with pytest.raises(ValueError, match="band_fraction must be"):
            random_field(lat, params, seed=1, band_fraction=band)
