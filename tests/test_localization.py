"""Two-component picture, position operator, localized states, profiles."""

import json
import warnings
from pathlib import Path

import numpy as np
import pytest

from kgfield.core import (
    LatticeField,
    ModelParams,
    MomentumLattice,
    apply_C,
    energy_split,
    evolve,
    from_initial_data,
    gaussian_profile,
    positive_packet,
    random_field,
    schrodinger_packet,
)
from kgfield import _qags
from kgfield._qags import qags
from kgfield.inner import inner_0, inner_a
from kgfield.localization import (
    GAMMA_QUARTER,
    LocalizedState,
    Region,
    TwoComponent,
    _cosh_quadrature,
    _de_sine_rule,
    besselK_profile,
    besselK_profile_momentum_route,
    expand_in_localized_basis,
    localized_state,
    map_U_inverse,
    map_Ua,
    mixture_map,
    position_apply,
    position_density,
    probability_region,
    ray_walk,
    sample_rays,
    wavefunction_f,
)

import oracles
from oracles import (
    field_from_wavefunctions,
    momentum_apply,
    pair_sum,
    position_apply_checked,
)

# frozen continuum profile values at M = 1, kappa = 1 (25-digit quadrature)
PROFILE_HALF = 0.157757587038505329
PROFILE_ONE = 0.0215340265994290476
PROFILE_TWO = 0.00194104176464332441
PROFILE_THREE = 0.000324788882474551325


def test_sector_images():
    lat = MomentumLattice([8.0], [32])
    params = ModelParams(mass=1.0)
    f = random_field(lat, params, seed=3)
    plus, minus = energy_split(f)
    xp = map_Ua(plus, 0.0)
    assert np.abs(xp.xi2).max() == 0.0
    assert np.abs(xp.xi1).max() > 0.0
    xm = map_Ua(minus, 0.0)
    assert np.abs(xm.xi1).max() == 0.0


@pytest.mark.parametrize("a", [-0.9, 0.0, 0.9])
def test_map_is_unitary(a):
    lat = MomentumLattice([9.0], [48])
    params = ModelParams(mass=1.2, kappa=0.8, a=a)
    for seed in range(5):
        f1 = random_field(lat, params, seed=10 + seed)
        f2 = random_field(lat, params, seed=60 + seed)
        lhs = pair_sum(map_Ua(f1, a), map_Ua(f2, a))
        rhs = inner_a(f1, f2)
        assert abs(lhs - rhs) < 1e-12 * abs(rhs)


@pytest.mark.parametrize("a", [-0.7, 0.0, 0.5])
def test_map_round_trip(a):
    lat = MomentumLattice([7.0, 7.0], [16, 16])
    params = ModelParams(mass=0.9, a=a)
    f = random_field(lat, params, seed=21)
    back = map_U_inverse(map_Ua(f, a), a)
    assert np.abs(back.phi_plus - f.phi_plus).max() < 1e-12
    assert np.abs(back.phi_minus - f.phi_minus).max() < 1e-12
    assert back.t0 == f.t0


def test_mixture_map_carries_inner_products():
    lat = MomentumLattice([8.0], [64])
    params = ModelParams(mass=1.1, kappa=1.4, a=0.0)
    f1 = random_field(lat, params, seed=31)
    f2 = random_field(lat, params, seed=32)
    a = 0.6
    g1 = mixture_map(f1, a)
    g2 = mixture_map(f2, a)
    assert g1.params.a == a
    lhs = inner_a(g1, g2)
    rhs = inner_0(f1, f2)
    assert abs(lhs - rhs) < 1e-12 * abs(rhs)


def test_wavefunction_parseval_and_mixture_invariance():
    lat = MomentumLattice([10.0], [64])
    params = ModelParams(mass=1.0, kappa=0.7)
    f = random_field(lat, params, seed=41)
    fp, fm = wavefunction_f(f)
    cell = lat.cell_volume
    dens = position_density(f)
    assert np.array_equal(dens, np.abs(fp) ** 2 + np.abs(fm) ** 2)
    total = cell * dens.sum()
    norm = inner_0(f, f).real
    assert abs(total - norm) < 1e-12 * norm
    # transition amplitudes too, not just norms
    g = random_field(lat, params, seed=42)
    gp, gm = wavefunction_f(g)
    amp = cell * (np.vdot(fp, gp) + np.vdot(fm, gm))
    assert abs(amp - inner_0(f, g)) < 1e-12 * abs(amp)
    # the re-balanced field, read through its own sector-weighted map,
    # has the same wavefunctions
    h = mixture_map(f, 0.45)
    hp, hm = map_Ua(h).grids()
    scale = np.abs(fp).max()
    assert np.abs(hp - fp).max() < 1e-12 * scale
    assert np.abs(hm - fm).max() < 1e-12 * scale


def test_real_field_wavefunction_conjugation():
    lat = MomentumLattice([8.0], [32])
    params = ModelParams(mass=1.3)
    rng = np.random.default_rng(47)
    f = from_initial_data(lat, params, rng.standard_normal(32),
                          rng.standard_normal(32))
    fp, fm = wavefunction_f(f)
    assert np.abs(fp - np.conj(fm)).max() < 1e-12 * np.abs(fp).max()


def test_reference_time_matters_for_moving_packet():
    lat = MomentumLattice([24.0], [128])
    params = ModelParams(mass=1.0)
    f = positive_packet(lat, params, sigma=1.2, kcarrier=np.array([1.0]))
    fp0, _ = wavefunction_f(f, t0=0.0)
    fp1, _ = wavefunction_f(evolve(f, 0.0), t0=1.5)
    assert np.abs(fp1 - fp0).max() > 1e-3 * np.abs(fp0).max()


# --------------------------------------------------------- localized states


def test_localized_state_orthonormality_and_delta():
    lat = MomentumLattice([8.0, 6.0], [16, 12])
    params = ModelParams(mass=1.0, kappa=1.3)
    states = []
    for eps, idx in [(1, (3, 4)), (1, (9, 2)), (-1, (3, 4)), (-1, (7, 7))]:
        axes = lat.coordinate_axes()
        y = (axes[0][idx[0]], axes[1][idx[1]])
        states.append(localized_state(eps, y, lat, params))
    for i, si in enumerate(states):
        for j, sj in enumerate(states):
            val = inner_0(si.field, sj.field)
            want = 1.0 if i == j else 0.0
            assert abs(val - want) < 1e-12
    s = states[0]
    fp, fm = wavefunction_f(s.field)
    cell = lat.cell_volume
    assert abs(fp[s.index] - 1.0 / np.sqrt(cell)) < 1e-12 / np.sqrt(cell)
    fp[s.index] = 0.0
    assert np.abs(fp).max() < 1e-12 / np.sqrt(cell)
    assert np.abs(fm).max() < 1e-12 / np.sqrt(cell)


def test_localized_state_charge_grading_eigenvalue():
    lat = MomentumLattice([8.0], [32])
    params = ModelParams(mass=1.5)
    for eps in (1, -1):
        s = localized_state(eps, (0.25,), lat, params)
        cs = apply_C(s.field)
        assert np.abs(cs.phi_plus - eps * s.field.phi_plus).max() == 0.0
        assert np.abs(cs.phi_minus - eps * s.field.phi_minus).max() == 0.0


def test_localized_state_off_grid_rejected():
    lat = MomentumLattice([8.0], [32])
    params = ModelParams(mass=1.0)
    with pytest.raises(ValueError):
        localized_state(1, (0.1,), lat, params)    # dx = 0.25, 0.1 off-grid
    with pytest.raises(ValueError):
        localized_state(2, (0.25,), lat, params)


def test_localized_state_rejects_a_coordinate_that_is_not_finite():
    # unchecked, NaN fails as "cannot convert float NaN to integer"
    lat = MomentumLattice([8.0, 8.0], [32, 32])
    params = ModelParams(mass=1.0)
    for y in ((np.nan, 0.0), (0.0, np.inf), (-np.inf, 0.25)):
        with pytest.raises(ValueError, match="point y must be finite"):
            localized_state(1, y, lat, params)


def test_completeness_by_explicit_resummation():
    lat = MomentumLattice([6.0], [16])
    params = ModelParams(mass=1.1, kappa=0.9)
    axes = lat.coordinate_axes()
    basis = [localized_state(eps, (axes[0][j],), lat, params)
             for eps in (1, -1) for j in range(16)]
    for seed in range(4):
        f = random_field(lat, params, seed=70 + seed)
        cp, cm = expand_in_localized_basis(f)
        rebuilt_p = np.zeros(16, dtype=complex)
        rebuilt_m = np.zeros(16, dtype=complex)
        for s in basis:
            c = cp[s.index] if s.epsilon > 0 else cm[s.index]
            rebuilt_p += c * s.field.phi_plus
            rebuilt_m += c * s.field.phi_minus
        scale = np.abs(f.phi_plus).max()
        assert np.abs(rebuilt_p - f.phi_plus).max() < 1e-10 * scale
        assert np.abs(rebuilt_m - f.phi_minus).max() < 1e-10 * scale


def test_field_from_wavefunctions_roundtrip():
    lat = MomentumLattice([7.0, 9.0], [16, 16])
    params = ModelParams(mass=0.8, kappa=1.2)
    f = random_field(lat, params, seed=81)
    fp, fm = wavefunction_f(f)
    back = field_from_wavefunctions(fp, fm, lat, params, t0=f.t0)
    assert np.abs(back.phi_plus - f.phi_plus).max() < 1e-12
    assert np.abs(back.phi_minus - f.phi_minus).max() < 1e-12


# -------------------------------------------------------- position operator


def big_box(N=256, L=48.0):
    return MomentumLattice([L], [N])


def test_position_eigenvalue_equation():
    # localized states saturate the band, so the continuum closed-form
    # cross-check does not apply; the conjugation route is exact on them
    lat = big_box()
    params = ModelParams(mass=1.0)
    axes = lat.coordinate_axes()
    rng = np.random.default_rng(91)
    inner_nodes = np.where(np.abs(axes[0]) <= 12.0)[0]
    for eps in (1, -1):
        for j in rng.choice(inner_nodes, size=10, replace=False):
            s = localized_state(eps, (axes[0][j],), lat, params)
            out = position_apply(s.field)[0]
            scale = (abs(s.y[0]) + 1.0) * (np.abs(s.field.phi_plus).max()
                                           + np.abs(s.field.phi_minus).max())
            assert np.abs(out.phi_plus - s.y[0] * s.field.phi_plus).max() \
                < 1e-12 * scale
            assert np.abs(out.phi_minus - s.y[0] * s.field.phi_minus).max() \
                < 1e-12 * scale


def test_position_cross_check_flags_band_saturation():
    lat = big_box(N=128)
    params = ModelParams(mass=1.0)
    s = localized_state(1, (0.0,), lat, params)
    with pytest.raises(FloatingPointError):
        position_apply_checked(s.field)
    out = position_apply(s.field)[0]
    assert np.abs(out.phi_plus).max() < 1e-12    # y = 0 annihilates it


def test_position_expectation_of_centered_packet():
    lat = big_box()
    params = ModelParams(mass=1.0)
    f = positive_packet(lat, params, sigma=1.5)
    xf = position_apply_checked(f)[0]
    assert xf.phi_plus.tobytes() == position_apply(f)[0].phi_plus.tobytes()
    expect = inner_0(f, xf).real / inner_0(f, f).real
    assert abs(expect) < 1e-8


def test_position_cross_check_fails_on_nan_in_second_sector(monkeypatch):
    # fields reject NaN at construction, so the NaN goes in place into the
    # closed-form field; Python's max(dev_plus, nan) would return dev_plus
    lat = big_box()
    f = schrodinger_packet(lat, ModelParams(mass=1.0), sigma=1.5)
    position_apply_checked(f)
    closed_form = oracles.position_closed_form

    def nan_in_minus_sector(field, t0=None):
        out = closed_form(field, t0)
        out[0].phi_minus[5] = np.nan
        return out

    monkeypatch.setattr(oracles, "position_closed_form", nan_in_minus_sector)
    with pytest.raises(FloatingPointError, match="rel dev nan"):
        position_apply_checked(f)


def test_position_apply_maps_the_field_once(monkeypatch):
    # the interior-mass gate and the coordinate multiplication share one
    # two-component map
    from kgfield import localization

    f = positive_packet(big_box(), ModelParams(mass=1.0), sigma=1.5)
    calls = []

    def spy(*args, _real=localization.map_Ua):
        calls.append(args)
        return _real(*args)

    monkeypatch.setattr(localization, "map_Ua", spy)
    position_apply(f)
    assert len(calls) == 1


def test_position_rejects_wrapping_fields():
    lat = MomentumLattice([8.0], [64])
    params = ModelParams(mass=1.0)
    # packet centered right at the box edge
    prof = gaussian_profile(lat, sigma=0.8, center=np.array([4.0]))
    f = from_initial_data(lat, params, prof, -1j * params.mass * prof)
    with pytest.raises(ValueError):
        position_apply(f)
    with pytest.raises(ValueError):
        position_apply_checked(f)


def test_momentum_operator_is_spectral():
    lat = MomentumLattice([8.0], [32])
    params = ModelParams(mass=1.0)
    f = random_field(lat, params, seed=95)
    pf = momentum_apply(f)[0]
    assert np.abs(pf.phi_plus - lat.k_grids[0] * f.phi_plus).max() == 0.0
    # conjugating the spectral multiplier through the two-component map
    # changes nothing (the map is diagonal in momentum)
    xi = map_Ua(f, 0.0)
    k = lat.k_grids[0]
    conj_route = map_U_inverse(
        TwoComponent(lat, params, k * xi.xi1, k * xi.xi2, xi.t0), 0.0)
    assert np.abs(conj_route.phi_plus - pf.phi_plus).max() < 1e-13
    assert np.abs(conj_route.phi_minus - pf.phi_minus).max() < 1e-13


# ------------------------------------------------------------- regions


def test_probability_region_basics():
    lat = MomentumLattice([8.0], [32])
    params = ModelParams(mass=1.0)
    s = localized_state(1, (0.25,), lat, params)
    whole = Region((-4.0,), (4.0,))
    assert abs(probability_region(s.field, whole) - 1.0) < 1e-12
    around = Region((0.2,), (0.3,))
    assert abs(probability_region(s.field, around) - 1.0) < 1e-12
    empty = Region((0.26,), (0.49,))    # no node in [0.26, 0.49)
    assert probability_region(s.field, empty) == 0.0


def test_probability_region_normalization_gate():
    lat = MomentumLattice([8.0], [32])
    params = ModelParams(mass=1.0)
    f = random_field(lat, params, seed=97)
    whole = Region((-4.0,), (4.0,))
    with pytest.raises(ValueError):
        probability_region(f, whole)
    val = probability_region(f, whole, normalize=True)
    assert abs(val - 1.0) < 1e-12
    half = Region((-4.0,), (0.0,))
    v1 = probability_region(f, half, normalize=True)
    v2 = probability_region(f, Region((0.0,), (4.0,)), normalize=True)
    assert 0.0 <= v1 <= 1.0
    assert abs(v1 + v2 - 1.0) < 1e-12


def test_region_validation():
    with pytest.raises(ValueError):
        Region((1.0,), (1.0,))
    lat = MomentumLattice([8.0], [32])
    with pytest.raises(ValueError):
        Region((-10.0,), (0.0,)).mask(lat)


# ------------------------------------------------------- continuum profile


def test_profile_frozen_values():
    params = ModelParams(mass=1.0, kappa=1.0)
    assert abs(besselK_profile(0.5, params) - PROFILE_HALF) < 1e-12
    assert abs(besselK_profile(1.0, params) - PROFILE_ONE) < 1e-13
    assert abs(besselK_profile(2.0, params) - PROFILE_TWO) < 1e-14
    assert abs(besselK_profile(3.0, params) - PROFILE_THREE) < 1e-14


def test_profile_dual_quadrature_agreement():
    params = ModelParams(mass=1.0, kappa=1.0)
    for r in (0.5, 1.0, 2.0):
        a = besselK_profile(r, params)
        b = besselK_profile_momentum_route(r, params)
        assert abs(a - b) < 1e-8 * abs(a)


def test_profile_momentum_route_matches_scipy_kv():
    # a third witness, independent of both quadratures: scipy's K_nu
    from scipy.special import gamma, kv
    for M in (0.5, 1.0, 2.0):
        params = ModelParams(mass=M, kappa=0.7)
        for r in np.linspace(0.05, 3.0, 60) / M:
            want = (np.sqrt(M / params.kappa)
                    / (2.0 ** 0.75 * np.pi ** 1.5 * gamma(0.25))
                    * (M / r) ** 1.25 * kv(1.25, M * r))
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                got = besselK_profile_momentum_route(r, params)
            assert abs(got - want) < 1e-12 * want, (M, r)


def test_profile_momentum_route_agrees_with_scipy_qawf():
    # the route this one replaced, QUADPACK's QAWF on the same remainder,
    # kept here as a witness
    from scipy.integrate import quad
    params = ModelParams(mass=1.0, kappa=1.0)
    for r in (0.5, 1.0, 2.0, 3.0):
        val, _ = quad(lambda k: k * (k * k + 1.0) ** -0.25 - k ** 0.5,
                      0.0, np.inf, weight="sin", wvar=r, epsabs=1e-12,
                      limit=200, limlst=200)
        val += np.sqrt(2.0 * np.pi) / 4.0 * r ** -1.5
        want = val / (2.0 * np.pi ** 2 * r)
        got = besselK_profile_momentum_route(r, params)
        assert abs(got - want) < 1e-10 * want, r


def test_de_sine_rule_on_closed_form_fourier_integrals():
    x, w = _de_sine_rule()
    assert np.all(np.isfinite(x)) and np.all(np.isfinite(w))
    assert np.all(x > 0.0)
    # int_0^inf sin(x)/x dx and int_0^inf x sin(x)/(1+x^2) dx: neither
    # integrand decays faster than 1/x, and the t = 0 node is needed
    assert abs(np.sum(w / x) - np.pi / 2.0) < 1e-13
    assert abs(np.sum(w * x / (1.0 + x * x)) - np.pi / (2.0 * np.e)) < 1e-13
    with pytest.raises(ValueError):
        w[0] = 0.0


def test_profile_rejects_bad_radius():
    params = ModelParams(mass=1.0)
    for r in (0.0, -1.0, float("nan"), float("inf")):
        with pytest.raises(ValueError):
            besselK_profile(r, params)


def test_profile_momentum_route_rejects_bad_radius():
    params = ModelParams(mass=1.0)
    for r in (0.0, -1.0, float("nan"), float("inf")):
        with pytest.raises(ValueError):
            besselK_profile_momentum_route(r, params)


def test_profile_scaling_and_decay():
    params = ModelParams(mass=2.0, kappa=0.5)
    # scale covariance: (M/r)^(5/4) = M^(5/2) (1/(Mr))^(5/4), so the
    # profile at (M, kappa, r) is sqrt(M/kappa) M^(5/2) times the unit
    # profile at Mr
    base = ModelParams(mass=1.0, kappa=1.0)
    r = 0.75
    got = besselK_profile(r, params)
    want = (np.sqrt(params.mass / params.kappa) * params.mass ** 2.5
            * besselK_profile(params.mass * r, base))
    assert abs(got - want) < 1e-12 * abs(want)
    big = besselK_profile(10.0, ModelParams(mass=1.0))
    assert big < 1e-3 * besselK_profile(0.5, ModelParams(mass=1.0))
    with pytest.raises(ValueError):
        besselK_profile(0.0, base)


def test_gamma_quarter_constant():
    from scipy.special import gamma
    assert abs(GAMMA_QUARTER - gamma(0.25)) < 1e-14


# ------------------------------------------------------------ ray sampler

# (box lengths, nodes): the shipped 64^3, an uneven grid and one with a
# Bluestein axis between two short ones
SAMPLER_SHAPES = {"64^3": ((20.0,) * 3, (64,) * 3),
                  "32x48x40": ((6.0, 9.0, 7.5), (32, 48, 40)),
                  "8x202x6": ((4.0, 30.0, 3.0), (8, 202, 6))}
SAMPLER_RAYS = ((1, 1, 1), (1, -2, 3), (-2, 3, -5), (0, 0, -1), (-1, -1, -1))


@pytest.mark.parametrize("shape", SAMPLER_SHAPES)
def test_ray_samples_are_the_psi_grid_bytes_at_the_ray_nodes(shape):
    L, N = SAMPLER_SHAPES[shape]
    lat = MomentumLattice(L, N)
    params = ModelParams(mass=1.3, kappa=0.8, a=0.35)
    f = random_field(lat, params, seed=4, t0=0.25)
    steps = 40
    for t in (0.25, 0.9):
        grid = np.abs(f.psi_grid(t)) / np.sqrt(lat.cell_volume)
        # index 0, the centre and next to the wrap on every axis
        for node in ([0] * 3, [n // 2 for n in N], [n - 1 for n in N]):
            rows = sample_rays(f, node, SAMPLER_RAYS, steps, t)
            want = []
            for ray in SAMPLER_RAYS:
                # 2 |j ray_i| < N_i on every axis, independently of the walk
                last = min([steps] + [-(-n // (2 * abs(c))) - 1
                                      for c, n in zip(ray, N) if c])
                want += [(ray, j) for j in range(1, last + 1)]
            assert [row[:2] for row in rows] == want
            for ray, j, r, value in rows:
                offset = j * np.array(ray)
                idx = tuple((np.array(node) + offset) % np.array(N))
                assert value.hex() == float(grid[idx]).hex(), (node, ray, j)
                want_r = float(np.linalg.norm(offset * np.array(lat.spacings)))
                assert r.hex() == want_r.hex()


def test_ray_walk_rejects_a_ray_of_another_dimension():
    with pytest.raises(ValueError, match="ray dimension"):
        ray_walk(MomentumLattice([6.0] * 3, [16] * 3), [(1, 1)], 4)


# ------------------------------------------- QUADPACK port against scipy

CONFIGS = Path(__file__).resolve().parents[1] / "configs"

# the first words of scipy.integrate.quad's message for each QUADPACK flag
_QUADPACK_FLAGS = {1: "The maximum number of subdivisions",
                   2: "The occurrence of roundoff error",
                   3: "Extremely bad integrand behavior",
                   4: "The algorithm does not converge",
                   5: "The integral is probably divergent"}


def _scipy_qags(f, a, b, epsabs, epsrel, limit):
    """scipy.integrate.quad as (value, error estimate, ier, last)."""
    from scipy.integrate import quad
    out = quad(f, a, b, epsabs=epsabs, epsrel=epsrel, limit=limit,
               full_output=1)
    ier = 0
    if len(out) > 3:        # quad appends a message when QUADPACK flags
        ier = next(k for k, text in _QUADPACK_FLAGS.items()
                   if out[3].startswith(text))
    return out[0], out[1], ier, out[2]["last"]


def _bits(out):
    value, err, ier, last = out
    return float(value).hex(), float(err).hex(), ier, last


def _ray_radii(L, N, rays, steps):
    # the node walk of the bessel-profile task's sampler
    return [r for *_, r in ray_walk(MomentumLattice([L] * 3, [N] * 3),
                                    rays, steps)]


def _production_radii():
    """Every radius at M = 1 that a command or benchmark op reaches."""
    config = json.loads((CONFIGS / "scenario_localized.json").read_text())
    model, task = config["model"], config["tasks"][0]
    rays = ((1, 1, 1), (1, 2, 3), (2, 3, 5))
    return (_ray_radii(model["L"], model["N"], task["rays"], task["steps"])
            + [1.3]                                 # verify's dual quadrature
            + _ray_radii(20.0, 160, rays, 12))      # the localized-3d op


def _bessel_quad(qag, z):
    f, tmax = _cosh_quadrature(z)
    return qag(f, 0.0, tmax, 1e-14, 1e-13, 200)


def test_qags_is_scipy_quad_on_every_production_radius():
    radii = _production_radii()
    assert len(radii) == 59
    for r in radii:
        f, tmax = _cosh_quadrature(r)
        calls = []

        def recorded(t, f=f):
            calls.append((t, f(t)))
            return calls[-1][1]

        ours = qags(recorded, 0.0, tmax, 1e-14, 1e-13, 200)
        assert _bits(ours) == _bits(_bessel_quad(_scipy_qags, r)), r
        assert ours[2] == 0
        # the integrand contract: each node's array value is its scalar
        # value, which is what quad's one-point calls see
        for t, values in calls:
            scalar = np.array([f(x) for x in t.tolist()])
            assert scalar.tobytes() == values.tobytes(), r


def test_profile_keeps_the_bits_of_the_scipy_route():
    from scipy.integrate import quad

    const = 2.0 ** 0.75 * np.pi ** 1.5 * GAMMA_QUARTER
    for params in (ModelParams(mass=1.0, kappa=1.0),
                   ModelParams(mass=2.0, kappa=0.5)):
        M = params.mass
        for r in _production_radii():
            f, tmax = _cosh_quadrature(M * r)
            val, _ = quad(f, 0.0, tmax, epsabs=1e-14, epsrel=1e-13,
                          limit=200)
            want = float(np.sqrt(M / params.kappa) / const
                         * (M / r) ** 1.25 * val)
            assert besselK_profile(r, params).hex() == want.hex(), (M, r)


def test_qags_is_scipy_quad_on_ten_thousand_radii():
    z = np.geomspace(1e-6, 300.0, 10_001).tolist()
    flags = set()
    for i, zi in enumerate(z):
        ours = _bessel_quad(qags, zi)
        assert _bits(ours) == _bits(_bessel_quad(_scipy_qags, zi)), zi
        flags.add(ours[2])
    assert flags == {0}
    # the profile stays unflagged far into the tail
    for r in np.geomspace(300.0, 1e4, 40).tolist():
        assert np.isfinite(besselK_profile(r, ModelParams(mass=1.0)))


# numpy-ufunc integrands that reach the extrapolation, ordering and
# failure branches the Bessel integrand does not
_SINGULAR = {
    "x^-0.5": (lambda x: 1.0 / np.sqrt(x), 0.0, 1.0),
    "log x": (np.log, 0.0, 1.0),
    "x^-0.9": (lambda x: np.power(x, -0.9), 0.0, 1.0),
    "log|x-0.3|": (lambda x: np.log(np.abs(x - 0.3)), 0.0, 1.0),
    "1/(1e-4+x^2)": (lambda x: 1.0 / (1e-4 + np.square(x)), -1.0, 1.0),
    "x^-0.99": (lambda x: np.power(x, -0.99), 0.0, 1.0),
    "1/x": (np.reciprocal, 0.0, 1.0),
    "1/|x-1/3|": (lambda x: np.reciprocal(np.abs(x - 1.0 / 3.0)), 0.0, 1.0),
    "cos(100x)/sqrt(x)": (lambda x: np.cos(100.0 * x) / np.sqrt(x),
                          0.0, 1.0),
    "cos(log(x)/x)/x": (lambda x: np.cos(np.log(x) / x) / x, 0.0, 1.0),
    "sin(1e6 x)": (lambda x: np.sin(1e6 * x), 0.0, 1.0),
    "two peaks": (lambda x: (np.reciprocal(1e-6 + np.square(x - 0.2))
                             + np.reciprocal(1e-6 + np.square(x - 0.7))),
                  0.0, 1.0),
}
# scipy's defaults, the profile's, a pure relative one and a low limit
_TOLERANCES = [(1.49e-8, 1.49e-8, 50), (1e-14, 1e-13, 200),
               (0.0, 1.2e-14, 200), (1.49e-8, 1.49e-8, 5)]


@pytest.mark.parametrize("name", sorted(_SINGULAR))
def test_qags_is_scipy_quad_on_singular_integrands(name):
    f, a, b = _SINGULAR[name]
    for tol in _TOLERANCES:
        assert _bits(qags(f, a, b, *tol)) == _bits(
            _scipy_qags(f, a, b, *tol)), tol


def test_qags_rejects_a_value_that_is_not_finite():
    # the centre of [0, 1] is a node of the first rule, where the first
    # integrand is 0 * inf; QUADPACK's sums would carry the NaN on
    signed = lambda x: np.sign(x - 0.5) * np.power(np.abs(x - 0.5), -0.5)
    pole = lambda x: np.reciprocal(np.square(x - 0.5))
    with np.errstate(divide="ignore", invalid="ignore"):
        for tol in _TOLERANCES:
            with pytest.raises(ValueError, match=r"integrand is nan at the "
                                                 r"node x = 0\.5;"):
                qags(signed, 0.0, 1.0, *tol)
        with pytest.raises(ValueError, match=r"is inf at the node x = 0\.5;"):
            qags(pole, 0.0, 1.0, *_TOLERANCES[0])


def test_singular_integrands_reach_every_quadpack_flag():
    flags = {qags(f, a, b, *tol)[2]
             for f, a, b in _SINGULAR.values() for tol in _TOLERANCES}
    assert flags == {0, 1, 2, 3, 4, 5}
    # flag 6: tolerances QUADPACK cannot meet, which quad turns into an error
    assert qags(np.exp, 0.0, 1.0, 0.0, 1e-20, 50) == (0.0, 0.0, 6, 0)
    with pytest.raises(ValueError):
        _scipy_qags(np.exp, 0.0, 1.0, 0.0, 1e-20, 50)


def test_one_ulp_in_a_kronrod_weight_breaks_the_match(monkeypatch):
    # the comparison resolves the last bit of the rule: 22 of the 59
    # production radii move, 12 of them in the value itself
    wgk = list(_qags._WGK)
    wgk[7] = float(np.nextafter(wgk[7], 1.0))
    monkeypatch.setattr(_qags, "_WGK", tuple(wgk))
    pairs = [(_bits(_bessel_quad(qags, r)),
              _bits(_bessel_quad(_scipy_qags, r)))
             for r in _production_radii()]
    assert any(ours != theirs for ours, theirs in pairs)
    assert any(ours[0] != theirs[0] for ours, theirs in pairs)


def test_profile_raises_when_quadpack_flags_a_failure(monkeypatch):
    params = ModelParams(mass=1.0)
    monkeypatch.setattr(_qags, "qags",
                        lambda f, a, b, epsabs, epsrel, limit:
                        (0.0123, 4.5e-09, 1, 200))
    with pytest.raises(FloatingPointError,
                       match=r"r=1\.3: QUADPACK ier 1, value 0\.0123, "
                             r"error estimate 4\.5e-09"):
        besselK_profile(1.3, params)
    monkeypatch.setattr(_qags, "qags",
                        lambda f, a, b, epsabs, epsrel, limit:
                        (float("nan"), 0.0, 0, 1))
    with pytest.raises(FloatingPointError, match="ier 0, value nan"):
        besselK_profile(1.3, params)


def test_profile_raises_when_the_integrand_is_not_finite():
    # below M r of about 1e-243 cosh(5t/4) overflows inside the range
    with np.errstate(over="ignore"):
        with pytest.raises(FloatingPointError,
                           match=r"r=1e-250: the integrand is inf at the "
                                 r"node x = "):
            besselK_profile(1e-250, ModelParams(mass=1.0))
