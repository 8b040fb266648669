"""Gauge group action, generator, conserved charge, group classification."""

from fractions import Fraction

import numpy as np
import pytest
import sympy

from kgfield import gauge
from kgfield.core import (
    LatticeField,
    ModelParams,
    MomentumLattice,
    apply_C,
    energy_split,
    evolve,
    random_field,
)
from kgfield.currents import total_probability
from kgfield.gauge import (
    GaugeElement,
    GroupClass,
    gauge_transform,
    generator_check,
    group_classify,
)
from kgfield.inner import inner_a, norm_a

from oracles import charge_phase_space


def small_field(a=0.3, seed=5):
    lat = MomentumLattice([8.0], [32])
    params = ModelParams(mass=1.2, kappa=0.9, a=a)
    return random_field(lat, params, seed=seed)


def test_identity_and_pi_flip():
    f = small_field(a=0.0)
    g0 = gauge_transform(f, 0.0)
    assert np.abs(g0.phi_plus - f.phi_plus).max() == 0.0
    gpi = gauge_transform(f, np.pi, 0.0)
    scale = np.abs(f.phi_plus).max()
    assert np.abs(gpi.phi_plus + f.phi_plus).max() < 1e-12 * scale
    assert np.abs(gpi.phi_minus + f.phi_minus).max() < 1e-12 * scale


@pytest.mark.parametrize("a", [-0.8, 0.3])
@pytest.mark.parametrize("theta", [0.7, 2.9, -1.3, 41.3])
def test_action_is_the_grading_operator_form(a, theta):
    # the group element written e^{-ia theta}[cos(theta) - i sin(theta) C]
    f = small_field(a=a)
    g = gauge_transform(f, theta)
    cf = apply_C(f)
    base = np.exp(-1j * a * theta)
    scale = max(np.abs(f.phi_plus).max(), np.abs(f.phi_minus).max())
    for sector in ("phi_plus", "phi_minus"):
        want = base * (np.cos(theta) * getattr(f, sector)
                       - 1j * np.sin(theta) * getattr(cf, sector))
        assert np.abs(getattr(g, sector) - want).max() < 1e-13 * scale


@pytest.mark.parametrize("a", [-0.8, 0.0, 0.3, 0.9])
@pytest.mark.parametrize("theta", [0.7, 2.9, -1.3])
def test_norm_preserved(a, theta):
    f = small_field(a=a)
    g = gauge_transform(f, theta)
    n0 = norm_a(f)
    assert abs(norm_a(g) - n0) < 1e-12 * n0
    # inner products with a partner pick up no modulus either
    h = small_field(a=a, seed=11)
    lhs = inner_a(gauge_transform(h, theta), g)
    rhs = np.exp(1j * 0.0) * inner_a(h, f)    # same phase on both slots
    assert abs(lhs - rhs) < 1e-12 * abs(rhs)


def test_group_law_and_element_compose():
    f = small_field(a=0.45)
    t1, t2 = 0.8, -2.1
    one = gauge_transform(gauge_transform(f, t2), t1)
    both = gauge_transform(f, t1 + t2)
    scale = np.abs(f.phi_plus).max()
    assert np.abs(one.phi_plus - both.phi_plus).max() < 1e-13 * scale
    assert np.abs(one.phi_minus - both.phi_minus).max() < 1e-13 * scale
    e = GaugeElement(t1, 0.45).compose(GaugeElement(t2, 0.45))
    assert e.theta == t1 + t2
    with pytest.raises(ValueError):
        GaugeElement(t1, 0.2).compose(GaugeElement(t2, 0.3))


def test_commutes_with_evolution():
    f = small_field(a=0.25)
    t = 1.7
    a_then_evolve = evolve(gauge_transform(f, 0.9), t)
    evolve_then_a = gauge_transform(evolve(f, t), 0.9)
    scale = np.abs(f.phi_plus).max()
    for sector in ("phi_plus", "phi_minus"):
        dev = np.abs(getattr(a_then_evolve, sector)
                     - getattr(evolve_then_a, sector)).max()
        assert dev < 1e-13 * scale


def test_matrix_matches_field_action():
    f = small_field(a=0.6)
    e = GaugeElement(1.234, 0.6)
    g = gauge_transform(f, e.theta, e.a)
    m = e.matrix
    assert np.abs(g.phi_plus - m[0, 0] * f.phi_plus).max() == 0.0
    assert np.abs(g.phi_minus - m[1, 1] * f.phi_minus).max() == 0.0


def test_generator_first_order():
    f = small_field(a=0.35)
    scale = max(np.abs(f.phi_plus).max(), np.abs(f.phi_minus).max())
    d1 = generator_check(f, 0.35, 1e-4)
    assert d1 <= 1e-3 * scale
    d2 = generator_check(f, 0.35, 5e-5)
    assert 0.4 <= d2 / d1 <= 0.6
    with pytest.raises(ValueError):
        generator_check(f, 0.35, 1e-3)


def test_generator_check_propagates_nan_in_second_sector(monkeypatch):
    # fields reject NaN at construction, so the NaN goes in place into the
    # finite field that apply_C builds, standing for a fault past that check
    def nan_in_minus_sector(field):
        out = apply_C(field)
        out.phi_minus[5] = np.nan
        return out

    monkeypatch.setattr(gauge, "apply_C", nan_in_minus_sector)
    # Python's max(dev_plus, nan) would return dev_plus and pass
    assert np.isnan(generator_check(small_field(a=0.35), 0.35, 1e-5))


def test_generator_on_grading_eigenstate():
    f = small_field(a=0.0)
    plus, _ = energy_split(f)
    # on a pure positive field the generator is -i(1+0) times the field;
    # the finite difference only carries the quadratic phase remainder
    dev = generator_check(plus, 0.0, 1e-4)
    assert dev <= 1e-4 * np.abs(plus.phi_plus).max()


@pytest.mark.parametrize("a", [-0.5, 0.0, 0.7])
def test_charge_equals_total_probability(a):
    lat = MomentumLattice([9.0, 7.0], [16, 16])
    params = ModelParams(mass=1.4, kappa=1.1, a=a)
    f = random_field(lat, params, seed=19)
    for t in (0.0, 1.3):
        q = charge_phase_space(f, t)
        p = total_probability(f, t)
        assert abs(q - p) < 1e-10 * abs(p)


def test_charge_single_mode_oracle():
    lat = MomentumLattice([8.0], [32])
    params = ModelParams(mass=1.5, kappa=0.7, a=0.3)
    phi_p = np.zeros(32, dtype=complex)
    phi_p[5] = 0.8 - 0.3j
    f = LatticeField(lat, params, phi_p, np.zeros(32, dtype=complex))
    w = lat.omega(params.mass)[5]
    want = params.kappa * (1 + params.a) * w * lat.volume \
        * abs(phi_p[5]) ** 2 / params.mass
    assert abs(charge_phase_space(f, 0.0) - want) < 1e-12 * want
    zero = LatticeField(lat, params, np.zeros(32, dtype=complex),
                        np.zeros(32, dtype=complex))
    assert charge_phase_space(zero, 0.0) == 0.0


def test_classify_half_is_u1_period_4pi():
    out = group_classify(Fraction(1, 2))
    assert isinstance(out, GroupClass)
    assert out.kind == "U1"
    assert abs(out.period - 4.0 * np.pi) < 1e-15
    assert out.witness["denominator"] == 2
    assert all(d > 1e-6 for d in out.witness["rejected_multiples"].values())


def test_classify_zero_and_reduction():
    assert group_classify(0).period == pytest.approx(2.0 * np.pi)
    # 3/9 reduces to 1/3
    out = group_classify(Fraction(3, 9))
    assert out.period == pytest.approx(6.0 * np.pi)
    out = group_classify(sympy.Rational(2, 4))
    assert out.period == pytest.approx(4.0 * np.pi)


def test_classify_irrational():
    out = group_classify(sympy.sqrt(2) / 2)
    assert out.kind == "Rplus"
    assert out.period is None
    assert out.witness["min_distance"] > 1e-6
    assert 1 <= out.witness["at_multiple"] <= 10000


def test_classify_rejects_floats_and_out_of_range():
    with pytest.raises(ValueError):
        group_classify(0.5)
    with pytest.raises(ValueError):
        group_classify(Fraction(3, 2))
    with pytest.raises(ValueError):
        group_classify(sympy.sqrt(3))    # magnitude above 1
