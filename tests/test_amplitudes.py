"""Continuum packets: quadrature inner products and exact frame invariance."""

import numpy as np
import pytest

from kgfield.amplitudes import (
    AmplitudeField,
    GaussianAmplitude,
    QuadratureRule,
    boost_amplitude,
    gauss_legendre_nodes,
    inner_amplitude,
    invariance_check,
    truncation_mass_check,
)
from kgfield.core import Boost, ModelParams, MomentumLattice, LatticeField
from kgfield.inner import inner_a

from oracles import evaluate_at, kg_inner_amplitude, with_quad


def test_gauss_legendre_nodes_are_numpy_rule_built_once():
    from numpy.polynomial.legendre import leggauss

    y, w = gauss_legendre_nodes(24)
    assert gauss_legendre_nodes(24)[0] is y
    for got, want in zip((y, w), leggauss(24)):
        assert got.tobytes() == want.tobytes()
        with pytest.raises(ValueError):
            got[0] = 0.0
    rule = QuadratureRule.gauss_legendre(1, radius=1.0, order=24)
    assert rule.nodes[:, 0].tobytes() == y.tobytes()


def packet_pair(a=0.0, kappa=1.0):
    params = ModelParams(mass=1.0, kappa=kappa, a=a)
    quad = QuadratureRule.gauss_legendre(1, radius=8.0, order=64, stretch=1.0)
    f1 = AmplitudeField(params, 1,
                        GaussianAmplitude((0.4,), 0.5, amp=1.0),
                        GaussianAmplitude((-0.2,), 0.6, amp=0.3 + 0.2j),
                        quad)
    f2 = AmplitudeField(params, 1,
                        GaussianAmplitude((0.1,), 0.45, amp=0.8 - 0.5j),
                        None, quad)
    return f1, f2


def test_truncation_check_accepts_and_rejects():
    f1, _ = packet_pair()
    assert truncation_mass_check(f1) < 1e-10
    tight = with_quad(f1, QuadratureRule.gauss_legendre(1, radius=1.0, order=32))
    with pytest.raises(ValueError):
        truncation_mass_check(tight)


def test_a_nan_fails_the_rule_and_the_truncation_gate():
    for radius in (np.nan, np.inf, 0.0):
        with pytest.raises(ValueError, match="radius"):
            QuadratureRule.gauss_legendre(1, radius=radius, order=32)
    for stretch in (np.nan, np.inf, -1.0):
        with pytest.raises(ValueError, match="stretch"):
            QuadratureRule.gauss_legendre(1, radius=8.0, order=32,
                                          stretch=stretch)
    f1, _ = packet_pair()
    f1.amp_plus = GaussianAmplitude((0.4,), 0.5, amp=np.nan)
    with pytest.raises(ValueError, match="nan of the amplitude mass"):
        truncation_mass_check(f1)


def test_inner_amplitude_hermitian_positive():
    f1, f2 = packet_pair(a=0.3)
    v12 = inner_amplitude(f1, f2)
    v21 = inner_amplitude(f2, f1)
    assert abs(v12 - np.conj(v21)) < 1e-12 * abs(v12)
    assert inner_amplitude(f1, f1).real > 0
    assert inner_amplitude(f2, f2).real > 0


def test_positive_packet_charge_form_proportionality():
    # single-sector packets: the family member is kappa (1 +/- a) times
    # the charge form at g = 1/(2M)
    params = ModelParams(mass=1.0, kappa=0.7, a=0.3)
    quad = QuadratureRule.gauss_legendre(1, radius=8.0, order=96, stretch=1.0)
    plus = AmplitudeField(params, 1, GaussianAmplitude((0.3,), 0.5), None, quad)
    v = inner_amplitude(plus, plus)
    g = kg_inner_amplitude(plus, plus, 1.0 / (2 * params.mass))
    assert abs(v - params.kappa * (1 + params.a) * g) < 1e-10 * abs(v)
    minus = AmplitudeField(params, 1, None, GaussianAmplitude((0.3,), 0.5), quad)
    vm = inner_amplitude(minus, minus)
    gm = kg_inner_amplitude(minus, minus, 1.0 / (2 * params.mass))
    assert gm.real < 0
    assert abs(vm + params.kappa * (1 - params.a) * gm) < 1e-10 * abs(vm)


def test_amplitude_inner_matches_lattice_inner():
    # same packet realized as a lattice field: phi+(k) = (2 pi)^d a+(k) / V
    params = ModelParams(mass=1.0, kappa=1.2, a=0.4)
    quad = QuadratureRule.gauss_legendre(1, radius=10.0, order=128, stretch=1.0)
    amp = GaussianAmplitude((0.5,), 0.7, amp=0.9 - 0.2j)
    af = AmplitudeField(params, 1, amp, None, quad)
    lat = MomentumLattice([40.0], [512])
    k = lat.k_grids[0]
    phi_plus = (2 * np.pi / 40.0) * amp(k[:, None])
    lf = LatticeField(lat, params, phi_plus.astype(complex),
                      np.zeros_like(phi_plus, dtype=complex))
    va = inner_amplitude(af, af)
    vl = inner_a(lf, lf)
    assert abs(va - vl) / abs(vl) < 1e-8


def test_boost_jacobian_preserves_values():
    f1, _ = packet_pair()
    b = Boost((0.5,))
    g1 = boost_amplitude(f1, b)
    rng = np.random.default_rng(3)
    events = np.column_stack([rng.uniform(-1, 1, 50), rng.uniform(-2, 2, 50)])
    # the boosted packet is band-limited too, so quadrature converges;
    # compare field values at matched events
    v_rest = evaluate_at(f1, events)
    v_boost = evaluate_at(g1, b.transform_events(events))
    assert np.abs(v_boost - v_rest).max() < 1e-8


@pytest.mark.parametrize("a", [0.0, 0.5])
def test_inner_product_frame_invariance(a):
    f1, f2 = packet_pair(a=a, kappa=0.8)
    report = invariance_check(f1, f2, Boost((0.5,)), orders=(16, 32, 64, 128))
    devs = report["rel_dev"]
    assert devs[-1] <= 1e-8
    # each order doubling buys at least two digits until the rounding floor
    for prev, nxt in zip(devs, devs[1:]):
        assert prev <= 1e-12 or nxt <= prev / 100.0


def test_charge_form_not_used_beyond_quadrature():
    # sanity: the charge form itself is frame invariant for these packets
    f1, f2 = packet_pair()
    b = Boost((0.4,))
    g1 = boost_amplitude(f1, b)
    g2 = boost_amplitude(f2, b)
    rule = QuadratureRule.gauss_legendre(1, g1.quad.radius, 128)
    v0 = kg_inner_amplitude(f1, f2, 0.5)
    v1 = kg_inner_amplitude(with_quad(g1, rule), with_quad(g2, rule), 0.5)
    assert abs(v1 - v0) < 1e-8 * abs(v0)
