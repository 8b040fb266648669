"""Verify registry: NaN-proof reductions, shared records, negative controls."""

import dataclasses
import json
import math
from pathlib import Path

import numpy as np
import pytest

from kgfield import amplitudes, currents, em, gauge, inner, verify
from kgfield.core import LatticeField, ModelParams, MomentumLattice, apply_C
from kgfield.verify import _worst, run_checks


BASELINE = json.loads(
    (Path(__file__).with_name("verify_baseline.json")).read_text())["measured"]


def _by_name(results):
    return {r.name: r for r in results}


def _baseline_breaches(results):
    """Checks that left the committed seed-0 baseline: above
    max(100 * baseline, 1e-13), or for an at_least check below baseline
    / 100.  A tripwire far tighter than most verify bounds, which stay
    as they are; the factor covers rounding drift across machines and
    BLAS thread counts, the floor the checks that measure exactly 0."""
    at_least = {f"{s}:{n}" for s, n, flag, _ in verify._REGISTRY if flag}
    breaches = []
    for r in results:
        key = f"{r.suite}:{r.name}"
        base = BASELINE[key]
        ok = (r.measured >= base / 100.0 if key in at_least
              else r.measured <= max(100.0 * base, 1e-13))
        if not ok:
            breaches.append(key)
    return breaches


@pytest.fixture(scope="module")
def seed0_results():
    return run_checks(ctx=verify.VerifyContext(seed=0))


def test_verify_stays_near_its_measured_baseline(seed0_results):
    assert sorted(f"{r.suite}:{r.name}" for r in seed0_results) == \
        sorted(BASELINE)
    assert _baseline_breaches(seed0_results) == []


def test_a_check_passes_exactly_when_its_margin_is_at_most_one(seed0_results):
    assert len(seed0_results) == 31
    at_least = {(s, n) for s, n, flag, _ in verify._REGISTRY if flag}
    assert at_least == {("inner", "positivity"),
                        ("currents", "probability-noncovariance"),
                        ("em", "magnetic-floor")}
    for r in seed0_results:
        assert r.passed == (r.margin <= 1.0), f"{r.suite}:{r.name}"
        assert r.margin == (r.tolerance / r.measured
                            if (r.suite, r.name) in at_least
                            else r.measured / r.tolerance)
    # the floor is the ratio lambda_min / M^2 held above 1 - 1e-9, so its
    # margin is the share of the bound used: lambda_min sits 5 % above M^2
    floor = _by_name(seed0_results)["magnetic-floor"]
    assert floor.tolerance == 1.0 - 1e-9 and floor.passed
    assert 0.9 < floor.margin < 1.0
    # the tripwire's 1e-13, which the at_least rule's baseline / 100 lacks
    assert floor.measured >= 1.0 - 1e-13


def test_a_nan_measurement_fails_with_a_nan_margin(monkeypatch):
    monkeypatch.setattr(verify, "kg_residual", lambda *a, **k: float("nan"))
    res = _by_name(run_checks("core"))["wave-equation-residual"]
    assert math.isnan(res.measured) and math.isnan(res.margin)
    assert not res.passed
    assert math.isnan(verify._margin(math.inf, 1e-12, True))
    assert verify._margin(0.0, 1e-12, True) == math.inf
    assert verify._margin(2e-12, 1e-12, False) == 2.0


def test_baseline_catches_what_the_verify_bound_lets_pass(monkeypatch):
    # a 5e-13 relative error in the closed-form inner product stays under
    # the 1e-12 bounds of the inner suite but not under its baseline
    original = inner._sector_form
    monkeypatch.setattr(inner, "_sector_form",
                        lambda *args: original(*args) * (1.0 + 5e-13))
    results = run_checks("inner", verify.VerifyContext(seed=0))
    assert all(r.passed for r in results)
    assert _baseline_breaches(results) == [
        "inner:time-independence", "inner:split-route-agreement",
        "inner:real-data-route"]
    # the same rules flag a NaN and an at_least check that collapsed
    nan = verify.CheckResult("core", "sector-reconstruction", math.nan,
                             1e-12, False)
    low = verify.CheckResult("inner", "positivity", 0.5, 1e-12, True)
    assert _baseline_breaches([nan, low]) == ["core:sector-reconstruction",
                                              "inner:positivity"]


def test_worst_is_nan_when_any_value_is_not_finite():
    assert _worst([0.1, 0.3, 0.2]) == 0.3
    # Python's max would return 0.0 here and drop the NaN
    assert math.isnan(_worst([0.0, float("nan"), 0.0]))
    assert math.isnan(_worst(v for v in (1.0, float("inf"))))


def test_nan_after_first_value_fails_check(monkeypatch):
    values = iter([0.0, float("nan"), 0.0])
    monkeypatch.setattr(verify, "kg_residual", lambda *a, **k: next(values))
    res = _by_name(run_checks("core"))["wave-equation-residual"]
    assert math.isnan(res.measured)
    assert not res.passed


def test_bessel_dual_quadrature_negative_control(monkeypatch):
    clean = _by_name(run_checks("localization"))["bessel-dual-quadrature"]
    assert clean.passed and clean.measured <= 1e-10
    original = verify.besselK_profile
    monkeypatch.setattr(verify, "besselK_profile",
                        lambda r, params: original(r, params) * (1.0 + 1e-7))
    bad = _by_name(run_checks("localization"))["bessel-dual-quadrature"]
    assert not bad.passed
    assert bad.tolerance == 1e-8


def test_limit_slopes_share_one_limit_evaluation(monkeypatch):
    calls = []
    original = verify.limit_deviation

    def counting(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(verify, "limit_deviation", counting)
    verify._std_limit_record.cache_clear()
    try:
        res = _by_name(run_checks("limits"))
    finally:
        verify._std_limit_record.cache_clear()
    assert len(calls) == 1
    assert res["density-limit-slope"].passed
    assert res["current-limit-slope"].passed


def test_em_checks_share_one_magnetic_operator(monkeypatch):
    calls = []
    original = verify.build_Dq

    def counting(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(verify, "build_Dq", counting)
    verify._em_operator.cache_clear()
    try:
        res = run_checks("em")
    finally:
        verify._em_operator.cache_clear()
    # one free operator and one magnetic one, which two checks read
    assert len(calls) == 2
    assert all(r.passed for r in res)


def test_nan_sector_deviation_fails_generator_check(monkeypatch):
    # fields reject NaN at construction, so the NaN goes in place into the
    # finite field that apply_C builds inside generator_check
    def nan_in_minus_sector(field):
        out = apply_C(field)
        out.phi_minus[5] = np.nan
        return out

    monkeypatch.setattr(gauge, "apply_C", nan_in_minus_sector)
    res = _by_name(run_checks("gauge"))["generator-first-order"]
    assert math.isnan(res.measured)
    assert not res.passed


def test_wrong_sign_phase_fails_gauge_residual(monkeypatch):
    clean = _by_name(run_checks("em"))["gauge-residual"]
    assert clean.passed and clean.measured < 1e-13
    # exp of the negated jet: the phase map u = exp(-iq Phi) takes the
    # wrong sign, while the manufactured field only turns into another
    # smooth field, which the identity holds for
    monkeypatch.setitem(em._JET_RULES, np.exp,
                        lambda a: em._jet_exp(tuple(-c for c in a)))
    bad = _by_name(run_checks("em"))["gauge-residual"]
    assert not bad.passed
    assert bad.measured > 1.0
    assert bad.tolerance == 1e-8


def test_swapped_sector_weights_fail_inner_route_checks(monkeypatch):
    names = ("split-route-agreement", "time-independence")
    clean = _by_name(run_checks("inner"))
    assert all(clean[n].passed for n in names)
    original = inner._sector_form
    # (1+a) and (1-a) trade places exactly when a changes sign
    monkeypatch.setattr(inner, "_sector_form",
                        lambda f1, f2, a: original(f1, f2, -a))
    bad = _by_name(run_checks("inner"))
    for n in names:
        assert not bad[n].passed
        assert bad[n].tolerance == 1e-12


def test_mis_scaled_boosted_amplitude_fails_frame_invariance(monkeypatch):
    original = amplitudes.boost_amplitude

    def off_by_1e6(field, boost):
        boosted = original(field, boost)
        plus = boosted.amp_plus
        return dataclasses.replace(
            boosted, amp_plus=lambda k: plus(k) * (1.0 + 1e-6))

    monkeypatch.setattr(amplitudes, "boost_amplitude", off_by_1e6)
    bad = run_checks("amplitudes")
    assert not _by_name(bad)["frame-invariance"].passed
    assert _baseline_breaches(bad) == ["amplitudes:frame-invariance"]


def test_swapped_density_weights_fail_charge_equals_norm(monkeypatch):
    original = currents.rho_a

    # the a-density of the field read with -a: (1+a) and (1-a) trade places
    def swapped(field, t):
        p = ModelParams(field.params.mass, field.params.kappa, -field.params.a)
        flipped = LatticeField(field.lattice, p, field.phi_plus,
                               field.phi_minus, t0=field.t0)
        return original(flipped, t)

    monkeypatch.setattr(currents, "rho_a", swapped)
    bad = run_checks("currents")
    assert [r.name for r in bad if not r.passed] == ["charge-equals-norm"]
    assert _baseline_breaches(bad) == ["currents:charge-equals-norm"]


def test_mis_scaled_dispersion_fails_every_limit_slope(monkeypatch):
    # 100 x the slope baselines lies above the 0.4 bound, so the tripwire
    # cannot see these checks: the corruption must fail the bound itself
    original = MomentumLattice.omega
    monkeypatch.setattr(MomentumLattice, "omega",
                        lambda self, mass: original(self, mass) * 1.01)
    verify._std_limit_record.cache_clear()
    try:
        bad = _by_name(run_checks("limits"))
    finally:
        verify._std_limit_record.cache_clear()
    for name in ("density-limit-slope", "current-limit-slope",
                 "operator-expansion-slope"):
        assert not bad[name].passed, name
        assert bad[name].measured > 2.0 * bad[name].tolerance, name


def test_unpadded_currents_fail_continuity(monkeypatch):
    # the check draws modes out to 0.9 of Nyquist, whose quadratic
    # products alias on the native grid
    monkeypatch.setattr(currents, "PAD", 1)
    bad = run_checks("currents")
    assert [r.name for r in bad if not r.passed] == ["continuity-residual"]
    assert _by_name(bad)["continuity-residual"].measured > 1.0
    assert _baseline_breaches(bad) == ["currents:continuity-residual"]
