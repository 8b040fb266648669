"""Every checker accepts a correct output and rejects a perturbed one."""

import json

import numpy as np
import pytest

import checks
import make_state

REJECT = pytest.raises(checks.CheckFailed)

PACKET = {
    "model": {"d": 1, "L": 16.0, "N": 8, "M": 1.0, "kappa": 0.8, "a": 0.3},
    "tasks": [{"task": "rho_a", "times": [0.0, 1.0]},
              {"task": "total_probability", "times": [0.0, 1.0]},
              {"task": "inner_products"},
              {"task": "continuity", "times": [0.0], "which": "J_a"}],
}


def _csv(path, columns, rows, footer=()):
    lines = ["# kgfield 0.1.0", "# written 2026-01-01T00:00:00Z",
             ",".join(columns)]
    lines += [",".join(repr(v) for v in row) for row in rows]
    lines += [f"# {f}" for f in footer]
    path.write_text("\n".join(lines) + "\n")


def _packet(tmp_path, drift=0.0, rho_shift=0.0, residual=3e-15):
    rho = np.array([0.1, 0.3, 0.5, 0.7, 0.5, 0.3, 0.1, 0.0]) + rho_shift
    total = float(rho.sum() * 2.0)              # cell 16 / 8
    for i in range(2):
        _csv(tmp_path / f"rho_a_t{i}.csv", ("x1", "rho_a"),
             [(float(x), float(r)) for x, r in enumerate(rho)])
    _csv(tmp_path / "total_probability.csv", ("t", "total_probability"),
         [(0.0, total), (1.0, total * (1.0 + drift))])
    _csv(tmp_path / "continuity.csv", ("t", "residual"), [(0.0, residual)])
    (tmp_path / "summary.json").write_text(json.dumps({"tasks": {
        "inner_products": {"norm_sq": total, "split_rel_dev": 0.0}}}))
    return tmp_path


def test_packet_accepts_consistent_output(tmp_path):
    checks.check_scenario_packet(_packet(tmp_path), PACKET)


@pytest.mark.parametrize("kw", [{"drift": 1e-9}, {"rho_shift": -0.2},
                                {"residual": 1e-9}])
def test_packet_rejects_perturbed_output(tmp_path, kw):
    with REJECT:
        checks.check_scenario_packet(_packet(tmp_path, **kw), PACKET)


def test_spectral_op_rejects_each_perturbation():
    ok = dict(res_ja=3e-15, res_calja=0.55, prob=2.0, inner=0.1 + 0.2j,
              inner_split=0.1 + 0.2j, ref_ff=2.0, ref_gg=3.0,
              ref_fg=0.1 + 0.2j)
    checks.check_spectral_op(**ok)
    for key, value in (("res_ja", 1e-9), ("res_calja", 0.0),
                       ("prob", 2.0 * (1 + 1e-9)), ("inner", 0.1 + 0.2001j),
                       ("inner_split", 0.1001 + 0.2j)):
        with REJECT:
            checks.check_spectral_op(**dict(ok, **{key: value}))


def test_closed_form_inner_matches_a_direct_sum():
    rng = np.random.default_rng(0)
    f = [rng.standard_normal(6) + 1j * rng.standard_normal(6) for _ in range(4)]
    w = checks.mode_omega([4.0], [6], 1.5)
    got = checks.closed_form_inner(*f, w, 4.0, 0.8, 1.5, 0.25)
    want = sum(0.8 / 1.5 * 4.0 * w[i] * (1.25 * np.conj(f[0][i]) * f[2][i]
                                         + 0.75 * np.conj(f[1][i]) * f[3][i])
               for i in range(6))
    assert got == pytest.approx(want, rel=1e-14)


def test_profile_check_against_kv():
    r = np.linspace(0.5, 3.0, 9)
    exact = checks.bessel_profile_kv(r, 1.0, 1.0)
    checks.check_localized_op(r, exact * (1 + 5e-4), exact, 1.0 + 1e-12,
                              1.0, 1.0)
    with REJECT:        # lattice profile off by 2e-3
        checks.check_localized_op(r, exact * (1 + 2e-3), exact, 1.0, 1.0, 1.0)
    with REJECT:        # quadrature profile off by 1e-7
        checks.check_localized_op(r, exact, exact * (1 + 1e-7), 1.0, 1.0, 1.0)
    with REJECT:        # state not normalized
        checks.check_localized_op(r, exact, exact, 1.0 + 1e-9, 1.0, 1.0)


def test_bessel_profile_kv_known_value():
    # K_{5/4}(1) = 0.6955..., scipy-independent check via the integral
    from scipy.integrate import quad
    k, _ = quad(lambda t: np.exp(-np.cosh(t)) * np.cosh(1.25 * t), 0, 20)
    const = 2.0 ** 0.75 * np.pi ** 1.5 * 3.625609908221908
    assert checks.bessel_profile_kv(1.0, 1.0, 1.0) == pytest.approx(
        k / const, rel=1e-10)


TWO_MODES = {"model": {"M": 1.0},
             "field": {"modes": [{"k": [0.0]}, {"k": [3 ** 0.5]}]},
             "tasks": [{"task": "current-oracle", "events": 2, "beta": 0.5}]}


def _two_modes(tmp_path, ksq=-6.5, after=-2.0, cal0=1.0):
    _csv(tmp_path / "current_oracle.csv", ("x0", "calJ0"),
         [(0.0, 1.0), (1.0, cal0)],
         footer=(f"Ksq-before {ksq!r}", "Ksq-after(beta=0.5) -7.0",
                 "k1k2-before -2.0", f"k1k2-after {after!r}"))
    return tmp_path


def test_two_modes_closed_form_is_minus_six_and_a_half(tmp_path):
    assert checks.two_mode_closed_form(TWO_MODES)[0] == pytest.approx(-6.5)
    checks.check_scenario_two_modes(_two_modes(tmp_path), TWO_MODES)
    for kw in ({"ksq": -6.4}, {"after": -2.001}, {"cal0": -1e-3}):
        with REJECT:
            checks.check_scenario_two_modes(_two_modes(tmp_path, **kw),
                                            TWO_MODES)


def test_sweeps(tmp_path):
    grid = [-0.6, 0.0, 0.6]
    _csv(tmp_path / "sweep_a.csv", ("a", "p"), [(a, 2.0 + a) for a in grid])
    checks.check_sweep_a(tmp_path, {"grid": grid})
    _csv(tmp_path / "sweep_a.csv", ("a", "p"),
         [(a, 2.0 + a + 1e-9 * a * a) for a in grid])
    with REJECT:
        checks.check_sweep_a(tmp_path, {"grid": grid})

    masses = [1.5, 3.0, 6.0, 12.0]
    dev = [m ** -2.0 for m in masses]
    _csv(tmp_path / "sweep_M.csv", ("M", "d"), list(zip(masses, dev)),
         footer=(f"fitted-slope {-2.0!r}",))
    checks.check_sweep_mass(tmp_path, {})
    _csv(tmp_path / "sweep_M.csv", ("M", "d"),
         [(m, m ** -1.0) for m in masses], footer=("fitted-slope -1.0",))
    with REJECT:
        checks.check_sweep_mass(tmp_path, {})

    name = "sweep_quadrature-order.csv"
    _csv(tmp_path / name, ("q", "d"), [(12, 1e-2), (24, 1e-6), (48, 1e-10)])
    checks.check_sweep_quadrature(tmp_path, {})
    _csv(tmp_path / name, ("q", "d"), [(12, 1e-2), (24, 1e-11), (48, 1e-10)])
    with REJECT:
        checks.check_sweep_quadrature(tmp_path, {})


def test_csv_body_drops_only_the_timestamp():
    a = "# kgfield 0.1.0\n# written 2026-01-01T00:00:00Z\nt,x\n0.0,1.0\n"
    b = a.replace("2026-01-01T00:00:00Z", "2027-02-02T00:00:00Z")
    assert checks.csv_body(a) == checks.csv_body(b)
    assert checks.csv_body(a) != checks.csv_body(a.replace("1.0\n", "1.1\n"))


def test_state_inspect_echo():
    expected = make_state.expected_inspect(5)
    assert expected == make_state.expected_inspect(5)
    checks.check_state_inspect(json.dumps(expected), expected)
    with REJECT:
        checks.check_state_inspect(json.dumps(dict(expected, t0=0.0)),
                                   expected)


def test_version():
    checks.check_version("kgfield 0.1.0\n", "0.1.0")
    with REJECT:
        checks.check_version("kgfield 0.2.0\n", "0.1.0")


def _verify_out(tmp_path, n=31, failed=()):
    lines = [f"{'FAIL' if i in failed else 'PASS'} s:c{i} measured=0"
             for i in range(n)]
    lines.append(f"{n - len(failed)}/{n} checks passed")
    report = tmp_path / "verify_report.json"
    report.write_text(json.dumps({
        "passed": not failed,
        "checks": [{"passed": i not in failed} for i in range(n)]}))
    return "\n".join(lines) + "\n", report


def test_verify_check_rejects_a_corrupted_run(tmp_path):
    stdout, report = _verify_out(tmp_path)
    checks.check_verify(0, stdout, report)
    with REJECT:                                   # non-zero exit
        checks.check_verify(1, stdout, report)
    stdout, report = _verify_out(tmp_path, failed=(0,))
    with REJECT:                                   # one check failed
        checks.check_verify(0, stdout, report)
    stdout, report = _verify_out(tmp_path, n=30)
    with REJECT:                                   # checks went missing
        checks.check_verify(0, stdout, report)


def test_negative_control():
    named = "FAIL core:wave-equation-residual measured=1.03e+00\n30/31 checks passed\n"
    checks.check_negative_control(1, named)
    with REJECT:                                   # corruption went unseen
        checks.check_negative_control(0, "31/31 checks passed\n")
    with REJECT:                                   # failed for another reason
        checks.check_negative_control(1, "FAIL em:gauge-residual measured=1\n")
