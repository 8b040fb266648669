"""Metric arithmetic on fixed samples, the tracer's counters, the env."""

import math
import sys

import numpy as np
import pytest

import harness
import tracer


def test_quartile_spread_matches_statistics_quantiles():
    values = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0, 10.0]
    # exclusive method: Q1 = 2.75, Q3 = 8.25, median 5.5
    assert harness.quartile_spread(values) == pytest.approx(5.5 / 5.5)
    assert harness.quartile_spread([2.0] * 10) == 0.0


def test_end_to_end_figures():
    e2e = harness.end_to_end([0.9, 1.2, 1.0], [0.1, 0.3, 0.2, 0.4], 512.0)
    assert e2e["setup_s"] == 1.0
    assert e2e["op_p50_s"] == pytest.approx(0.25)
    assert e2e["ops_per_s"] == pytest.approx(4 / 1.0)
    assert e2e["peak_rss_mb"] == 512.0
    with pytest.raises(ValueError):
        harness.end_to_end([1.0], [], 1.0)


def test_ops_per_s_sees_an_outlier_the_median_hides():
    fast = harness.end_to_end([1.0], [0.1] * 10, 1.0)
    slow = harness.end_to_end([1.0], [0.1] * 9 + [1.0], 1.0)
    assert fast["op_p50_s"] == slow["op_p50_s"]
    assert slow["ops_per_s"] < 0.6 * fast["ops_per_s"]


def test_bracket_converts_with_samples_on_both_sides(monkeypatch):
    import calibration
    ticks = iter([0.02, 0.02, 0.03, 0.03, 0.01, 0.01])
    monkeypatch.setattr(calibration, "kernel", lambda: next(ticks))
    bracket = calibration.Bracket(2)                  # before: 0.02, 0.02
    # mean kernel time 0.025 = 2.5 x reference: the machine ran slow
    assert bracket.convert([1.0, 0.5]) == pytest.approx([0.4, 0.2])
    # next op: before 0.03, 0.03 (reused), after 0.01, 0.01 -> mean 0.02
    assert bracket.convert([1.0]) == pytest.approx([0.5])


def test_calibration_kernel_is_positive_and_repeatable():
    import calibration
    t = calibration.samples(3)
    assert all(x > 0 for x in t)
    assert max(t) < 20 * min(t)


def _span(name, start, end, parent=-1, calls=0, points=0):
    return [name, start, end, parent, calls, points]


def test_per_layer_metrics_per_call_per_op_and_absent_layers():
    spans = [
        _span("op", 0.0, 1.0, calls=10, points=1000),
        _span("currents.continuity_Ja", 0.1, 0.4, 0, 6, 600),
        _span("currents.current_Ja", 0.1, 0.2, 1, 4, 400),
        _span("verify.core", 0.5, 0.7, 0),
        _span("op", 1.0, 2.0, calls=10, points=1000),
        _span("currents.continuity_Ja", 1.1, 1.3, 4, 8, 800),
        _span("verify.core", 1.5, 1.6, 4),
    ]
    m = tracer.per_layer_metrics(spans, alloc_mb=12.5)
    assert m["core.fft_calls"] == 10 and m["core.fft_points"] == 1000
    assert m["currents.continuity_Ja_s"] == pytest.approx(0.25)
    assert m["currents.continuity_Ja.fft_calls"] == 7
    assert m["currents.current_Ja_s"] == pytest.approx(0.1)
    assert m["verify.core_s"] == pytest.approx(0.15)      # per op
    assert m["em.build_Dq_s"] == 0.0                      # never called
    assert m["core.lattice_alloc_mb"] == 12.5
    with pytest.raises(ValueError):
        tracer.per_layer_metrics(spans[1:4], 0.0)


def test_parse_importtime_takes_cumulative_of_nested_lines():
    text = "\n".join([
        "import time: self [us] | cumulative | imported package",
        "import time:       100 |        100 |     _io",
        "import time:      2000 |     600000 |   scipy.integrate",
        "import time:      9000 |     900000 | kgfield.cli",
        "import time:      1800 |     370000 | sympy",
    ])
    got = tracer.parse_importtime(text)
    assert got["scipy.integrate"] == pytest.approx(0.6)
    assert got["kgfield.cli"] == pytest.approx(0.9)
    metrics = tracer.import_metrics(got)
    assert metrics["import.kgfield_cli_s"] == pytest.approx(0.9)
    assert metrics["import.mpmath_s"] == 0.0


def test_fft_counter_counts_outermost_calls_and_points():
    tr = tracer.Tracer()
    fft2 = tr._count_fft(np.fft.fft2)
    with tr.span("op"):
        fft2(np.zeros((8, 4)))
        fft2(np.zeros((2, 2)))
    assert (tr.fft_calls, tr.fft_points) == (2, 36)
    assert tr.spans[0][4:] == [2, 36]


def test_recursive_span_is_recorded_once():
    tr = tracer.Tracer()

    def f(n):
        return 0 if n == 0 else 1 + traced(n - 1)

    traced = tr.wrap(f, "x")
    assert traced(3) == 3
    assert len(tr.spans) == 1


def test_child_env_is_hermetic(monkeypatch):
    monkeypatch.setenv("KGFIELD_OUT", "/elsewhere")
    monkeypatch.setenv("KGFIELD_CORRUPT_DISPERSION", "1.02")
    monkeypatch.setenv("PYTHONPATH", "src")
    env = harness.child_env()
    assert "KGFIELD_OUT" not in env and "KGFIELD_CORRUPT_DISPERSION" not in env
    assert env["PYTHONPATH"] == str(harness.SRC)
    assert harness.SRC.is_absolute()
    assert env["OPENBLAS_NUM_THREADS"] == env["OMP_NUM_THREADS"] == "1"


def test_nan_never_passes_a_bound():
    import checks
    with pytest.raises(checks.CheckFailed):
        checks.check_spectral_op(math.nan, 0.5, 1.0, 0.1, 0.1, 1.0, 1.0, 0.1)
    with pytest.raises(checks.CheckFailed):
        checks.check_spectral_op(0.0, 0.5, math.nan, 0.1, 0.1, 1.0, 1.0, 0.1)


class _UnitBracket:
    def __init__(self):
        self.groups = []

    def convert(self, wall_s):
        self.groups.append(len(wall_s))
        return [2.0 * t for t in wall_s]


def test_timed_rounds_counts_raising_ops_and_checks_as_failed():
    def run_op(i):
        if i % 4 == 1:
            raise RuntimeError("kgfield blew up")
        return 0.5, [] if i % 4 == 2 else [1.0]

    def check_op(i, out):
        out[-1]                        # IndexError on the malformed output

    bracket = _UnitBracket()
    rounds = harness.timed_rounds(4, run_op, check_op, bracket, 0.0, group=2)
    assert len(rounds.op_times) == 4 == len(rounds.op_ref_s)  # one round
    assert bracket.groups == [2, 2]
    assert rounds.op_times[0] == rounds.op_times[2] == 0.5
    assert rounds.op_ref_s[3] == 1.0
    assert len(rounds.problems) == 2
    assert "RuntimeError" in rounds.problems[0]
    assert "IndexError" in rounds.problems[1]


def test_timed_rounds_runs_whole_rounds_until_the_time_is_up():
    rounds = harness.timed_rounds(3, lambda i: (0.0, i), lambda i, out: None,
                                  _UnitBracket(), 0.05)
    assert len(rounds.op_times) % 3 == 0 and len(rounds.op_times) >= 3
    assert not rounds.problems


def test_child_peak_rss_is_not_the_parents(tmp_path):
    ballast = bytearray(200 * 1024 * 1024)
    ballast[::4096] = b"\x01" * len(ballast[::4096])
    res = harness.run_child([sys.executable, "-S", "-c", "pass"], tmp_path)
    del ballast
    harness.stop_launcher()
    assert res.returncode == 0
    assert res.maxrss_mb < 100
