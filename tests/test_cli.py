"""Command-line exit codes, schema rejection, determinism, report format."""

import ast
import json
import math
import os
import platform
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import kgfield
from kgfield import _blas
from kgfield.cli import main
from kgfield.core import ModelParams, MomentumLattice

CONFIGS = Path(__file__).resolve().parents[1] / "configs"


def body_lines(csv_text: str) -> list[str]:
    """Everything except comment lines; used to compare determinism."""
    return [ln for ln in csv_text.splitlines() if not ln.startswith("#")]


def footer_lines(csv_text: str) -> list[str]:
    """Comment lines after the first data row (slope footers and the like)."""
    lines = csv_text.splitlines()
    seen_data = False
    out = []
    for ln in lines:
        if not ln.startswith("#"):
            seen_data = True
        elif seen_data:
            out.append(ln)
    return out


def write_config(tmp_path, name, doc):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def packet_scenario(outdir, n=64):
    return {
        "model": {"d": 1, "L": 16.0, "N": n, "M": 1.0, "kappa": 0.8,
                  "a": 0.3, "t0": 0.0},
        "field": {"construction": "gaussian-packet", "sigma": 1.2,
                  "kcarrier": [0.5], "center": [0.0]},
        "tasks": [
            {"task": "total_probability", "times": [0.0, 0.7, 1.4]},
            {"task": "inner_products"},
        ],
        "output": {"directory": str(outdir), "formats": ["csv", "json"]},
        "seed": 7,
    }


def test_continuity_task_takes_the_probability_current(tmp_path):
    doc = packet_scenario(tmp_path)
    doc["tasks"] = [{"task": "continuity", "times": [0.0, 0.4],
                     "which": "calJ_a"}]
    assert main(["scenario", write_config(tmp_path, "calj.json", doc)]) == 0
    summary = json.loads((tmp_path / "summary.json").read_text())["tasks"]
    # calJ_a is not conserved: its residual is far above rounding
    assert summary["continuity"]["which"] == "calJ_a"
    assert summary["continuity"]["max_residual"] > 1e-6


def test_verify_suite_passes(capsys):
    assert main(["verify", "--suite", "core"]) == 0
    out = capsys.readouterr().out
    assert "PASS core:wave-equation-residual" in out
    assert "4/4 checks passed" in out


def test_verify_unknown_suite_is_config_error(capsys):
    assert main(["verify", "--suite", "bogus"]) == 2


def test_verify_corrupted_constant_fails_named_check(tmp_path, monkeypatch):
    # the negative control: a corrupted dispersion relation must turn the
    # wave-equation check red and flip the exit code
    monkeypatch.setenv("KGFIELD_CORRUPT_DISPERSION", "1.02")
    monkeypatch.setenv("KGFIELD_OUT", str(tmp_path))
    assert main(["verify", "--suite", "core"]) == 1
    report = json.loads((tmp_path / "verify_report.json").read_text())
    assert report["passed"] is False
    failing = [c for c in report["checks"] if not c["passed"]]
    assert [c["name"] for c in failing] == ["wave-equation-residual"]


def test_verify_report_written(tmp_path, monkeypatch):
    monkeypatch.delenv("KGFIELD_OUT", raising=False)
    assert main(["verify", "--suite", "gauge", "--out", str(tmp_path)]) == 0
    report = json.loads((tmp_path / "verify_report.json").read_text())
    assert report["passed"] is True
    assert {c["suite"] for c in report["checks"]} == {"gauge"}
    for c in report["checks"]:
        assert math.isfinite(c["elapsed_s"]) and c["elapsed_s"] >= 0.0
        assert c["margin"] == c["measured"] / c["tolerance"] <= 1.0
    env = report["environment"]
    assert env["python"] == platform.python_version()
    assert env["numpy"] == np.__version__
    assert env["machine"] == platform.machine()
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    assert env["blas"] == {"name": blas["name"], "version": blas["version"],
                           "threads": _blas.threads(),
                           "cap": blas["name"] == "scipy-openblas"}
    assert all(env["blas"].values())


def _raises(exc):
    def check(ctx):
        raise exc
    return check


@pytest.mark.parametrize("check, line", [
    (_raises(ValueError("operands could not be broadcast")),
     "FAIL probe:bad measured=nan tolerance=nan "
     "error=ValueError: operands could not be broadcast"),
    (_raises(FloatingPointError("overflow")),
     "FAIL probe:bad measured=nan tolerance=nan "
     "error=FloatingPointError: overflow"),
    (lambda ctx: (float("nan"), 1e-12),
     "FAIL probe:bad measured=nan tolerance=1.0e-12"),
], ids=["value-error", "floating-point-error", "nan"])
def test_a_broken_check_fails_by_name_and_the_rest_still_run(
        tmp_path, capsys, monkeypatch, check, line):
    from kgfield import verify

    monkeypatch.delenv("KGFIELD_OUT", raising=False)
    rows = list(verify._REGISTRY)
    rows.insert(len(rows) // 2, ("probe", "bad", False, check))
    monkeypatch.setattr(verify, "_REGISTRY", rows)
    assert main(["verify", "--out", str(tmp_path)]) == 1
    out = capsys.readouterr().out.splitlines()
    assert line in out
    assert out[-1] == f"{len(rows) - 1}/{len(rows)} checks passed"
    report = json.loads((tmp_path / "verify_report.json").read_text())
    assert report["passed"] is False
    checks = report["checks"]
    assert [(c["suite"], c["name"]) for c in checks] == [r[:2] for r in rows]
    bad = next(c for c in checks if c["suite"] == "probe")
    assert not bad["passed"] and math.isnan(bad["margin"])
    assert bad["error"] == (line.split("error=")[1] if "error=" in line
                            else None)
    assert all(c["error"] is None for c in checks if c is not bad)


def test_scenario_constant_total_and_summary(tmp_path, capsys):
    out = tmp_path / "run"
    cfg = write_config(tmp_path, "scn.json", packet_scenario(out))
    assert main(["scenario", cfg]) == 0
    summary = json.loads((out / "summary.json").read_text())
    tp = summary["tasks"]["total_probability"]
    assert tp["max_drift"] < 1e-12 * tp["norm_sq"]
    assert abs(tp["values"][0] - tp["norm_sq"]) < 1e-12 * tp["norm_sq"]
    text = (out / "total_probability.csv").read_text()
    assert text.startswith("# kgfield")
    assert any(ln.startswith("# config-sha256") for ln in text.splitlines())
    assert any(ln.startswith("# param model.N=") for ln in text.splitlines())


def test_scenario_unknown_key_rejected(tmp_path, capsys):
    doc = packet_scenario(tmp_path / "x")
    doc["extra"] = 1
    cfg = write_config(tmp_path, "bad.json", doc)
    assert main(["scenario", cfg]) == 2


def test_scenario_unknown_task_key_rejected(tmp_path):
    doc = packet_scenario(tmp_path / "x")
    doc["tasks"][0]["typo"] = True
    cfg = write_config(tmp_path, "bad2.json", doc)
    assert main(["scenario", cfg]) == 2


def test_scenario_task_precondition_exit_one(tmp_path, capsys):
    doc = {
        "model": {"d": 1, "L": 8.0, "N": 32, "M": 1.0},
        "field": {"construction": "gaussian-packet", "sigma": 1.0},
        "tasks": [{"task": "bessel-profile", "rays": [[1, 1, 1]], "steps": 3}],
        "output": {"directory": str(tmp_path / "y")},
    }
    cfg = write_config(tmp_path, "pre.json", doc)
    assert main(["scenario", cfg]) == 1


def test_scenario_determinism_bodies_identical(tmp_path):
    out1, out2 = tmp_path / "r1", tmp_path / "r2"
    cfg1 = write_config(tmp_path, "s1.json", packet_scenario(out1))
    cfg2 = write_config(tmp_path, "s2.json", packet_scenario(out2))
    assert main(["scenario", cfg1]) == 0
    assert main(["scenario", cfg2]) == 0
    t1 = (out1 / "total_probability.csv").read_text()
    t2 = (out2 / "total_probability.csv").read_text()
    # output paths differ, so compare bodies of the shared-model runs
    assert body_lines(t1) == body_lines(t2)


def test_kgfield_out_env_overrides_flag(tmp_path, monkeypatch):
    envdir = tmp_path / "envdir"
    monkeypatch.setenv("KGFIELD_OUT", str(envdir))
    cfg = write_config(tmp_path, "s.json", packet_scenario(tmp_path / "ignored"))
    assert main(["scenario", cfg, "--out", str(tmp_path / "flagdir")]) == 0
    assert (envdir / "summary.json").exists()
    assert not (tmp_path / "flagdir").exists()
    assert not (tmp_path / "ignored").exists()


def test_sweep_a_affine_column(tmp_path, monkeypatch):
    monkeypatch.delenv("KGFIELD_OUT", raising=False)
    out = tmp_path / "sw"
    doc = {
        "axis": "a",
        "grid": [-0.6, -0.3, 0.0, 0.3, 0.6],
        "observable": "total_probability",
        "model": {"d": 1, "L": 16.0, "N": 64, "M": 1.0, "kappa": 0.8},
        "field": {"construction": "gaussian-packet", "sigma": 1.2,
                  "kcarrier": [0.5]},
        "output": {"directory": str(out)},
    }
    cfg = write_config(tmp_path, "sweep.json", doc)
    assert main(["sweep", cfg]) == 0
    rows = [ln.split(",") for ln in body_lines((out / "sweep_a.csv").read_text())[1:]]
    vals = np.array([float(v) for _, v in rows])
    assert np.all(vals > 0)
    # kappa [(1+a) Q+ + (1-a) Q-] is affine in a
    second = np.diff(vals, n=2)
    assert np.abs(second).max() < 1e-12 * vals.max()


def test_sweep_mass_slope_footer(tmp_path, monkeypatch):
    from kgfield import limits

    fits = []

    def counted(*args, _real=limits.fit_slope):
        fits.append(args)
        return _real(*args)

    # the CLI imports fit_slope from kgfield.limits when the fit runs
    monkeypatch.setattr(limits, "fit_slope", counted)
    monkeypatch.delenv("KGFIELD_OUT", raising=False)
    out = tmp_path / "swm"
    doc = {
        "axis": "M",
        "grid": [1.5, 3.0, 6.0, 12.0, 24.0],
        "observable": "nonrel-density-deviation",
        "model": {"d": 1, "L": 16.0, "N": 128, "M": 1.0},
        "field": {"construction": "gaussian-packet", "sigma": 1.5,
                  "kcarrier": [0.4]},
        "output": {"directory": str(out)},
    }
    cfg = write_config(tmp_path, "sweepm.json", doc)
    assert main(["sweep", cfg]) == 0
    text = (out / "sweep_M.csv").read_text()
    footers = footer_lines(text)
    assert len(footers) == 1 and footers[0].startswith("# fitted-slope")
    slope = float(footers[0].split()[-1])
    assert abs(slope + 2.0) < 0.4
    payload = json.loads((out / "sweep_M.json").read_text())
    assert abs(payload["fitted_slope"] - slope) < 1e-12
    assert len(fits) == 1


def test_sweep_mass_point_is_the_library_deviation():
    from kgfield import runs
    from kgfield.core import schrodinger_packet
    from kgfield.limits import schrodinger_deviation

    model = {"d": 1, "L": 16.0, "N": 64, "M": 1.0, "a": 0.2, "t0": 0.1}
    config = {"axis": "M", "model": model,
              "field": {"construction": "gaussian-packet", "sigma": 1.5,
                        "kcarrier": [0.4]}}
    # the sweep point sets kappa = 1/(1+a) and evaluates at t0 + 0.7
    field = schrodinger_packet(MomentumLattice([16.0], [64]),
                               ModelParams(mass=3.0, kappa=1.0 / 1.2, a=0.2),
                               1.5, kcarrier=[0.4], t0=0.1)
    want = schrodinger_deviation(field, "J_a", 0.1 + 0.7)
    for observable, value in zip(("nonrel-density-deviation",
                                  "nonrel-current-deviation"), want):
        got = runs._sweep_point(dict(config, observable=observable), 3.0)
        assert got == value


def test_nan_residual_reaches_summary_as_nan(tmp_path, monkeypatch):
    from kgfield import currents

    residuals = iter([1e-15, float("nan")])
    monkeypatch.setattr(currents, "continuity_residual",
                        lambda *args: next(residuals))
    out = tmp_path / "run"
    doc = packet_scenario(out)
    doc["tasks"] = [{"task": "continuity", "times": [0.0, 1.0]}]
    assert main(["scenario", write_config(tmp_path, "scn.json", doc)]) == 0
    summary = json.loads((out / "summary.json").read_text())
    # Python's max(1e-15, nan) is 1e-15; the summary must not hide the NaN
    assert np.isnan(summary["tasks"]["continuity"]["max_residual"])


def test_sweep_workers_match_serial(tmp_path, monkeypatch):
    monkeypatch.delenv("KGFIELD_OUT", raising=False)
    doc = {
        "axis": "theta",
        "grid": [0.0, 1.3, 2.6, 3.9],
        "observable": "gauge-norm-drift",
        "model": {"d": 1, "L": 16.0, "N": 64, "M": 1.0, "a": 0.3},
        "field": {"construction": "gaussian-packet", "sigma": 1.2},
    }
    out1, out2 = tmp_path / "serial", tmp_path / "par"
    cfg = write_config(tmp_path, "sweept.json", doc)
    assert main(["sweep", cfg, "--out", str(out1)]) == 0
    assert main(["sweep", cfg, "--out", str(out2), "--workers", "2"]) == 0
    b1 = body_lines((out1 / "sweep_theta.csv").read_text())
    b2 = body_lines((out2 / "sweep_theta.csv").read_text())
    assert b1 == b2
    vals = [float(ln.split(",")[1]) for ln in b1[1:]]
    assert max(vals) < 1e-12


def test_sweep_mass_too_short_for_slope_is_config_error(tmp_path, capsys,
                                                       monkeypatch):
    from kgfield import runs

    def no_point(config, value):
        raise AssertionError("a sweep point ran")

    monkeypatch.setattr(runs, "_sweep_point", no_point)
    doc = json.loads((CONFIGS / "sweep_mass.json").read_text())
    doc["grid"] = doc["grid"][:3]
    cfg = write_config(tmp_path, "m3.json", doc)
    assert main(["sweep", cfg, "--out", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err.endswith(
        "violates the schema at grid: [1.5, 3.0, 6.0] is too short\n")
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("argv", [
    ["scenario", "x.json", "--seed", "99"],
    ["sweep", "x.json", "--seed", "99"],
    ["verify", "--format", "csv"],
])
def test_flags_a_command_does_not_read_are_rejected(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


@pytest.mark.parametrize("modes, reason", [
    ([(1, 0.0, (0.7, 0.4)), (1, 1.0, (0.1, 0.0)), (1, 2.0, (0.2, 0.0))],
     "exactly two modes"),
    ([(1, 0.0, (0.7, 0.4)), (-1, 1.0, (0.1, 0.0))], "positive-energy"),
    ([(1, 0.0, (0.0, 0.0)), (1, 1.0, (0.1, 0.0))], "nonzero coefficients"),
    ([(1, 1.0, (0.7, 0.4)), (1, -1.0, (0.1, 0.0))], "equal mode frequencies"),
])
def test_current_oracle_rejections_exit_one(tmp_path, capsys, modes, reason):
    doc = json.loads((CONFIGS / "scenario_two_modes.json").read_text())
    doc["field"]["modes"] = [{"epsilon": e, "k": [k], "coeff": list(c)}
                             for e, k, c in modes]
    doc["output"]["directory"] = str(tmp_path / "out")
    cfg = write_config(tmp_path, "two.json", doc)
    assert main(["scenario", cfg]) == 1
    err = capsys.readouterr().err
    assert err.startswith("task failed: current-oracle: ")
    assert reason in err
    assert "Traceback" not in err


@pytest.fixture
def no_sweep_point(monkeypatch):
    """Make any sweep point fail: a rejected config must not reach one."""
    from kgfield import runs

    def no_point(config, value):
        raise AssertionError("a sweep point ran")

    monkeypatch.setattr(runs, "_sweep_point", no_point)


def test_sweep_quadrature_order_needs_one_dimension(tmp_path, capsys,
                                                   no_sweep_point):
    # the reference packets are 1-D; a 2-D model block must not pass for one
    doc = json.loads((CONFIGS / "sweep_quadrature.json").read_text())
    doc["model"].update(d=2, N=16)
    doc["output"]["directory"] = str(tmp_path / "out")
    assert main(["sweep", write_config(tmp_path, "quad2d.json", doc)]) == 2
    assert capsys.readouterr().err.endswith(
        "violates the schema at model/d: 1 was expected\n")
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("keys", [{"L": 4.0}, {"N": 16}, {"L": 4.0, "N": 16}])
def test_sweep_quadrature_order_rejects_lattice_keys(tmp_path, capsys,
                                                     no_sweep_point, keys):
    # that axis builds no lattice, so an L or N there would be ignored
    doc = json.loads((CONFIGS / "sweep_quadrature.json").read_text())
    doc["model"].update(keys)
    doc["output"]["directory"] = str(tmp_path / "out")
    assert main(["sweep", write_config(tmp_path, "quad.json", doc)]) == 2
    assert f"takes no {next(iter(keys))!r}" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_sweep_quadrature_order_rejects_a_field_block(tmp_path, capsys,
                                                      no_sweep_point):
    # that axis boosts its own reference packets, so a field block there
    # would be ignored, even one naming a file that does not exist
    doc = json.loads((CONFIGS / "sweep_quadrature.json").read_text())
    doc["field"] = {"construction": "from-file", "path": "does-not-exist.kgs"}
    doc["output"]["directory"] = str(tmp_path / "out")
    assert main(["sweep", write_config(tmp_path, "quad.json", doc)]) == 2
    assert capsys.readouterr().err.endswith(
        "violates the schema at <root>: Additional properties are not "
        "allowed ('field' was unexpected)\n")
    assert not (tmp_path / "out").exists()


def test_localized_scenario_profiles_the_state_at_t0(tmp_path):
    # the state is localized at the model's t0, where the profile is read,
    # so moving t0 moves nothing
    bodies = []
    for t0 in (0.0, 0.5):
        doc = json.loads((CONFIGS / "scenario_localized.json").read_text())
        doc["model"].update(L=10.0, N=32, t0=t0)
        doc["field"]["node"] = [16, 16, 16]
        out = tmp_path / f"t0_{t0}"
        doc["output"]["directory"] = str(out)
        cfg = write_config(tmp_path, f"loc_{t0}.json", doc)
        assert main(["scenario", cfg]) == 0
        bodies.append(body_lines((out / "bessel_profile.csv").read_text()))
    assert len(bodies[0]) > 1
    assert bodies[0] == bodies[1]


@pytest.mark.parametrize("key", ["L", "N"])
def test_scenario_without_a_lattice_key_names_it(tmp_path, capsys, key):
    doc = packet_scenario(tmp_path / "out")
    del doc["model"][key]
    assert main(["scenario", write_config(tmp_path, "scn.json", doc)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"configuration error: model block: {key!r} ")
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("config", ["sweep_a", "sweep_mass"])
def test_lattice_sweep_without_N_is_config_error(tmp_path, capsys, config):
    # the first sweep point builds its lattice before it computes anything
    doc = json.loads((CONFIGS / f"{config}.json").read_text())
    del doc["model"]["N"]
    doc["output"]["directory"] = str(tmp_path / "out")
    assert main(["sweep", write_config(tmp_path, "noN.json", doc)]) == 2
    assert "model block: 'N' is required" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("config, path", [
    ("sweep_a", ("model", "d")),
    ("sweep_a", ("model", "N")),
    ("scenario_localized", ("tasks", 0, "steps")),
    ("scenario_two_modes", ("tasks", 0, "events")),
    ("scenario_packet", ("seed",)),
    ("scenario_localized", ("field", "node", 0)),
    ("sweep_quadrature", ("grid", 0)),
])
def test_integral_float_at_an_integer_position_is_config_error(
        tmp_path, capsys, config, path):
    # JSON Schema counts 2.0 as an integer and jsonschema accepts it; the
    # builders cannot use it, so the config fails at the boundary instead
    # of with a TypeError deep inside a task
    import jsonschema

    from kgfield.runs import SCENARIO_SCHEMA, SWEEP_SCHEMA

    doc = json.loads((CONFIGS / f"{config}.json").read_text())
    doc["output"]["directory"] = str(tmp_path / "out")
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    parent[path[-1]] = float(parent[path[-1]])
    jsonschema.validate(doc, SWEEP_SCHEMA if config.startswith("sweep")
                        else SCENARIO_SCHEMA)
    command = "sweep" if config.startswith("sweep") else "scenario"
    assert main([command, write_config(tmp_path, "f.json", doc)]) == 2
    err = capsys.readouterr().err
    where = "/".join(str(p) for p in path)
    assert f"violates the schema at {where}: " in err
    assert "Traceback" not in err
    assert not (tmp_path / "out").exists()


def test_sweep_observable_axis_mismatch(tmp_path):
    doc = {
        "axis": "theta",
        "grid": [0.0, 1.0],
        "observable": "total_probability",
        "model": {"d": 1, "L": 8.0, "N": 32, "M": 1.0},
        "field": {"construction": "gaussian-packet", "sigma": 1.0},
    }
    cfg = write_config(tmp_path, "mis.json", doc)
    assert main(["sweep", cfg]) == 2


def _shipped(name, path, value):
    """A shipped config with value at path, as a dict."""
    doc = json.loads((CONFIGS / f"{name}.json").read_text())
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    parent[path[-1]] = value
    return doc


@pytest.mark.parametrize("name, path, literal", [
    ("scenario_packet", ("tasks", 1, "times", 1), "NaN"),
    ("scenario_packet", ("tasks", 1, "times", 0), "Infinity"),
    ("scenario_two_modes", ("field", "modes", 0, "k", 0), "NaN"),
    ("sweep_a", ("model", "kappa"), "1e400"),
    ("sweep_mass", ("grid", 0), "-Infinity"),
], ids=["nan-time", "infinite-time", "nan-wave-vector", "overflow",
        "minus-infinity"])
def test_non_finite_config_number_is_config_error(tmp_path, capsys, name,
                                                  path, literal):
    # JSON has no NaN or infinity; Python's json module reads them, and
    # 1e400 overflows to inf, so the loader refuses all of them
    doc = _shipped(name, path, "@")
    doc["output"]["directory"] = str(tmp_path / "out")
    cfg = tmp_path / "inf.json"
    cfg.write_text(json.dumps(doc).replace('"@"', literal))
    command = "sweep" if name.startswith("sweep") else "scenario"
    assert main([command, str(cfg)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"configuration error: config {cfg}: ")
    assert "is not a finite number" in err
    assert not (tmp_path / "out").exists()


_PLANE_WAVES = {"construction": "plane-waves",
                "modes": [{"epsilon": 1, "k": [0.0], "coeff": [1.0, 0.0]}]}


@pytest.mark.parametrize("name, path, value, where, reason", [
    ("sweep_quadrature", ("grid", 1), 16.5, "grid/1",
     "16.5 is not of type 'integer'"),
    ("sweep_quadrature", ("grid", 0), 1, "grid/0",
     "1 is less than the minimum of 2"),
    ("sweep_mass", ("field",), {"construction": "from-file", "path": "m.kgs"},
     "field/construction", "'from-file' is not one of ['gaussian-packet']"),
    ("sweep_mass", ("field", "sector"), "positive", "field",
     "Additional properties are not allowed ('sector' was unexpected)"),
    ("sweep_a", ("field",), _PLANE_WAVES, "field/construction",
     "'plane-waves' is not one of ['gaussian-packet', 'localized-state', "
     "'from-file']"),
    ("sweep_a", ("observable",), "gauge-norm-drift", "observable",
     "'gauge-norm-drift' is not one of ['total_probability']"),
    ("sweep_a", ("field",), None, "<root>", "'field' is a required property"),
    ("sweep_a", ("axis",), "b", "axis",
     "'b' is not one of ['a', 'M', 'theta', 'quadrature-order']"),
], ids=["fractional-order", "order-below-two", "M-from-file", "M-sector",
        "a-plane-waves", "observable-of-theta", "no-field", "unknown-axis"])
def test_sweep_axis_rule_is_a_schema_violation(tmp_path, capsys,
                                               no_sweep_point, name, path,
                                               value, where, reason):
    # each axis rule is part of SWEEP_SCHEMA, so it fails before any point
    doc = _shipped(name, path, value)
    if value is None:
        del doc[path[-1]]
    doc["output"]["directory"] = str(tmp_path / "out")
    cfg = write_config(tmp_path, "rule.json", doc)
    assert main(["sweep", cfg]) == 2
    assert capsys.readouterr().err == (f"configuration error: config {cfg} "
                                       f"violates the schema at {where}: "
                                       f"{reason}\n")
    assert not (tmp_path / "out").exists()


def _saved(tmp_path, field) -> str:
    from kgfield.stateio import save_state

    path = tmp_path / "field.kgs"
    save_state(path, field)
    return str(path)


def _null_field():
    from kgfield.core import LatticeField

    zero = np.zeros(64, dtype=complex)
    return LatticeField(MomentumLattice([16.0], [64]),
                        ModelParams(mass=1.0, kappa=0.8, a=0.3), zero, zero)


@pytest.mark.parametrize("task, ok", [
    ({"task": "inner_products"}, False),
    ({"task": "continuity", "times": [0.0]}, True),
    ({"task": "rho_a", "times": [0.0]}, True),
    ({"task": "total_probability", "times": [0.0, 1.0]}, True),
])
def test_null_field_from_a_state_file(tmp_path, capsys, task, ok):
    # the relative quantities divide by the norm; the densities do not,
    # and the continuity residual floors its scale, so it reads 0
    doc = packet_scenario(tmp_path / "out")
    doc["field"] = {"construction": "from-file",
                    "path": _saved(tmp_path, _null_field())}
    doc["tasks"] = [task]
    assert main(["scenario", write_config(tmp_path, "null.json", doc)]) == (
        0 if ok else 1)
    err = capsys.readouterr().err
    if not ok:
        assert err.startswith(f"task failed: {task['task']}: the field has "
                              f"zero norm")
        assert "Traceback" not in err


def test_null_field_theta_sweep_fails_cleanly(tmp_path, capsys):
    doc = {"axis": "theta", "grid": [0.0, 1.3],
           "observable": "gauge-norm-drift",
           "model": packet_scenario(tmp_path)["model"],
           "field": {"construction": "from-file",
                     "path": _saved(tmp_path, _null_field())},
           "output": {"directory": str(tmp_path / "out")}}
    assert main(["sweep", write_config(tmp_path, "null.json", doc)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("task failed: axis theta: the field has zero norm")
    assert not (tmp_path / "out").exists()


def _two_mode_state(tmp_path, mass):
    from kgfield.core import PlaneWaveField

    doc = json.loads((CONFIGS / "scenario_two_modes.json").read_text())
    model = doc["model"]
    modes = [(m["epsilon"], m["k"], complex(*m["coeff"]))
             for m in doc["field"]["modes"]]
    params = ModelParams(mass=mass, kappa=model["kappa"], a=model["a"])
    doc["field"] = {"construction": "from-file",
                    "path": _saved(tmp_path, PlaneWaveField(params, modes, 1))}
    doc["output"]["directory"] = str(tmp_path / "out")
    return doc


def test_plane_wave_state_on_a_lattice_axis_fails_its_first_point(
        tmp_path, capsys):
    # the schema cannot see what a state file holds; the point reads it
    scenario = _two_mode_state(tmp_path, mass=1.0)
    doc = {"axis": "theta", "grid": [0.0, 1.3],
           "observable": "gauge-norm-drift", "model": scenario["model"],
           "field": scenario["field"],
           "output": {"directory": str(tmp_path / "out")}}
    assert main(["sweep", write_config(tmp_path, "pw.json", doc)]) == 1
    assert capsys.readouterr().err == ("task failed: axis theta: needs a "
                                       "LatticeField, got a PlaneWaveField\n")
    assert not (tmp_path / "out").exists()


def test_plane_wave_state_must_match_the_model_block(tmp_path, capsys):
    doc = _two_mode_state(tmp_path, mass=1.0)
    assert main(["scenario", write_config(tmp_path, "same.json", doc)]) == 0
    capsys.readouterr()
    doc = _two_mode_state(tmp_path, mass=2.0)
    assert main(["scenario", write_config(tmp_path, "m2.json", doc)]) == 1
    assert capsys.readouterr().err == ("task failed: from-file: stored model "
                                       "does not match the model block\n")


@pytest.mark.parametrize("key", ["L", "N"])
def test_plane_waves_take_no_lattice_keys(tmp_path, capsys, key):
    # plane waves live on no lattice, whether built or read from a file
    for doc in (_shipped("scenario_two_modes", ("model", key), 16),
                _two_mode_state(tmp_path, mass=1.0)):
        doc["model"][key] = 16
        doc["output"]["directory"] = str(tmp_path / "out")
        assert main(["scenario", write_config(tmp_path, "pw.json", doc)]) == 2
        assert f"takes no {key!r}" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()


def test_plane_wave_vector_of_the_wrong_dimension_fails_the_task(tmp_path,
                                                                 capsys):
    doc = _shipped("scenario_two_modes", ("field", "modes", 1, "k"), [1.0, 0.5])
    doc["output"]["directory"] = str(tmp_path / "out")
    assert main(["scenario", write_config(tmp_path, "k2.json", doc)]) == 1
    assert capsys.readouterr().err.startswith(
        "task failed: plane-waves: mode wave vector has wrong dimension")


@pytest.mark.parametrize("name, task", [
    ("scenario_two_modes", {"task": "total_probability", "times": [0.0]}),
    ("scenario_packet", {"task": "current-oracle", "events": 2, "beta": 0.5}),
])
def test_task_on_the_wrong_field_type_fails(tmp_path, capsys, name, task):
    doc = _shipped(name, ("tasks",), [task])
    doc["output"]["directory"] = str(tmp_path / "out")
    assert main(["scenario", write_config(tmp_path, "kind.json", doc)]) == 1
    assert capsys.readouterr().err.startswith(
        f"task failed: task {task['task']}: needs a ")


@pytest.mark.parametrize("name, value, reason", [
    ("sweep_a", 1.0, "parameter a must lie in (-1, 1)"),
    ("sweep_mass", -3.0, "mass must be positive and finite"),
])
def test_sweep_grid_value_outside_the_model_is_config_error(
        tmp_path, capsys, name, value, reason):
    # ModelParams rejects the value when its point builds the model
    doc = _shipped(name, ("grid", 2), value)
    doc["output"]["directory"] = str(tmp_path / "out")
    assert main(["sweep", write_config(tmp_path, "grid.json", doc)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("configuration error: model block: ")
    assert reason in err
    assert not (tmp_path / "out").exists()


class _RecordingPool:
    """Stands in for ProcessPoolExecutor: records max_workers, maps in
    this process and starts none."""
    sizes = []

    def __init__(self, max_workers):
        self.sizes.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    map = staticmethod(map)


def test_workers_pool_is_capped_at_the_grid_length(tmp_path, monkeypatch):
    import concurrent.futures

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor",
                        _RecordingPool)
    monkeypatch.setattr(_RecordingPool, "sizes", [])
    cfg = str(CONFIGS / "sweep_quadrature.json")
    for workers, out in (("3", "three"), ("8", "eight")):
        assert main(["sweep", cfg, "--workers", workers,
                     "--out", str(tmp_path / out)]) == 0
    assert _RecordingPool.sizes == [3, 5]
    assert body_lines((tmp_path / "three" / "sweep_quadrature-order.csv")
                      .read_text()) == body_lines(
        (tmp_path / "eight" / "sweep_quadrature-order.csv").read_text())


@pytest.mark.parametrize("workers", ["0", "-2"])
def test_workers_below_one_is_config_error(tmp_path, capsys, monkeypatch,
                                           workers):
    import concurrent.futures

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor",
                        _RecordingPool)
    monkeypatch.setattr(_RecordingPool, "sizes", [])
    out = tmp_path / "out"
    assert main(["sweep", str(CONFIGS / "sweep_a.json"), "--workers", workers,
                 "--out", str(out)]) == 2
    assert "--workers must be at least 1" in capsys.readouterr().err
    assert _RecordingPool.sizes == [] and not out.exists()


def test_state_inspect_roundtrip(tmp_path, capsys):
    from kgfield.core import ModelParams, MomentumLattice, random_field
    from kgfield.stateio import save_state
    f = random_field(MomentumLattice([8.0], [32]),
                     ModelParams(mass=1.2, kappa=0.9, a=0.4), seed=5)
    path = tmp_path / "f.kgs"
    save_state(path, f)
    assert main(["state", "inspect", str(path)]) == 0
    info = json.loads(capsys.readouterr().out)
    assert info["kind"] == "lattice"
    assert info["M"] == 1.2
    assert main(["state", "inspect", str(tmp_path / "missing.kgs")]) == 2


_HEADER = "kgfield-state-v1\nkind {kind}\ndim 1\n{geometry}M 1.0\nkappa 1.0\na 0.0\n"


def _lattice_state(t0="0.0", bad_entry=None) -> bytes:
    # written by hand, since no finite-only LatticeField can be saved with NaN
    payload = np.ones(16, dtype="<c16")
    if bad_entry is not None:
        payload[bad_entry] = complex(np.nan, 0.0)
    head = _HEADER.format(kind="lattice", geometry="L 8.0\nN 8\n")
    return (head + f"t0 {t0}\ndata\n").encode() + payload.tobytes()


def _planewave_state(modes=2, rows="+1 0.5 1.0 0.0\n-1 0.25 nan 0.0\n") -> bytes:
    head = _HEADER.format(kind="planewave", geometry="")
    return (head + f"modes {modes}\ndata\n{rows}").encode()


@pytest.mark.parametrize("blob, message", [
    (_lattice_state(bad_entry=11), "phi_minus holds a non-finite coefficient"),
    (_lattice_state(t0="nan"), "start time t0 must be finite"),
    (_planewave_state(), "mode wave vector and coefficient must be finite"),
    (_lattice_state().replace(b"\nM 1.0\n", b"\n"),
     "lattice state header has no 'M' line"),
    (_lattice_state().replace(b"\nkappa 1.0\n", b"\nkappa\n"),
     "malformed header line 'kappa'"),
    (_lattice_state().replace(b"\nN 8\n", b"\nN 8 8\n"),
     "header dimensions are inconsistent"),
    (_planewave_state(modes=3), "mode list holds 2 rows, expected 3"),
    (_planewave_state(rows="+1 0.5 1.0\n-1 0.25 2.0 0.0\n"),
     "malformed mode row '+1 0.5 1.0'"),
], ids=["lattice-nan-payload", "lattice-nan-t0", "planewave-nan-coeff",
        "lattice-no-M", "malformed-header-line", "inconsistent-dimensions",
        "mode-row-count", "malformed-mode-row"])
def test_non_finite_state_file_fails_at_the_boundary(tmp_path, capsys,
                                                     blob, message):
    path = tmp_path / "bad.kgs"
    path.write_bytes(blob)
    assert main(["state", "inspect", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"configuration error: {message}")
    assert "Traceback" not in err
    doc = {
        "model": {"d": 1, "L": 8.0, "N": 8, "M": 1.0, "kappa": 1.0,
                  "a": 0.0, "t0": 0.0},
        "field": {"construction": "from-file", "path": str(path)},
        "tasks": [{"task": "total_probability", "times": [0.0]}],
        "output": {"directory": str(tmp_path / "run"), "formats": ["csv"]},
    }
    assert main(["scenario", write_config(tmp_path, "scn.json", doc)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"task failed: from-file: {message}")
    assert "Traceback" not in err


def _child_env() -> dict:
    # the absolute directory of the kgfield this suite imported (a relative
    # PYTHONPATH does not resolve from tmp_path), and no KGFIELD_* variables
    # that could redirect a child's report or corrupt it
    src = str(Path(kgfield.__file__).resolve().parents[1])
    env = {k: v for k, v in os.environ.items()
           if k not in ("KGFIELD_OUT", "KGFIELD_CORRUPT_DISPERSION")}
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    return env


def test_console_module_runs_as_subprocess(tmp_path):
    # one true `python -m kgfield.cli` process: covers the module's __main__
    # guard and its exit code, not the [project.scripts] console script
    proc = subprocess.run(
        [sys.executable, "-m", "kgfield.cli", "verify", "--suite", "gauge"],
        capture_output=True, text=True, cwd=tmp_path, env=_child_env())
    assert proc.returncode == 0
    assert "checks passed" in proc.stdout


def _boundary_configs(tmp_path) -> None:
    """Config files in tmp_path, each failing at one boundary check."""
    modes = json.loads((CONFIGS / "scenario_two_modes.json").read_text())
    modes["field"]["modes"].append({"epsilon": 1, "k": [2.0], "coeff": [0.2, 0]})
    docs = {"three_modes.json": modes}
    for name, path, value in [
            ("short_L", ("model", "L"), [20.0, 20.0]),
            ("node_2d", ("field", "node"), [32, 32]),
            ("node_64", ("field", "node"), [32, 64, 32]),
            ("zero_ray", ("tasks", 0, "rays"), [[0, 0, 0]]),
            ("packet_profile", ("field",),
             {"construction": "gaussian-packet", "sigma": 1.0})]:
        docs[f"{name}.json"] = _shipped("scenario_localized", path, value)
    for name, doc in docs.items():
        doc["output"]["directory"] = str(tmp_path / "out")
        write_config(tmp_path, name, doc)
    (tmp_path / "not_json.json").write_text('{"model": ')


@pytest.mark.parametrize("config, code, message", [
    ("missing.json", 2, "configuration error: cannot read config missing.json"),
    ("three_modes.json", 1, "task failed: current-oracle: "),
    ("not_json.json", 2, "configuration error: config not_json.json is not "
                         "valid JSON: "),
    ("short_L.json", 2, "configuration error: model block: L and N must have "
                        "d entries"),
    ("node_2d.json", 1, "task failed: localized-state: node must have model "
                        "dimension"),
    ("node_64.json", 1, "task failed: localized-state: node index out of "
                        "range"),
    ("zero_ray.json", 1, "task failed: bessel-profile: zero ray"),
    ("packet_profile.json", 1, "task failed: bessel-profile: needs a "
                               "localized-state field"),
], ids=["config-error", "task-error", "invalid-json", "L-without-d-entries",
        "node-dimension", "node-out-of-range", "zero-ray",
        "profile-of-a-packet"])
def test_console_module_catches_what_the_config_commands_raise(
        tmp_path, config, code, message):
    # kgfield.runs raises the ConfigError and TaskError that the __main__
    # copy of kgfield.cli, which `python -m kgfield.cli` runs, catches
    _boundary_configs(tmp_path)
    proc = subprocess.run(
        [sys.executable, "-m", "kgfield.cli", "scenario", config],
        capture_output=True, text=True, cwd=tmp_path, env=_child_env())
    assert proc.returncode == code, proc.stderr
    assert proc.stderr.startswith(message)
    assert "Traceback" not in proc.stderr


def test_a_zero_ray_fails_before_the_psi_grid_is_built(tmp_path, monkeypatch,
                                                        capsys):
    from kgfield.core import LatticeField

    calls = []
    monkeypatch.setattr(LatticeField, "psi_grid",
                        lambda self, t: calls.append(t))
    # the zero ray comes last, after rays the task would profile
    doc = _shipped("scenario_localized", ("tasks", 0, "rays"),
                   [[1, 1, 1], [1, 2, 3], [0, 0, 0]])
    doc["output"]["directory"] = str(tmp_path / "out")
    assert main(["scenario", write_config(tmp_path, "zero.json", doc)]) == 1
    assert capsys.readouterr().err == "task failed: bessel-profile: zero ray\n"
    assert calls == []


def test_package_names_resolve_lazily_from_core(tmp_path):
    from kgfield import core

    names = set(kgfield.__all__) - {"__version__"}
    assert names and all(getattr(kgfield, n) is getattr(core, n) for n in names)
    with pytest.raises(AttributeError, match="has no attribute 'nope'"):
        kgfield.nope
    # a fresh interpreter: the package imports without numpy or core, and
    # dir() lists the names before they load
    code = ("import sys, kgfield; print(sorted({'numpy', 'kgfield.core'} "
            "& set(sys.modules)), sorted(set(kgfield.__all__) - set(dir(kgfield))))")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, cwd=tmp_path, env=_child_env())
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[] []"


def test_version_is_the_project_version_on_a_line_the_benchmark_reads():
    import re
    import tomllib

    pyproject = tomllib.loads((PACKAGE.parents[1] / "pyproject.toml").read_text())
    assert kgfield.__version__ == pyproject["project"]["version"]
    # perfbench/subproc.py's VERSION_RE reads the source, not the package
    found = re.findall(r'^__version__ = "([^"]+)"',
                       (PACKAGE / "__init__.py").read_text(), re.M)
    assert found == [kgfield.__version__]


def test_cli_import_leaves_heavy_modules_unloaded(tmp_path):
    # --version, state inspect and every shipped config load none of the
    # heavy modules: they load inside the functions that use them, and so
    # does the QUADPACK port, which a cold process compiles on start
    heavy = ("scipy.integrate", "jsonschema", "sympy", "mpmath",
             "kgfield._qags")
    code = ("import sys, kgfield.cli; "
            f"print(sorted(m for m in {heavy!r} if m in sys.modules))")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, cwd=tmp_path, env=_child_env())
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def _config_argv(name: str) -> list[str]:
    command = "sweep" if name.startswith("sweep_") else "scenario"
    return [command, str(CONFIGS / f"{name}.json"), "--out", name]


# label: (argv, or None for the bare import; the modules a cold process
# holds after it besides kgfield and kgfield.cli: numpy, named as itself,
# and kgfield modules by their short names).  A command loads what it runs
# and nothing else: the import and --version load no numpy, only scenario
# and sweep load the config machinery of kgfield.runs, and verify, with no
# report to write, loads every module but runs, stateio and reporting.
_COMMANDS = {
    "import": (None, set()),
    "--version": (["--version"], set()),
    "state inspect": (["state", "inspect", "f.kgs"],
                      {"numpy", "core", "stateio"}),
    "scenario_localized": (_config_argv("scenario_localized"),
                           {"numpy", "core", "runs", "localization", "inner",
                            "_qags", "reporting"}),
    "scenario_packet": (_config_argv("scenario_packet"),
                        {"numpy", "core", "runs", "currents", "inner",
                         "reporting"}),
    "scenario_two_modes": (_config_argv("scenario_two_modes"),
                           {"numpy", "core", "runs", "currents",
                            "reporting"}),
    "sweep_a": (_config_argv("sweep_a"),
                {"numpy", "core", "runs", "currents", "reporting"}),
    "sweep_mass": (_config_argv("sweep_mass"),
                   {"numpy", "core", "runs", "limits", "currents",
                    "reporting"}),
    "sweep_quadrature": (_config_argv("sweep_quadrature"),
                         {"numpy", "core", "runs", "amplitudes",
                          "reporting"}),
    "verify": (["verify"], {"numpy", "core", "verify", "amplitudes",
                            "currents", "em", "_blas", "gauge", "inner",
                            "limits", "localization", "_qags"}),
}


@pytest.mark.parametrize("label", list(_COMMANDS))
def test_each_command_loads_only_the_modules_it_runs(tmp_path, label):
    from kgfield.core import random_field
    from kgfield.stateio import save_state

    argv, extra = _COMMANDS[label]
    save_state(tmp_path / "f.kgs", random_field(
        MomentumLattice([8.0], [16]), ModelParams(mass=1.0), seed=1))
    code = ("import json, sys\n"
            "from kgfield.cli import main\n"
            f"if {argv!r} is not None:\n"
            "    try:\n"
            f"        rc = main({argv!r})\n"
            "    except SystemExit as exc:    # --version\n"
            "        rc = exc.code\n"
            "    assert rc == 0, rc\n"
            "print(json.dumps(sorted(m for m in sys.modules "
            "if m.split('.')[0] == 'kgfield' or m == 'numpy')))")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, cwd=tmp_path, env=_child_env())
    assert proc.returncode == 0, proc.stderr
    loaded = set(json.loads(proc.stdout.splitlines()[-1]))
    want = {"kgfield", "kgfield.cli"} | {
        m if m == "numpy" else f"kgfield.{m}" for m in extra}
    assert loaded == want, (f"{label}: loads {sorted(loaded - want)} that it "
                            f"does not run, lacks {sorted(want - loaded)}")


def test_config_commands_never_import_jsonschema(tmp_path):
    # configs are validated in-package; jsonschema is the test-only oracle
    bad = write_config(tmp_path, "bad.json", {"model": {}})
    code = ("import sys; from kgfield.cli import main; "
            f"rc = [main(['scenario', {str(CONFIGS / 'scenario_packet.json')!r}, "
            f"'--out', {str(tmp_path / 'scn')!r}]), "
            f"main(['sweep', {str(CONFIGS / 'sweep_a.json')!r}, "
            f"'--out', {str(tmp_path / 'swp')!r}]), "
            f"main(['scenario', {bad!r}])]; "
            "print(rc, 'jsonschema' in sys.modules)")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, cwd=tmp_path, env=_child_env())
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "[0, 0, 2] False"
    assert "violates the schema at <root>: 'field' is a required property" \
        in proc.stderr


def test_localized_scenario_never_imports_scipy(tmp_path):
    # the Bessel profile's cosh route runs on the in-package QUADPACK port
    scenario = str(CONFIGS / "scenario_localized.json")
    code = ("import sys; from kgfield.cli import main; "
            f"rc = main(['scenario', {scenario!r}, "
            f"'--out', {str(tmp_path / 'loc')!r}]); "
            "print(rc, 'scipy' in sys.modules, "
            "'kgfield._qags' in sys.modules)")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, cwd=tmp_path, env=_child_env())
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "0 False True"


def test_verify_never_imports_scipy(tmp_path):
    # both Bessel-profile routes run on numpy alone; scipy is test-only
    code = ("import sys; from kgfield.cli import main; "
            f"rc = main(['verify', '--out', {str(tmp_path)!r}]); "
            "print(rc, sorted(m for m in sys.modules "
            "if m.split('.')[0] == 'scipy'))")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, cwd=tmp_path, env=_child_env())
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "0 []"


PACKAGE = Path(__file__).resolve().parents[1] / "src" / "kgfield"


def _imports(path: Path):
    """(line, module, names) of every import in the file, inside functions
    too; a relative module is written with its leading dots."""
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield node.lineno, alias.name, ()
        elif isinstance(node, ast.ImportFrom):
            module = "." * node.level + (node.module or "")
            yield node.lineno, module, [alias.name for alias in node.names]


def test_no_module_under_kgfield_imports_scipy():
    # a static guard: a lazy import inside a function counts too
    paths = sorted(PACKAGE.rglob("*.py"))
    assert len(paths) > 10
    found = [f"{path.name}:{line}" for path in paths
             for line, module, _ in _imports(path)
             if module.split(".")[0] == "scipy"]
    assert found == []


def test_oracles_live_outside_the_package():
    assert sorted(PACKAGE.parent.rglob("oracles.py")) == []
    found = [f"{path.name}:{line}" for path in sorted(PACKAGE.rglob("*.py"))
             for line, module, names in _imports(path)
             if "oracles" in module.split(".") or "oracles" in names]
    assert found == []


def test_oracles_import_only_public_kgfield_names():
    # an oracle that reached a private helper could share the derivation
    # it is meant to check
    path = Path(__file__).with_name("oracles.py")
    imports = [(module, names) for _, module, names in _imports(path)]
    assert not [m for m, _ in imports if m.startswith(".")]
    kgfield_names = [(m, n) for m, names in imports
                     if m.split(".")[0] == "kgfield" for n in names]
    assert len(kgfield_names) > 10
    assert [(m, n) for m, n in kgfield_names if n.startswith("_")] == []
    assert [m for m, _ in imports if m.split(".")[0] == "kgfield"
            and any(part.startswith("_") for part in m.split("."))] == []


def test_verify_stdout_does_not_depend_on_the_blas_thread_count(tmp_path):
    # LAPACK's eigenvectors of the dense magnetic operator differ in their
    # last bits between 1 and 2 threads; kgfield._blas runs it on one thread
    # whatever the process's count, so stdout is byte-identical
    out = []
    for threads in ("1", "2"):
        env = dict(_child_env(), OPENBLAS_NUM_THREADS=threads,
                   OMP_NUM_THREADS=threads)
        proc = subprocess.run(
            [sys.executable, "-m", "kgfield.cli", "verify",
             "--out", str(tmp_path / threads)],
            capture_output=True, text=True, cwd=tmp_path, env=env)
        assert proc.returncode == 0, proc.stderr
        out.append(proc.stdout)
    assert out[0] == out[1]


def test_verify_process_never_imports_sympy(tmp_path):
    # em:gauge-residual runs on numpy jets; sympy is only the test witness,
    # and the oracles that use it live beside the tests
    scenario = str(CONFIGS / "scenario_packet.json")
    code = ("import sys; from kgfield.cli import main; "
            f"rc = main(['verify', '--out', {str(tmp_path)!r}]); "
            f"rc += main(['scenario', {scenario!r}, "
            f"'--out', {str(tmp_path / 'scn')!r}]); "
            "print(rc, 'sympy' in sys.modules, "
            "any(m.rsplit('.', 1)[-1] == 'oracles' for m in sys.modules))")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, cwd=tmp_path, env=_child_env())
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "0 False False"
