"""Cold-process workloads: cli-configs and verify-cold.

Each op is one fresh `python -m kgfield.cli ...` process in a fresh
directory that is both its cwd and its --out, timed from start to
reaping.  With tracing, the op runs through traced_cli.py instead and
leaves its spans in that directory.
"""

from __future__ import annotations

import json
import re
import sys
import time
from pathlib import Path

import calibration
import checks
import harness
import make_state

VERSION_RE = re.compile(r'^__version__ = "([^"]+)"', re.M)


def _source_version() -> str:
    text = (harness.SRC / "kgfield" / "__init__.py").read_text()
    match = VERSION_RE.search(text)
    if not match:
        raise harness.BenchError("no __version__ in src/kgfield/__init__.py")
    return match.group(1)


def _config(name: str) -> dict:
    return json.loads((harness.CONFIGS / name).read_text())


class Command:
    """One CLI command of a round: its arguments and its output check."""

    def __init__(self, label: str, args, check, takes_out: bool = True):
        self.label, self.args, self.check = label, list(args), check
        self.takes_out = takes_out

    def argv(self, out: Path, trace: bool) -> list[str]:
        args = self.args + (["--out", str(out)] if self.takes_out else [])
        if trace:
            return [sys.executable, str(harness.BENCH_DIR / "traced_cli.py"),
                    str(out / ".spans.json"), self.label, "--", *args]
        return [sys.executable, "-m", "kgfield.cli", *args]


def _config_command(label: str, kind: str, fname: str, checker) -> Command:
    config = _config(fname)
    return Command(label, [kind, str(harness.CONFIGS / fname)],
                   lambda res, out: checker(out, config))


def cli_round(state_path: Path, seed: int) -> list[Command]:
    version = _source_version()
    expected_state = make_state.expected_inspect(seed)
    return [
        Command("version", ["--version"],
                lambda res, out: checks.check_version(res.stdout, version),
                takes_out=False),
        _config_command("scenario_packet", "scenario", "scenario_packet.json",
                        checks.check_scenario_packet),
        _config_command("scenario_two_modes", "scenario",
                        "scenario_two_modes.json",
                        checks.check_scenario_two_modes),
        _config_command("scenario_localized", "scenario",
                        "scenario_localized.json",
                        checks.check_scenario_localized),
        _config_command("sweep_a", "sweep", "sweep_a.json",
                        checks.check_sweep_a),
        _config_command("sweep_mass", "sweep", "sweep_mass.json",
                        checks.check_sweep_mass),
        _config_command("sweep_quadrature", "sweep", "sweep_quadrature.json",
                        checks.check_sweep_quadrature),
        Command("state_inspect", ["state", "inspect", str(state_path)],
                lambda res, out: checks.check_state_inspect(res.stdout,
                                                            expected_state),
                takes_out=False),
    ]


def verify_round() -> list[Command]:
    return [Command("verify", ["verify"],
                    lambda res, out: checks.check_verify(
                        res.returncode, res.stdout, out / "verify_report.json"))]


def _check_op(cmd: Command, res, out: Path, bodies: dict) -> None:
    """Output check plus byte-identical CSV bodies across the run."""
    checks.require(res.returncode == 0,
                   f"exit {res.returncode}: {res.stderr[-300:]}")
    cmd.check(res, out)
    got = {p.name: checks.csv_body(p.read_text(encoding="utf-8"))
           for p in sorted(out.glob("*.csv"))}
    first = bodies.setdefault(cmd.label, got)
    checks.require(got == first, f"{cmd.label}: CSV bodies changed between ops")


def _warm_up(check) -> str | None:
    """The problem of an untimed warm-up op, or None."""
    _, problem = harness.attempt(0, lambda i: (0.0, None),
                                 lambda i, out: check())
    return problem


def _setup_cli(dirs: harness.RunDirs, seed: int):
    state_dir = dirs.fresh("state")
    state_path = state_dir / "field.kgs"
    res = harness.python_child("make_state.py", [str(state_path), str(seed)],
                               state_dir)
    if res.returncode != 0:
        raise harness.BenchError(f"make_state failed: {res.stderr[-500:]}")
    commands = cli_round(state_path, seed)
    out = dirs.fresh(commands[0].label)                   # warm-up op
    warm = harness.run_child(commands[0].argv(out, False), out)
    return commands, _warm_up(lambda: _check_op(commands[0], warm, out, {}))


def _setup_verify(dirs: harness.RunDirs, seed: int):
    """Warm-up op: the untimed negative control, a full corrupted verify."""
    out = dirs.fresh("negative-control")
    env = harness.child_env({"KGFIELD_CORRUPT_DISPERSION": "1.02"})
    res = harness.run_child([sys.executable, "-m", "kgfield.cli", "verify",
                             "--out", str(out)], out, env)
    return verify_round(), _warm_up(
        lambda: checks.check_negative_control(res.returncode, res.stdout))


SETUPS = {"cli-configs": _setup_cli, "verify-cold": _setup_verify}
# calibration kernel samples before and after each op: a few percent of
# an op's time
CAL_SAMPLES = {"cli-configs": 6, "verify-cold": 20}


def run(name: str, seed: int, seconds: float, trace: bool) -> dict:
    dirs = harness.RunDirs(name)
    try:
        return _run(name, seed, seconds, trace, dirs)
    finally:
        dirs.remove()


def _run(name, seed, seconds, trace, dirs) -> dict:
    bracket = calibration.Bracket(CAL_SAMPLES[name])
    setups, setup_ref, setup_problems = [], [], []
    for _ in range(harness.SETUP_TRIALS[name]):
        t0 = time.perf_counter()
        commands, problem = SETUPS[name](dirs, seed)
        setups.append(time.perf_counter() - t0)
        setup_ref += bracket.convert(setups[-1:])
        if problem:
            setup_problems.append(f"set-up: {problem}")

    peak_rss, spans, allocs, bodies = [0.0], [], [0.0], {}

    def run_op(i):
        cmd = commands[i % len(commands)]
        out = dirs.fresh(cmd.label)
        res = harness.run_child(cmd.argv(out, trace), out)
        peak_rss[0] = max(peak_rss[0], res.maxrss_mb)
        if trace:
            _collect_spans(out, spans, allocs)
        return res.wall_s, (out, res)

    def check_op(i, out_res):
        out, res = out_res
        _check_op(commands[i % len(commands)], res, out, bodies)

    rounds = harness.timed_rounds(len(commands), run_op, check_op, bracket,
                                  seconds)
    result = {"setups": setups, "setups_ref_s": setup_ref,
              "op_times": rounds.op_times, "op_ref_s": rounds.op_ref_s,
              "peak_rss_mb": peak_rss[0], "failed": len(rounds.problems),
              "correct": not setup_problems,
              "problems": (setup_problems + rounds.problems)[:5]}
    if trace:
        from tracer import per_layer_metrics
        harness.write_spans(name, spans)
        result["layers"] = per_layer_metrics(spans, max(allocs))
    return result


def _collect_spans(out: Path, spans: list, allocs: list) -> None:
    path = out / ".spans.json"
    if path.exists():
        data = json.loads(path.read_text())
        spans.extend(data["spans"])
        allocs.append(data["alloc_mb"])
