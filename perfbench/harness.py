"""Shared plumbing: paths, the child environment, child processes, statistics.

Every kgfield process the benchmark starts gets the same hermetic
environment (absolute PYTHONPATH to the checkout's src, no KGFIELD_*
overrides, one BLAS/OpenMP thread, a temporary directory inside the
checkout) and is started by one small launcher process, which reaps it
with os.wait4 so that its peak resident set is known.  Only one child
runs at a time.
"""

from __future__ import annotations

import atexit
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
CONFIGS = ROOT / "configs"
OUT = ROOT / ".perfbench_out"

# thread count of every BLAS/OpenMP pool in the children; recorded in the
# README.  More than one thread turns CPU-bound runs into contended ones on
# a two-core machine.
THREADS = "1"
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
# variables that change what a kgfield command does; never inherited
STRIPPED_VARS = ("KGFIELD_OUT", "KGFIELD_CORRUPT_DISPERSION")

CHILD_TIMEOUT_S = 150.0

# set-up trials per run; setup_s is their median.  A verify-cold set-up
# is a full verify process, so it runs once.
SETUP_TRIALS = {"cli-configs": 3, "verify-cold": 1, "spectral-2d": 3,
                "localized-3d": 3}


class BenchError(Exception):
    """The benchmark cannot run here (missing sources, broken child)."""


def require_checkout() -> None:
    """Refuse to run without the program's sources next to the benchmark."""
    missing = [p for p in (SRC / "kgfield" / "__init__.py", CONFIGS)
               if not p.exists()]
    if missing:
        raise BenchError("kgfield sources not found: "
                         + ", ".join(str(p.relative_to(ROOT)) for p in missing))


def child_env(extra: dict | None = None) -> dict:
    env = {k: v for k, v in os.environ.items()
           if k not in STRIPPED_VARS and k != "PYTHONPATH"}
    env["PYTHONPATH"] = str(SRC)
    env["PYTHONHASHSEED"] = "0"
    env["TMPDIR"] = str(OUT / "tmp")
    for var in THREAD_VARS:
        env[var] = THREADS
    if extra:
        env.update(extra)
    return env


class RunDirs:
    """Fresh numbered directories under one per-run directory in OUT."""

    def __init__(self, tag: str):
        (OUT / "tmp").mkdir(parents=True, exist_ok=True)
        self.base = OUT / f"{tag}-{os.getpid()}"
        shutil.rmtree(self.base, ignore_errors=True)
        self.base.mkdir(parents=True)
        self._n = 0

    def fresh(self, label: str) -> Path:
        self._n += 1
        d = self.base / f"{self._n:04d}-{label}"
        d.mkdir()
        return d

    def remove(self) -> None:
        shutil.rmtree(self.base, ignore_errors=True)


@dataclass
class ChildResult:
    returncode: int
    wall_s: float
    maxrss_mb: float
    stdout: str
    stderr: str


class _Launcher:
    """The launcher.py process that starts every child (see its docstring)."""

    def __init__(self):
        self.proc = subprocess.Popen(
            [sys.executable, "-I", "-S", str(BENCH_DIR / "launcher.py")],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)

    def request(self, req: dict) -> dict:
        self.proc.stdin.write(json.dumps(req) + "\n")
        self.proc.stdin.flush()
        line = self.proc.stdout.readline()
        if not line:
            raise BenchError("the launcher process has exited")
        reply = json.loads(line)
        if "error" in reply:
            raise BenchError(f"launcher: {reply['error']}")
        return reply

    def stop(self) -> None:
        self.proc.stdin.close()
        self.proc.wait()
        self.proc.stdout.close()


_launcher: _Launcher | None = None


def stop_launcher() -> None:
    """End the launcher process, if one was started, and wait for it."""
    global _launcher
    if _launcher is not None:
        _launcher.stop()
        _launcher = None


atexit.register(stop_launcher)


def run_child(argv: list[str], cwd: Path, env: dict | None = None,
              timeout: float = CHILD_TIMEOUT_S) -> ChildResult:
    """Run one child to completion; time it and read its rusage.

    The child is started by the launcher process, so that its ru_maxrss
    is its own and not this process's.  The wall time covers fork/exec to
    reaping.  Output goes to files in cwd so that a chatty child cannot
    block on a full pipe.
    """
    global _launcher
    if _launcher is None:
        _launcher = _Launcher()
    out_path, err_path = cwd / ".stdout", cwd / ".stderr"
    reply = _launcher.request({
        "argv": [str(a) for a in argv], "cwd": str(cwd),
        "env": env or child_env(), "timeout": timeout,
        "stdout": str(out_path), "stderr": str(err_path)})
    if reply["maxrss_mb"] <= reply["self_maxrss_mb"] + 1.0:
        print(f"warning: peak RSS of {argv[1:3]} ({reply['maxrss_mb']:.1f} MB)"
              f" is within 1 MB of the launcher's own "
              f"({reply['self_maxrss_mb']:.1f} MB)", file=sys.stderr)
    return ChildResult(reply["returncode"], reply["wall_s"],
                       reply["maxrss_mb"],
                       out_path.read_text(errors="replace"),
                       err_path.read_text(errors="replace"))


def python_child(script: str, args: list[str], cwd: Path,
                 env: dict | None = None) -> ChildResult:
    return run_child([sys.executable, str(BENCH_DIR / script), *args],
                     cwd, env)


def write_spans(workload: str, spans: list) -> None:
    """Keep the traced run's raw spans for inspection after the run."""
    OUT.mkdir(parents=True, exist_ok=True)
    with open(OUT / f"spans-{workload}.json", "w", encoding="utf-8") as fh:
        json.dump(spans, fh)


def last_json_line(text: str) -> dict:
    for line in reversed(text.strip().splitlines()):
        if line.startswith("{"):
            return json.loads(line)
    raise BenchError("child printed no JSON result")


# ------------------------------------------------------------ timed ops

@dataclass
class Rounds:
    op_times: list          # wall seconds of every attempted op
    op_ref_s: list          # the same in reference seconds
    problems: list          # one line per failed op


def timed_rounds(round_size: int, run_op, check_op, bracket, seconds: float,
                 group: int = 1) -> Rounds:
    """Time whole rounds of ops until `seconds` of wall time have passed.

    run_op(i) runs op i of the run and returns (wall seconds, output);
    check_op(i, output) raises if the output is wrong.  An op whose run or
    check raises anything counts as failed and keeps its time (up to the
    exception, if the run raised).  Wall times are converted to reference
    seconds by `bracket` after every `group` ops, a divisor of round_size.
    """
    rounds = Rounds([], [], [])
    i = 0
    t0 = time.perf_counter()
    while True:
        for _ in range(round_size // group):
            walls = []
            for _ in range(group):
                wall, problem = attempt(i, run_op, check_op)
                walls.append(wall)
                if problem:
                    rounds.problems.append(problem)
                i += 1
            rounds.op_times += walls
            rounds.op_ref_s += bracket.convert(walls)
        if time.perf_counter() - t0 >= seconds:
            return rounds


def attempt(i: int, run_op, check_op):
    """Run and check op i: (wall seconds, problem or None).

    The op's output is dropped on return, before the next op starts.
    """
    start = time.perf_counter()
    try:
        wall, out = run_op(i)
    except Exception as exc:
        return time.perf_counter() - start, f"op {i}: {exc!r}"
    try:
        check_op(i, out)
    except Exception as exc:
        return wall, f"op {i}: {type(exc).__name__}: {exc}"
    return wall, None


# ------------------------------------------------------------ statistics

def median(values) -> float:
    values = list(values)
    if not values:
        raise ValueError("median of no samples")
    return float(statistics.median(values))


def quartile_spread(values) -> float:
    """(Q3 - Q1) / median, with Python's default quartile method."""
    q1, _, q3 = statistics.quantiles(list(values), n=4)
    return (q3 - q1) / median(values)


def end_to_end(setups_ref_s, op_ref_s, peak_rss_mb: float) -> dict:
    """The end-to-end figures every workload reports.

    Times come in reference seconds (see calibration.py).  ops_per_s is
    ops over their summed time, the reciprocal of the mean, so slow
    outliers that the median hides move it.  The benchmark's own output
    checks and calibration between ops are not counted.
    """
    if not op_ref_s:
        raise ValueError("a run needs at least one timed op")
    return {
        "setup_s": median(setups_ref_s),
        "op_p50_s": median(op_ref_s),
        "ops_per_s": len(op_ref_s) / sum(op_ref_s),
        "peak_rss_mb": float(peak_rss_mb),
    }
