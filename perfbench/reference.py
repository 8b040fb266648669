"""Reference figures for the README, beside the workloads.

    python3 perfbench/reference.py

Prints, as JSON: the time of each verify check (one traced verify
process per repeat, REPEATS of them, median), wall time of each shipped sweep with
`--workers 1` and `--workers 2` (alternating, best and median), and the
build time, localized-state and psi-grid times and peak RSS of one 192^3
lattice in a fresh process.  Same hermetic children as the benchmark.
"""

from __future__ import annotations

import json
import statistics
import sys

import harness
from tracer import layer_stats

REPEATS = 3
SWEEPS = ("sweep_a.json", "sweep_mass.json", "sweep_quadrature.json")

LATTICE_192 = r"""
import json, resource, time
t0 = time.perf_counter()
from kgfield.core import ModelParams, MomentumLattice
from kgfield.localization import localized_state
t1 = time.perf_counter()
lat = MomentumLattice([20.0] * 3, [192] * 3)
t2 = time.perf_counter()
rss_lattice = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
state = localized_state(1, (0.0, 0.0, 0.0), lat, ModelParams(1.0))
t3 = time.perf_counter()
state.field.psi_grid(0.0)
t4 = time.perf_counter()
print(json.dumps({"import_s": t1 - t0, "lattice_build_s": t2 - t1,
                  "rss_after_build_mb": rss_lattice,
                  "localized_state_s": t3 - t2, "psi_grid_s": t4 - t3,
                  "peak_rss_mb":
                  resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024}))
"""


def verify_checks(dirs) -> dict:
    samples: dict[str, list[float]] = {}
    for _ in range(REPEATS):
        out = dirs.fresh("verify")
        res = harness.python_child(
            "traced_cli.py", [str(out / ".spans.json"), "verify", "--",
                              "verify", "--out", str(out)], out)
        if res.returncode != 0:
            raise harness.BenchError(f"verify failed: {res.stderr[-500:]}")
        spans = json.loads((out / ".spans.json").read_text())["spans"]
        for name, rec in layer_stats(spans).items():
            if name.startswith("verify.check."):
                samples.setdefault(name[len("verify.check."):], []).append(
                    rec["time"])
    med = {k: statistics.median(v) for k, v in samples.items()}
    return dict(sorted(med.items(), key=lambda kv: -kv[1]))


def sweep_workers(dirs) -> dict:
    out = {}
    for fname in SWEEPS:
        times = {1: [], 2: []}
        for r in range(REPEATS):
            order = (1, 2) if r % 2 == 0 else (2, 1)
            for workers in order:
                d = dirs.fresh(f"sweep-w{workers}")
                res = harness.run_child(
                    [sys.executable, "-m", "kgfield.cli", "sweep",
                     str(harness.CONFIGS / fname), "--workers", str(workers),
                     "--out", str(d)], d)
                if res.returncode != 0:
                    raise harness.BenchError(f"{fname}: {res.stderr[-500:]}")
                times[workers].append(res.wall_s)
        out[fname] = {f"workers_{w}": {"best_s": min(t),
                                       "median_s": statistics.median(t)}
                      for w, t in times.items()}
    return out


def lattice_192(dirs) -> dict:
    d = dirs.fresh("lattice192")
    res = harness.run_child([sys.executable, "-c", LATTICE_192], d)
    if res.returncode != 0:
        raise harness.BenchError(f"192^3 probe failed: {res.stderr[-500:]}")
    return harness.last_json_line(res.stdout)


def main() -> int:
    try:
        harness.require_checkout()
        dirs = harness.RunDirs("reference")
        try:
            result = {"verify_check_s": verify_checks(dirs),
                      "sweep_wall": sweep_workers(dirs),
                      "lattice_192": lattice_192(dirs)}
        finally:
            dirs.remove()
    except harness.BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(result, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
