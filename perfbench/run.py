"""kgfield benchmark: one workload per run, or all of them.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

NAME is cli-configs, verify-cold, spectral-2d, localized-3d or all.  The
run builds its inputs from the seed, times whole rounds of ops for at
least S seconds after an untimed warm-up, checks every op's outputs, and
prints one line per metric followed, as the last line, by a JSON object
{"correct", "attempted", "failed", "metrics"}.  With --trace 0 the metrics
are the end-to-end ones; with --trace 1 the per-layer ones, from a
separate traced run.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

import harness

E2E_UNITS = {"setup_s": "s", "op_p50_s": "s", "ops_per_s": "1/s",
             "peak_rss_mb": "MB"}
SUBPROCESS = ("cli-configs", "verify-cold")
INPROCESS = ("spectral-2d", "localized-3d")
WORKLOADS = SUBPROCESS + INPROCESS


def layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("_mb"):
        return "MB"
    return "count"


def run_inprocess(name: str, seed: int, seconds: float, trace: bool) -> dict:
    dirs = harness.RunDirs(name)
    try:
        # set-up-only children, then the child that also runs the timed ops
        trials = harness.SETUP_TRIALS[name]
        setups, setups_ref, correct, result = [], [], True, None
        for trial in range(trials):
            last = trial == trials - 1
            args = [name, "--seed", str(seed), "--seconds", str(seconds),
                    "--trace", str(int(trace and last)),
                    "--t-start", repr(time.perf_counter())]
            if not last:
                args.append("--setup-only")
            res = harness.python_child("inproc.py", args,
                                       dirs.fresh(f"trial{trial}"))
            if res.returncode != 0:
                raise harness.BenchError(
                    f"{name} child exited {res.returncode}: {res.stderr[-800:]}")
            out = harness.last_json_line(res.stdout)
            setups.append(out["setup_s"])
            setups_ref.append(out["setup_ref_s"])
            correct = correct and out["correct"]
            if last:
                result = out
                result["peak_rss_mb"] = res.maxrss_mb
        result["setups"], result["setups_ref_s"] = setups, setups_ref
        result["correct"] = correct
        return result
    finally:
        dirs.remove()


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    if name in SUBPROCESS:
        import subproc
        raw = subproc.run(name, seed, seconds, trace)
    else:
        raw = run_inprocess(name, seed, seconds, trace)
    if trace:
        import tracer
        metrics = dict(raw["layers"])
        metrics.update(tracer.import_metrics(tracer.measure_imports(
            sys.executable, harness.child_env(), harness.ROOT)))
        units = {m: layer_unit(m) for m in metrics}
    else:
        metrics = harness.end_to_end(raw["setups_ref_s"], raw["op_ref_s"],
                                     raw["peak_rss_mb"])
        units = E2E_UNITS
    return {
        "correct": bool(raw["correct"]),
        "attempted": len(raw["op_times"]),
        "failed": int(raw["failed"]),
        "metrics": {m: {"value": float(v), "unit": units[m]}
                    for m, v in metrics.items()},
        "problems": raw["problems"],
        "raw": raw,
    }


def report(name: str, res: dict) -> None:
    print(f"[{name}] attempted={res['attempted']} failed={res['failed']} "
          f"correct={str(res['correct']).lower()}")
    for metric, mv in res["metrics"].items():
        print(f"[{name}] {metric} = {mv['value']:.6g} {mv['unit']}")
    raw = res["raw"]
    print(f"[{name}] (info) wall seconds, not converted: set-up median = "
          f"{harness.median(raw['setups']):.6g} s, op median = "
          f"{harness.median(raw['op_times']):.6g} s")
    for problem in res["problems"]:
        print(f"[{name}] problem: {problem}", file=sys.stderr)


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    # one CPU for the benchmark and every child it starts, so that the
    # calibration kernel and the ops run on the same core
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    try:
        harness.require_checkout()
        names = WORKLOADS if args.workload == "all" else (args.workload,)
        results = {n: run_workload(n, args.seed, args.seconds,
                                   bool(args.trace)) for n in names}
    except harness.BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 2
    finally:
        harness.stop_launcher()
    for name, res in results.items():
        report(name, res)
    if len(results) == 1:
        (res,) = results.values()
        metrics = res["metrics"]
    else:
        metrics = {f"{n}/{m}": mv for n, r in results.items()
                   for m, mv in r["metrics"].items()}
    print(json.dumps({
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
