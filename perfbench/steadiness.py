"""Run one workload several times with different seeds and show its spread.

    python3 perfbench/steadiness.py --workload NAME [--first-seed 1]

Runs the workload RUNS times, with seeds first-seed, first-seed + 1, ...,
each for BENCHMARK.json's run_seconds.  For each end-to-end metric prints
the values, their median and the quartile spread (Q3 - Q1) / median, with
Python's statistics.quantiles (n=4), and the share of failed ops per run.
Runs are sequential, one benchmark process at a time.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys

import harness

RUNS = 10


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--first-seed", type=int, default=1)
    args = ap.parse_args()
    seconds = json.loads(
        (harness.ROOT / "BENCHMARK.json").read_text())["run_seconds"]
    values: dict[str, list[float]] = {}
    shares = []
    for i in range(RUNS):
        seed = args.first_seed + i
        proc = subprocess.run(
            [sys.executable, str(harness.BENCH_DIR / "run.py"), "--workload",
             args.workload, "--seed", str(seed), "--seconds",
             str(seconds), "--trace", "0"],
            capture_output=True, text=True, timeout=600)
        if proc.returncode != 0:
            print(proc.stderr, file=sys.stderr)
            return proc.returncode
        res = harness.last_json_line(proc.stdout)
        shares.append(res["failed"] / res["attempted"])
        for name, mv in res["metrics"].items():
            values.setdefault(name, []).append(mv["value"])
        print(f"seed {seed}: correct={res['correct']} attempted="
              f"{res['attempted']} failed={res['failed']} " + " ".join(
                  f"{n}={mv['value']:.6g}" for n, mv in res["metrics"].items()),
              flush=True)
    summary = {name: {"median": harness.median(v),
                      "spread": harness.quartile_spread(v)}
               for name, v in values.items()}
    print(json.dumps({"workload": args.workload, "runs": RUNS,
                      "failed_shares": sorted(set(shares)),
                      "metrics": summary}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
