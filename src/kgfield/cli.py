"""Command-line surface: verify suites, scenarios, sweeps, state files.

Subcommands
    verify [--suite NAME]      run registered invariant checks
    scenario CONFIG.json       build a field, run tasks, emit reports
    sweep CONFIG.json          scan one axis point by point (--workers N
                               for a process pool), emit a table
    state inspect FILE         print a state-file header summary

The scenario and sweep commands, their config schemas and the validator
live in kgfield.runs.  Exit codes: 0 all checks/tasks passed, 1 a check
or task failed, 2 configuration error.  KGFIELD_OUT overrides --out.  The
environment variable KGFIELD_CORRUPT_DISPERSION (a float, default 1)
rescales the dispersion relation inside the wave-equation check; it
exists so the negative-control test can watch a corrupted constant fail.

Importing this module loads only the standard library, so --version and
--help load no numpy.  Every library module is imported inside the
function that calls it, so a cold process loads, and compiles when it has
no bytecode cache, only the modules its command runs: kgfield.runs only
for scenario and sweep.  verify loads every computational module, since
its registry imports them all.
"""

from __future__ import annotations

import argparse
import os
import sys

from . import ConfigError, TaskError, __version__


# ----------------------------------------------------------------- verify

def _cmd_verify(args) -> int:
    from .verify import VerifyContext, run_checks

    try:
        scale = float(os.environ.get("KGFIELD_CORRUPT_DISPERSION", "1.0"))
    except ValueError:
        raise ConfigError("KGFIELD_CORRUPT_DISPERSION must be a float")
    ctx = VerifyContext(seed=args.seed, dispersion_scale=scale)
    try:
        results = run_checks(args.suite, ctx)
    except ValueError as exc:
        raise ConfigError(str(exc)) from None
    for r in results:
        mark = "PASS" if r.passed else "FAIL"
        tol = f"{r.tolerance:.1e}"      # in full where .1e would round it
        tol = tol if float(tol) == r.tolerance else repr(r.tolerance)
        print(f"{mark} {r.suite}:{r.name} measured={r.measured:.6e} "
              f"tolerance={tol}"
              + (f" error={r.error}" if r.error else ""))
    failed = [r for r in results if not r.passed]
    print(f"{len(results) - len(failed)}/{len(results)} checks passed")
    config = {"suite": args.suite or "all", "seed": args.seed}
    if args.out or os.environ.get("KGFIELD_OUT"):
        from dataclasses import asdict

        from .reporting import resolve_outdir, run_environment, write_json

        outdir = resolve_outdir(args.out, {})
        payload = {"checks": [asdict(r) for r in results],
                   "passed": not failed, "environment": run_environment()}
        write_json(outdir / "verify_report.json", payload, config)
    return 1 if failed else 0


# ----------------------------------------------------- scenario and sweep

def _cmd_config(args) -> int:
    """runs._cmd_scenario or runs._cmd_sweep, as args.command names."""
    from . import runs

    return getattr(runs, f"_cmd_{args.command}")(args)


# ------------------------------------------------------------------ state

def _cmd_state(args) -> int:
    import json

    from .stateio import inspect_state

    # argparse admits only the inspect subcommand
    try:
        info = inspect_state(args.file)
    except (OSError, ValueError) as exc:
        raise ConfigError(str(exc)) from None
    print(json.dumps(info, indent=2, sort_keys=True))
    return 0


# ------------------------------------------------------------------- main

def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="kgfield",
        description="Klein-Gordon field numerics: verification suites, "
                    "scenario runs, parameter sweeps, state files.")
    parser.add_argument("--version", action="version",
                        version=f"kgfield {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p_verify = sub.add_parser("verify", help="run registered invariant checks")
    p_verify.add_argument("--suite", default=None,
                          help="run one registered suite (default: all)")
    p_verify.add_argument("--seed", type=int, default=0)
    p_verify.set_defaults(func=_cmd_verify)

    p_scn = sub.add_parser("scenario", help="run a scenario config")
    p_scn.add_argument("config")
    p_scn.set_defaults(func=_cmd_config)

    p_swp = sub.add_parser("sweep", help="scan one axis of a config")
    p_swp.add_argument("config")
    p_swp.add_argument("--workers", type=int, default=1,
                       help="process pool size, at most the grid length")
    p_swp.set_defaults(func=_cmd_config)

    for p in (p_verify, p_scn, p_swp):
        p.add_argument("--out", default=None,
                       help="output directory (KGFIELD_OUT overrides)")
    for p in (p_scn, p_swp):
        p.add_argument("--format", choices=("csv", "json"), default=None,
                       help="restrict emitted artifact format")

    p_state = sub.add_parser("state", help="state-file utilities")
    state_sub = p_state.add_subparsers(dest="state_cmd", required=True)
    p_inspect = state_sub.add_parser("inspect", help="print header summary")
    p_inspect.add_argument("file")
    p_inspect.set_defaults(func=_cmd_state)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    except TaskError as exc:
        print(f"task failed: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
