"""Which functions of src/kgfield the shipped runs reach, and why the rest stay.

One pass under sys.setprofile runs what the package ships, each command
in-process through kgfield.cli.main:

- every configs/*.json as shipped, each through `kgfield scenario` or
  `kgfield sweep` with the formats its output block names (CSV and JSON);
- `kgfield verify --seed 0`, writing its report;
- `kgfield state inspect` on a lattice and a plane-wave state file, both
  written before the profiler starts.

The pass runs in one fresh child process under one BLAS thread, so that
calls made while the kgfield modules load count (the schema builders of
kgfield.runs), and no functools cache that earlier tests filled hides a
call.

Every `def` in src/kgfield/*.py, methods and nested functions included,
must be reached by that pass or named in tests/reachability.json with one
reason and a `where`:

- config: a config key or command option that no shipped config uses,
  and the test that runs it;
- public: a name in kgfield.__all__, a dunder method, or a documented
  capability of a public function, and the test that holds it;
- paper: the paper identity it implements, and the test or check that
  holds it;
- perfbench: the perfbench file that calls it.

An entry that names a reached function (stale) or no function (missing)
fails too.  tests/test_golden.py takes its CSV-body hashes from the same
pass, so Tier-1 runs the shipped configs once.

The line budget: the physical lines of src/kgfield/*.py (their newline
count, as `wc -l` gives it) must equal the ceiling in
tests/line_budget.json.  A count above it fails, and so does one below,
so that a change that deletes lines lowers the ceiling with them and one
that adds lines raises it where the diff shows it.  A per-module report,
with the total against the ceiling:

    PYTHONPATH=src python tests/reachability.py
"""

from __future__ import annotations

import ast
import contextlib
import functools
import hashlib
import importlib.util
import io
import json
import os
import subprocess
import sys
import tempfile
from collections import Counter
from pathlib import Path
from typing import NamedTuple

import numpy as np

# no kgfield import at module level: the recording child imports this
# module before it starts the profiler
REPO = Path(__file__).resolve().parents[1]
PACKAGE = Path(importlib.util.find_spec("kgfield").origin).resolve().parent
CONFIGS = sorted((REPO / "configs").glob("*.json"))
ALLOWED_PATH = Path(__file__).with_name("reachability.json")
BUDGET_PATH = Path(__file__).with_name("line_budget.json")
REASONS = ("config", "public", "paper", "perfbench")


class Def(NamedTuple):
    """One `def`: where it is, and the line its code object starts on."""
    file: str
    line: int
    first: int          # the first decorator's line, else the def line
    name: str

    @property
    def key(self) -> tuple:
        """What the pass records of the def's code object."""
        return self.file, self.first, self.name


class ShippedRuns(NamedTuple):
    reached: frozenset      # (file name, first line, function name)
    csv_bodies: dict        # {config name: {CSV name: sha256 of its body}}
    verify_stdout: str      # sha256 of `kgfield verify --seed 0` stdout


def package_defs() -> dict[str, Def]:
    """{module.Qual.name: Def} of every def in the package's modules."""
    defs = {}

    def walk(node, module, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef,
                                  ast.ClassDef)):
                qual = f"{prefix}.{child.name}"
                if not isinstance(child, ast.ClassDef):
                    first = min([d.lineno for d in child.decorator_list]
                                + [child.lineno])
                    assert qual not in defs, f"{qual} is defined twice"
                    defs[qual] = Def(module, child.lineno, first, child.name)
                walk(child, module, qual)
            else:
                walk(child, module, prefix)

    for path in sorted(PACKAGE.glob("*.py")):
        walk(ast.parse(path.read_text()), path.name, path.stem)
    return defs


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _body_hashes(outdir: Path) -> dict:
    """{CSV file name: sha256 of its body}: the lines that do not start with
    '#', as `grep -v '^#'` prints them."""
    return {path.name: _sha256(b"".join(
        line for line in path.read_bytes().splitlines(keepends=True)
        if not line.startswith(b"#"))) for path in sorted(outdir.glob("*.csv"))}


def _write_states(tmp: Path) -> None:
    """A lattice and a plane-wave state file in tmp."""
    from kgfield.core import (LatticeField, ModelParams, MomentumLattice,
                              PlaneWaveField)
    from kgfield.stateio import save_state

    params = ModelParams(1.3, 0.7, -0.4)
    rng = np.random.default_rng(5)
    plus, minus = (rng.standard_normal((8, 4, 2)) @ [1, 1j] for _ in "+-")
    fields = {"lattice.state": LatticeField(MomentumLattice([6.0, 5.0], [8, 4]),
                                            params, plus, minus, 0.25),
              "planewave.state": PlaneWaveField(
                  params, [(1, [0.5], 0.3 - 0.2j), (-1, [-1.0], 1.5)], dim=1)}
    for name, field in fields.items():
        save_state(tmp / name, field)


def _record(tmp: str) -> None:
    """The recording child: profile from before kgfield is imported, so
    that calls made while its modules load count; run every shipped
    command through cli.main; write what ran to tmp/reached.json."""
    codes = set()

    def profile(frame, event, arg):
        codes.add(frame.f_code)

    tmp = Path(tmp)
    sys.setprofile(profile)
    from kgfield.cli import main

    with contextlib.redirect_stdout(io.StringIO()):
        for config in CONFIGS:
            command = "sweep" if config.stem.startswith("sweep_") else "scenario"
            assert main([command, str(config), "--out", str(tmp / config.stem)]) == 0
    with contextlib.redirect_stdout(io.StringIO()) as verify:
        assert main(["verify", "--seed", "0", "--out", str(tmp / "verify")]) == 0
    with contextlib.redirect_stdout(io.StringIO()):
        for state in sorted(tmp.glob("*.state")):
            assert main(["state", "inspect", str(state)]) == 0
    sys.setprofile(None)
    (tmp / "reached.json").write_text(json.dumps({
        "reached": sorted({(Path(c.co_filename).name, c.co_firstlineno,
                            c.co_name) for c in codes
                           if Path(c.co_filename).resolve().parent == PACKAGE}),
        "verify_stdout": _sha256(verify.getvalue().encode())}))


@functools.cache
def shipped_runs() -> ShippedRuns:
    """Write the state files, then run the shipped configs, verify and
    state inspect once in a fresh child under one BLAS thread."""
    env = {k: v for k, v in os.environ.items()
           if k not in ("KGFIELD_OUT", "KGFIELD_CORRUPT_DISPERSION")}
    env.update(OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
               PYTHONPATH=os.pathsep.join(p for p in (
                   str(Path(__file__).parent), str(PACKAGE.parent),
                   env.get("PYTHONPATH")) if p))
    with tempfile.TemporaryDirectory() as tmp:
        _write_states(Path(tmp))
        subprocess.run([sys.executable, "-c", "import sys, reachability; "
                        "reachability._record(sys.argv[1])", tmp],
                       env=env, check=True)
        got = json.loads(Path(tmp, "reached.json").read_text())
        bodies = {c.name: _body_hashes(Path(tmp, c.stem)) for c in CONFIGS}
    return ShippedRuns(frozenset(map(tuple, got["reached"])), bodies,
                       got["verify_stdout"])


def load_allowed() -> dict:
    return json.loads(ALLOWED_PATH.read_text())


def line_counts() -> dict[str, int]:
    """{module file name: its newline count} over src/kgfield/*.py."""
    return {path.name: path.read_bytes().count(b"\n")
            for path in sorted(PACKAGE.glob("*.py"))}


def load_ceiling() -> int:
    return json.loads(BUDGET_PATH.read_text())["ceiling"]


def budget_failure(counts: dict[str, int], ceiling: int) -> str | None:
    """What the line budget reports when the total is not the ceiling:
    the total, the ceiling and the count of every module."""
    total = sum(counts.values())
    if total == ceiling:
        return None
    above = total > ceiling
    fix = ("delete lines, or raise the ceiling and name the lines in "
           "CHANGES.md" if above else f"lower the ceiling to {total}")
    modules = ", ".join(f"{name} {n}" for name, n in counts.items())
    return (f"src/kgfield has {total} lines, {'above' if above else 'below'} "
            f"the ceiling of {ceiling} in {BUDGET_PATH.name}: {fix} "
            f"(per module: {modules})")


def gate_failures(defs: dict[str, Def], reached, allowed: dict) -> list[str]:
    """What the gate reports: each def that no run reaches and no entry
    names, each entry that names a reached or missing def, and each entry
    without one known reason and a where."""
    failures = []
    for qual, d in defs.items():
        hit = d.key in reached
        if not hit and qual not in allowed:
            failures.append(f"src/kgfield/{d.file}:{d.line}: {qual} is reached "
                            f"by no shipped run and named by no entry")
        elif hit and qual in allowed:
            failures.append(f"src/kgfield/{d.file}:{d.line}: {qual} is reached, "
                            f"so its entry is stale")
    for qual, entry in allowed.items():
        if qual not in defs:
            failures.append(f"{ALLOWED_PATH.name}: {qual} names no function "
                            f"in src/kgfield")
        elif (sorted(entry) != ["reason", "where"]
              or entry["reason"] not in REASONS or not entry["where"]):
            failures.append(f"{ALLOWED_PATH.name}: {qual} needs one reason of "
                            f"{REASONS} and a where, not {entry}")
    return failures


def report(defs: dict[str, Def], reached, allowed: dict) -> str:
    """Per module: its lines, its defs, how many the pass reaches, and the
    entries by reason."""
    rows = [("module", "lines", "defs", "reached", *REASONS)]
    for name, lines in line_counts().items():
        quals = [q for q, d in defs.items() if d.file == name]
        hit = sum(defs[q].key in reached for q in quals)
        reasons = Counter(allowed[q]["reason"] for q in quals if q in allowed)
        rows.append((name, lines, len(quals), hit,
                     *(reasons[r] for r in REASONS)))
    rows.append(("total", *(sum(r[i] for r in rows[1:])
                            for i in range(1, len(rows[0])))))
    width = [max(len(str(r[i])) for r in rows) for i in range(len(rows[0]))]
    return "\n".join("  ".join(str(v).rjust(w) if i else str(v).ljust(w)
                               for i, (v, w) in enumerate(zip(r, width)))
                     for r in rows)


if __name__ == "__main__":
    defs, allowed = package_defs(), load_allowed()
    reached = shipped_runs().reached
    print(report(defs, reached, allowed))
    counts, ceiling = line_counts(), load_ceiling()
    print(f"lines {sum(counts.values())} against the ceiling {ceiling} "
          f"of {BUDGET_PATH.name}")
    failures = gate_failures(defs, reached, allowed)
    over = budget_failure(counts, ceiling)
    if over:
        failures.append(over)
    print("\n".join(failures) or "gate passes")
    sys.exit(1 if failures else 0)
