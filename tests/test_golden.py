"""The same behaviour, byte for byte: CSV bodies and verify stdout.

tests/golden.json holds the sha256 of every CSV body (the lines that do
not start with '#', as `grep -v '^#'` prints them) that the shipped
configs/*.json write, and of `kgfield verify --seed 0` stdout under one
BLAS thread, with the numpy version and machine type they were made
with.  Both come from the one pass over the shipped runs that the
reachability gate records (tests/reachability.py).  A mismatch names the
file, both hashes and both numpy versions.  After a deliberate change of
output, regenerate the file with

    PYTHONPATH=src python tests/test_golden.py

and name in CHANGES.md each body that moved and why.
"""

import json
import platform
from pathlib import Path

import numpy as np
import pytest

from reachability import CONFIGS, shipped_runs

GOLDEN_PATH = Path(__file__).with_name("golden.json")
GOLDEN = json.loads(GOLDEN_PATH.read_text()) if GOLDEN_PATH.exists() else None


def _mismatch(name: str, got: str, want: str) -> str:
    return (f"{name}: sha256 {got} with numpy {np.__version__} on "
            f"{platform.machine()}, golden {want} with numpy "
            f"{GOLDEN['numpy']} on {GOLDEN['machine']}")


def test_golden_lists_every_shipped_config():
    assert sorted(GOLDEN["csv_bodies"]) == [c.name for c in CONFIGS]


@pytest.mark.parametrize("config", CONFIGS, ids=lambda c: c.stem)
def test_csv_bodies_match_golden(config):
    got = shipped_runs().csv_bodies[config.name]
    want = GOLDEN["csv_bodies"][config.name]
    assert sorted(got) == sorted(want), (
        f"{config.name} writes {sorted(got)}, golden.json lists {sorted(want)}")
    moved = [_mismatch(f"{config.name}: {name}", got[name], want[name])
             for name in want if got[name] != want[name]]
    assert not moved, "\n".join(moved)


def test_verify_stdout_matches_golden():
    got, want = shipped_runs().verify_stdout, GOLDEN["verify_seed0_stdout"]
    assert got == want, _mismatch("kgfield verify --seed 0 stdout", got, want)


if __name__ == "__main__":
    runs = shipped_runs()
    GOLDEN_PATH.write_text(json.dumps({
        "numpy": np.__version__,
        "machine": platform.machine(),
        "csv_bodies": runs.csv_bodies,
        "verify_seed0_stdout": runs.verify_stdout,
    }, indent=1) + "\n")
    print(f"wrote {GOLDEN_PATH}")
