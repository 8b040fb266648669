"""The same behaviour, byte for byte: CSV bodies and verify stdout.

tests/golden.json holds the sha256 of every CSV body (the lines that do
not start with '#', as `grep -v '^#'` prints them) that the shipped
configs/*.json write, and of `kgfield verify --seed 0` stdout under one
BLAS thread, with the numpy version and machine type they were made
with.  A mismatch names the file, both hashes and both numpy versions.
After a deliberate change of output, regenerate the file with

    PYTHONPATH=src python tests/test_golden.py

and name in CHANGES.md each body that moved and why.
"""

import hashlib
import json
import os
import platform
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest

import kgfield
from kgfield.cli import main

GOLDEN_PATH = Path(__file__).with_name("golden.json")
CONFIGS = sorted((Path(__file__).resolve().parents[1] / "configs").glob("*.json"))


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def config_body_hashes(config: Path, outdir: Path) -> dict:
    """{CSV file name: sha256 of its body} of one config run in-process."""
    command = "sweep" if config.stem.startswith("sweep_") else "scenario"
    assert main([command, str(config), "--out", str(outdir),
                 "--format", "csv"]) == 0
    return {path.name: _sha256(b"".join(
        line for line in path.read_bytes().splitlines(keepends=True)
        if not line.startswith(b"#"))) for path in sorted(outdir.glob("*.csv"))}


def verify_stdout_hash() -> str:
    """sha256 of `kgfield verify --seed 0` stdout in a one-thread child."""
    env = {k: v for k, v in os.environ.items()
           if k not in ("KGFIELD_OUT", "KGFIELD_CORRUPT_DISPERSION")}
    src = str(Path(kgfield.__file__).resolve().parents[1])
    env.update(OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
               PYTHONPATH=os.pathsep.join(
                   p for p in (src, env.get("PYTHONPATH")) if p))
    proc = subprocess.run(
        [sys.executable, "-m", "kgfield.cli", "verify", "--seed", "0"],
        capture_output=True, env=env, check=True)
    return _sha256(proc.stdout)


GOLDEN = json.loads(GOLDEN_PATH.read_text()) if GOLDEN_PATH.exists() else None


def _mismatch(name: str, got: str, want: str) -> str:
    return (f"{name}: sha256 {got} with numpy {np.__version__} on "
            f"{platform.machine()}, golden {want} with numpy "
            f"{GOLDEN['numpy']} on {GOLDEN['machine']}")


def test_golden_lists_every_shipped_config():
    assert sorted(GOLDEN["csv_bodies"]) == [c.name for c in CONFIGS]


@pytest.mark.parametrize("config", CONFIGS, ids=lambda c: c.stem)
def test_csv_bodies_match_golden(config, tmp_path, monkeypatch):
    monkeypatch.delenv("KGFIELD_OUT", raising=False)
    got = config_body_hashes(config, tmp_path)
    want = GOLDEN["csv_bodies"][config.name]
    assert sorted(got) == sorted(want), (
        f"{config.name} writes {sorted(got)}, golden.json lists {sorted(want)}")
    moved = [_mismatch(f"{config.name}: {name}", got[name], want[name])
             for name in want if got[name] != want[name]]
    assert not moved, "\n".join(moved)


def test_verify_stdout_matches_golden():
    got, want = verify_stdout_hash(), GOLDEN["verify_seed0_stdout"]
    assert got == want, _mismatch("kgfield verify --seed 0 stdout", got, want)


if __name__ == "__main__":
    os.environ.pop("KGFIELD_OUT", None)
    with tempfile.TemporaryDirectory() as tmp:
        bodies = {c.name: config_body_hashes(c, Path(tmp, c.stem))
                  for c in CONFIGS}
    GOLDEN_PATH.write_text(json.dumps({
        "numpy": np.__version__,
        "machine": platform.machine(),
        "csv_bodies": bodies,
        "verify_seed0_stdout": verify_stdout_hash(),
    }, indent=1) + "\n")
    print(f"wrote {GOLDEN_PATH}")
