"""Deterministic CSV and JSON report emission.

Every artifact carries a comment header with the tool version, a sha256
of the generating config, the full parameter echo, and the write
timestamp.  The timestamp lives only in the header: for a fixed config
and seed the body (column row, data rows, footer) is reproducible byte
for byte.
"""

from __future__ import annotations

import csv
import hashlib
import json
import os
import platform
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from . import __version__


def canonical_json(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def config_hash(config) -> str:
    return hashlib.sha256(canonical_json(config).encode()).hexdigest()


def format_value(v) -> str:
    """Round-trip-safe scalar formatting for CSV cells."""
    if isinstance(v, (float, np.floating)):
        return repr(float(v))
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    return str(v)


def _flatten(obj, prefix="") -> list[tuple[str, str]]:
    out = []
    if isinstance(obj, dict):
        for key in sorted(obj):
            out.extend(_flatten(obj[key], f"{prefix}{key}." if prefix else f"{key}."))
        return out
    key = prefix[:-1]
    if isinstance(obj, (list, tuple)):
        out.append((key, canonical_json(list(obj))))
    else:
        out.append((key, format_value(obj)))
    return out


def resolve_outdir(cli_out: str | None, config: dict) -> Path:
    """The output directory, created: KGFIELD_OUT, else --out, else the
    config's output.directory, else the working directory."""
    out = os.environ.get("KGFIELD_OUT") or cli_out \
        or config.get("output", {}).get("directory") or "."
    path = Path(out)
    path.mkdir(parents=True, exist_ok=True)
    return path


def timestamp_now() -> str:
    return datetime.now(timezone.utc).strftime("%Y-%m-%dT%H:%M:%SZ")


def write_csv(path, columns, rows, config, footer: tuple[str, ...] = ()) -> None:
    """Full CSV file: comment header, column row, data rows, footer."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(f"# kgfield {__version__}\n"
                 f"# config-sha256 {config_hash(config)}\n"
                 f"# written {timestamp_now()}\n")
        for key, val in _flatten(config):
            fh.write(f"# param {key}={val}\n")
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(columns)
        for row in rows:
            writer.writerow([format_value(v) for v in row])
        for line in footer:
            fh.write(f"# {line}\n")


def run_environment() -> dict:
    """Python and numpy versions, the machine type, the BLAS library numpy
    was built against, as numpy's build configuration names it, its thread
    count and whether kgfield._blas can cap it (null and false without)."""
    from . import _blas

    blas = np.show_config(mode="dicts")["Build Dependencies"].get("blas", {})
    threads = _blas.threads()
    return {"python": platform.python_version(), "numpy": np.__version__,
            "machine": platform.machine(),
            "blas": {"name": blas.get("name"), "version": blas.get("version"),
                     "threads": threads, "cap": threads is not None}}


def write_json(path, payload, config) -> None:
    doc = {
        "tool": {"name": "kgfield", "version": __version__},
        "config_sha256": config_hash(config),
        "written": timestamp_now(),
        "config": config,
    }
    doc.update(payload)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")
