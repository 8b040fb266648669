"""Run one kgfield command with the tracer installed.

    python perfbench/traced_cli.py SPANS.json LABEL -- ARG...

Equivalent to `python -m kgfield.cli ARG...` except that the tracer wraps
kgfield's functions first and the spans of the call, with the
tracemalloc peak of its largest lattice, are written to SPANS.json.
"""

from __future__ import annotations

import json
import sys

from tracer import Tracer


def main() -> int:
    spans_path, label, sep, *argv = sys.argv[1:]
    if sep != "--":
        raise SystemExit("usage: traced_cli.py SPANS.json LABEL -- ARG...")
    import kgfield.cli as cli

    tracer = Tracer()
    tracer.install()
    code = 0
    try:
        with tracer.span("op"), tracer.span(f"cli.{label}"):
            code = cli.main(argv)
    except SystemExit as exc:      # argparse exits for --version
        code = exc.code if isinstance(exc.code, int) else int(bool(exc.code))
    alloc = tracer.lattice_alloc_mb()
    with open(spans_path, "w", encoding="utf-8") as fh:
        json.dump({"spans": tracer.spans, "alloc_mb": alloc}, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
