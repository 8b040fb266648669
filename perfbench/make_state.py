"""Write the state file that the cli-configs workload inspects.

    python perfbench/make_state.py PATH SEED

The coefficients are drawn here with numpy from the seed, so the
benchmark can recompute what `kgfield state inspect` must report
without reading the file back through kgfield.
"""

from __future__ import annotations

import sys

import numpy as np

MODEL = {"L": [12.0, 12.0], "N": [32, 32], "M": 1.3, "kappa": 0.7, "a": -0.4,
         "t0": 0.25}


def coefficients(seed: int) -> tuple[np.ndarray, np.ndarray]:
    rng = np.random.default_rng(seed)
    shape = tuple(MODEL["N"])
    draw = lambda: rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    return draw(), draw()


def expected_inspect(seed: int) -> dict:
    plus, minus = coefficients(seed)
    return {"kind": "lattice", "dim": len(MODEL["N"]), "L": MODEL["L"],
            "N": MODEL["N"], "M": MODEL["M"], "kappa": MODEL["kappa"],
            "a": MODEL["a"], "t0": MODEL["t0"],
            "max_abs_plus": float(np.abs(plus).max()),
            "max_abs_minus": float(np.abs(minus).max())}


def main() -> int:
    path, seed = sys.argv[1], int(sys.argv[2])
    from kgfield.core import LatticeField, ModelParams, MomentumLattice
    from kgfield.stateio import save_state

    plus, minus = coefficients(seed)
    lattice = MomentumLattice(MODEL["L"], MODEL["N"])
    params = ModelParams(MODEL["M"], MODEL["kappa"], MODEL["a"])
    save_state(path, LatticeField(lattice, params, plus, minus, MODEL["t0"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
