"""A fixed unit of CPU work that measures how fast the machine runs now.

On a shared machine the same code runs up to twice as slow for minutes
at a time while other tenants load the host; CPU time equals wall time
then, so the core itself is slower.  The benchmark times this kernel
just before and just after every op (or round of short ops), on the
same CPU, and converts the op's wall time to reference seconds: seconds
on a CPU on which the kernel takes REFERENCE_S.  The kernel does not
touch kgfield, so a change to kgfield cannot move it.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

REFERENCE_S = 0.010
_GRID = None


def kernel() -> float:
    """Wall time of 20 complex 128x128 inverse FFTs and a Python loop."""
    global _GRID
    if _GRID is None:
        rng = np.random.default_rng(0)
        _GRID = rng.standard_normal((128, 128)) + 1j * rng.standard_normal(
            (128, 128))
        np.fft.ifftn(_GRID)     # first call sets up pocketfft; not timed
    t0 = time.perf_counter()
    for _ in range(20):
        np.fft.ifftn(_GRID)
    acc = 0
    for i in range(100_000):
        acc += i * i
    return time.perf_counter() - t0


def samples(n: int) -> list[float]:
    return [kernel() for _ in range(n)]


class Bracket:
    """Converts wall seconds to reference seconds, op by op.

    Each conversion uses the kernel samples taken before the op (the
    previous conversion's "after" samples) and n new ones after it.
    """

    def __init__(self, n: int):
        self.n = n
        self.before = samples(n)

    def convert(self, wall_s: list[float]) -> list[float]:
        after = samples(self.n)
        speed = REFERENCE_S / statistics.mean(self.before + after)
        self.before = after
        return [t * speed for t in wall_s]
