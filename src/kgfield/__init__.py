"""Numerics for first-quantized Klein-Gordon fields on a periodic box.

Positive-definite inner products, conserved currents, localized states,
the gauge symmetry they generate, nonrelativistic limits, and coupling to
stationary magnetic backgrounds, with every identity backed by an
executable check (see the verify module and the test suite).
"""

__version__ = "0.1.0"

__all__ = [
    "Boost",
    "LatticeField",
    "ModelParams",
    "MomentumLattice",
    "PlaneWaveField",
    "__version__",
    "apply_C",
    "apply_D_power",
    "boost_matrix",
    "boost_planewave",
    "energy_split",
    "evolve",
    "from_initial_data",
    "gaussian_profile",
    "kg_residual",
    "minkowski_dot",
    "positive_packet",
    "random_field",
    "schrodinger_packet",
]


# the command line's two failures live here, so that kgfield.cli run as
# `python -m kgfield.cli` and kgfield.runs raise and catch one class each
class ConfigError(Exception):
    """Schema violation or malformed input; the CLI exits with code 2."""


class TaskError(Exception):
    """Task precondition failure at run time; the CLI exits with code 1."""


def __getattr__(name: str):
    # PEP 562: the library names load kgfield.core on first use, so the
    # package, and with it the command line, imports without numpy
    if name in __all__:
        from . import core

        return getattr(core, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
