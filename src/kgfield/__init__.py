"""Numerics for first-quantized Klein-Gordon fields on a periodic box.

Positive-definite inner products, conserved currents, localized states,
the gauge symmetry they generate, nonrelativistic limits, and coupling to
stationary magnetic backgrounds, with every identity backed by an
executable check (see the verify module and the test suite).
"""

__version__ = "0.1.0"

from .core import (
    Boost,
    LatticeField,
    ModelParams,
    MomentumLattice,
    PlaneWaveField,
    apply_C,
    apply_D_power,
    boost_matrix,
    boost_planewave,
    energy_split,
    evolve,
    from_initial_data,
    gaussian_profile,
    kg_residual,
    minkowski_dot,
    positive_packet,
    random_field,
    schrodinger_packet,
)

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
