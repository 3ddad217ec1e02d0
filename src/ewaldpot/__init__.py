"""Ewald-summation electrostatic potentials for 1D-, 2D- and 3D-periodic systems.

The package computes per-target electrostatic potentials (Gaussian units)
for neutral point-charge systems under one, two, or three periodic
directions, split into real-space, reciprocal-space, zero-mode, and
self contributions whose total is independent of the splitting
parameter.  See :func:`ewald_potential` for the main entry point and
:mod:`ewaldpot.oracle` for the independent reference implementations
used in the test suite.
"""

from .core import (
    EwaldParams,
    KGrid,
    ParticleSystem,
    Periodicity,
    PotentialResult,
    build_image_vectors,
    build_kgrid,
    default_params,
    default_xi,
    wrap_positions,
)
from .ewald import (
    EvalTargets,
    ewald_potential,
    kspace_sum_1p,
    kspace_sum_2p,
    kspace_sum_3p,
    real_space_sum,
    self_term,
    zero_mode_1p,
    zero_mode_2p,
)

__version__ = "0.1.0"

__all__ = [
    "EvalTargets",
    "EwaldParams",
    "KGrid",
    "ParticleSystem",
    "Periodicity",
    "PotentialResult",
    "build_image_vectors",
    "build_kgrid",
    "default_params",
    "default_xi",
    "ewald_potential",
    "kspace_sum_1p",
    "kspace_sum_2p",
    "kspace_sum_3p",
    "real_space_sum",
    "self_term",
    "wrap_positions",
    "zero_mode_1p",
    "zero_mode_2p",
    "__version__",
]
