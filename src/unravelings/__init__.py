"""Stochastic unravelings of a single-coupling GKLS master equation.

Simulation library and CLI for comparing members of a one-parameter family
of diffusive stochastic state equations that all average to the same
master-equation flow: conditional (trajectory-level) statistics depend on
the family member, density-matrix statistics do not.
"""

__version__ = "0.1.0"

from .engine import (EnsembleResult, ModelSpec, UnravelingParams, lindblad_evolve,
                     lindblad_step, max_stable_dt, simulate_ensemble, simulate_trajectory,
                     sse_step)
from .linalg import density_from_ensemble, partial_trace, pauli, tensor
from .noise import derive_seed, measurement_record, reconstruct_noise, wiener_path
from .tolerances import TOL, Tolerances
