"""Single home for every numerical tolerance used by the library.

Keeping the knobs in one frozen record makes test calibration a one-line
change and guarantees that validation code and tests agree on what
"Hermitian enough" or "normalized enough" means.
"""

from dataclasses import dataclass


@dataclass(frozen=True)
class Tolerances:
    norm: float = 1e-10             # |  ||psi||^2 - 1 |  for normalized states
    hermiticity: float = 1e-10      # max |M - M^dagger| elementwise
    weight_sum: float = 1e-10       # ensemble weights must sum to 1 within this
    unit_modulus: float = 1e-12     # | |xi|^2 - 1 | for unraveling parameters
    povm: float = 1e-6              # completeness defect of a measurement-operator family
    quadrature_rel: float = 1e-8    # relative tolerance of adaptive quadrature
    stability_budget: float = 0.01  # lam * max_eig(L)^2 * dt must stay below this


TOL = Tolerances()
