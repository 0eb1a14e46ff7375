"""Dense complex linear algebra for small Hilbert spaces.

The models of the library have a few levels at most (a spin-1/2 has two),
so states are plain complex ndarrays of shape (dim,) and operators are
(dim, dim) ndarrays.  No sparse machinery, no GPU, just numpy double
precision.

Conventions
-----------
* kets: ``KET_UP = [1, 0]``, ``KET_DOWN = [0, 1]``.
"""

import math

import numpy as np

_NORM_TOL = 1e-10          # | ||psi||^2 - 1 | of a normalized state
_HERMITICITY_TOL = 1e-10   # max |M - M^dagger| elementwise of a Hermitian operator

KET_UP = np.array([1.0, 0.0], dtype=complex)
KET_DOWN = np.array([0.0, 1.0], dtype=complex)


def require_finite(name: str, value: float, positive: bool = True) -> None:
    """ValueError unless ``value`` is finite and positive (``>= 0`` if not ``positive``)."""
    if not (0.0 < value < math.inf or (not positive and value == 0.0)):
        raise ValueError(f"{name} must be finite and {'positive' if positive else '>= 0'}, "
                         f"got {value}")


def assert_normalized(psi: np.ndarray) -> None:
    nrm2 = float(np.vdot(psi, psi).real)
    if not abs(nrm2 - 1.0) <= _NORM_TOL:     # also a nan
        raise ValueError(f"state is not normalized: ||psi||^2 - 1 = {nrm2 - 1.0:.3e}")


def is_hermitian(op: np.ndarray) -> bool:
    return bool(np.max(np.abs(op - op.conj().T)) <= _HERMITICITY_TOL)


def projector(psi: np.ndarray) -> np.ndarray:
    psi = np.asarray(psi, dtype=complex)
    return np.outer(psi, psi.conj())

