"""Dense complex linear algebra for small Hilbert spaces.

The models of the library have a few levels at most (a spin-1/2 has two),
so states are plain complex ndarrays of shape (dim,) and operators are
(dim, dim) ndarrays.  No sparse machinery, no GPU, just numpy double
precision.

Conventions
-----------
* kets: ``KET_UP = [1, 0]``, ``KET_DOWN = [0, 1]``.
* every validator tolerance comes from :data:`unravelings.tolerances.TOL`.
"""

import numpy as np

from .tolerances import TOL

KET_UP = np.array([1.0, 0.0], dtype=complex)
KET_DOWN = np.array([0.0, 1.0], dtype=complex)

_PAULI = {
    "x": np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex),
    "y": np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex),
    "z": np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex),
}


def pauli(axis: str) -> np.ndarray:
    """Return a copy of the Pauli matrix for ``axis`` in {'x', 'y', 'z'}."""
    try:
        return _PAULI[axis].copy()
    except KeyError:
        raise ValueError(f"unknown Pauli axis {axis!r}; expected 'x', 'y' or 'z'") from None


def assert_normalized(psi: np.ndarray) -> None:
    nrm2 = float(np.vdot(psi, psi).real)
    if abs(nrm2 - 1.0) > TOL.norm:
        raise ValueError(f"state is not normalized: ||psi||^2 - 1 = {nrm2 - 1.0:.3e}")


def is_hermitian(op: np.ndarray) -> bool:
    return bool(np.max(np.abs(op - op.conj().T)) <= TOL.hermiticity)


def projector(psi: np.ndarray) -> np.ndarray:
    psi = np.asarray(psi, dtype=complex)
    return np.outer(psi, psi.conj())


def density_from_ensemble(states, weights) -> np.ndarray:
    """Weighted mixture sum_k w_k |psi_k><psi_k| as a density matrix."""
    states = [np.asarray(s, dtype=complex) for s in states]
    weights = np.asarray(weights, dtype=float)
    if len(states) == 0:
        raise ValueError("empty ensemble")
    if len(states) != weights.size:
        raise ValueError("states and weights have different lengths")
    if np.any(weights < 0.0):
        raise ValueError("ensemble weights must be non-negative")
    if abs(weights.sum() - 1.0) > TOL.weight_sum:
        raise ValueError(f"ensemble weights sum to {weights.sum():.12f}, not 1")
    for s in states:
        assert_normalized(s)
    dim = states[0].size
    rho = np.zeros((dim, dim), dtype=complex)
    for w, s in zip(weights, states):
        rho += w * np.outer(s, s.conj())
    return rho
