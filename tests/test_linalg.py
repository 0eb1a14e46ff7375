import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from unravelings.linalg import (KET_DOWN, KET_UP, density_from_ensemble, is_hermitian, pauli,
                                projector)

PSI_TILTED = np.array([0.5, np.sqrt(3.0) / 2.0], dtype=complex)
PLUS_X = (KET_UP + KET_DOWN) / np.sqrt(2.0)


def check_density_matrix(rho):
    """Assert rho is Hermitian, unit trace and positive, each within 1e-10."""
    assert is_hermitian(rho)
    assert abs(np.trace(rho) - 1.0) <= 1e-10
    assert np.linalg.eigvalsh(0.5 * (rho + rho.conj().T)).min() >= -1e-10


def test_pauli_matrices():
    assert np.array_equal(pauli("z"), np.diag([1.0 + 0j, -1.0]))
    assert np.array_equal(pauli("x"), np.array([[0, 1], [1, 0]], dtype=complex))
    assert np.array_equal(pauli("z") @ pauli("z"), np.eye(2))
    with pytest.raises(ValueError):
        pauli("w")


def test_density_from_ensemble_mixes_to_identity():
    rho = density_from_ensemble([KET_UP, KET_DOWN], [0.5, 0.5])
    assert np.allclose(rho, np.eye(2) / 2.0, atol=1e-15)
    # expanding the two x-eigenstate projectors by hand gives the same mixture
    minus_x = (KET_UP - KET_DOWN) / np.sqrt(2.0)
    rho_x = density_from_ensemble([PLUS_X, minus_x], [0.5, 0.5])
    assert np.allclose(rho_x, np.eye(2) / 2.0, atol=1e-15)


def test_density_from_ensemble_single_state():
    rho = density_from_ensemble([PSI_TILTED], [1.0])
    assert np.allclose(rho, projector(PSI_TILTED), atol=1e-15)
    assert np.trace(rho).real == pytest.approx(1.0, abs=1e-12)
    check_density_matrix(rho)


def test_density_from_ensemble_rejects_bad_input():
    with pytest.raises(ValueError):
        density_from_ensemble([], [])
    with pytest.raises(ValueError):
        density_from_ensemble([KET_UP, KET_DOWN], [0.7, 0.7])
    with pytest.raises(ValueError):
        density_from_ensemble([KET_UP], [-1.0])


@st.composite
def qubit_states(draw):
    comps = draw(st.lists(st.floats(-1, 1, allow_nan=False), min_size=4, max_size=4))
    v = np.array([comps[0] + 1j * comps[1], comps[2] + 1j * comps[3]])
    if np.linalg.norm(v) < 1e-3:
        v = KET_UP.copy()
    return v / np.linalg.norm(v)


@settings(max_examples=40, deadline=None)
@given(qubit_states(), qubit_states(), st.floats(0.05, 0.95))
def test_two_state_mixture_is_valid_density_matrix(a, b, w):
    rho = density_from_ensemble([a, b], [w, 1.0 - w])
    check_density_matrix(rho)
