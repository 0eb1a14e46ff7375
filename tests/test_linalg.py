import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from unravelings.linalg import (KET_DOWN, KET_UP, assert_normalized, is_hermitian, pauli,
                                projector, require_finite)


def test_pauli_matrices():
    assert np.array_equal(pauli("z"), np.diag([1.0 + 0j, -1.0]))
    assert np.array_equal(pauli("x"), np.array([[0, 1], [1, 0]], dtype=complex))
    assert np.array_equal(pauli("z") @ pauli("z"), np.eye(2))
    with pytest.raises(ValueError):
        pauli("w")


def test_projector_of_a_tilted_state_is_its_pure_density_matrix():
    psi = np.array([0.5, np.sqrt(3.0) / 2.0], dtype=complex)
    p = projector(psi)
    assert np.allclose(p @ p, p, atol=1e-15)
    assert np.allclose(p @ psi, psi, atol=1e-15)
    assert np.trace(p).real == pytest.approx(1.0, abs=1e-12)
    assert np.allclose(p, [[0.25, np.sqrt(3.0) / 4.0], [np.sqrt(3.0) / 4.0, 0.75]], atol=1e-15)


def test_validators_reject_unnormalized_states_and_bad_numbers():
    assert_normalized((KET_UP + KET_DOWN) / np.sqrt(2.0))
    with pytest.raises(ValueError, match="not normalized"):
        assert_normalized(KET_UP + KET_DOWN)
    with pytest.raises(ValueError, match="not normalized"):
        assert_normalized(np.array([np.nan, 0.0], dtype=complex))
    require_finite("dt", 1e-3)
    require_finite("lam", 0.0, positive=False)
    for value in (0.0, -1.0, np.inf, np.nan):
        with pytest.raises(ValueError, match="dt must be finite and positive"):
            require_finite("dt", value)
    for value in (-1e-12, np.inf, np.nan):
        with pytest.raises(ValueError, match="lam must be finite and >= 0"):
            require_finite("lam", value, positive=False)
    assert is_hermitian(pauli("y"))
    assert not is_hermitian(pauli("x") + 1e-6j * pauli("z"))


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
    rho = w * projector(a) + (1.0 - w) * projector(b)
    assert is_hermitian(rho)
    assert abs(np.trace(rho) - 1.0) <= 1e-10
    assert np.linalg.eigvalsh(0.5 * (rho + rho.conj().T)).min() >= -1e-10
