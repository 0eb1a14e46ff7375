"""Exact relations of the state equation, for general H and L at every member.

Both sides of each relation are driven by one set of increments through the
lock-step Euler kernel (``_state_stack`` of ``_EulerKernel``), so no relation
is sampled and no tolerance is fitted to a seed.

* Conjugation: (H, L, xi, psi0) and (-conj H, conj L, conj xi, conj psi0)
  give conjugate states.  Both members keep xi_r, so both are admissible.
* Unitary covariance: (U H U^dag, U L U^dag, U psi0) gives U psi_t.
"""

import numpy as np
import pytest

from unravelings.engine import ModelSpec, UnravelingParams, _EulerKernel, _state_stack

DT, N_STEPS, N_PATHS, LAM = 1e-3, 200, 50, 1.0
THETAS = [0.0, -np.pi / 4, -np.pi / 2, np.pi / 3]
# (dimension, dense complex L); a diagonal L otherwise
MODELS = [(2, False), (4, False), (3, True)]


def _hermitian(rng, d):
    a = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    return 0.5 * (a + a.conj().T)


def _case(d, dense_l):
    """(H, L, psi0, dW, rng) of one model, from a seed of its own."""
    rng = np.random.default_rng(100 * d + dense_l)
    H = _hermitian(rng, d)
    L = _hermitian(rng, d) if dense_l else np.diag(rng.uniform(-1.0, 1.0, d)).astype(complex)
    psi0 = rng.standard_normal(d) + 1j * rng.standard_normal(d)
    dW = np.sqrt(DT) * rng.standard_normal((N_PATHS, N_STEPS))
    return H, L, psi0 / np.linalg.norm(psi0), dW, rng


def _states(H, L, xi, psi0, dW):
    """The (n + 1, dim, N) states of member ``xi`` driven by ``dW``."""
    kernel = _EulerKernel(ModelSpec(H=H, L=L, dim=psi0.size),
                          UnravelingParams(xi.real, xi.imag, LAM), DT)
    return _state_stack(kernel, psi0, dW)


@pytest.mark.parametrize("theta", THETAS)
@pytest.mark.parametrize("d, dense_l", MODELS, ids=["d2", "d4", "d3-dense-L"])
def test_conjugate_model_and_member_give_conjugate_states(d, dense_l, theta):
    H, L, psi0, dW, _ = _case(d, dense_l)
    xi = complex(np.cos(theta), np.sin(theta))
    states = _states(H, L, xi, psi0, dW)
    mirror = _states(-H.conj(), L.conj(), xi.conjugate(), psi0.conj(), dW)
    assert np.isfinite(states).all()
    assert np.array_equal(mirror, states.conj())


@pytest.mark.parametrize("theta", THETAS)
@pytest.mark.parametrize("d, dense_l", MODELS, ids=["d2", "d4", "d3-dense-L"])
def test_a_unitary_on_the_model_and_state_carries_the_states(d, dense_l, theta):
    H, L, psi0, dW, rng = _case(d, dense_l)
    U, _ = np.linalg.qr(rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d)))
    xi = complex(np.cos(theta), np.sin(theta))

    def rotated(op):
        r = U @ op @ U.conj().T
        return 0.5 * (r + r.conj().T)

    states = _states(H, L, xi, psi0, dW)
    moved = _states(rotated(H), rotated(L), xi, U @ psi0, dW)
    assert np.max(np.abs(moved - U @ states)) <= 1e-12
