"""Exact relations of the state equation, for general H and L at every member.

Both sides of each relation are driven by one set of increments through the
lock-step Euler kernel (``_state_stack`` of ``_EulerKernel``), or by one base
seed through ``simulate_ensemble``, so no relation is sampled and no tolerance
is fitted to a seed.

* Conjugation: (H, L, xi, psi0) and (-conj H, conj L, conj xi, conj psi0)
  give conjugate states.  Both members keep xi_r, so both are admissible.
* Unitary covariance: (U H U^dag, U L U^dag, U psi0) gives U psi_t.

At ensemble level the relations carry over to the averaged rho, the final
states and the tracked means (of conj O, or of U O U^dag), across the chunks
whose rho sums are combined.
"""

import numpy as np
import pytest

from unravelings import procs
from unravelings.engine import (ModelSpec, UnravelingParams, _EulerKernel, _state_stack,
                                simulate_ensemble)
from unravelings.spin import SpinParams, spin_model

DT, N_STEPS, N_PATHS, LAM = 1e-3, 200, 50, 1.0
# members xi = e^{i theta}; 0.4 is no rational multiple of pi
THETAS = [0.0, -np.pi / 4, -np.pi / 2, np.pi / 3, 0.4]
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


def _rotated(U, op):
    """U op U^dag, made Hermitian again against rounding."""
    r = U @ op @ U.conj().T
    return 0.5 * (r + r.conj().T)


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

    states = _states(H, L, xi, psi0, dW)
    moved = _states(_rotated(U, H), _rotated(U, L), xi, U @ psi0, dW)
    assert np.max(np.abs(moved - U @ states)) <= 1e-12


# the spin model, then dense H with a diagonal and with a dense complex L
ENSEMBLE_MODELS = ["spin", (4, False), (3, True)]
ENSEMBLE_STEPS, ENSEMBLE_TRAJ = 60, 20


@pytest.fixture
def small_chunks(monkeypatch):
    """Chunks of 8, 8 and 4 trajectories, whose rho sums are combined, all run in
    this process: a fork changes no bit (tests/test_procs.py) and costs ~10 ms."""
    monkeypatch.setattr(procs, "_ENSEMBLE_CHUNK", 8)
    monkeypatch.setattr(procs, "usable_cores", lambda: 1)


def _ensemble_case(which):
    """(H, L, psi0, O, rng) of one ensemble model; O is a random Hermitian observable."""
    if which == "spin":
        model = spin_model(SpinParams(nu=1.3, lam=LAM))
        H, L = model.H, model.L
        rng = np.random.default_rng(7)
        psi0 = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        psi0 = psi0 / np.linalg.norm(psi0)
    else:
        H, L, psi0, _, rng = _case(*which)
    return H, L, psi0, _hermitian(rng, psi0.size), rng


def _ensemble(H, L, xi, psi0, O):
    return simulate_ensemble(ModelSpec(H=H, L=L, dim=psi0.size),
                             UnravelingParams(xi.real, xi.imag, LAM), psi0, DT,
                             ENSEMBLE_STEPS, ENSEMBLE_TRAJ, base_seed=11,
                             snapshot_steps=[0, 1, 37, ENSEMBLE_STEPS],
                             tracked_observables={"O": O})


@pytest.mark.parametrize("theta", THETAS)
@pytest.mark.parametrize("which", ENSEMBLE_MODELS, ids=["spin", "d4", "d3-dense-L"])
def test_conjugate_model_and_member_give_conjugate_ensembles(small_chunks, which, theta):
    H, L, psi0, O, _ = _ensemble_case(which)
    xi = complex(np.cos(theta), np.sin(theta))
    res = _ensemble(H, L, xi, psi0, O)
    mirror = _ensemble(-H.conj(), L.conj(), xi.conjugate(), psi0.conj(), O.conj())
    assert np.isfinite(res.rhos).all()
    assert np.array_equal(mirror.rhos, res.rhos.conj())
    assert np.array_equal(mirror.final_states, res.final_states.conj())
    assert np.array_equal(mirror.means["O"], res.means["O"])


@pytest.mark.parametrize("theta", THETAS)
@pytest.mark.parametrize("which", ENSEMBLE_MODELS, ids=["spin", "d4", "d3-dense-L"])
def test_a_unitary_on_the_model_and_state_carries_the_ensemble(small_chunks, which, theta):
    H, L, psi0, O, rng = _ensemble_case(which)
    d = psi0.size
    U, _ = np.linalg.qr(rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d)))
    xi = complex(np.cos(theta), np.sin(theta))

    res = _ensemble(H, L, xi, psi0, O)
    moved = _ensemble(_rotated(U, H), _rotated(U, L), xi, U @ psi0, _rotated(U, O))
    assert np.max(np.abs(moved.rhos - U @ res.rhos @ U.conj().T)) <= 1e-12
    assert np.max(np.abs(moved.final_states - res.final_states @ U.T)) <= 1e-12
    assert np.max(np.abs(moved.means["O"] - res.means["O"])) <= 1e-12
