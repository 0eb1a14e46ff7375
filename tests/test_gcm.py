import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from unravelings.engine import ModelSpec, UnravelingParams, _EulerKernel, lindblad_rhs
from unravelings.gcm import (POVM, RECORD_MEAN, channel_apply, kraus_apply,
                             kraus_matrix, norm_const_sq, outcome_grid,
                             povm_completeness, record_mean_check, solve_gcm_params)
from unravelings.linalg import identity, pauli, projector

SZ = pauli("z")
PSI0 = np.array([0.5, np.sqrt(3.0) / 2.0], dtype=complex)


def test_pure_measurement_member_gains():
    gp = solve_gcm_params(1.0 + 0.0j, 1.0)
    assert gp.operator_scale == 1.0 + 0.0j
    assert gp.record_scale == 1.0 + 0.0j
    assert gp.signal_gain == 1.0 and gp.noise_gain == 1.0
    assert max(gp.identity_defects().values()) == 0.0


def test_gain_identities_on_a_dense_xi_grid():
    for th in np.linspace(-np.pi / 2 + 1e-3, np.pi / 2 - 1e-3, 100):
        gp = solve_gcm_params(np.exp(1j * th), 0.7)
        assert max(gp.identity_defects().values()) <= 1e-10
        # record_scale * operator_scale = xi exactly by construction
        assert abs(gp.record_scale * gp.operator_scale - gp.xi) <= 1e-12


def test_solver_rejects_degenerate_members():
    with pytest.raises(ValueError):
        solve_gcm_params(1.0j, 1.0)          # xi_r = 0: no measurement reading
    with pytest.raises(ValueError):
        solve_gcm_params(0.5 + 0.5j, 1.0)    # |xi| != 1
    with pytest.raises(ValueError):
        solve_gcm_params(1.0 + 0j, -1.0)


def test_operator_preserves_coupling_eigenstates():
    gp = solve_gcm_params(np.exp(0.4j), 1.0)
    up = np.array([1.0, 0.0], dtype=complex)
    for dy in (-0.01, 0.0, 0.02):
        post, weight = kraus_apply(up, SZ, gp, dy, 1e-3)
        assert abs(post[1]) == 0.0
        assert weight > 0.0


def test_povm_completeness_and_outcome_mass():
    dt = 1e-3
    for th in (0.0, 0.5, 1.2, -0.9):
        gp = solve_gcm_params(np.exp(1j * th), 1.0)
        complete = povm_completeness(SZ, gp, dt, normalization=POVM)
        assert np.max(np.abs(complete - identity(2))) <= 1e-6
        # the record-mean convention integrates to 1/xi_r, not 1
        mass = povm_completeness(SZ, gp, dt, normalization=RECORD_MEAN)[0, 0].real
        assert mass == pytest.approx(1.0 / np.cos(th), rel=1e-10)


def test_record_first_moment_both_targets():
    dt = 1e-3
    gp = solve_gcm_params(1.0 + 0.0j, 1.0)
    up = np.array([1.0, 0.0], dtype=complex)
    stats = record_mean_check(up, SZ, gp, dt)
    assert stats.mean == pytest.approx(dt, rel=1e-10)          # <L> dt at xi = 1
    assert stats.mass == pytest.approx(1.0, rel=1e-10)

    plus_x = np.array([1.0, 1.0], dtype=complex) / np.sqrt(2.0)
    stats0 = record_mean_check(plus_x, SZ, gp, dt)
    assert abs(stats0.mean) <= 1e-18                            # <L> = 0 state

    gp2 = solve_gcm_params(np.exp(0.8j), 1.0)
    stats2 = record_mean_check(PSI0, SZ, gp2, dt)
    assert stats2.mean == pytest.approx(stats2.target_conditional, rel=1e-9)
    assert stats2.mean_normalized == pytest.approx(stats2.target_scaled, rel=1e-9)


def test_channel_reproduces_measurement_master_step_at_second_order():
    gp = solve_gcm_params(1.0 + 0.0j, 1.0)
    rho = projector(PSI0)
    h0 = ModelSpec(H=np.zeros((2, 2), dtype=complex), L=SZ, dim=2, hbar=1.0)
    defects = []
    for dt in (1e-3, 5e-4):
        out = channel_apply(rho, SZ, gp, dt)
        assert abs(np.trace(out).real - 1.0) <= 1e-10
        step = rho + lindblad_rhs(rho, h0, 1.0) * dt
        defects.append(np.max(np.abs(out - step)))
    assert 3.0 <= defects[0] / defects[1] <= 5.0


def test_kraus_update_equals_exponential_update_for_spin():
    # at xi = 1 with L = sigma_z the normalized operator update IS the
    # exponential map exp((2 lam dy) sigma_z) up to scalars: machine-level
    gp = solve_gcm_params(1.0 + 0.0j, 1.0)
    rng = np.random.default_rng(5)
    dt = 1e-3
    draws = rng.standard_normal((20, 5))      # per sample: Re v, Im v, dy
    v = (draws[:, 0:2] + 1j * draws[:, 2:4]).T
    v /= np.linalg.norm(v, axis=0)
    dy = np.sqrt(dt) * draws[:, 4]
    post, _ = kraus_apply(v, SZ, gp, dy, dt)
    post /= np.linalg.norm(post, axis=0)
    ref = np.exp(2.0 * 1.0 * np.outer([1.0, -1.0], dy)) * v
    ref /= np.linalg.norm(ref, axis=0)
    assert np.max(np.abs(post - ref)) <= 1e-12


def test_batched_kraus_apply_equals_per_column_operator():
    # dense 3x3 coupling: one eigendecomposition per call, N outcomes
    rng = np.random.default_rng(12)
    a = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    L = 0.5 * (a + a.conj().T)
    gp = solve_gcm_params(np.exp(-0.6j), 0.8)
    dt = 1e-3
    psis = rng.standard_normal((3, 7)) + 1j * rng.standard_normal((3, 7))
    psis /= np.linalg.norm(psis, axis=0)
    dys = rng.standard_normal(7) * np.sqrt(dt)
    post, weights = kraus_apply(psis, L, gp, dys, dt)
    assert post.shape == (3, 7) and weights.shape == (7,)
    for k in range(7):
        expect = kraus_matrix(L, gp, dys[k], dt) @ psis[:, k]
        assert np.max(np.abs(post[:, k] - expect)) <= 1e-13 * np.max(np.abs(expect))
        assert weights[k] == pytest.approx(np.vdot(expect, expect).real, rel=1e-13)


def test_one_step_agreement_with_the_state_equation():
    # same-dt single Euler step: the difference contracts at first order
    # (the Euler map lacks the second-order noise term); against a finely
    # substepped reference the operator update is accurate at order 3/2
    nu = 1.0
    model = ModelSpec(H=nu * SZ, L=SZ, dim=2, hbar=1.0)
    u = UnravelingParams.nonlinear(1.0)
    gp = solve_gcm_params(1.0 + 0.0j, 1.0)
    rng = np.random.default_rng(31)

    def rms_single(dt, n=1500):
        draws = rng.standard_normal((n, 5))   # per sample: Re v, Im v, dW
        v = (draws[:, 0:2] + 1j * draws[:, 2:4]).T
        v /= np.linalg.norm(v, axis=0)
        dW = draws[:, 4] * np.sqrt(dt)
        ell = np.sum(v.conj() * (SZ @ v), axis=0).real
        dy = ell * dt + dW / 2.0
        post, _ = kraus_apply(v, SZ, gp, dy, dt)
        post /= np.linalg.norm(post, axis=0)
        post = np.exp(-1j * nu * dt * np.array([1.0, -1.0]))[:, None] * post
        ref = _EulerKernel(model, u, dt).step(v, dW)
        ph = np.sum(ref.conj() * post, axis=0)
        ph /= np.abs(ph)
        return np.sqrt(np.mean(np.linalg.norm(post - ph * ref, axis=0) ** 2))

    r1, r2 = rms_single(2e-3), rms_single(1e-3)
    assert 1.7 <= r1 / r2 <= 2.3


def test_outcome_grid_covers_kernels():
    gp = solve_gcm_params(1.0 + 0.0j, 2.0)
    grid = outcome_grid(SZ, gp, 1e-3, n_points=101)
    sd = np.sqrt(1e-3) / (2.0 * np.sqrt(2.0))
    assert grid[0] <= -1e-3 - 7.9 * sd and grid[-1] >= 1e-3 + 7.9 * sd
    assert grid.size == 101


def test_norm_const_conventions_ratio():
    gp = solve_gcm_params(np.exp(0.6j), 1.3)
    dt = 2e-3
    ratio = norm_const_sq(gp, dt, POVM) / norm_const_sq(gp, dt, RECORD_MEAN)
    assert ratio == pytest.approx(np.cos(0.6), rel=1e-12)
    with pytest.raises(ValueError):
        norm_const_sq(gp, dt, "other")


@settings(max_examples=30, deadline=None)
@given(st.floats(-1.4, 1.4), st.floats(0.2, 3.0))
def test_kraus_matrix_is_normal_in_coupling_basis(theta, gamma):
    gp = solve_gcm_params(np.exp(1j * theta), gamma)
    m = kraus_matrix(SZ, gp, 0.01, 1e-3)
    assert np.max(np.abs(m @ m.conj().T - m.conj().T @ m)) <= 1e-10 * np.max(np.abs(m)) ** 2
