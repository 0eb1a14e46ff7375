import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from unravelings.engine import ModelSpec, UnravelingParams, _EulerKernel, lindblad_rhs
from unravelings.gcm import (_amplitudes, _eigs, channel_apply, kraus_apply, outcome_grid,
                             povm_completeness, solve_gcm_params)
from unravelings.linalg import pauli, projector

SZ = pauli("z")
PSI0 = np.array([0.5, np.sqrt(3.0) / 2.0], dtype=complex)


def kraus_matrix(L, gp, dy, dt):
    """The measurement operator A(dy) in the original basis: the reference for kraus_apply."""
    evals, V = _eigs(L)
    amp = _amplitudes(evals, gp, np.array([float(dy)]), dt)[0]
    return (V * amp) @ V.conj().T


def test_pure_measurement_member_gains():
    gp = solve_gcm_params(1.0 + 0.0j, 1.0)
    assert gp.operator_scale == 1.0 + 0.0j
    assert gp.record_scale == 1.0 + 0.0j
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


@pytest.mark.parametrize("xi, match", [(0.5 + 0.5j, "must equal 1"), (2.0, "must equal 1"),
                                       (complex(1.0, np.nan), "must equal 1"),
                                       (np.nan, "xi_r must be finite"),
                                       (-1.0, "xi_r must be finite and >= 0"),
                                       (1.0j, "strictly positive")],
                         ids=["off_circle", "real_2", "nan_imag", "nan", "negative_real",
                              "imaginary"])
def test_solver_rejects_a_member_outside_the_family_or_without_a_reading(xi, match):
    with pytest.raises(ValueError, match=match):
        solve_gcm_params(xi, 1.0)


@pytest.mark.parametrize("gamma", [np.nan, np.inf, -np.inf, 0.0, -1.0])
def test_solver_rejects_a_gamma_that_is_not_finite_and_positive(gamma):
    with pytest.raises(ValueError, match="gamma must be finite and positive"):
        solve_gcm_params(1.0, gamma)


@pytest.mark.parametrize("dt", [np.nan, np.inf, 0.0, -1e-3])
@pytest.mark.parametrize("apply", [
    lambda gp, dt: kraus_apply(PSI0[:, None], SZ, gp, [0.0], dt),
    lambda gp, dt: povm_completeness(SZ, gp, dt),
    lambda gp, dt: channel_apply(projector(PSI0), SZ, gp, dt),
], ids=["kraus_apply", "povm_completeness", "channel_apply"])
def test_measurement_maps_reject_a_dt_that_is_not_finite_and_positive(apply, dt):
    with pytest.raises(ValueError, match="dt must be finite and positive"):
        apply(solve_gcm_params(1.0, 1.0), dt)


def test_operator_preserves_coupling_eigenstates():
    gp = solve_gcm_params(np.exp(0.4j), 1.0)
    ups = np.array([[1.0, 1.0, 1.0], [0.0, 0.0, 0.0]], dtype=complex)
    post, weights = kraus_apply(ups, SZ, gp, np.array([-0.01, 0.0, 0.02]), 1e-3)
    assert np.all(post[1] == 0.0)
    assert np.all(weights > 0.0)
    with pytest.raises(ValueError, match="columns"):
        kraus_apply(ups[:, 0], SZ, gp, 0.0, 1e-3)


def test_povm_completeness_and_outcome_mass():
    dt = 1e-3
    for th in (0.0, 0.5, 1.2, -0.9):
        gp = solve_gcm_params(np.exp(1j * th), 1.0)
        complete = povm_completeness(SZ, gp, dt)
        assert np.max(np.abs(complete - np.eye(2))) <= 1e-6


def _outcome_moments(state, L, gp, dt):
    """(mean, mass, target): the outcome density's int y p dy and int p dy, and xi_r <L> dt."""
    evals, V = _eigs(L)
    w = np.abs(V.conj().T @ state) ** 2
    grid = outcome_grid(L, gp, dt)
    dy = grid[1] - grid[0]
    dens = (np.abs(_amplitudes(evals, gp, grid, dt)) ** 2) @ w
    return (float(np.sum(grid * dens) * dy), float(np.sum(dens) * dy),
            gp.xi.real * float(w @ evals) * dt)


def test_record_first_moment_both_targets():
    dt = 1e-3
    gp = solve_gcm_params(1.0 + 0.0j, 1.0)
    up = np.array([1.0, 0.0], dtype=complex)
    mean, mass, _ = _outcome_moments(up, SZ, gp, dt)
    assert mean == pytest.approx(dt, rel=1e-10)                # <L> dt at xi = 1
    assert mass == pytest.approx(1.0, rel=1e-10)

    plus_x = np.array([1.0, 1.0], dtype=complex) / np.sqrt(2.0)
    assert abs(_outcome_moments(plus_x, SZ, gp, dt)[0]) <= 1e-18     # <L> = 0 state

    # off the pure-measurement member the outcome density keeps mass 1 and its
    # first moment is the record equation's xi_r <L> dt
    gp2 = solve_gcm_params(np.exp(0.8j), 1.0)
    mean, mass, target = _outcome_moments(PSI0, SZ, gp2, dt)
    assert target == pytest.approx(np.cos(0.8) * -0.5 * dt, rel=1e-12)
    assert mean == pytest.approx(target, rel=1e-9)
    assert mass == pytest.approx(1.0, abs=1e-10)


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


def _one_step_rms_ratio(model, xi, rng, n=1500):
    """RMS gap between the normalized measurement-operator update and one Euler
    step, at dt = 2e-3 over dt = 1e-3, on the same random states and normal
    draws; H must be diagonal and commute with L (its phase is applied after
    the operator update)."""
    u = UnravelingParams(xi.real, xi.imag, 1.0)
    gp = solve_gcm_params(xi, 1.0)
    L, d = model.L, model.dim
    h = np.diag(model.H).real / model.hbar
    draws = rng.standard_normal((n, 2 * d + 1))   # per sample: Re v, Im v, dW / sqrt(dt)
    v = (draws[:, :d] + 1j * draws[:, d:2 * d]).T
    v /= np.linalg.norm(v, axis=0)
    ell = np.sum(v.conj() * (L @ v), axis=0).real

    def rms_single(dt):
        dW = draws[:, 2 * d] * np.sqrt(dt)
        dy = xi.real * ell * dt + dW / 2.0
        post, _ = kraus_apply(v, L, gp, dy, dt)
        post /= np.linalg.norm(post, axis=0)
        post = np.exp(-1j * dt * h)[:, None] * post
        kernel = _EulerKernel(model, u, dt)
        ref = kernel.out_of_basis(kernel.step(kernel.into_basis(v), dW))
        ph = np.sum(ref.conj() * post, axis=0)
        ph /= np.abs(ph)
        return np.sqrt(np.mean(np.linalg.norm(post - ph * ref, axis=0) ** 2))

    return rms_single(2e-3) / rms_single(1e-3)


def test_one_step_agreement_with_the_state_equation():
    # same-dt single Euler step: the difference contracts at first order
    # (the Euler map lacks the second-order noise term); against a finely
    # substepped reference the operator update is accurate at order 3/2.
    # Cases: xi = 1 on the spin model, then H = 0 with a seeded dense
    # Hermitian 4x4 L at two interior members (a wrong member gives ~1.41)
    ratio = _one_step_rms_ratio(ModelSpec(H=SZ, L=SZ, dim=2, hbar=1.0), 1.0 + 0.0j,
                                np.random.default_rng(31))
    assert 1.7 <= ratio <= 2.3
    rng = np.random.default_rng(44)
    a = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    dense = ModelSpec(H=np.zeros((4, 4), dtype=complex), L=0.5 * (a + a.conj().T), dim=4)
    for theta in (-np.pi / 4.0, np.pi / 3.0):
        ratio = _one_step_rms_ratio(dense, np.exp(1j * theta), rng)
        assert 1.7 <= ratio <= 2.3, theta


def test_outcome_grid_covers_kernels():
    gp = solve_gcm_params(1.0 + 0.0j, 2.0)
    grid = outcome_grid(SZ, gp, 1e-3)
    sd = np.sqrt(1e-3) / (2.0 * np.sqrt(2.0))
    assert grid[0] <= -1e-3 - 7.9 * sd and grid[-1] >= 1e-3 + 7.9 * sd
    assert grid.size == 10_001


@settings(max_examples=30, deadline=None)
@given(st.floats(-1.4, 1.4), st.floats(0.2, 3.0))
def test_kraus_matrix_is_normal_in_coupling_basis(theta, gamma):
    gp = solve_gcm_params(np.exp(1j * theta), gamma)
    m = kraus_matrix(SZ, gp, 0.01, 1e-3)
    assert np.max(np.abs(m @ m.conj().T - m.conj().T @ m)) <= 1e-10 * np.max(np.abs(m)) ** 2
