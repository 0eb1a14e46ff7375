import numpy as np
import pytest

from unravelings import engine
from unravelings.engine import (ModelSpec, UnravelingParams, _EulerKernel,
                                _ExponentialKernel, check_stability,
                                conditional_moment_flow_residual,
                                lindblad_evolve, lindblad_propagator,
                                lindblad_step, max_stable_dt, simulate_ensemble,
                                simulate_trajectory, sse_step)
from unravelings.linalg import identity, pauli, projector
from unravelings.noise import derive_seed

SZ = pauli("z")
PSI0 = np.array([0.5, np.sqrt(3.0) / 2.0], dtype=complex)
XI_INTERIOR = UnravelingParams(np.cos(np.pi / 4.0), -np.sin(np.pi / 4.0), 1.0)


def spin_model(nu=1.0):
    return ModelSpec(H=nu * SZ, L=SZ.copy(), dim=2, hbar=1.0)


def test_unraveling_params_validation():
    with pytest.raises(ValueError):
        UnravelingParams(0.6, 0.9, 1.0)
    with pytest.raises(ValueError):
        UnravelingParams(-1.0, 0.0, 1.0)
    with pytest.raises(ValueError):
        UnravelingParams(1.0, 0.0, -2.0)
    assert UnravelingParams.nonlinear(2.0).xi == 1.0 + 0.0j
    assert UnravelingParams.linear(2.0).xi == -1.0j


def test_model_spec_requires_hermitian():
    bad = np.array([[0, 1], [0, 0]], dtype=complex)
    with pytest.raises(ValueError):
        ModelSpec(H=bad, L=SZ, dim=2)


def test_stability_budget():
    model = spin_model()
    u = UnravelingParams.nonlinear(4.0)
    assert max_stable_dt(model, u) == pytest.approx(0.01 / 4.0)
    with pytest.raises(ValueError, match="stability budget"):
        check_stability(model, u, 0.01)
    check_stability(model, u, 1e-3)


def test_sse_step_unitary_limit():
    # lam = 0: a plain Euler step of the Schroedinger flow, O(dt^2) norm drift
    model = spin_model(nu=2.0)
    u = UnravelingParams.nonlinear(0.0)
    dt = 1e-4
    raw = PSI0 + (-1j * 2.0 * (SZ @ PSI0)) * dt
    assert abs(np.linalg.norm(raw) - 1.0) <= 10.0 * dt ** 2
    stepped = sse_step(PSI0, model, u, dW=0.37, dt=dt)
    exact = np.exp(-1j * 2.0 * dt * np.array([1.0, -1.0])) * PSI0
    assert np.linalg.norm(stepped - exact) <= 10.0 * dt ** 2


def test_sse_step_eigenstate_is_deterministic_fixed_point():
    model = spin_model()
    u = UnravelingParams.nonlinear(1.0)
    up = np.array([1.0, 0.0], dtype=complex)
    out1 = sse_step(up, model, u, dW=0.5, dt=1e-3)
    out2 = sse_step(up, model, u, dW=-1.7, dt=1e-3)
    assert np.array_equal(out1, out2)
    assert abs(abs(out1[0]) - 1.0) <= 1e-12


def test_sse_step_linear_member_matches_phase_solution_per_step():
    # one Euler step vs the exact phase update.  The O(dt) bound holds with
    # plenty of room: renormalization cancels the scalar second-order noise
    # term (L^2 = 1 here), so the residual actually contracts at order 3/2.
    model = spin_model()
    u = UnravelingParams.linear(1.0)
    rng = np.random.default_rng(10)

    def rms(dt, n=4000):
        acc = np.empty(n)
        for i in range(n):
            dW = rng.standard_normal() * np.sqrt(dt)
            stepped = sse_step(PSI0, model, u, dW, dt)
            phase = 1.0 * dt + dW
            exact = np.exp(-1j * phase * np.array([1.0, -1.0])) * PSI0
            acc[i] = np.linalg.norm(stepped - exact) ** 2
        return np.sqrt(acc.mean())

    r1, r2 = rms(2e-3), rms(1e-3)
    assert r1 <= 2.0 * 1.0 * 2e-3          # <= 2 lam dt
    assert 2.3 <= r1 / r2 <= 3.4


def test_sse_step_rejects_divergence():
    model = spin_model()
    u = UnravelingParams.nonlinear(1.0)
    with pytest.raises(FloatingPointError):
        sse_step(PSI0, model, u, dW=1e200, dt=1e300)


def _random_hermitian(rng, d):
    a = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    return 0.5 * (a + a.conj().T)


def _docstring_increment(psi, model, u, dW, dt):
    """d|psi> exactly as the engine module docstring writes it."""
    H, L, xi, xi_r, lam = model.H, model.L, u.xi, u.xi_r, u.lam
    ell = np.vdot(psi, L @ psi).real
    drift = ((-1j / model.hbar) * (H @ psi)
             - 0.5 * lam * (abs(xi) ** 2 * (L @ L @ psi) - 2.0 * xi * xi_r * ell * (L @ psi)
                            + xi_r ** 2 * ell ** 2 * psi))
    return drift * dt + np.sqrt(lam) * (xi * (L @ psi) - xi_r * ell * psi) * dW


@pytest.mark.parametrize("dim", [2, 4])
@pytest.mark.parametrize("xi", [1.0, -1.0j, np.exp(-0.25j * np.pi)])
def test_kernel_step_equals_docstring_increment(dim, xi):
    rng = np.random.default_rng(dim)
    model = ModelSpec(H=_random_hermitian(rng, dim), L=_random_hermitian(rng, dim),
                      dim=dim, hbar=0.7)
    u = UnravelingParams(xi.real, xi.imag, 0.8)
    dt, n = 1e-2, 6
    psis = rng.standard_normal((dim, n)) + 1j * rng.standard_normal((dim, n))
    psis /= np.sqrt(np.sum(np.abs(psis) ** 2, axis=0))
    dW = rng.standard_normal(n) * np.sqrt(dt)
    kernel = _EulerKernel(model, u, dt)
    assert not kernel.diagonal
    raw = kernel.update(psis, dW)
    stepped = kernel.step(psis, dW)
    for k in range(n):
        expect = psis[:, k] + _docstring_increment(psis[:, k], model, u, dW[k], dt)
        assert np.max(np.abs(raw[:, k] - expect)) <= 1e-14
        expect /= np.linalg.norm(expect)
        assert np.max(np.abs(stepped[:, k] - expect)) <= 1e-14


@pytest.mark.parametrize("dim", [2, 4])
@pytest.mark.parametrize("theta", [0.0, -np.pi / 4.0, -np.pi / 2.0, np.pi / 3.0])
def test_two_point_step_gives_both_claims_for_every_member(dim, theta):
    # one kernel step on the two columns dW = +-sqrt(dt) is the two-point weak
    # Euler scheme: its mean outer product is the master-equation step (claim 1),
    # and the variance of <O> is lam gain(xi)^2 dt (claim 2), both up to O(dt^2)
    rng = np.random.default_rng(100 * dim + int(round(12.0 * theta / np.pi)))
    H, L, O = (_random_hermitian(rng, dim) for _ in range(3))
    model = ModelSpec(H=H, L=L, dim=dim, hbar=0.9)
    u = UnravelingParams(np.cos(theta), np.sin(theta), 0.7)
    psi = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    psi /= np.linalg.norm(psi)
    rho = projector(psi)

    def mean(op):
        return np.vdot(psi, op @ psi)

    gain = (u.xi_r * (mean(O @ L + L @ O) - 2.0 * mean(O) * mean(L))
            + 1j * u.xi_i * mean(O @ L - L @ O)).real

    def residuals(dt):
        dW = np.array([1.0, -1.0]) * np.sqrt(dt)
        out = _EulerKernel(model, u, dt).step(np.repeat(psi[:, None], 2, axis=1), dW)
        mixed = 0.5 * (out @ out.conj().T)
        claim_1 = np.max(np.abs(mixed - rho - engine.lindblad_rhs(rho, model, u.lam) * dt))
        m = np.einsum("in,ij,jn->n", out.conj(), O, out).real
        claim_2 = abs(0.25 * (m[0] - m[1]) ** 2 - u.lam * gain ** 2 * dt)
        return np.array([claim_1, claim_2])

    ratios = residuals(1e-3) / residuals(5e-4)
    assert np.all((3.5 <= ratios) & (ratios <= 4.5)), ratios


@pytest.mark.parametrize("u", [UnravelingParams.nonlinear(1.3), UnravelingParams.linear(1.3),
                               XI_INTERIOR])
def test_kernel_diagonal_path_equals_general_path(u):
    # 100 steps of a diagonal 3-level model; each step rounds at ~1e-16
    rng = np.random.default_rng(4)
    model = ModelSpec(H=np.diag(rng.standard_normal(3)).astype(complex),
                      L=np.diag(rng.standard_normal(3)).astype(complex), dim=3)
    dt = 1e-3
    diagonal = _EulerKernel(model, u, dt)
    general = _EulerKernel(model, u, dt)
    general.diagonal = False
    assert diagonal.diagonal
    psis = rng.standard_normal((3, 8)) + 1j * rng.standard_normal((3, 8))
    psis /= np.sqrt(np.sum(np.abs(psis) ** 2, axis=0))
    dW = rng.standard_normal((8, 100)) * np.sqrt(dt)
    a, b = diagonal.run(psis, dW), general.run(psis, dW)
    assert np.max(np.abs(a - b)) <= 1e-13


def test_ensemble_raises_on_non_finite_state():
    model = ModelSpec(H=np.diag([1e308, -1e308]).astype(complex), L=SZ.copy(), dim=2)
    with pytest.raises(FloatingPointError, match="trajectory 0 .* at step 0"):
        simulate_ensemble(model, UnravelingParams.nonlinear(1.0), PSI0, 1e-3, 10, 4,
                          base_seed=1)


def _diagonal_three_level(rng):
    # L^2 = diag(1, 0.25, 4) is not a multiple of the identity
    return ModelSpec(H=np.diag(rng.standard_normal(3)).astype(complex),
                     L=np.diag([1.0, -0.5, 2.0]).astype(complex), dim=3, hbar=0.7)


def _random_columns(rng, dim, n):
    psis = rng.standard_normal((dim, n)) + 1j * rng.standard_normal((dim, n))
    return psis / np.linalg.norm(psis, axis=0)


def test_exponential_kernel_steps_compose_into_the_one_shot_map():
    # the exact step of the raw-noise linear equation: n steps equal one
    # exponential of the summed raw increments dxi = dW + 2 sqrt(lam) <L> dt
    rng = np.random.default_rng(8)
    model = _diagonal_three_level(rng)
    lam, dt, n = 0.8, 1e-3, 400
    psi0 = _random_columns(rng, 3, 1)
    dW = rng.standard_normal((1, n)) * np.sqrt(dt)
    states = np.empty((n, 3, 1), dtype=complex)
    final = _ExponentialKernel(model, UnravelingParams.nonlinear(lam), dt).run(
        psi0, dW, states=states)
    l, h = np.diag(model.L).real, np.diag(model.H).real
    pre = np.concatenate([psi0[None], states[:-1]])[:, :, 0]
    ell = (np.abs(pre) ** 2) @ l
    xi = np.sum(dW[0] + 2.0 * np.sqrt(lam) * ell * dt)
    t = n * dt
    expect = np.exp(np.sqrt(lam) * l * xi - lam * l ** 2 * t - 1j * h * t / model.hbar)
    expect *= psi0[:, 0]
    expect /= np.linalg.norm(expect)
    assert np.max(np.abs(final[:, 0] - expect)) <= 1e-12


def test_exponential_kernel_column_alone_equals_column_in_batch():
    rng = np.random.default_rng(9)
    model = _diagonal_three_level(rng)
    kernel = _ExponentialKernel(model, UnravelingParams.nonlinear(1.3), 1e-3)
    psis = _random_columns(rng, 3, 6)
    dW = rng.standard_normal((6, 50)) * np.sqrt(1e-3)
    batch = kernel.run(psis, dW)
    alone = kernel.run(psis[:, 2:3], dW[2:3])
    assert np.array_equal(alone[:, 0], batch[:, 2])


def test_exponential_kernel_raises_on_non_finite_state():
    kernel = _ExponentialKernel(spin_model(), UnravelingParams.nonlinear(1.0), 1e-3)
    psis = np.tile(PSI0[:, None], (1, 3))
    dW = np.zeros((3, 2))
    dW[1, 1] = 1e300
    with pytest.raises(FloatingPointError, match="trajectory 1 .* at step 1"):
        kernel.run(psis, dW)


def test_exponential_kernel_rejects_other_members_and_dense_models():
    dense = _random_hermitian(np.random.default_rng(2), 2)
    with pytest.raises(ValueError, match="xi = 1"):
        _ExponentialKernel(spin_model(), XI_INTERIOR, 1e-3)
    with pytest.raises(ValueError, match="xi = 1"):
        _ExponentialKernel(spin_model(), UnravelingParams.linear(1.0), 1e-3)
    with pytest.raises(ValueError, match="diagonal"):
        _ExponentialKernel(ModelSpec(H=dense, L=SZ.copy(), dim=2),
                           UnravelingParams.nonlinear(1.0), 1e-3)
    with pytest.raises(ValueError, match="diagonal"):
        _ExponentialKernel(ModelSpec(H=SZ.copy(), L=dense, dim=2),
                           UnravelingParams.nonlinear(1.0), 1e-3)


def test_simulate_trajectory_shapes_and_record():
    model = spin_model()
    u = UnravelingParams.nonlinear(1.0)
    tr = simulate_trajectory(model, u, PSI0, 1e-3, 50, seed=3,
                             tracked_observables={"sz": SZ})
    assert tr.states.shape == (51, 2)
    assert tr.means["sz"].shape == (51,)
    assert tr.record is not None and tr.record.values.shape == (50,)
    norms = np.linalg.norm(tr.states, axis=1)
    assert np.max(np.abs(norms - 1.0)) <= 1e-10
    # record follows dy = <sz> dt + dW / (2 sqrt(lam)) with pre-step means
    expect = tr.means["sz"][:-1] * 1e-3 + tr.noise.increments / 2.0
    assert np.array_equal(tr.record.values, expect)


def test_simulate_trajectory_zero_steps_and_linear_member_has_no_record():
    model = spin_model()
    tr = simulate_trajectory(model, UnravelingParams.nonlinear(1.0), PSI0, 1e-3, 0, 1)
    assert tr.states.shape == (1, 2) and tr.record is None
    tr2 = simulate_trajectory(model, UnravelingParams.linear(1.0), PSI0, 1e-3, 5, 1)
    assert tr2.record is None


def test_lindblad_step_stationary_cases():
    model = spin_model()
    rho = projector(np.array([1.0, 0.0], dtype=complex))
    out = lindblad_step(rho, model, 0.0, 1e-2)          # [H, rho] = 0, lam = 0
    assert np.allclose(out, rho, atol=1e-15)
    mixed = identity(2) / 2.0
    out2 = lindblad_step(mixed, model, 1.0, 1e-2)
    assert np.allclose(out2, mixed, atol=1e-15)


def test_lindblad_dephasing_oracle():
    # d rho_01/dt = (-2 i nu - 2 lam) rho_01 solved analytically
    nu, lam, dt, n = 1.3, 0.8, 1e-3, 1000
    model = spin_model(nu=nu)
    plus_x = np.array([1.0, 1.0], dtype=complex) / np.sqrt(2.0)
    rho = projector(plus_x)
    for _ in range(n):
        rho = lindblad_step(rho, model, lam, dt)
        assert abs(np.trace(rho).real - 1.0) <= 1e-12
    t = n * dt
    expected = 0.5 * np.exp((-2j * nu - 2.0 * lam) * t)
    assert abs(rho[0, 1] - expected) <= 1e-10
    assert abs(rho[0, 0] - 0.5) <= 1e-12


def test_lindblad_evolve_equals_repeated_rk4_steps():
    model = spin_model(nu=0.7)
    rho = projector(PSI0)
    dt, n = 2e-3, 40
    stepped = rho.copy()
    for _ in range(n):
        stepped = lindblad_step(stepped, model, 1.0, dt)
    evolved = lindblad_evolve(rho, model, 1.0, dt, n)[-1][1]
    assert np.max(np.abs(stepped - evolved)) <= 1e-13
    P = lindblad_propagator(model, 1.0, dt)
    one = (P @ rho.reshape(-1)).reshape(2, 2)
    assert np.max(np.abs(one - lindblad_step(rho, model, 1.0, dt))) <= 1e-15


def test_lindblad_evolve_jumps_equal_single_steps():
    # unequal gaps, a repeated gap, and snapshots at 0 and n_steps
    rng = np.random.default_rng(4)
    A, B = (rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3)) for _ in range(2))
    model = ModelSpec(H=(A + A.conj().T) / 2.0, L=(B + B.conj().T) / 4.0, dim=3)
    dt, n = 1e-2, 137
    snaps = [0, 1, 5, 37, 69, 100, 137]
    psi = rng.standard_normal(3) + 1j * rng.standard_normal(3)
    rho = projector(psi / np.linalg.norm(psi))
    P = lindblad_propagator(model, 0.9, dt)
    v, expected = rho.reshape(-1), []
    for step in range(n + 1):
        if step in snaps:
            expected.append(v.reshape(3, 3))
        v = P @ v
    got = lindblad_evolve(rho, model, 0.9, dt, n, snapshot_steps=snaps)
    assert [s for s, _ in got] == snaps
    for (_, a), b in zip(got, expected):
        assert np.max(np.abs(a - b)) <= 1e-13


@pytest.mark.parametrize("snaps", [[-1, 5, 10], [5, 11]])
def test_lindblad_evolve_rejects_out_of_range_snapshots(snaps):
    with pytest.raises(ValueError, match=r"snapshot steps must lie in \[0, n_steps\]"):
        lindblad_evolve(projector(PSI0), spin_model(), 1.0, 1e-3, 10, snapshot_steps=snaps)


@pytest.mark.parametrize("u", [UnravelingParams.nonlinear(1.0),
                               UnravelingParams.linear(1.0), XI_INTERIOR])
def test_ensemble_density_matrix_tracks_master_equation(u):
    model = spin_model()
    n_traj, n_steps, dt = 800, 1000, 1e-3
    res = simulate_ensemble(model, u, PSI0, dt, n_steps, n_traj, base_seed=21,
                            snapshot_steps=[500, 1000])
    oracle = lindblad_evolve(projector(PSI0), model, 1.0, dt / 10.0, n_steps * 10,
                             snapshot_steps=[5000, 10000])
    assert np.array_equal(engine.master_equation_oracle(res, model, 1.0),
                          [rho for _, rho in oracle])
    tol = 5.0 / np.sqrt(n_traj)
    for i in range(2):
        assert np.max(np.abs(res.rhos[i] - oracle[i][1])) <= tol


def test_ensemble_average_matches_lockstep_result():
    model = spin_model()
    u = UnravelingParams.nonlinear(1.0)
    n_traj, n_steps, dt = 6, 40, 1e-3
    trajs = [simulate_trajectory(model, u, PSI0, dt, n_steps, derive_seed(33, k))
             for k in range(n_traj)]
    rhos = [sum(np.outer(tr.states[i], tr.states[i].conj()) for tr in trajs) / n_traj
            for i in (0, 20, 40)]
    res = simulate_ensemble(model, u, PSI0, dt, n_steps, n_traj, base_seed=33,
                            snapshot_steps=[0, 20, 40])
    for a, b in zip(rhos, res.rhos):
        assert np.max(np.abs(a - b)) <= 1e-12
    single = np.outer(trajs[0].states[40], trajs[0].states[40].conj())
    evals = np.linalg.eigvalsh(single)
    assert evals.max() == pytest.approx(1.0, abs=1e-10)  # pure projector


def test_vectorized_members_equal_serial_trajectories():
    # the spin model takes the elementwise path, so a column gives the same
    # bits alone as inside the batch
    model = spin_model()
    u = UnravelingParams.nonlinear(1.0)
    assert _EulerKernel(model, u, 1e-3).diagonal
    res = simulate_ensemble(model, u, PSI0, 1e-3, 300, 5, base_seed=42,
                            snapshot_steps=[300], tracked_observables={"sz": SZ})
    for k in range(5):
        tr = simulate_trajectory(model, u, PSI0, 1e-3, 300, derive_seed(42, k),
                                 tracked_observables={"sz": SZ})
        assert np.array_equal(res.final_states[k], tr.states[-1])
        assert np.array_equal(res.means["sz"][0, k], tr.means["sz"][300])


def test_chunk_count_does_not_change_trajectories():
    # 5100 trajectories run in three reduction chunks; the first chunk's
    # trajectories are those of a 2500-trajectory run with the same seed
    model = spin_model()
    u = UnravelingParams.linear(1.0)
    kw = dict(dt=1e-3, n_steps=60, base_seed=9, snapshot_steps=[0, 30, 60],
              tracked_observables={"sz": SZ})
    a = simulate_ensemble(model, u, PSI0, n_traj=5100, **kw)
    b = simulate_ensemble(model, u, PSI0, n_traj=2500, **kw)
    assert np.array_equal(a.final_states[:2500], b.final_states)
    assert np.array_equal(a.means["sz"][:, :2500], b.means["sz"])


@pytest.mark.parametrize("budget", [None, 35])
def test_snapshots_do_not_change_trajectories(monkeypatch, budget):
    # budget 35 with 5 trajectories gives 7-step noise blocks, whose
    # boundaries fall strictly between the 10-step snapshot grid
    if budget is not None:
        monkeypatch.setattr(engine, "_NOISE_BUDGET", budget)
    model = spin_model()
    n = 400
    grid = np.linspace(0, n, 41).astype(int)
    runs = [simulate_ensemble(model, XI_INTERIOR, PSI0, 1e-3, n, 5, base_seed=12,
                              snapshot_steps=snaps, tracked_observables={"sz": SZ})
            for snaps in ([n], grid, np.arange(n + 1))]
    final, on_grid, every = runs
    for r in (on_grid, every):
        assert np.array_equal(r.final_states, final.final_states)
        assert np.array_equal(r.means["sz"][-1], final.means["sz"][0])
        assert np.array_equal(r.rhos[-1], final.rhos[0])
    shared = every.at_steps(grid)
    assert np.array_equal(shared.means["sz"], on_grid.means["sz"])
    assert np.array_equal(shared.rhos, on_grid.rhos)
    assert np.array_equal(shared.times, on_grid.times)


def test_at_steps_rejects_a_step_that_is_not_a_snapshot():
    res = simulate_ensemble(spin_model(), UnravelingParams.linear(1.0), PSI0, 1e-3, 10, 2,
                            base_seed=3, snapshot_steps=[0, 10])
    with pytest.raises(ValueError, match="step 5"):
        res.at_steps([0, 5])


def test_moment_flow_residual_matches_inline_formula():
    # the engine residual must equal the hand-built Ito right-hand side for
    # the collapse member: gain = 2(1 - z^2), drift-free (H commutes with L)
    model = spin_model()
    u = UnravelingParams.nonlinear(1.0)
    tr = simulate_trajectory(model, u, PSI0, 1e-3, 300, 17,
                             tracked_observables={"sz": SZ})
    z = tr.means["sz"]
    gain = 2.0 * (1.0 - z[:-1] ** 2)
    r1 = conditional_moment_flow_residual(tr, SZ, model, u, 1)
    assert np.max(np.abs(r1 - (np.diff(z) - gain * tr.noise.increments))) <= 1e-14
    r2 = conditional_moment_flow_residual(tr, SZ, model, u, 2)
    rhs2 = gain ** 2 * 1e-3 + 2.0 * z[:-1] * gain * tr.noise.increments
    assert np.max(np.abs(r2 - (np.diff(z ** 2) - rhs2))) <= 1e-14


def _batched_residual_rms(power, dt, n_traj=3000, T=1.0, seed=5):
    """RMS of the engine's residual formula over a large lock-step batch."""
    kernel = _EulerKernel(spin_model(), UnravelingParams.nonlinear(1.0), dt)
    n = int(round(T / dt))
    rng = np.random.default_rng(seed)
    psi = np.tile(PSI0[:, None], (1, n_traj))
    acc, cnt = 0.0, 0
    for _ in range(n):
        z = np.abs(psi[0]) ** 2 - np.abs(psi[1]) ** 2
        dW = rng.standard_normal(n_traj) * np.sqrt(dt)
        nxt = kernel.step(psi, dW)
        z2 = np.abs(nxt[0]) ** 2 - np.abs(nxt[1]) ** 2
        gain = 2.0 * (1.0 - z ** 2)
        if power == 1:
            res = (z2 - z) - gain * dW
        else:
            res = (z2 ** 2 - z ** 2) - (gain ** 2 * dt + 2.0 * z * gain * dW)
        acc += float(np.sum(res ** 2))
        cnt += n_traj
        psi = nxt
    return np.sqrt(acc / cnt)


@pytest.mark.parametrize("power", [1, 2])
def test_moment_flow_residual_shrinks_linearly(power):
    coarse = _batched_residual_rms(power, 2e-3)
    fine = _batched_residual_rms(power, 1e-3)
    assert 1.7 <= coarse / fine <= 2.3


def test_moment_flow_residual_commuting_case_is_exact():
    # nu = 0 phase-noise member: <sz> is exactly conserved by the update,
    # and [L, O] = 0 kills every term of the <O>^2 flow
    model = spin_model(nu=0.0)
    u = UnravelingParams.linear(1.0)
    tr = simulate_trajectory(model, u, PSI0, 1e-3, 500, 5,
                             tracked_observables={"sz": SZ})
    r = conditional_moment_flow_residual(tr, SZ, model, u, 2)
    assert np.max(np.abs(r)) <= 1e-13


def test_variance_flow_against_third_moment_form():
    # for the collapse member the spread s = 1 - <sz>^2 obeys
    # ds = -4 lam s^2 dt + 2 sqrt(lam) m3 dW with m3 = -2 <sz> s; its
    # residual is minus the <sz>^2 flow residual (since <sz^2> = 1), so the
    # same linear contraction applies
    model = spin_model()
    u = UnravelingParams.nonlinear(1.0)
    tr = simulate_trajectory(model, u, PSI0, 1e-3, 400, 23,
                             tracked_observables={"sz": SZ})
    z = tr.means["sz"]
    s = 1.0 - z ** 2
    m3 = -2.0 * z * s
    rhs = -4.0 * s[:-1] ** 2 * 1e-3 + 2.0 * m3[:-1] * tr.noise.increments
    res_spread = np.diff(s) - rhs
    res_engine = conditional_moment_flow_residual(tr, SZ, model, u, 2)
    assert np.max(np.abs(res_spread + res_engine)) <= 1e-14


def test_weak_convergence_is_first_order():
    # Richardson on common refined noise: (A_h - A_{h/2}) / (A_{h/2} - A_{h/4}) ~ 2
    model = spin_model()
    u = UnravelingParams.nonlinear(1.0)
    n_traj, T, h = 50_000, 0.96, 0.04
    n4 = int(round(T / (h / 4.0)))
    rng = np.random.default_rng(77)
    dW4 = rng.standard_normal((n4, n_traj)) * np.sqrt(h / 4.0)

    def final_mean_z2(dWs, dt):
        psi = _EulerKernel(model, u, dt).run(np.tile(PSI0[:, None], (1, n_traj)), dWs.T)
        z = np.abs(psi[0]) ** 2 - np.abs(psi[1]) ** 2
        return np.mean(z ** 2)

    a4 = final_mean_z2(dW4, h / 4.0)
    dW2 = dW4.reshape(-1, 2, n_traj).sum(axis=1)
    a2 = final_mean_z2(dW2, h / 2.0)
    dW1 = dW2.reshape(-1, 2, n_traj).sum(axis=1)
    a1 = final_mean_z2(dW1, h)
    ratio = (a1 - a2) / (a2 - a4)
    assert 1.5 <= ratio <= 2.8


def test_norm_drift_scalings():
    # pre-renormalization norm defect: RMS is O(dt) (fluctuating, zero mean),
    # the signed mean is O(dt^2); both scalings verified by halving
    model = spin_model()
    u = UnravelingParams.nonlinear(1.0)
    n = 400_000

    def defects(dt, seed):
        rng = np.random.default_rng(seed)
        psi = np.tile(PSI0[:, None], (1, n))
        dW = rng.standard_normal(n) * np.sqrt(dt)
        raw = _EulerKernel(model, u, dt).update(psi, dW)
        d = np.sum(raw.real ** 2 + raw.imag ** 2, axis=0) - 1.0
        return np.sqrt(np.mean(d ** 2)), np.mean(d)

    rms1, mean1 = defects(1e-2, 1)
    rms2, mean2 = defects(5e-3, 1)
    assert 1.7 <= rms1 / rms2 <= 2.4
    assert 2.8 <= mean1 / mean2 <= 5.5
