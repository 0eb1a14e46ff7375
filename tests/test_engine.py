import contextlib
import itertools
import math
import os
import signal
import tracemalloc
import types

import numpy as np
import pytest

from unravelings import config, engine, gaussian, noise, procs
from unravelings.engine import (ModelSpec, UnravelingParams, _EulerKernel,
                                _ExponentialKernel, _sum_rows, check_stability,
                                lindblad_evolve, lindblad_propagator,
                                lindblad_step, max_stable_dt, simulate_ensemble,
                                simulate_trajectory, sse_step)
from unravelings.gaussian import MechanicalParams, centroid_ensemble
from unravelings.linalg import pauli, projector
from unravelings.noise import derive_seed, wiener_path
from unravelings.spin import SpinParams

from moment_flow import conditional_moment_flow_residual

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
        UnravelingParams(float("nan"), 0.0, 1.0)
    with pytest.raises(ValueError):
        UnravelingParams(1.0, 0.0, -2.0)
    assert UnravelingParams.nonlinear(2.0).xi == 1.0 + 0.0j
    assert UnravelingParams.linear(2.0).xi == -1.0j


def test_model_spec_requires_hermitian():
    bad = np.array([[0, 1], [0, 0]], dtype=complex)
    with pytest.raises(ValueError):
        ModelSpec(H=bad, L=SZ, dim=2)


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("make", [
    lambda v: SpinParams(lam=v),
    lambda v: SpinParams(nu=v),
    lambda v: SpinParams(hbar=v),
    lambda v: MechanicalParams(mass=v, omega=0.0, lam=1.0),
    lambda v: MechanicalParams(mass=1.0, omega=v, lam=1.0),
    lambda v: MechanicalParams(mass=1.0, omega=0.0, lam=v),
    lambda v: MechanicalParams(mass=1.0, omega=0.0, lam=1.0, hbar=v),
    lambda v: UnravelingParams(1.0, 0.0, v),
    lambda v: ModelSpec(H=SZ, L=SZ, dim=2, hbar=v),
], ids=["spin.lam", "spin.nu", "spin.hbar", "mass", "omega", "mech.lam", "mech.hbar",
        "unraveling.lam", "model.hbar"])
def test_parameter_guards_reject_non_finite_values(make, value):
    # a nan passes "x < 0" and "x <= 0" and would flow on as a nan result
    with pytest.raises(ValueError, match="must be finite"):
        make(value)


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


def _increment_model(case):
    """A random dense model of dimension ``case``, dense H on sigma_z, or a degenerate dense L."""
    if case == "diagonal L":
        return np.random.default_rng(5), ModelSpec(H=pauli("x"), L=SZ.copy(), dim=2, hbar=0.7)
    if case == "degenerate L":
        rng = np.random.default_rng(6)
        U, _ = np.linalg.qr(rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3)))
        L = U @ np.diag([1.0, 1.0, -1.0]) @ U.conj().T
        return rng, ModelSpec(H=_random_hermitian(rng, 3), L=0.5 * (L + L.conj().T), dim=3,
                              hbar=0.7)
    rng = np.random.default_rng(case)
    return rng, ModelSpec(H=_random_hermitian(rng, case), L=_random_hermitian(rng, case),
                          dim=case, hbar=0.7)


@pytest.mark.parametrize("case", [2, 4, "diagonal L", "degenerate L"])
@pytest.mark.parametrize("xi", [1.0, -1.0j, np.exp(-0.25j * np.pi)])
def test_kernel_step_equals_docstring_increment(case, xi):
    # the kernel steps in the eigenbasis of L; rotated back, its update and
    # step are the docstring's increment in the standard basis
    rng, model = _increment_model(case)
    dim = model.dim
    u = UnravelingParams(xi.real, xi.imag, 0.8)
    dt, n = 1e-2, 6
    psis = rng.standard_normal((dim, n)) + 1j * rng.standard_normal((dim, n))
    psis /= np.sqrt(np.sum(np.abs(psis) ** 2, axis=0))
    dW = rng.standard_normal(n) * np.sqrt(dt)
    kernel = _EulerKernel(model, u, dt)
    assert kernel.A is not None and (kernel.V is None) == (case == "diagonal L")
    phis = kernel.into_basis(psis)
    raw = kernel.out_of_basis(kernel.update(phis, dW, kernel.norms_and_mean(phis)[2]))
    stepped = kernel.out_of_basis(engine._normalised(*kernel.run(phis, dW[:, None])))
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
        kernel = _EulerKernel(model, u, dt)
        phis = np.repeat(kernel.into_basis(psi)[:, None], 2, axis=1)
        out = kernel.out_of_basis(engine._normalised(*kernel.run(phis, dW[:, None])))
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
    general.A = np.diag(general.row[:, 0])        # the product path, with A diagonal
    assert diagonal.A is None and diagonal.V is None
    psis = rng.standard_normal((3, 8)) + 1j * rng.standard_normal((3, 8))
    psis /= np.sqrt(np.sum(np.abs(psis) ** 2, axis=0))
    dW = rng.standard_normal((8, 100)) * np.sqrt(dt)
    (a, _), (b, _) = diagonal.run(psis, dW), general.run(psis, dW)
    assert np.max(np.abs(a - b)) <= 1e-13


def test_ensemble_raises_on_non_finite_state():
    model = ModelSpec(H=np.diag([1e308, -1e308]).astype(complex), L=SZ.copy(), dim=2)
    with pytest.raises(FloatingPointError, match="trajectory 0 .* at step 0"):
        simulate_ensemble(model, UnravelingParams.nonlinear(1.0), PSI0, 1e-3, 10, 4,
                          base_seed=1)


@pytest.mark.parametrize("n_steps", [0, 10])
def test_ensemble_rejects_a_nan_initial_state(n_steps):
    # abs(nan - 1) > tol is False: the norm test must read not (... <= tol), or a nan
    # state comes back as nan rhos (no steps) or as a step failure that blames dt
    psi0 = np.array([np.nan, 0.0], dtype=complex)
    with pytest.raises(ValueError, match="not normalized"):
        simulate_ensemble(spin_model(), UnravelingParams.nonlinear(1.0), psi0, 1e-3, n_steps, 4,
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

    def keep(step, psis, n2):             # the state after every step
        states[step - 1] = engine._normalised(psis, n2)

    final = engine._normalised(*_ExponentialKernel(model, UnravelingParams.nonlinear(lam), dt).run(
        psi0, dW, after_step=keep))
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
    batch, _ = kernel.run(psis, dW)
    alone, _ = kernel.run(psis[:, 2:3], dW[2:3])
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


def test_exponential_kernel_update_matches_the_complex_exponent():
    # the real exponent times the fixed phase is the complex exponential of
    # the whole map, up to the rounding of one product
    rng = np.random.default_rng(10)
    model = _diagonal_three_level(rng)
    lam, dt = 0.8, 5e-2
    kernel = _ExponentialKernel(model, UnravelingParams.nonlinear(lam), dt)
    psis = _random_columns(rng, 3, 2000)
    dW = rng.standard_normal(2000) * np.sqrt(dt)
    l, h = np.diag(model.L).real[:, None], np.diag(model.H).real[:, None]
    ell = np.sum(l * np.abs(psis) ** 2, axis=0)
    drift = -lam * l ** 2 * dt - (1j * dt / model.hbar) * h
    ref = np.exp(np.sqrt(lam) * l * (dW + 2.0 * np.sqrt(lam) * dt * ell) + drift) * psis
    new = kernel.update(psis, dW, kernel.norms_and_mean(psis)[2])
    assert np.all(np.abs(new - ref) <= 4.0 * np.finfo(float).eps * np.abs(ref))


def _reference_update(kernel, psis, dW, ell):
    """One unnormalised step of each kernel's update, written as plain expressions."""
    if isinstance(kernel, _ExponentialKernel):
        return (np.exp(kernel.sqrt_lam_l * (dW + kernel.shift * ell) + kernel.decay)
                * kernel.row) * psis
    g = kernel.xi_l - kernel.xi_r * ell
    if kernel.A is None:
        coef = (kernel.row + (kernel.c_ell * ell + kernel.sqrt_lam * dW) * g
                + kernel.c_ell2 * ell ** 2)
        return coef * psis
    coef = (kernel.c_ell * ell + kernel.sqrt_lam * dW) * g + kernel.c_ell2 * ell ** 2
    return coef * psis + kernel.A @ psis


def _reference_run(kernel, psis, dW):
    """The normalised end state of unnormalised steps, each reading <L> = sum(l p) * (1 / n2)."""
    for j in range(dW.shape[1] + 1):
        p = psis.real ** 2 + psis.imag ** 2
        n2 = _sum_rows(p)
        if j == dW.shape[1]:
            return psis * (1.0 / np.sqrt(n2)).astype(complex)
        ell = _sum_rows(kernel.l * p) * (1.0 / n2)
        psis = _reference_update(kernel, psis, dW[:, j], ell)


def _dense_four_level():
    rng = np.random.default_rng(14)
    H, L = _random_hermitian(rng, 4), _random_hermitian(rng, 4)
    return ModelSpec(H=H, L=L / np.max(np.abs(np.linalg.eigvalsh(L))), dim=4, hbar=0.9)


_DENSE_PSI0 = _random_columns(np.random.default_rng(3), 4, 1)[:, 0]


# xi = 1, -i and e^{-i pi/4} on the diagonal spin model and a dense 4 x 4 model
_KERNEL_CASES = ([(_EulerKernel, model, u) for model in ("spin", "dense")
                  for u in (UnravelingParams.nonlinear(0.8), UnravelingParams.linear(0.8),
                            XI_INTERIOR)]
                 + [(_ExponentialKernel, "spin", UnravelingParams.nonlinear(0.8))])


def _kernel_case(kind, model, u, dt=1e-3):
    """The kernel and its dimension."""
    model = spin_model(nu=1.3) if model == "spin" else _dense_four_level()
    return kind(model, u, dt), model.dim


def _same_bits(a, b):
    """Equal float for float, and in the sign of every zero, which ``np.array_equal`` ignores."""
    a, b = a.view(float), b.view(float)
    return np.array_equal(a, b) and np.array_equal(np.signbit(a), np.signbit(b))


@pytest.mark.parametrize("kind, model, u", _KERNEL_CASES)
@pytest.mark.parametrize("width", [1, 7, 2501])
def test_kernel_run_has_the_bits_of_the_reference_expressions(kind, model, u, width):
    # same-dtype, full-width operands and in-place steps leave every bit as it
    # was, and the phase-noise step (xi_r = 0) without its 0 <L> and +0j terms
    # too.  The last column is an eigenstate of L (in the kernel's basis), whose
    # zero entries keep the sign the reference gives them
    kernel, dim = _kernel_case(kind, model, u)
    rng = np.random.default_rng(width)
    psis = _random_columns(rng, dim, width)
    psis[:, -1] = -1j * np.eye(dim)[width % dim]        # zero entries of both signs
    dW = rng.standard_normal((width, 25)) * np.sqrt(1e-3)
    ref = _reference_run(kernel, psis, dW)
    assert _same_bits(engine._normalised(*kernel.run(psis, dW)), ref)
    # a (dim, N) view of (N, dim) rows, as criterion 8 passes its states
    rows = np.ascontiguousarray(psis.T)
    assert _same_bits(engine._normalised(*kernel.run(rows.T, dW)), ref)
    assert np.array_equal(rows.T, psis)                       # the input is not written


@pytest.fixture
def squarings(monkeypatch):
    """The count of ``engine._abs2`` passes, reset by ``clear()``."""
    calls = []
    abs2 = engine._abs2

    def counting(psis):
        calls.append(None)
        return abs2(psis)

    monkeypatch.setattr(engine, "_abs2", counting)
    return calls


@pytest.mark.parametrize("model", ["spin", "dense"])
def test_every_step_squares_the_states_once(squarings, model):
    # one _abs2 pass after each step gives its norms and the next step's <L>,
    # for every member; one more pass reads the initial states' <L>
    for u in (UnravelingParams.linear(0.8), UnravelingParams(0.0, 1.0, 0.8), XI_INTERIOR,
              UnravelingParams.nonlinear(0.8)):
        kernel, dim = _kernel_case(_EulerKernel, model, u)
        squarings.clear()
        kernel.run(_random_columns(np.random.default_rng(17), dim, 5), np.full((5, 6), 0.01))
        assert len(squarings) == 6 + 1, u


def test_matched_blocks_stops_square_each_chunk_once_per_kernel(monkeypatch, squarings):
    # two kernels on chunks of 700 columns (1500 = 2 x 700 + 100), in blocks of
    # 7, 3, 7, 7, 1, 7, 7 and 1 steps (at most 7, ending at the stops 10 and 25
    # and at step 40): each run call squares its initial states once and each
    # step once, and each stop reads each chunk's <L> in one |phi|^2 pass per
    # kernel, with no normalising multiply and no copy of the states
    n_cols, n_steps, dt = 1500, 40, 1e-3
    monkeypatch.setattr(engine, "_PAIR_CHUNK", 700)
    monkeypatch.setattr(engine, "_PAIR_BUDGET", 7 * n_cols)
    monkeypatch.setattr(procs, "_FORK_HELPER", False)
    kernels = _both_kernels(dt)
    psi0 = _random_columns(np.random.default_rng(12), 3, 1)[:, 0]
    squarings.clear()
    seen = [(step, means.shape) for step, means in engine._matched_blocks(
        kernels, psi0, np.random.default_rng(13), dt, n_steps, n_cols, stops=(10, 25))]
    assert seen == [(s, (len(kernels), n_cols)) for s in (10, 25, 40)]
    assert len(squarings) == len(kernels) * 3 * (n_steps + 8 + 3)


@pytest.mark.parametrize("n_steps", [0, 25])
@pytest.mark.parametrize("kind, model, u", _KERNEL_CASES)
def test_run_returns_the_norms_of_its_last_pass(kind, model, u, n_steps):
    kernel, dim = _kernel_case(kind, model, u)
    rng = np.random.default_rng(18)
    psis = _random_columns(rng, dim, 7)
    out, n2 = kernel.run(psis, rng.standard_normal((7, n_steps)) * np.sqrt(1e-3))
    assert _same_bits(n2, engine._sum_rows(engine._abs2(out)))


def test_run_returns_the_norms_after_a_rescale(rescales):
    # each step moves two n2 out of the kernel's window, so each step rescales
    psis = _random_columns(np.random.default_rng(16), 3, 3)
    out, n2 = _Scaling([1e-160, 1e150, 1.0]).run(psis, np.zeros((3, 3)))
    assert len(rescales) == 3
    assert _same_bits(n2, engine._sum_rows(engine._abs2(out)))


@pytest.mark.parametrize("kind, model, u", _KERNEL_CASES)
@pytest.mark.parametrize("fault", ["nan", "inf", "zero"])
def test_kernel_guard_names_the_global_column_and_step(kind, model, u, fault):
    # column 3 of the chunk starting at trajectory 40 fails at its step 12:
    # a nan state, a finite state whose norm overflows to inf, or a zero state
    kernel, dim = _kernel_case(kind, model, u)
    psis = _random_columns(np.random.default_rng(15), dim, 7)
    dW = np.zeros((7, 4))
    if fault == "inf":
        dW[3, 2] = 500.0 if kind is _ExponentialKernel else 1e200
        first_step = 10
    else:
        psis[:, 3] = np.nan if fault == "nan" else 0.0
        first_step = 12
    with pytest.raises(FloatingPointError, match="trajectory 43 became non-finite at step 12"):
        kernel.run(psis, dW, first_step=first_step, first_traj=40)


def _both_kernels(dt, lam=0.8):
    model = _diagonal_three_level(np.random.default_rng(11))
    u = UnravelingParams.nonlinear(lam)
    return _EulerKernel(model, u, dt), _ExponentialKernel(model, u, dt)


def _full_width_means(kernels, psi0, seed, dt, n_steps, n_cols, stops):
    """(len(kernels), len(stops), n_cols) <L> of one full-width step per draw, at ``stops``."""
    rng = np.random.default_rng(seed)
    ref = np.empty((len(kernels), len(stops), n_cols))
    cols = [np.repeat(psi0[:, None], n_cols, axis=1) for _ in kernels]
    for k in range(1, n_steps + 1):
        dW = rng.standard_normal(n_cols) * np.sqrt(dt)
        for i, kernel in enumerate(kernels):
            cols[i] = kernel.run(cols[i], dW[:, None])[0]
            if k in stops:
                ref[i, stops.index(k)] = kernel.norms_and_mean(cols[i])[2]
    return ref


def test_matched_blocks_equal_the_full_width_loop(monkeypatch):
    # chunks of 700 columns (3001 = 4 x 700 + 301) and blocks of at most 7
    # steps that also end at the stops 10, 25 and 33: the <L> rows handed back
    # at the stops (and the last step) have the bits of norms_and_mean after
    # one full-width step per draw
    n_cols, n_steps, dt = 3001, 40, 1e-3
    stops = (10, 25, 33, n_steps)
    monkeypatch.setattr(engine, "_PAIR_CHUNK", 700)
    monkeypatch.setattr(engine, "_PAIR_BUDGET", 7 * n_cols)
    monkeypatch.setattr(procs, "_FORK_HELPER", False)   # the draws are counted in this process
    kernels = _both_kernels(dt)
    psi0 = _random_columns(np.random.default_rng(12), 3, 1)[:, 0]
    ref = _full_width_means(kernels, psi0, 13, dt, n_steps, n_cols, stops)

    class CountingStream:
        """The generator of the reference loop, recording the steps of each draw."""
        rng, blocks = np.random.default_rng(13), []

        def standard_normal(self, out):
            self.blocks.append(out.shape[0])
            self.rng.standard_normal(out=out)

    stream = CountingStream()
    got = [(step, means.copy()) for step, means in engine._matched_blocks(
        kernels, psi0, stream, dt, n_steps, n_cols, stops=stops[:-1])]
    assert stream.blocks == [7, 3, 7, 7, 1, 7, 1, 7]
    assert [step for step, _ in got] == list(stops)
    assert _same_bits(np.stack([means for _, means in got], axis=1), ref)


@pytest.mark.parametrize("forks", [False, True], ids=["inline", "forked"])
def test_matched_blocks_refill_one_array_at_every_stop(pair_blocks, deadline, forks):
    # 10 columns in chunks of 4 and blocks of at most 3 steps: every stop
    # yields the same (2, 10) array, holding the bits of the full-width loop
    # at that stop, even after the caller overwrote it at the stop before
    if forks and not procs._FORK_HELPER:
        pytest.skip("this interpreter draws every stream inline")
    pair_blocks.setattr(procs, "_FORK_HELPER", forks)
    n_steps, stops = 40, (10, 25, 33, 40)
    kernels = _both_kernels(1e-3)
    psi0 = _random_columns(np.random.default_rng(17), 3, 1)[:, 0]
    ref = _full_width_means(kernels, psi0, 23, 1e-3, n_steps, 10, stops)
    yielded = []
    with contextlib.closing(engine._matched_blocks(kernels, psi0, np.random.default_rng(23),
                                                   1e-3, n_steps, 10, stops=stops[:-1])) as pairs:
        for step, means in pairs:
            assert _same_bits(means, ref[:, stops.index(step)]), step
            yielded.append(means)
            means[...] = np.nan
    assert len(yielded) == len(stops)
    assert all(means is yielded[0] for means in yielded)
    _no_child_left()


class SpikedStream:
    """Zero increments but one of 1e300 at (step 5, column 6)."""
    drawn = 0

    def standard_normal(self, out):
        out[...] = 0.0
        if self.drawn <= 5 < self.drawn + out.shape[0]:
            out[5 - self.drawn, 6] = 1e300
        self.drawn += out.shape[0]


@pytest.fixture
def pair_blocks(monkeypatch):
    """Shared-stream chunks of 4 columns (column 6 is in the second); 3-step blocks of 10."""
    monkeypatch.setattr(engine, "_PAIR_CHUNK", 4)
    monkeypatch.setattr(engine, "_PAIR_BUDGET", 30)
    return monkeypatch


@pytest.mark.parametrize("which", [0, 1], ids=["euler", "exponential"])
def test_matched_blocks_name_the_global_column_and_step_of_a_non_finite_state(
        pair_blocks, which):
    # the non-finite state of :class:`SpikedStream`, from a 3-block shared stream
    pair_blocks.setattr(procs, "_FORK_HELPER", False)
    psi0 = _random_columns(np.random.default_rng(14), 3, 1)[:, 0]
    with pytest.raises(FloatingPointError, match="trajectory 6 became non-finite at step 5"):
        for _ in engine._matched_blocks(_both_kernels(1e-3)[which:which + 1], psi0,
                                        SpikedStream(), 1e-3, 9, 10):
            pass


def test_simulate_trajectory_shapes_and_record():
    model = spin_model()
    u = UnravelingParams.nonlinear(1.0)
    states, means = simulate_trajectory(model, u, PSI0, 1e-3, 50, seed=3,
                                        tracked_observables={"sz": SZ})
    assert states.shape == (51, 2)
    assert means["sz"].shape == (51,)
    norms = np.linalg.norm(states, axis=1)
    assert np.max(np.abs(norms - 1.0)) <= 1e-10


def test_simulate_trajectory_zero_steps_and_linear_member_has_no_record():
    model = spin_model()
    states, means = simulate_trajectory(model, UnravelingParams.nonlinear(1.0), PSI0,
                                        1e-3, 0, 1)
    assert states.shape == (1, 2) and means == {}
    assert np.array_equal(states[0], PSI0)
    states2, _ = simulate_trajectory(model, UnravelingParams.linear(1.0), PSI0, 1e-3, 5, 1)
    assert states2.shape == (6, 2)


def test_lindblad_step_stationary_cases():
    model = spin_model()
    rho = projector(np.array([1.0, 0.0], dtype=complex))
    out = lindblad_step(rho, model, 0.0, 1e-2)          # [H, rho] = 0, lam = 0
    assert np.allclose(out, rho, atol=1e-15)
    mixed = np.eye(2) / 2.0
    out2 = lindblad_step(mixed, model, 1.0, 1e-2)
    assert np.allclose(out2, mixed, atol=1e-15)


def test_lindblad_dephasing_oracle():
    # d rho_01/dt = (-2 i nu - 2 lam) rho_01 solved analytically; the stepped
    # and the propagator-powered oracle both meet it
    nu, lam, dt, n = 1.3, 0.8, 1e-3, 1000
    model = spin_model(nu=nu)
    plus_x = np.array([1.0, 1.0], dtype=complex) / np.sqrt(2.0)
    rho0 = rho = projector(plus_x)
    for _ in range(n):
        rho = lindblad_step(rho, model, lam, dt)
        assert abs(np.trace(rho).real - 1.0) <= 1e-12
    t = n * dt
    expected = 0.5 * np.exp((-2j * nu - 2.0 * lam) * t)
    assert abs(rho[0, 1] - expected) <= 1e-10
    assert abs(rho[0, 0] - 0.5) <= 1e-12
    for step, evolved in lindblad_evolve(rho0, model, lam, dt, n, snapshot_steps=[250, n]):
        exact = 0.5 * np.exp((-2j * nu - 2.0 * lam) * step * dt)
        assert abs(evolved[0, 1] - exact) <= 1e-10
        assert abs(evolved[0, 0] - 0.5) <= 1e-12 and abs(evolved[1, 0] - np.conj(exact)) <= 1e-10


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
    # the dense 4-level model steps in the eigenbasis of its L
    dense = _dense_four_level()
    res = simulate_ensemble(dense, u, _DENSE_PSI0, dt, n_steps, n_traj, base_seed=21,
                            snapshot_steps=[250, 500, 1000])
    oracle = engine.master_equation_oracle(res, dense, u.lam)
    assert np.max(np.abs(res.rhos - oracle)) <= engine.mc_tolerance(n_traj)


def test_ensemble_average_matches_lockstep_result():
    model = spin_model()
    u = UnravelingParams.nonlinear(1.0)
    n_traj, n_steps, dt = 6, 40, 1e-3
    trajs = [simulate_trajectory(model, u, PSI0, dt, n_steps, derive_seed(33, k))[0]
             for k in range(n_traj)]
    rhos = [sum(np.outer(tr[i], tr[i].conj()) for tr in trajs) / n_traj
            for i in (0, 20, 40)]
    res = simulate_ensemble(model, u, PSI0, dt, n_steps, n_traj, base_seed=33,
                            snapshot_steps=[0, 20, 40])
    for a, b in zip(rhos, res.rhos):
        assert np.max(np.abs(a - b)) <= 1e-12
    single = np.outer(trajs[0][40], trajs[0][40].conj())
    evals = np.linalg.eigvalsh(single)
    assert evals.max() == pytest.approx(1.0, abs=1e-10)  # pure projector


def test_vectorized_members_equal_serial_trajectories():
    # the spin model takes the elementwise path, so a column gives the same
    # bits alone as inside the batch
    model = spin_model()
    u = UnravelingParams.nonlinear(1.0)
    kernel = _EulerKernel(model, u, 1e-3)
    assert kernel.A is None and kernel.V is None
    res = simulate_ensemble(model, u, PSI0, 1e-3, 300, 5, base_seed=42,
                            snapshot_steps=[300], tracked_observables={"sz": SZ})
    for k in range(5):
        states, means = simulate_trajectory(model, u, PSI0, 1e-3, 300, derive_seed(42, k),
                                            tracked_observables={"sz": SZ})
        assert np.array_equal(res.final_states[k], states[-1])
        assert np.array_equal(res.means["sz"][0, k], means["sz"][300])


def test_chunk_count_does_not_change_trajectories(monkeypatch):
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
    # 17 trajectories in chunks of 5, 5, 5 and 2: each chunk, the short last
    # one too, fills its own columns of the one result
    one = simulate_ensemble(model, u, PSI0, n_traj=17, **kw)
    monkeypatch.setattr(procs, "_ENSEMBLE_CHUNK", 5)
    four = simulate_ensemble(model, u, PSI0, n_traj=17, **kw)
    assert np.array_equal(four.final_states, one.final_states)
    assert np.array_equal(four.means["sz"], one.means["sz"])
    assert np.max(np.abs(four.rhos - one.rhos)) <= 1e-15


@pytest.mark.parametrize("budget", [None, 35])
def test_snapshots_do_not_change_trajectories(monkeypatch, budget):
    # budget 35 with 5 trajectories gives 7-step noise blocks, whose
    # boundaries fall strictly between the 10-step snapshot grid.  The dense
    # model's columns enter the eigenbasis of L once per batch, so they do
    # not see where the blocks end either
    n = 400
    grid = np.linspace(0, n, 41).astype(int)
    dense = _dense_four_level()
    for model, psi0, obs in ((spin_model(), PSI0, SZ), (dense, _DENSE_PSI0, dense.H)):
        def ensemble(snaps):
            return simulate_ensemble(model, XI_INTERIOR, psi0, 1e-3, n, 5, base_seed=12,
                                     snapshot_steps=snaps, tracked_observables={"o": obs})

        default = ensemble([n])
        if budget is not None:
            monkeypatch.setattr(engine, "_NOISE_BUDGET", budget)
        runs = [ensemble(snaps) for snaps in ([n], grid, np.arange(n + 1))]
        monkeypatch.undo()
        final, on_grid, every = runs
        for r in runs:
            assert np.array_equal(r.final_states, default.final_states)
            assert np.array_equal(r.means["o"][-1], default.means["o"][0])
            assert np.array_equal(r.rhos[-1], default.rhos[0])
        shared = every.at_steps(grid)
        assert np.array_equal(shared.means["o"], on_grid.means["o"])
        assert np.array_equal(shared.rhos, on_grid.rhos)
        assert np.array_equal(shared.times, on_grid.times)


def _per_step_reduction(model, u, psi0, dt, n_steps, n_traj, base_seed, snaps, ops):
    """The rho and tracked means of one chunk, reduced at each snapshot step as it is taken."""
    kernel = _EulerKernel(model, u, dt)
    V = kernel.V
    ops = {name: op if V is None else V.conj().T @ op @ V for name, op in ops.items()}
    rhos, means = {}, {name: {} for name in ops}

    def per_step(step, psis, n2=None):
        if step in snaps:
            psis = psis if step == 0 else engine._normalised(psis, n2)   # step 0 as given
            rhos[step] = psis @ psis.conj().T
            for name, op in ops.items():
                means[name][step] = engine._column_means(psis, op)

    psis = np.repeat(kernel.into_basis(psi0[:, None]), n_traj, axis=1)
    per_step(0, psis)
    for start, dW in engine._noise_blocks(base_seed, 0, n_traj, n_steps, dt):
        psis, _ = kernel.run(psis, dW, start, 0, after_step=per_step)
    rho = np.array([rhos[s] for s in snaps])
    rho_sum = np.zeros_like(rho)
    rho_sum += rho if V is None else V @ rho @ V.conj().T
    return rho_sum / n_traj, {name: np.array([m[s] for s in snaps]) for name, m in means.items()}


@pytest.mark.parametrize("model, u", [("spin", UnravelingParams.nonlinear(1.0)),
                                      ("spin", UnravelingParams.linear(1.0)),
                                      ("dense", XI_INTERIOR)])
@pytest.mark.parametrize("width", [6, 9, 61], ids=["fills", "remainder", "one"])
def test_stacked_snapshot_reduction_has_the_per_step_bits(monkeypatch, model, u, width):
    # 20 snapshots on a 240-double budget, which holds 60 // width spin and
    # 30 // width dense snapshots (one at least): 6 columns fill every stack
    # (10 or 5 deep), 9 leave a remainder (6 + 6 + 6 + 2, or 3 six times
    # + 2) and 61 hold one snapshot per stack
    monkeypatch.setattr(engine, "_SNAPSHOT_BUDGET", 240)
    model, psi0 = (spin_model(), PSI0) if model == "spin" else (_dense_four_level(), _DENSE_PSI0)
    snaps = [0, 1, 2, 5, 6, 9, 10, 11, 13, 17, 18, 20, 21, 25, 26, 28, 30, 31, 33, 35]
    ops = {"L": model.L, "H": model.H}
    res = simulate_ensemble(model, u, psi0, 1e-3, 35, width, base_seed=8,
                            snapshot_steps=snaps, tracked_observables=ops)
    rhos, means = _per_step_reduction(model, u, psi0, 1e-3, 35, width, 8, snaps, ops)
    assert _same_bits(res.rhos, rhos)
    for name in ops:
        assert _same_bits(res.means[name], means[name])


@pytest.mark.parametrize("dim", [2, 4, 48])
@pytest.mark.parametrize("width", [1, 7, 2500])
def test_stacked_products_equal_the_products_of_each_slice(dim, width):
    rng = np.random.default_rng(dim + width)
    stack = np.stack([_random_columns(rng, dim, width) for _ in range(3)])
    op = _random_hermitian(rng, dim)
    assert _same_bits(stack @ stack.conj().swapaxes(1, 2),
                      np.array([s @ s.conj().T for s in stack]))
    assert _same_bits(engine._column_means(stack, op),
                      np.array([engine._column_means(s, op) for s in stack]))


class _Scaling(engine._ColumnKernel):
    """A kernel whose update multiplies column n by ``scales[n]``."""

    def __init__(self, scales):
        self.scales = np.asarray(scales, dtype=complex)

    def update(self, psis, dW, ell):
        return psis * self.scales


def test_norms_near_the_ends_of_the_double_range_renormalise():
    # n2 near 1e-320 is subnormal and n2 near 1e300 nearly overflows; both
    # are finite and non-zero, so each step rescales them and neither raises
    psis = _random_columns(np.random.default_rng(16), 3, 3)
    out = engine._normalised(*_Scaling([1e-160, 1e150, 1.0]).run(psis, np.zeros((3, 3))))
    assert np.all(np.isfinite(out))
    assert np.allclose(np.linalg.norm(out, axis=0), 1.0, rtol=1e-3, atol=0.0)
    assert np.allclose(out[:, 1:2] / out[0, 1], psis[:, 1:2] / psis[0, 1], rtol=1e-12)


def _scaled_by_powers_of_two(update, power, columns=slice(None)):
    """``update``, then each of ``columns`` times 2**power (its input norm below 1) or 2**-power.

    A power of 300 moves every n2 by 2**600, out of the kernel's window at
    every step; 150 moves it by 2**300, which no step rescales.
    """
    def scaled(self, psis, dW, ell):
        out = update(self, psis, dW, ell)
        factor = np.ones(psis.shape[1])
        below = np.linalg.norm(psis[:, columns], axis=0) < 1.0
        factor[columns] = np.where(below, 2.0 ** power, 2.0 ** -power)
        view = out.view(float)
        view *= np.repeat(factor, 2)
        return out
    return scaled


@pytest.fixture
def rescales(monkeypatch):
    """The count of calls to ``engine._rescale``, reset by ``clear()``."""
    calls = []
    rescale = engine._rescale

    def counting(*args):
        calls.append(None)
        rescale(*args)

    monkeypatch.setattr(engine, "_rescale", counting)
    return calls


@pytest.mark.parametrize("model, u", [("spin", UnravelingParams.nonlinear(1.0)),
                                      ("spin", UnravelingParams.linear(1.0)),
                                      ("dense", UnravelingParams.nonlinear(1.0)),
                                      ("dense", XI_INTERIOR)])
def test_ensembles_do_not_depend_on_rescaling(monkeypatch, rescales, model, u):
    # the same ensemble with its columns rescaled at every step, scaled but
    # never rescaled, and neither: snapshots (in stacks of 4 spin or 2 dense
    # rows), means and final states keep every bit
    monkeypatch.setattr(engine, "_SNAPSHOT_BUDGET", 80)
    model, psi0 = (spin_model(), PSI0) if model == "spin" else (_dense_four_level(), _DENSE_PSI0)
    update = _EulerKernel.update

    def ensemble(power):
        if power:
            monkeypatch.setattr(_EulerKernel, "update", _scaled_by_powers_of_two(update, power))
        rescales.clear()
        res = simulate_ensemble(model, u, psi0, 1e-3, 60, 5, base_seed=4,
                                snapshot_steps=[0, 1, 2, 7, 8, 9, 30, 31, 59, 60],
                                tracked_observables={"L": model.L, "H": model.H})
        return res, len(rescales)

    (plain, n_plain), (scaled, n_scaled), (rescaled, n_rescaled) = map(ensemble, (0, 150, 300))
    assert (n_plain, n_scaled, n_rescaled) == (0, 0, 60)
    for res in (scaled, rescaled):
        assert _same_bits(res.rhos, plain.rhos)
        assert _same_bits(res.final_states, plain.final_states)
        for name in plain.means:
            assert _same_bits(res.means[name], plain.means[name])


def test_matched_blocks_stops_do_not_depend_on_rescaling(monkeypatch, rescales):
    # both collapse-member kernels on one shared stream, in chunks of 4 of 10
    # columns and 3-step blocks that end at the stops 5 and 8: a column scaled
    # by a power of two reads the same <L>
    monkeypatch.setattr(engine, "_PAIR_CHUNK", 4)
    monkeypatch.setattr(engine, "_PAIR_BUDGET", 30)
    psi0 = _random_columns(np.random.default_rng(18), 3, 1)[:, 0]

    def stops(power):
        kernels = _both_kernels(1e-3)
        for kernel in kernels:
            if power:
                kernel.update = types.MethodType(
                    _scaled_by_powers_of_two(type(kernel).update, power), kernel)
        rescales.clear()
        got = [(step, means.copy()) for step, means in engine._matched_blocks(
            kernels, psi0, np.random.default_rng(19), 1e-3, 12, 10, stops=(5, 8))]
        return got, len(rescales)

    (plain, n_plain), (scaled, n_scaled), (rescaled, n_rescaled) = map(stops, (0, 150, 300))
    assert (n_plain, n_scaled, n_rescaled) == (0, 0, 2 * 3 * 12)   # per kernel, chunk and step
    for got in (scaled, rescaled):
        assert [step for step, _ in got] == [step for step, _ in plain] == [5, 8, 12]
        assert all(_same_bits(a, b) for (_, a), (_, b) in zip(got, plain))


@pytest.mark.parametrize("kind, u", [(_EulerKernel, UnravelingParams.nonlinear(0.8)),
                                     (_EulerKernel, UnravelingParams.linear(0.8)),
                                     (_ExponentialKernel, UnravelingParams.nonlinear(0.8))])
def test_a_column_alone_equals_it_in_a_batch_whose_other_columns_rescale(rescales, kind, u):
    # on a diagonal model, where a column has the bits alone that it has in a batch
    kernel, dim = _kernel_case(kind, "spin", u)
    psis = _random_columns(np.random.default_rng(20), dim, 6)
    dW = np.random.default_rng(21).standard_normal((6, 40)) * np.sqrt(1e-3)
    alone = engine._normalised(*kernel.run(psis[:, 2:3], dW[2:3]))
    assert len(rescales) == 0
    kernel.update = types.MethodType(
        _scaled_by_powers_of_two(kind.update, 300, columns=[0, 1, 3, 4, 5]), kernel)
    batch = engine._normalised(*kernel.run(psis, dW))
    assert len(rescales) == 40
    assert _same_bits(batch[:, 2:3], alone)


@pytest.mark.parametrize("budget, n_steps, sizes", [
    (300, 500, [8, 16, 32, 64, 100, 100, 100, 80]),     # doubling up to 300 // 3 = 100 steps
    (300, 100, [100]),                                  # fits in one block: unchanged
    (15, 17, [5, 5, 5, 2]),                             # 15 // 3 = 5 steps, under the first 8
])
def test_noise_blocks_start_short_and_double_up_to_the_budget(monkeypatch, budget, n_steps,
                                                              sizes):
    # block ends do not change a stream: row k of the joined blocks is
    # wiener_path(derive_seed(base, k0 + k), dt, n_steps)
    monkeypatch.setattr(engine, "_NOISE_BUDGET", budget)
    monkeypatch.setattr(procs, "_FORK_HELPER", False)
    blocks = [(start, dW.copy()) for start, dW in engine._noise_blocks(41, 4, 7, n_steps, 2e-3)]
    assert [(start, dW.shape[1]) for start, dW in blocks] == list(
        zip(itertools.accumulate([0] + sizes[:-1]), sizes))
    joined = np.concatenate([dW for _, dW in blocks], axis=1)
    for k, row in zip(range(4, 7), joined):
        assert np.array_equal(row, wiener_path(derive_seed(41, k), 2e-3, n_steps))


def test_a_fig2_sized_chunk_draws_one_block_and_forks_no_helper(monkeypatch):
    cfg = config.preset("fig2")
    monkeypatch.setattr(procs, "_FORK_HELPER", True)
    monkeypatch.delattr(os, "fork")          # a fork would raise AttributeError
    blocks = [dW.shape for _, dW in engine._noise_blocks(cfg.base_seed, 0, cfg.n_trajectories,
                                                         cfg.n_steps, cfg.dt)]
    assert blocks == [(cfg.n_trajectories, cfg.n_steps)]


def test_a_chunk_derives_one_seed_per_trajectory_from_two_hashed_blocks(monkeypatch):
    # the benchmark's tracer counts one derive_seed call per trajectory, and
    # the calls read cached blocks: 2500 trajectories touch blocks 0 and 1
    monkeypatch.setattr(procs, "_FORK_HELPER", False)   # every call is made in this process
    calls = []

    def counted(base_seed, k):
        calls.append(k)
        return derive_seed(base_seed, k)

    monkeypatch.setattr(noise, "derive_seed", counted)
    noise._seed_block.cache_clear()
    simulate_ensemble(spin_model(), XI_INTERIOR, PSI0, 1e-3, 4, 2500, base_seed=19)
    assert sorted(calls) == list(range(2500))
    assert 1 <= noise._seed_block.cache_info().misses <= 2


def _no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.fixture
def helper_blocks(monkeypatch):
    """Chunks of 4, 4 and 2 trajectories; blocks of 3 steps (6 in the short chunk).

    With two usable cores a 10-trajectory ensemble runs its first chunk here
    and the other two in one forked piece, each chunk drawing its noise from
    its own helper.
    """
    monkeypatch.setattr(procs, "_ENSEMBLE_CHUNK", 4)
    monkeypatch.setattr(engine, "_NOISE_BUDGET", 12)
    monkeypatch.setattr(procs, "usable_cores", lambda: 2)
    if not procs._FORK_HELPER:
        pytest.skip("this interpreter draws every stream inline")
    return monkeypatch


@pytest.fixture
def deadline():
    """Fail a test that runs for more than 30 s instead of letting it hang."""
    def expire(signum, frame):
        raise TimeoutError("the test hung")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(30)
    yield
    signal.alarm(0)
    signal.signal(signal.SIGALRM, previous)


@pytest.mark.parametrize("case", ["1", "-i", "e^{-i pi/4}", "0.6-0.8i", "dense"])
def test_forked_helper_gives_the_inline_bits(helper_blocks, case):
    # 10 trajectories x 40 steps: 14, 14 and 7 blocks per chunk, drawn by a
    # helper and then inline, with snapshots on and between block ends; the
    # forked run integrates chunks 1 and 2 in a forked piece
    u = {"1": UnravelingParams.nonlinear(0.9), "-i": UnravelingParams.linear(0.9),
         "e^{-i pi/4}": XI_INTERIOR, "0.6-0.8i": UnravelingParams(0.6, -0.8, 0.9),
         "dense": XI_INTERIOR}[case]
    model, psi0 = (_dense_four_level(), _DENSE_PSI0) if case == "dense" else (spin_model(), PSI0)
    obs = {"h": model.H, "l": model.L}

    def run():
        return simulate_ensemble(model, u, psi0, 1e-3, 40, 10, base_seed=31,
                                 snapshot_steps=[0, 3, 7, 20, 40], tracked_observables=obs)

    forked = run()
    helper_blocks.setattr(procs, "_FORK_HELPER", False)
    inline = run()
    assert np.array_equal(forked.final_states, inline.final_states)
    assert np.array_equal(forked.rhos, inline.rhos)
    for name in obs:
        assert np.array_equal(forked.means[name], inline.means[name])
    _no_child_left()


@pytest.mark.parametrize("traj", [2, 6, 9])
@pytest.mark.parametrize("forks", [True, False], ids=["forked", "inline"])
def test_a_non_finite_state_in_any_chunk_names_its_global_trajectory(helper_blocks, deadline,
                                                                     traj, forks):
    # an infinite increment at step 5 of one trajectory: in the chunk run here
    # (2) or in the forked piece's first or second chunk (6, 9)
    blocks = engine._noise_blocks

    def spiked_blocks(base_seed, k0, k1, n_steps, dt):
        for start, dW in blocks(base_seed, k0, k1, n_steps, dt):
            if k0 <= traj < k1 and start <= 5 < start + dW.shape[1]:
                dW[traj - k0, 5 - start] = np.inf
            yield start, dW

    helper_blocks.setattr(engine, "_noise_blocks", spiked_blocks)
    helper_blocks.setattr(procs, "_FORK_HELPER", forks)
    with pytest.raises(FloatingPointError,
                       match=f"trajectory {traj} became non-finite at step 5"):
        simulate_ensemble(spin_model(), XI_INTERIOR, PSI0, 1e-3, 40, 10, base_seed=5)
    _no_child_left()


@pytest.mark.parametrize("n_steps, stops", [(40, (10, 25, 33)), (7, (1,))],
                         ids=["stops", "short_first_block"])
def test_matched_blocks_forked_helper_gives_the_inline_bits(pair_blocks, deadline,
                                                            n_steps, stops):
    # 10 columns in blocks of at most 3 steps.  With a stop at step 1 the
    # first block is the shortest (1, 3, 3 steps): the shared buffers are
    # sized by the largest block, not the first
    if not procs._FORK_HELPER:
        pytest.skip("this interpreter draws every stream inline")
    kernels = _both_kernels(1e-3)
    psi0 = _random_columns(np.random.default_rng(16), 3, 1)[:, 0]

    def run():
        rng = np.random.default_rng(15)
        with contextlib.closing(engine._matched_blocks(kernels, psi0, rng, 1e-3, n_steps, 10,
                                                       stops=stops)) as pairs:
            got = [(step, means.copy()) for step, means in pairs]
        return got, rng.standard_normal()

    forked, next_draw = run()
    _no_child_left()
    assert next_draw == np.random.default_rng(15).standard_normal()   # rng not advanced
    pair_blocks.setattr(procs, "_FORK_HELPER", False)
    inline, _ = run()
    assert [step for step, _ in forked] == [step for step, _ in inline]
    assert all(_same_bits(a, b) for (_, a), (_, b) in zip(forked, inline))


def _pairs(n_steps):
    """The shared-stream <L> of 4 spin-model columns over ``n_steps``, stopping at 10 and 25."""
    return engine._matched_blocks([_EulerKernel(spin_model(), XI_INTERIOR, 1e-3)], PSI0,
                                  np.random.default_rng(5), 1e-3, n_steps, 4, stops=(10, 25))


_CONSUMERS = {   # each runs 4 trajectories (columns) over n steps to the end
    "simulate_ensemble": lambda n: simulate_ensemble(spin_model(), XI_INTERIOR, PSI0, 1e-3, n, 4,
                                                     base_seed=5, tracked_observables={"sz": SZ}),
    "centroid_ensemble": lambda n: centroid_ensemble(MechanicalParams(mass=1.0, omega=0.5, lam=1.0),
                                                     0.3 + 0.1j, -1j, 0.2, -0.1, 1e-3, n, 4, 5),
    "_matched_blocks": lambda n: [(step, means.copy()) for step, means in _pairs(n)],
}


@pytest.mark.parametrize("consumer, ending",
                         [(c, "raises") for c in _CONSUMERS] + [("_matched_blocks", "stops")])
def test_a_consumer_closes_its_stream_when_it_raises_or_stops_early(helper_blocks, deadline,
                                                                     consumer, ending):
    # blocks of 3 steps, drawn by a helper; the 20th step fails, or the caller
    # stops at step 10.  The helper is reaped before the exception is dropped
    def failing(step):       # ``step``, raising on its 20th call
        calls = itertools.count(1)

        def call(*args):
            if next(calls) == 20:
                raise ArithmeticError("step 20 failed")
            return step(*args)
        return call

    helper_blocks.setattr(engine, "_PAIR_BUDGET", 12)
    helper_blocks.setattr(_EulerKernel, "update", failing(_EulerKernel.update))
    helper_blocks.setattr(gaussian, "_centroid_step", failing(gaussian._centroid_step))
    if ending == "stops":
        with contextlib.closing(_pairs(40)) as pairs:
            assert next(pairs)[0] == 10
    else:
        with pytest.raises(ArithmeticError, match="step 20 failed") as info:
            _CONSUMERS[consumer](40)
    _no_child_left()                         # while ``info`` still holds the exception


@pytest.mark.parametrize("consumer", sorted(_CONSUMERS))
def test_a_zero_step_ensemble_yields_only_its_initial_snapshot(consumer):
    got = _CONSUMERS[consumer](0)           # an empty noise plan
    if consumer == "simulate_ensemble":
        assert got.step_indices.tolist() == [0]
        assert np.array_equal(got.final_states, np.tile(PSI0, (4, 1)))
        assert np.allclose(got.means["sz"], -0.5, rtol=0.0, atol=1e-15)
    elif consumer == "centroid_ensemble":
        assert np.array_equal(got, [[[0.2] * 4], [[-0.1] * 4]])
    else:
        assert got == []        # means come back only after a step


@pytest.mark.parametrize("n_steps, n_traj", [(-3, 4), (10, 0), (10, -1)])
def test_ensemble_rejects_negative_and_empty_sizes(monkeypatch, n_steps, n_traj):
    def never(*args):
        raise AssertionError("reached")

    monkeypatch.setattr(noise, "derive_seed", never)
    monkeypatch.setattr(os, "fork", never)
    with pytest.raises(ValueError, match="n_steps must be >= 0|n_traj must be >= 1"):
        simulate_ensemble(spin_model(), XI_INTERIOR, PSI0, 1e-3, n_steps, n_traj, base_seed=1)


def test_lindblad_evolve_rejects_negative_steps():
    with pytest.raises(ValueError, match="n_steps must be >= 0"):
        lindblad_evolve(projector(PSI0), spin_model(), 1.0, 1e-3, -3)


def test_state_stack_holds_one_stack():
    # the dense model steps in the eigenbasis of L; each kept state is
    # rotated back as it is written, so no second stack is ever held
    kernel = _EulerKernel(_dense_four_level(), XI_INTERIOR, 1e-3)
    assert kernel.V is not None
    dW = np.random.default_rng(6).standard_normal((100, 1000)) * np.sqrt(1e-3)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        states = engine._state_stack(kernel, _DENSE_PSI0, dW)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert states.shape == (1001, 4, 100)
    assert peak <= 1.25 * states.nbytes


def test_at_steps_rejects_a_step_that_is_not_a_snapshot():
    res = simulate_ensemble(spin_model(), UnravelingParams.linear(1.0), PSI0, 1e-3, 10, 2,
                            base_seed=3, snapshot_steps=[0, 10])
    with pytest.raises(ValueError, match="step 5"):
        res.at_steps([0, 5])


@pytest.mark.parametrize("dt", [-1e-3, 0.0, math.nan, math.inf])
def test_oracle_rejects_a_step_that_is_not_finite_and_positive(dt):
    # a negative dt would run the flow backwards into a non-positive rho; dt = 0 returns rho0
    with pytest.raises(ValueError, match="dt must be finite and positive"):
        lindblad_evolve(projector(PSI0), spin_model(), 1.0, dt, 100)
    with pytest.raises(ValueError, match="dt must be finite and positive"):
        lindblad_propagator(spin_model(), 1.0, dt)


@pytest.mark.parametrize("dt", [math.nan, math.inf, 0.0, -1e-3])
def test_a_step_that_is_not_finite_and_positive_is_rejected(dt):
    p = MechanicalParams(mass=1.0, omega=0.0, lam=1.0)
    runs = [lambda: wiener_path(3, dt, 10),
            lambda: simulate_ensemble(spin_model(), XI_INTERIOR, PSI0, dt, 10, 2, 3),
            lambda: centroid_ensemble(p, 0.3 + 0.1j, 1.0, 0.0, 0.0, dt, 10, 2, 3),
            lambda: _EulerKernel(spin_model(), XI_INTERIOR, dt),
            lambda: _ExponentialKernel(spin_model(), UnravelingParams.nonlinear(1.0), dt)]
    for run in runs:
        with pytest.raises(ValueError, match="dt must be finite and positive"):
            run()


@pytest.mark.parametrize("lam", [-1.0, math.nan, math.inf])
def test_oracle_rejects_a_rate_that_is_not_finite_and_non_negative(lam):
    with pytest.raises(ValueError, match="lam must be finite and >= 0"):
        lindblad_evolve(projector(PSI0), spin_model(), lam, 1e-3, 100)
    with pytest.raises(ValueError, match="lam must be finite and >= 0"):
        lindblad_propagator(spin_model(), lam, 1e-3)


def test_snapshot_steps_must_be_whole_numbers():
    u, p = UnravelingParams.nonlinear(1.0), MechanicalParams(mass=1.0, omega=0.0, lam=1.0)
    runs = [lambda s: simulate_ensemble(spin_model(), u, PSI0, 1e-3, 10, 2, 3, snapshot_steps=s),
            lambda s: lindblad_evolve(projector(PSI0), spin_model(), 1.0, 1e-3, 10,
                                      snapshot_steps=s),
            lambda s: centroid_ensemble(p, 0.3 + 0.1j, 1.0, 0.0, 0.0, 1e-3, 10, 2, 3,
                                        snapshot_steps=s)]
    for run in runs:
        for bad in ([2.5, 7.9], [2, math.nan]):
            with pytest.raises(ValueError, match="not a whole number"):
                run(bad)
    # a whole number held as a float is that step
    whole = simulate_ensemble(spin_model(), u, PSI0, 1e-3, 10, 2, 3, snapshot_steps=[2.0, 7.0])
    ints = simulate_ensemble(spin_model(), u, PSI0, 1e-3, 10, 2, 3, snapshot_steps=[2, 7])
    assert np.array_equal(whole.step_indices, [2, 7])
    assert np.array_equal(whole.rhos, ints.rhos)


def test_at_steps_rejects_a_step_that_is_not_a_whole_number():
    res = simulate_ensemble(spin_model(), UnravelingParams.linear(1.0), PSI0, 1e-3, 10, 2,
                            base_seed=3, snapshot_steps=[0, 2, 10])
    with pytest.raises(ValueError, match="step 2.5 is not a whole number"):
        res.at_steps([0, 2.5])
    assert np.array_equal(res.at_steps([2.0]).step_indices, [2])


def test_moment_flow_residual_matches_inline_formula():
    # the engine residual must equal the hand-built Ito right-hand side for
    # the collapse member: gain = 2(1 - z^2), drift-free (H commutes with L)
    model = spin_model()
    u = UnravelingParams.nonlinear(1.0)
    states, means = simulate_trajectory(model, u, PSI0, 1e-3, 300, 17,
                                        tracked_observables={"sz": SZ})
    dW = wiener_path(17, 1e-3, 300)
    z = means["sz"]
    gain = 2.0 * (1.0 - z[:-1] ** 2)
    r1 = conditional_moment_flow_residual(states[:, :, None], dW[None], SZ, model, u, 1e-3, 1)
    assert r1.shape == (1, 300)
    assert np.max(np.abs(r1[0] - (np.diff(z) - gain * dW))) <= 1e-14
    r2 = conditional_moment_flow_residual(states[:, :, None], dW[None], SZ, model, u, 1e-3, 2)
    rhs2 = gain ** 2 * 1e-3 + 2.0 * z[:-1] * gain * dW
    assert np.max(np.abs(r2[0] - (np.diff(z ** 2) - rhs2))) <= 1e-14


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
        nxt = engine._normalised(*kernel.run(psi, dW[:, None]))
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
    states, _ = simulate_trajectory(model, u, PSI0, 1e-3, 500, 5)
    r = conditional_moment_flow_residual(states[:, :, None], wiener_path(5, 1e-3, 500)[None],
                                         SZ, model, u, 1e-3, 2)
    assert np.max(np.abs(r)) <= 1e-13


def test_variance_flow_against_third_moment_form():
    # for the collapse member the spread s = 1 - <sz>^2 obeys
    # ds = -4 lam s^2 dt + 2 sqrt(lam) m3 dW with m3 = -2 <sz> s; its
    # residual is minus the <sz>^2 flow residual (since <sz^2> = 1), so the
    # same linear contraction applies
    model = spin_model()
    u = UnravelingParams.nonlinear(1.0)
    states, means = simulate_trajectory(model, u, PSI0, 1e-3, 400, 23,
                                        tracked_observables={"sz": SZ})
    dW = wiener_path(23, 1e-3, 400)
    z = means["sz"]
    s = 1.0 - z ** 2
    m3 = -2.0 * z * s
    rhs = -4.0 * s[:-1] ** 2 * 1e-3 + 2.0 * m3[:-1] * dW
    res_spread = np.diff(s) - rhs
    res_engine = conditional_moment_flow_residual(states[:, :, None], dW[None], SZ, model, u,
                                                  1e-3, 2)[0]
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
        psi = engine._normalised(
            *_EulerKernel(model, u, dt).run(np.tile(PSI0[:, None], (1, n_traj)), dWs.T))
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
        kernel = _EulerKernel(model, u, dt)
        raw = kernel.update(psi, dW, kernel.norms_and_mean(psi)[2])
        d = np.sum(raw.real ** 2 + raw.imag ** 2, axis=0) - 1.0
        return np.sqrt(np.mean(d ** 2)), np.mean(d)

    rms1, mean1 = defects(1e-2, 1)
    rms2, mean2 = defects(5e-3, 1)
    assert 1.7 <= rms1 / rms2 <= 2.4
    assert 2.8 <= mean1 / mean2 <= 5.5
