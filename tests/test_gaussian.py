import math
import time
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from unravelings import engine, procs
from unravelings.config import preset
from unravelings.gaussian import (SPREAD_RTOL, MechanicalParams, _centroid_step,
                                  _tanh_stable, centroid_ensemble,
                                  check_width_stability,
                                  conditional_covariance_series,
                                  conditional_spread_x,
                                  gaussian_sde_step, initial_spread,
                                  initial_spread_deviation, mean_square_x,
                                  riccati_matrices, riccati_residual, simulate_width,
                                  spread_constants, spreads_at_most,
                                  variance_covariance_series, variance_x, width_at)
from unravelings.noise import derive_seed, wiener_path

import quadrature
from test_engine import helper_blocks

P_NAT = MechanicalParams(mass=1.0, omega=0.0, lam=1.0, hbar=1.0)
P_FIG1 = MechanicalParams(mass=1e-15, omega=0.0, lam=1e23)
A0_FIG1 = 0.25e9 + 0.0j


def test_constants_free_natural_units():
    cons = spread_constants(P_NAT, 1.0)
    assert cons.rate == pytest.approx(1.0 + 1.0j, abs=1e-15)
    assert cons.asymptote == pytest.approx(0.5 - 0.5j, abs=1e-15)
    # offset reproduces the initial width by construction
    assert width_at(0.0, P_NAT, 0.25 + 0j, 1.0) == pytest.approx(0.25 + 0j, abs=1e-14)


def test_constants_harmonic_linear_member():
    p = MechanicalParams(mass=2.0, omega=3.0, lam=1.5, hbar=0.7)
    cons = spread_constants(p, -1j)
    assert cons.rate == pytest.approx(3.0j, abs=1e-14)
    assert cons.asymptote == pytest.approx(2.0 * 3.0 / (2.0 * 0.7), abs=1e-13)


def test_constants_trap_to_free_limit():
    cons_f = spread_constants(P_FIG1, 1.0)
    omega = 1e-6 * np.sqrt(P_FIG1.hbar * P_FIG1.lam / P_FIG1.mass)
    p_h = MechanicalParams(mass=P_FIG1.mass, omega=omega, lam=P_FIG1.lam)
    cons_h = spread_constants(p_h, 1.0)
    assert abs(cons_h.rate / cons_f.rate - 1.0) <= 1e-5
    assert abs(cons_h.asymptote / cons_f.asymptote - 1.0) <= 1e-5


def test_constants_singular_inputs():
    with pytest.raises(ValueError, match="rational"):
        spread_constants(P_NAT, -1j)                  # free phase-noise
    # a0 at the asymptote has an infinite offset: the width stays put
    c = spread_constants(P_NAT, 1.0).asymptote
    assert np.array_equal(width_at(np.linspace(0.0, 5.0, 11), P_NAT, c, 1.0), np.full(11, c))


P_TRAP = MechanicalParams(mass=1.0, omega=0.5, lam=1.0, hbar=1.0)


@pytest.mark.parametrize("a0", [complex(0.25, math.nan), complex(math.inf, 0.0),
                                complex(math.nan, 0.0), complex(0.25, math.inf),
                                complex(0.0, 0.1), complex(-0.1, 0.0)],
                         ids=["im-nan", "re-inf", "re-nan", "im-inf", "re-zero", "re-negative"])
@pytest.mark.parametrize("call", [
    lambda a0: width_at(1.0, P_NAT, a0, 1.0),
    lambda a0: width_at(1.0, P_NAT, a0, -1j),                 # the rational width
    lambda a0: conditional_spread_x(1.0, P_NAT, a0, 1.0),
    lambda a0: variance_x(1.0, P_NAT, a0),
    lambda a0: variance_x(1.0, P_TRAP, a0),
    lambda a0: initial_spread(a0),
    lambda a0: mean_square_x(1.0, P_NAT, a0, 0.0, 0.0, 1.0),
    lambda a0: check_width_stability(P_NAT, a0, 1.0, 1e-3),
    lambda a0: check_width_stability(P_NAT, a0, -1j, 1e-3),
    lambda a0: gaussian_sde_step((a0, 0.0, 0.0), P_NAT, 1.0, 0.0, 1e-3),
], ids=["width_at", "width_at-rational", "conditional_spread_x", "variance_x-free",
        "variance_x-trapped", "initial_spread", "mean_square_x", "check_width_stability",
        "check_width_stability-rational", "gaussian_sde_step"])
def test_closed_forms_reject_a_non_finite_or_non_positive_width(call, a0):
    # a nan width flowed on as a nan spread, and Re a0 = inf as a finite, wrong one
    with pytest.raises(ValueError, match="width must have a finite, positive real part"):
        call(a0)


def test_width_ode_residual_is_second_order():
    def max_resid(h):
        ts = 0.3 + np.arange(300) * h
        a = width_at(ts, P_NAT, 0.25 + 0j, 1.0)
        dadt = (a[2:] - a[:-2]) / (2.0 * h)
        rhs = 1.0 - 2j * a[1:-1] ** 2
        return np.max(np.abs(dadt - rhs))

    assert 3.5 <= max_resid(1e-3) / max_resid(5e-4) <= 4.5


def test_width_closed_form_asymptote():
    cons = spread_constants(P_NAT, 1.0)
    a_inf = width_at(50.0, P_NAT, 0.25 + 0j, 1.0)
    assert abs(a_inf - cons.asymptote) <= 1e-12


def test_width_pole_is_flagged():
    # rate i, offset 0.2 i: the tanh argument reaches the pole i pi/2, where cosh+cos = 0,
    # at t* = pi/2 - 0.2
    with pytest.raises(ZeroDivisionError):
        _tanh_stable(1j * (np.pi / 2.0 - 0.2) + 0.2j)


def test_free_phase_noise_width_is_rational():
    # matches the explicit component formulas, including a0_im != 0
    p = MechanicalParams(mass=2.0, omega=0.0, lam=0.5, hbar=0.3)
    a0 = 0.8 - 0.4j
    for t in (0.0, 0.7, 3.0):
        w = width_at(t, p, a0, -1j)
        den = (p.mass - 2 * p.hbar * t * a0.imag) ** 2 + (2 * p.hbar * t * a0.real) ** 2
        assert w.real == pytest.approx(p.mass ** 2 * a0.real / den, rel=1e-13, abs=0.0)
        expected_im = (p.mass ** 2 * a0.imag
                       - 2.0 * p.mass * p.hbar * t * abs(a0) ** 2) / den
        assert w.imag == pytest.approx(expected_im, rel=1e-13, abs=0.0)


def test_initial_spreads_fig1():
    assert conditional_spread_x(0.0, P_FIG1, A0_FIG1, 1.0) == pytest.approx(
        1e-9, rel=1e-12, abs=0.0)
    assert conditional_spread_x(0.0, P_FIG1, A0_FIG1, -1j) == 1e-9
    assert variance_x(0.0, P_FIG1, A0_FIG1) == 1e-9


def test_spread_gates_pass_on_fig1_and_fail_on_broken_series():
    t = np.linspace(0.0, 1e-3, 11)
    s_c = conditional_spread_x(t, P_FIG1, A0_FIG1, 1.0)
    s_p = conditional_spread_x(t, P_FIG1, A0_FIG1, -1j)
    v = variance_x(t, P_FIG1, A0_FIG1)
    assert initial_spread(A0_FIG1) == 1e-9
    assert initial_spread_deviation(A0_FIG1, s_c, s_p, v) <= SPREAD_RTOL
    assert spreads_at_most(t, s_p, s_c) and spreads_at_most(t, v, s_c, s_p)
    # one point above its bound at t > 0 fails the gate, whichever spread it is in
    s_bad, v_bad = s_c.copy(), v.copy()
    s_bad[5], v_bad[7] = s_p[5] * (1 + 1e-9), s_p[7] * (1 - 1e-9)
    assert not spreads_at_most(t, s_p, s_bad)
    assert not spreads_at_most(t, v_bad, s_c, s_p)
    # the slack is SPREAD_RTOL of the bound
    assert spreads_at_most(t, v, v * (1 + SPREAD_RTOL))
    assert not spreads_at_most(t, v, v * (1 + 2 * SPREAD_RTOL))
    # t = 0 is the initial gate's, not the ordering's
    s_bad = s_c.copy()
    s_bad[0] = 2e-9
    assert spreads_at_most(t, s_p, s_bad) and spreads_at_most(t, v, s_bad, s_p)
    assert initial_spread_deviation(A0_FIG1, s_bad, s_p, v) == 1.0


def test_phase_noise_spread_grows_quadratically():
    # a0 imag = 0: spread(t)/t^2 approaches hbar^2 a0 / m^2
    t1, t2 = 1e13, 2e13
    s1 = conditional_spread_x(t1, P_FIG1, A0_FIG1, -1j)
    s2 = conditional_spread_x(t2, P_FIG1, A0_FIG1, -1j)
    assert s2 / s1 == pytest.approx(4.0, rel=1e-3)


def test_variance_large_time_is_cubic():
    t = 1e5
    lead = P_FIG1.lam * P_FIG1.hbar ** 2 * t ** 3 / (3.0 * P_FIG1.mass ** 2)
    assert variance_x(t, P_FIG1, A0_FIG1) == pytest.approx(lead, rel=1e-6)


@pytest.mark.parametrize("xi", [1.0, -1j], ids=["nonlinear", "linear"])
@pytest.mark.parametrize("omega", [0.0, 0.7])
def test_mean_square_consistency_identity(xi, omega):
    # E[<x>^2] + spread - ballistic^2 equals the member-independent variance
    p = MechanicalParams(mass=1.0, omega=omega, lam=0.8, hbar=1.0)
    a0, x0, k0 = 0.3 + 0.1j, 0.2, -0.4
    for t in (0.4, 2.0):
        msq = mean_square_x(t, p, a0, x0, k0, xi)
        if omega == 0.0:
            ball = (x0 + p.hbar * k0 * t / p.mass) ** 2
        else:
            ball = (p.hbar * k0 * np.sin(omega * t) / (p.mass * omega)
                    + x0 * np.cos(omega * t)) ** 2
        total = msq + conditional_spread_x(t, p, a0, xi) - ball
        assert total == pytest.approx(variance_x(t, p, a0), rel=1e-6)


@pytest.mark.parametrize("theta", [-np.pi / 4, 0.9, -1.3])
@pytest.mark.parametrize("omega", [0.0, 0.5])
def test_law_of_total_variance_for_interior_members(theta, omega):
    # Var(<x>) = var - spread for every member: the quadrature of the centroid's
    # response (the oracle) against the closed form (mean_square_x), with no
    # Monte Carlo; both read the width constant c = lam xi xi_r
    xi = np.exp(1j * theta)
    p = MechanicalParams(mass=1.0, omega=omega, lam=0.8, hbar=1.0)
    a0, x0, k0 = 0.3 + 0.1j, 0.2, -0.4
    for t in (0.4, 2.0, 5.0):
        if omega == 0.0:
            ball = x0 + p.hbar * k0 * t / p.mass
        else:
            ball = p.hbar * k0 * np.sin(omega * t) / (p.mass * omega) + x0 * np.cos(omega * t)
        centroid_var = quadrature.mean_square_x(t, p, a0, x0, k0, xi) - ball ** 2
        expected = mean_square_x(t, p, a0, x0, k0, xi) - ball ** 2
        assert centroid_var == pytest.approx(expected, rel=10 * quadrature.QUADRATURE_REL)


@pytest.mark.parametrize("xi", [1.0, -1j, np.exp(-1j * np.pi / 4), np.exp(0.9j)],
                         ids=["nonlinear", "linear", "interior-lower", "interior-upper"])
@pytest.mark.parametrize("p, a0, ts", [
    (P_FIG1, A0_FIG1, np.linspace(0.0025, 0.05, 20)),
    (MechanicalParams(mass=1.0, omega=2.0, lam=1.0, hbar=1.0), 0.25 - 0.2j,
     np.array([0.3, 1.0, 3.0]))], ids=["free-fig1", "trapped"])
def test_mean_square_matches_the_quadrature_oracle_at_1e_12(p, a0, ts, xi):
    # the closed form against the oracle run at rel_tol = 1e-12, within 2.5e-13
    # measured; at fig1's phase-noise member, ballistic^2 + variance_x - spread
    # misses by 3.5e-4, as variance_x (1e-9) cancels down to E[<x>^2] (6e-24)
    closed = mean_square_x(ts, p, a0, 0.0, 0.0, xi)
    oracle = quadrature.mean_square_x(ts, p, a0, 0.0, 0.0, xi, rel_tol=1e-12)
    assert np.max(np.abs(closed / oracle - 1.0)) <= 1e-11


def _fock_oscillator(levels, lam):
    """m = hbar = omega = 1 in a truncated Fock basis: H = n + 1/2, L = x tridiagonal."""
    n = np.arange(levels)
    lower = np.diag(np.sqrt(n[1:]), 1).astype(complex)
    x = (lower + lower.conj().T) / np.sqrt(2.0)
    return engine.ModelSpec(H=np.diag(n + 0.5).astype(complex), L=x, dim=levels), x


def _gaussian_in_fock(a0, levels):
    """Fock amplitudes of exp(-a0 x^2), normalized.

    (d/dx + 2 a0 x) psi = 0 gives c_{n+1} = r sqrt(n / (n + 1)) c_{n-1}
    with r = (1 - 2 a0) / (1 + 2 a0).
    """
    r = (1.0 - 2.0 * a0) / (1.0 + 2.0 * a0)
    c = np.zeros(levels, dtype=complex)
    c[0] = 1.0
    for n in range(1, levels - 1):
        c[n + 1] = r * np.sqrt(n / (n + 1.0)) * c[n - 1]
    return c / np.linalg.norm(c)


@pytest.mark.parametrize("theta", [-np.pi / 4.0, -np.pi / 3.0, np.pi / 6.0])
def test_fock_ensemble_spread_follows_the_width_ode(theta):
    # the harmonic model through the dense kernel at 16 levels (20 levels move
    # the spread by under 2e-7 relative): the mean conditional spread of x is
    # the closed-form 1 / (4 Re a(t)), within 3.4e-3 measured; c = lam xi_r^2
    # misses it by 2-28 %
    lam, a0, dt, n_steps = 0.5, 0.3 + 0.1j, 5e-4, 2000
    model, x = _fock_oscillator(16, lam)
    xi = np.exp(1j * theta)
    res = engine.simulate_ensemble(model, engine.UnravelingParams(xi.real, xi.imag, lam),
                                   _gaussian_in_fock(a0, 16), dt, n_steps, 40, base_seed=3,
                                   snapshot_steps=[500, 1000, 2000],
                                   tracked_observables={"x": x, "x2": x @ x})
    spread = np.mean(res.means["x2"] - res.means["x"] ** 2, axis=1)
    p = MechanicalParams(mass=1.0, omega=1.0, lam=lam, hbar=1.0)
    assert np.max(np.abs(spread / conditional_spread_x(res.times, p, a0, xi) - 1.0)) <= 1e-2


def test_mean_square_linear_free_closed_form():
    t = 0.01
    val = mean_square_x(t, P_FIG1, A0_FIG1, 0.0, 0.0, -1j)
    ref = P_FIG1.lam * P_FIG1.hbar ** 2 * t ** 3 / (3.0 * P_FIG1.mass ** 2)
    assert val == pytest.approx(ref, rel=1e-8, abs=0.0)
    assert mean_square_x(0.0, P_FIG1, A0_FIG1, 0.0, 0.0, -1j) == 0.0


def test_oracle_resolves_the_width_boundary_layer():
    # SI parameters: the collapse-member width relaxes within ~2.5e-15 s,
    # twelve orders below t, yet the quadrature still recovers the variance
    t = 0.005
    msq = quadrature.mean_square_x(t, P_FIG1, A0_FIG1, 0.0, 0.0, 1.0)
    total = msq + conditional_spread_x(t, P_FIG1, A0_FIG1, 1.0)
    assert total == pytest.approx(variance_x(t, P_FIG1, A0_FIG1), rel=1e-6, abs=0.0)


def test_gaussian_sde_step_free_unitary_matches_rational_width():
    p = MechanicalParams(mass=1.0, omega=0.0, lam=0.0, hbar=1.0)
    g = (0.25 + 0j, 0.0, 0.3)           # (width, centroid, wavenumber)
    dt, n = 1e-4, 200
    for _ in range(n):
        g = gaussian_sde_step(g, p, -1j, 0.0, dt)
    width, centroid, _ = g
    ref = width_at(n * dt, p, 0.25 + 0j, -1j)
    assert abs(width - ref) <= 1e-5 * abs(ref)
    assert centroid == pytest.approx(0.3 * n * dt, rel=1e-12, abs=0.0)


def test_gaussian_sde_step_rejects_width_loss():
    with pytest.raises(FloatingPointError):
        gaussian_sde_step((0.25 - 1e3j, 0.0, 0.0), P_NAT, -1j, 0.0, 10.0)
    with pytest.raises(ValueError):
        gaussian_sde_step((-1.0 + 0j, 0.0, 0.0), P_NAT, -1j, 0.0, 1e-3)


def test_simulate_width_tracks_closed_form():
    n = 100_000
    dt = 10.0 / n
    path = simulate_width(P_NAT, 0.25 + 0j, 1.0, dt, n)
    ref = width_at(np.arange(n + 1) * dt, P_NAT, 0.25 + 0j, 1.0)
    assert np.max(np.abs(path - ref) / np.abs(ref)) <= 1e-3
    with pytest.raises(ValueError, match="stability"):
        simulate_width(P_NAT, 0.25 + 0j, 1.0, 1.0, 10)


@pytest.mark.parametrize("block", [1, 7, 12, 60, 61, 1000])
def test_chained_width_paths_join_to_the_whole_path(block):
    # 60 steps: blocks of one step, of a size that leaves a short tail, of a
    # divisor of n, of n, of n + 1 and of more than that; each call starts from
    # the last value of the path before, which it repeats as its first
    p = MechanicalParams(mass=1.0, omega=0.5, lam=1.0, hbar=1.0)
    xi, a0, dt, n = np.exp(-0.3j), 0.3 + 0.1j, 5e-3, 60
    paths, a = [], a0
    for k0 in range(0, n, block):
        path = simulate_width(p, a, xi, dt, min(block, n - k0))
        assert path[0] == a
        paths.append(path if k0 == 0 else path[1:])
        a = path[-1]
    joined = np.concatenate(paths)
    assert joined.tobytes() == simulate_width(p, a0, xi, dt, n).tobytes()


def test_simulate_width_checks_dt_once_at_the_initial_width():
    # a converging free packet at xi = -i: the rational width's rate 2 hbar |a| / m
    # grows from 2 sqrt(2) toward 4, so dt fits the budget at a0 but not at a
    # later width of the path, which one call steps through all the same
    a0, n = 1.0 + 1.0j, 100
    dt = 0.9 * engine.STABILITY_BUDGET / (2.0 * abs(a0))
    path = simulate_width(P_NAT, a0, -1j, dt, n)
    assert path.size == n + 1 and np.all(np.isfinite(path))
    check_width_stability(P_NAT, path[0], -1j, dt)
    with pytest.raises(ValueError, match="stability"):
        for a in path[1:]:
            check_width_stability(P_NAT, a, -1j, dt)


def test_centroid_ensemble_matches_the_closed_form():
    xs, _ = centroid_ensemble(P_NAT, 0.25 + 0j, -1j, 0.0, 0.0, 1e-3, 1000,
                              2000, base_seed=77)
    assert xs.shape == (1, 2000)                # the final step alone by default
    mc = np.mean(xs ** 2)
    se = np.std(xs ** 2, ddof=1) / np.sqrt(2000)
    ref = mean_square_x(1.0, P_NAT, 0.25 + 0j, 0.0, 0.0, -1j)
    assert abs(mc - ref) <= 4.0 * se
    # snapshot mode shape
    snaps, ks = centroid_ensemble(P_NAT, 0.25 + 0j, 1.0, 0.0, 0.0, 1e-3, 100,
                                  50, base_seed=3, snapshot_steps=[0, 50, 100])
    assert snaps.shape == ks.shape == (3, 50)
    assert np.array_equal(snaps[0], np.zeros(50))


@pytest.mark.parametrize("xi", [1.0, -1j], ids=["nonlinear", "linear"])
def test_centroid_ensemble_chunks_and_blocks_follow_each_stream(monkeypatch, xi):
    # chunks of 4, 4 and 2 trajectories; noise blocks of 2 steps in the first two and
    # 5 in the last, so block ends fall on and between the snapshot steps
    monkeypatch.setattr(procs, "_ENSEMBLE_CHUNK", 4)
    monkeypatch.setattr(engine, "_NOISE_BUDGET", 10)
    p = MechanicalParams(mass=1.0, omega=0.5, lam=1.0, hbar=1.0)
    a0, dt, n, n_traj, base = 0.3 + 0.1j, 5e-3, 23, 10, 61
    snaps = [0, 1, 2, 7, 12, 23]
    xs, ks = centroid_ensemble(p, a0, xi, 0.2, -0.1, dt, n, n_traj, base,
                               snapshot_steps=snaps)
    widths = simulate_width(p, a0, xi, dt, n)
    ref_x, ref_k = np.empty((2, len(snaps), n_traj))
    for k in range(n_traj):
        dW = wiener_path(derive_seed(base, k), dt, n)
        x, kk = 0.2, -0.1
        for j in range(n + 1):
            if j in snaps:
                ref_x[snaps.index(j), k], ref_k[snaps.index(j), k] = x, kk
            if j < n:
                x, kk = _centroid_step(x, kk, widths[j], dW[j], p, complex(xi), dt)
    assert np.array_equal(xs, ref_x) and np.array_equal(ks, ref_k)
    final_x, final_k = centroid_ensemble(p, a0, xi, 0.2, -0.1, dt, n, n_traj, base)
    assert np.array_equal(final_x, ref_x[-1:]) and np.array_equal(final_k, ref_k[-1:])


def test_centroid_ensemble_forked_helper_gives_the_inline_bits(helper_blocks):
    # chunks of 4, 4 and 2 trajectories with 14, 14 and 7 noise blocks each,
    # drawn by a helper and then inline; the forked run integrates chunks 1
    # and 2 in a forked piece
    p = MechanicalParams(mass=1.0, omega=0.5, lam=1.0, hbar=1.0)

    def run():
        return centroid_ensemble(p, 0.3 + 0.1j, np.exp(-0.25j * np.pi), 0.2, -0.1, 5e-3, 40,
                                 10, 62, snapshot_steps=[0, 3, 7, 20, 40])

    xs, ks = run()
    helper_blocks.setattr(procs, "_FORK_HELPER", False)
    ref_x, ref_k = run()
    assert np.array_equal(xs, ref_x) and np.array_equal(ks, ref_k)


@pytest.mark.parametrize("n_steps, n_traj", [(-3, 4), (10, 0)])
def test_centroid_ensemble_rejects_negative_and_empty_sizes(monkeypatch, n_steps, n_traj):
    def never(*args):
        raise AssertionError("reached")

    monkeypatch.setattr(engine, "_noise_blocks", never)
    with pytest.raises(ValueError, match="n_steps must be >= 0|n_traj must be >= 1"):
        centroid_ensemble(P_NAT, 0.25 + 0j, -1j, 0.0, 0.0, 1e-3, n_steps, n_traj, base_seed=3)


def test_riccati_matrices_entries():
    p = MechanicalParams(mass=2.0, omega=3.0, lam=4.0, hbar=0.5)
    m = riccati_matrices(p, 1.0)
    assert np.array_equal(m.drift, [[0.0, 0.5], [-18.0, 0.0]])
    assert m.diffusion[0, 1] == 4.0 and np.count_nonzero(m.diffusion) == 1
    assert m.backaction[1, 1] == 1.0 and np.count_nonzero(m.backaction) == 1
    lin = riccati_matrices(p, -1j)
    assert np.array_equal(lin.drift, m.drift)
    assert not lin.diffusion.any() and not lin.backaction.any()
    var = riccati_matrices(p)
    assert np.array_equal(var.drift, m.drift)
    assert not var.diffusion.any() and var.backaction[1, 1] == 1.0
    # xi = 0.6 - 0.8i: spring 18 + 2 hbar lam xi_r xi_i, collapse at lam xi_r^2
    mid = riccati_matrices(p, 0.6 - 0.8j)
    assert mid.drift[1, 0] == pytest.approx(-18.0 + 1.92, rel=1e-15, abs=0.0)
    assert mid.diffusion[0, 1] == pytest.approx(2.4, rel=1e-15, abs=0.0)
    assert mid.backaction[1, 1] == pytest.approx(0.36, rel=1e-15, abs=0.0)
    for bad in (0.6 + 0.6j, -1.0, complex("nan")):
        with pytest.raises(ValueError, match="xi"):
            riccati_matrices(p, bad)


@pytest.mark.parametrize("xi", [1.0, -1j, np.exp(-0.3j)])
def test_pure_state_covariance_has_minimal_determinant(xi):
    ts = np.linspace(0.0, 3.0, 7)
    for a0 in (0.25 + 0j, 0.3 - 0.2j, 2.0 + 1.5j):
        dets = np.linalg.det(conditional_covariance_series(ts, P_NAT, a0, xi))
        assert np.max(np.abs(dets - 0.25)) <= 1e-12


@pytest.mark.parametrize("xi", [
    pytest.param(1.0, id="nonlinear-nonlinear"),
    pytest.param(-1j, id="linear-linear"),
    pytest.param(None, id="variance-None"),        # the density-matrix flow
    *[pytest.param(np.exp(1j * theta), id=f"interior-{theta}") for theta in (-0.785, 0.9, -1.3)]])
def test_riccati_residual_quarters_harmonic(xi):
    p = MechanicalParams(mass=1.0, omega=0.5, lam=1.0, hbar=1.0)
    a0 = 0.3 + 0.1j
    maxima = []
    for n in (200, 400):
        ts = np.linspace(0.0, 4.0, n + 1)
        if xi is None:
            ser = variance_covariance_series(ts, p, a0)
        else:
            ser = conditional_covariance_series(ts, p, a0, xi)
        res = riccati_residual(ser, riccati_matrices(p, xi), ts[1] - ts[0])
        maxima.append(np.max(res))
    assert 3.3 <= maxima[0] / maxima[1] <= 4.5


def test_riccati_residual_guards():
    p = P_NAT
    with pytest.raises(ValueError):
        riccati_residual(np.zeros((2, 2, 2)), riccati_matrices(p), 0.1)
    with pytest.raises(ValueError):
        riccati_residual(np.zeros((5, 3, 3)), riccati_matrices(p), 0.1)


def test_variance_covariance_free_entries():
    ts = np.array([0.0, 1.0, 2.0])
    p = MechanicalParams(mass=2.0, omega=0.0, lam=0.5, hbar=1.0)
    a0 = 0.3 + 0.0j
    ser = variance_covariance_series(ts, p, a0)
    base = conditional_covariance_series(ts, p, a0, -1j)
    extra = ser - base
    for i, t in enumerate(ts):
        assert extra[i, 0, 0] == pytest.approx(0.5 * t ** 3 / (3 * 4), rel=1e-12, abs=1e-15)
        assert extra[i, 0, 1] == pytest.approx(0.5 * t ** 2 / (2 * 2), rel=1e-12, abs=1e-15)
        assert extra[i, 1, 1] == pytest.approx(0.5 * t, rel=1e-12, abs=1e-15)


@pytest.mark.parametrize("omega", [0.0, 0.5, 2.0, 1e4])
def test_variance_starts_at_the_initial_spread_bit_for_bit(omega):
    # the flow is the identity at t = 0; a0 = 0.25 is the ground state at omega = 0.5,
    # where the phase-noise width's tanh-form offset is infinite
    p = MechanicalParams(mass=1.0, omega=omega, lam=0.8, hbar=1.0)
    for a0 in (0.25 + 0j, 0.3 + 0.1j, 0.25 - 0.2j, 1.0 + 2.0j):
        assert variance_x(0.0, p, a0) == initial_spread(a0)


@pytest.mark.parametrize("omega", [0.5, 2.0])
def test_trapped_ground_state_covariance_is_stationary_without_noise(omega):
    # a0 = m omega / (2 hbar) is the phase-noise width's tanh-form asymptote
    p = MechanicalParams(mass=1.0, omega=omega, lam=0.0, hbar=1.0)
    ts = np.linspace(0.0, 20.0 / omega, 201)
    ser = variance_covariance_series(ts, p, p.mass * omega / (2.0 * p.hbar))
    ground = np.diag([p.hbar / (2.0 * p.mass * omega), p.mass * omega * p.hbar / 2.0])
    assert np.max(np.abs(ser - ground)) <= 1e-15


@pytest.mark.parametrize("omega", [0.5, 0.7, 2.0])
def test_trapped_ground_state_phase_noise_spread_is_stationary(omega):
    # a0 = m omega / (2 hbar) is the phase-noise asymptote: an infinite offset, once
    # rejected as singular, and a width that stays put with or without noise
    p = MechanicalParams(mass=1.0, omega=omega, lam=1.0, hbar=1.0)
    a0 = p.mass * omega / (2.0 * p.hbar)
    spread = conditional_spread_x(np.linspace(0.0, 40.0 / omega, 401), p, a0, -1j)
    assert np.max(np.abs(spread * 4.0 * a0 - 1.0)) <= 1e-12


def test_width_above_the_real_asymptote_tracks_its_euler_path():
    # a real a0 at twice the phase-noise asymptote puts the offset on the arctanh
    # branch cut, once rejected; the Euler path meets the closed form to
    # 1.3e-5 relative at dt = 1e-5 (first order in dt)
    p = MechanicalParams(mass=1.0, omega=0.5, lam=1.0, hbar=1.0)
    a0, dt, n = 0.5 + 0j, 1e-5, 400_000
    assert a0 == 2.0 * spread_constants(p, -1j).asymptote
    path = simulate_width(p, a0, -1j, dt, n)
    ref = width_at(np.arange(n + 1) * dt, p, a0, -1j)
    assert np.max(np.abs(path - ref) / np.abs(ref)) <= 2e-5


def _grid(name):
    cfg = preset(name)
    return cfg.mechanical(), cfg.a0(), np.arange(cfg.n_steps + 1) * cfg.dt


@pytest.mark.parametrize("p, a0, ts", [
    *[pytest.param(*_grid(name), id=name) for name in ("fig1", "riccati_free", "riccati_harmonic")],
    *[pytest.param(MechanicalParams(mass=1.0, omega=omega, lam=0.8, hbar=1.0), a0,
                   np.linspace(0.0, 5.0, 51), id=f"omega-{omega}-a0-{a0}")
      for omega in (0.0, 0.5, 2.0) for a0 in (0.3 + 0.1j, 0.25 - 0.2j, 1.0 + 2.0j)]])
def test_covariance_flow_matches_the_width_route(p, a0, ts):
    # each entry within 1e-13 of sqrt(S_ii S_jj), the scale Cauchy-Schwarz gives it
    flow = variance_covariance_series(ts, p, a0)
    oracle = quadrature.variance_covariance_series(ts, p, a0)
    sd = np.sqrt(np.diagonal(oracle, axis1=-2, axis2=-1))
    assert np.max(np.abs(flow - oracle) / (sd[..., :, None] * sd[..., None, :])) <= 1e-13


P_TRAP_NOISE = MechanicalParams(mass=2.0, omega=3.0, lam=0.7, hbar=1.3)


@pytest.mark.parametrize("u", [1e-4, 5e-4, 0.999e-3])
def test_trapped_noise_term_follows_its_series_below_the_guard(u):
    # at xi = -i the two spreads of mean_square_x cancel, leaving the noise term
    # lam hbar^2 / m^2 (t^3 / 3)(1 - u^2 / 5 + 2 u^4 / 105 - ...) at u = omega t;
    # a series of 1 - 0.6 u^2 misses it by 4e-7 at u = 1e-3
    p = P_TRAP_NOISE
    t = u / p.omega
    series = p.lam * p.hbar ** 2 / p.mass ** 2 * t ** 3 / 3.0 * (1.0 - u ** 2 / 5.0
                                                                  + 2.0 * u ** 4 / 105.0)
    assert abs(mean_square_x(t, p, 0.3 + 0.1j, 0.0, 0.0, -1j) / series - 1.0) <= 1e-12


@pytest.mark.parametrize("omega", [0.5, 2.0, 1e4])
def test_trapped_noise_term_is_continuous_across_the_series_guard(omega):
    # adjacent times on either side of u = 1e-3; the direct form (t - S C) / (2 omega^2)
    # above the guard carries rounding of about 2 eps / u^2, up to 4e-10 measured
    p = replace(P_TRAP_NOISE, omega=omega)
    above = 1e-3 / omega
    while omega * above < 1e-3:
        above = np.nextafter(above, np.inf)
    below = np.nextafter(above, 0.0)
    assert omega * below < 1e-3
    lo, hi = mean_square_x(np.array([below, above]), p, 0.3 + 0.1j, 0.0, 0.0, -1j)
    assert abs(hi / lo - 1.0) <= 1e-9


def test_quadrature_error_is_raised_on_hopeless_integrand():
    rng = np.random.default_rng(0)
    with pytest.raises(quadrature.QuadratureError):
        quadrature._adaptive_simpson(lambda s, rows: rng.standard_normal(np.shape(s)),
                                     0.0, 1.0, 1e-12, max_depth=6)


def test_hopeless_integrand_hits_the_interval_cap_at_the_default_depth():
    # the cap on pending intervals, not the depth of 48 levels, stops the refinement
    rng = np.random.default_rng(0)
    t0 = time.perf_counter()
    with pytest.raises(quadrature.QuadratureError,
                       match=f"more than {quadrature._MAX_PENDING} intervals"):
        quadrature._adaptive_simpson(lambda s, rows: rng.standard_normal(np.shape(s)),
                                     [0.0, 0.0], [1.0, 2.0], 1e-12)
    assert time.perf_counter() - t0 < 1.0


@pytest.mark.parametrize("xi", [1.0, -1j, np.exp(-1j * np.pi / 4)],
                         ids=["nonlinear", "linear", "interior"])
@pytest.mark.parametrize("omega", [0.0, 0.5])
def test_mean_square_on_a_time_array_equals_one_call_per_time(xi, omega):
    p = MechanicalParams(mass=1.0, omega=omega, lam=0.8, hbar=1.0)
    a0, x0, k0 = 0.3 + 0.1j, 0.2, -0.4
    ts = np.concatenate([[0.0], np.linspace(0.25, 5.0, 20)])
    together = mean_square_x(ts, p, a0, x0, k0, xi)
    one_by_one = [mean_square_x(float(t), p, a0, x0, k0, xi) for t in ts]
    assert together.shape == ts.shape
    assert all(type(v) is float for v in one_by_one)
    assert np.array_equal(together, one_by_one)
    if omega == 0.0:
        ball = x0 + p.hbar * k0 * ts / p.mass
    else:
        ball = p.hbar * k0 * np.sin(omega * ts) / (p.mass * omega) + x0 * np.cos(omega * ts)
    assert together[0] == ball[0] ** 2 == x0 ** 2


@pytest.mark.parametrize("t", [-1e-3, np.nan, np.inf, [0.5, -0.5]])
def test_mean_square_rejects_negative_or_non_finite_times(t):
    with pytest.raises(ValueError, match="finite and >= 0"):
        mean_square_x(t, P_NAT, 0.3 + 0.1j, 0.0, 0.0, 1.0)


def _residual_point_by_point(ser, mats, dt):
    fd = (ser[2:] - ser[:-2]) / (2.0 * dt)
    return np.array([np.max(np.abs(fd[k] - mats.rhs(ser[k + 1]))) for k in range(len(fd))])


@pytest.mark.parametrize("omega", [0.0, 0.5])
@pytest.mark.parametrize("xi", [1.0, -1j, None, np.exp(-1j * np.pi / 4)],
                         ids=["nonlinear", "linear", "variance", "interior"])
def test_stacked_riccati_residual_equals_the_point_loop(omega, xi):
    p = MechanicalParams(mass=1.0, omega=omega, lam=1.0, hbar=1.0)
    ts = np.linspace(0.0, 4.0, 401)
    ser = (variance_covariance_series(ts, p, 0.3 + 0.1j) if xi is None
           else conditional_covariance_series(ts, p, 0.3 + 0.1j, xi))
    mats = riccati_matrices(p, xi)
    assert np.array_equal(riccati_residual(ser, mats, ts[1] - ts[0]),
                          _residual_point_by_point(ser, mats, ts[1] - ts[0]))


@pytest.mark.parametrize("xi", [1.0, -1j, None], ids=["nonlinear", "linear", "variance"])
def test_stacked_riccati_residual_equals_the_point_loop_on_the_si_grid(xi):
    # the fig1 preset: SI units, 1001 points of dt = 5e-5 s
    cfg = preset("fig1")
    p, a0 = cfg.mechanical(), cfg.a0()
    ts = np.arange(cfg.n_steps + 1) * cfg.dt
    ser = (variance_covariance_series(ts, p, a0) if xi is None
           else conditional_covariance_series(ts, p, a0, xi))
    mats = riccati_matrices(p, xi)
    assert np.array_equal(riccati_residual(ser, mats, cfg.dt),
                          _residual_point_by_point(ser, mats, cfg.dt))


@settings(max_examples=40, deadline=None)
@given(st.floats(0.05, 5.0), st.floats(-2.0, 2.0), st.floats(0.05, 3.0))
def test_width_stays_normalizable_under_closed_form(a_re, a_im, t):
    a0 = complex(a_re, a_im)
    w = width_at(t, P_NAT, a0, 1.0)
    assert w.real > 0.0
    wl = width_at(t, P_NAT, a0, -1j)
    assert wl.real > 0.0