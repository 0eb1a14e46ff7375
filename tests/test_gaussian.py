import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from unravelings.gaussian import (LINEAR, NONLINEAR, SPREAD_RTOL, GaussianState,
                                  MechanicalParams, QuadratureError, a_closed_form,
                                  centroid_ensemble, conditional_covariance_series,
                                  conditional_spread_x, covariance_from_width,
                                  gaussian_sde_step, initial_spread,
                                  initial_spread_deviation, mean_square_x,
                                  riccati_matrices, riccati_residual, simulate_width,
                                  spread_constants, spreads_ordered, SpreadConstants,
                                  variance_covariance_series, variance_x, width_at,
                                  width_linear_free)

P_NAT = MechanicalParams(mass=1.0, omega=0.0, lam=1.0, hbar=1.0)
P_FIG1 = MechanicalParams(mass=1e-15, omega=0.0, lam=1e23)
A0_FIG1 = 0.25e9 + 0.0j


def test_constants_free_natural_units():
    cons = spread_constants(P_NAT, 0.25 + 0j, NONLINEAR)
    assert cons.rate == pytest.approx(1.0 + 1.0j, abs=1e-15)
    assert cons.asymptote == pytest.approx(0.5 - 0.5j, abs=1e-15)
    # offset reproduces the initial width by construction
    assert a_closed_form(0.0, cons) == pytest.approx(0.25 + 0j, abs=1e-14)


def test_constants_harmonic_linear_member():
    p = MechanicalParams(mass=2.0, omega=3.0, lam=1.5, hbar=0.7)
    cons = spread_constants(p, 1.0 + 0.2j, LINEAR)
    assert cons.rate == pytest.approx(3.0j, abs=1e-14)
    assert cons.asymptote == pytest.approx(2.0 * 3.0 / (2.0 * 0.7), abs=1e-13)


def test_constants_trap_to_free_limit():
    cons_f = spread_constants(P_FIG1, A0_FIG1, NONLINEAR)
    omega = 1e-6 * np.sqrt(P_FIG1.hbar * P_FIG1.lam / P_FIG1.mass)
    p_h = MechanicalParams(mass=P_FIG1.mass, omega=omega, lam=P_FIG1.lam)
    cons_h = spread_constants(p_h, A0_FIG1, NONLINEAR)
    assert abs(cons_h.rate / cons_f.rate - 1.0) <= 1e-5
    assert abs(cons_h.asymptote / cons_f.asymptote - 1.0) <= 1e-5


def test_constants_singular_inputs():
    with pytest.raises(ValueError):
        spread_constants(P_NAT, -0.1 + 0j, NONLINEAR)
    with pytest.raises(ValueError, match="rational"):
        spread_constants(P_NAT, 0.25 + 0j, LINEAR)          # free phase-noise
    c = spread_constants(P_NAT, 0.25 + 0j, NONLINEAR).asymptote
    with pytest.raises(ValueError, match="singular"):
        spread_constants(P_NAT, c, NONLINEAR)               # a0 equals asymptote
    p = MechanicalParams(mass=1.0, omega=2.0, lam=0.0, hbar=1.0)
    c_lin = spread_constants(p, 0.5 + 0j, LINEAR).asymptote.real
    with pytest.raises(ValueError, match="branch cut"):
        spread_constants(p, 2.0 * c_lin + 0j, LINEAR)


def test_width_ode_residual_is_second_order():
    cons = spread_constants(P_NAT, 0.25 + 0j, NONLINEAR)

    def max_resid(h):
        ts = 0.3 + np.arange(300) * h
        a = a_closed_form(ts, cons)
        dadt = (a[2:] - a[:-2]) / (2.0 * h)
        rhs = 1.0 - 2j * a[1:-1] ** 2
        return np.max(np.abs(dadt - rhs))

    assert 3.5 <= max_resid(1e-3) / max_resid(5e-4) <= 4.5


def test_width_closed_form_asymptote():
    cons = spread_constants(P_NAT, 0.25 + 0j, NONLINEAR)
    a_inf = a_closed_form(50.0, cons)
    assert abs(a_inf - cons.asymptote) <= 1e-12


def test_width_pole_is_flagged():
    # rate i, offset i*(pi/2 - t*) hits cosh+cos = 0 at t*
    cons = SpreadConstants(rate=1j, asymptote=1.0 + 0j, offset=0.0 + 0.2j)
    with pytest.raises(ZeroDivisionError):
        a_closed_form(np.pi / 2.0 - 0.2, cons)


def test_width_linear_free_rational_form():
    # matches the explicit component formulas, including a0_im != 0
    p = MechanicalParams(mass=2.0, omega=0.0, lam=0.5, hbar=0.3)
    a0 = 0.8 - 0.4j
    for t in (0.0, 0.7, 3.0):
        w = width_linear_free(t, p, a0)
        den = (p.mass - 2 * p.hbar * t * a0.imag) ** 2 + (2 * p.hbar * t * a0.real) ** 2
        assert w.real == pytest.approx(p.mass ** 2 * a0.real / den, rel=1e-13)
        expected_im = (p.mass ** 2 * a0.imag
                       - 2.0 * p.mass * p.hbar * t * abs(a0) ** 2) / den
        assert w.imag == pytest.approx(expected_im, rel=1e-13)


def test_initial_spreads_fig1():
    assert conditional_spread_x(0.0, P_FIG1, A0_FIG1, NONLINEAR) == pytest.approx(
        1e-9, rel=1e-12)
    assert conditional_spread_x(0.0, P_FIG1, A0_FIG1, LINEAR) == 1e-9
    assert variance_x(0.0, P_FIG1, A0_FIG1) == 1e-9


def test_spread_gates_pass_on_fig1_and_fail_on_broken_series():
    t = np.linspace(0.0, 1e-3, 11)
    s_c = conditional_spread_x(t, P_FIG1, A0_FIG1, NONLINEAR)
    s_p = conditional_spread_x(t, P_FIG1, A0_FIG1, LINEAR)
    v = variance_x(t, P_FIG1, A0_FIG1)
    assert initial_spread(A0_FIG1) == 1e-9
    assert initial_spread_deviation(A0_FIG1, s_c, s_p, v) <= SPREAD_RTOL
    assert spreads_ordered(t, s_c, s_p, v)
    # one point out of order at t > 0 breaks the ordering, on either side
    s_bad, v_bad = s_c.copy(), v.copy()
    s_bad[5], v_bad[7] = s_p[5] * (1 + 1e-9), s_p[7] * (1 - 1e-9)
    assert not spreads_ordered(t, s_bad, s_p, v)
    assert not spreads_ordered(t, s_c, s_p, v_bad)
    # t = 0 is the initial gate's, not the ordering's
    s_bad = s_c.copy()
    s_bad[0] = 2e-9
    assert spreads_ordered(t, s_bad, s_p, v)
    assert initial_spread_deviation(A0_FIG1, s_bad, s_p, v) == 1.0


def test_phase_noise_spread_grows_quadratically():
    # a0 imag = 0: spread(t)/t^2 approaches hbar^2 a0 / m^2
    t1, t2 = 1e13, 2e13
    s1 = conditional_spread_x(t1, P_FIG1, A0_FIG1, LINEAR)
    s2 = conditional_spread_x(t2, P_FIG1, A0_FIG1, LINEAR)
    assert s2 / s1 == pytest.approx(4.0, rel=1e-3)


def test_variance_large_time_is_cubic():
    t = 1e5
    lead = P_FIG1.lam * P_FIG1.hbar ** 2 * t ** 3 / (3.0 * P_FIG1.mass ** 2)
    assert variance_x(t, P_FIG1, A0_FIG1) == pytest.approx(lead, rel=1e-6)


@pytest.mark.parametrize("member", [NONLINEAR, LINEAR])
@pytest.mark.parametrize("omega", [0.0, 0.7])
def test_mean_square_consistency_identity(member, omega):
    # E[<x>^2] + spread - ballistic^2 equals the member-independent variance
    p = MechanicalParams(mass=1.0, omega=omega, lam=0.8, hbar=1.0)
    a0, x0, k0 = 0.3 + 0.1j, 0.2, -0.4
    for t in (0.4, 2.0):
        msq = mean_square_x(t, p, a0, x0, k0, member)
        if omega == 0.0:
            ball = (x0 + p.hbar * k0 * t / p.mass) ** 2
        else:
            ball = (p.hbar * k0 * np.sin(omega * t) / (p.mass * omega)
                    + x0 * np.cos(omega * t)) ** 2
        total = msq + conditional_spread_x(t, p, a0, member) - ball
        assert total == pytest.approx(variance_x(t, p, a0), rel=1e-6)


def test_mean_square_linear_free_closed_form():
    t = 0.01
    val = mean_square_x(t, P_FIG1, A0_FIG1, 0.0, 0.0, LINEAR)
    ref = P_FIG1.lam * P_FIG1.hbar ** 2 * t ** 3 / (3.0 * P_FIG1.mass ** 2)
    assert val == pytest.approx(ref, rel=1e-8)
    assert mean_square_x(0.0, P_FIG1, A0_FIG1, 0.0, 0.0, LINEAR) == 0.0


def test_mean_square_resolves_the_width_boundary_layer():
    # SI parameters: the collapse-member width relaxes within ~2.5e-15 s,
    # twelve orders below t, yet the quadrature still recovers the variance
    t = 0.005
    msq = mean_square_x(t, P_FIG1, A0_FIG1, 0.0, 0.0, NONLINEAR)
    total = msq + conditional_spread_x(t, P_FIG1, A0_FIG1, NONLINEAR)
    assert total == pytest.approx(variance_x(t, P_FIG1, A0_FIG1), rel=1e-6)


def test_gaussian_sde_step_free_unitary_matches_rational_width():
    p = MechanicalParams(mass=1.0, omega=0.0, lam=0.0, hbar=1.0)
    g = GaussianState(width=0.25 + 0j, centroid=0.0, wavenumber=0.3)
    dt, n = 1e-4, 200
    for _ in range(n):
        g = gaussian_sde_step(g, p, LINEAR, 0.0, dt)
    ref = width_linear_free(n * dt, p, 0.25 + 0j)
    assert abs(g.width - ref) <= 1e-5 * abs(ref)
    assert g.centroid == pytest.approx(0.3 * n * dt, rel=1e-12)


def test_gaussian_sde_step_rejects_width_loss():
    g = GaussianState(width=0.25 - 1e3j, centroid=0.0, wavenumber=0.0)
    with pytest.raises(FloatingPointError):
        gaussian_sde_step(g, P_NAT, LINEAR, 0.0, 10.0)
    with pytest.raises(ValueError):
        GaussianState(width=-1.0 + 0j, centroid=0.0, wavenumber=0.0)


def test_simulate_width_tracks_closed_form():
    cons = spread_constants(P_NAT, 0.25 + 0j, NONLINEAR)
    n = 100_000
    dt = 10.0 / n
    path = simulate_width(P_NAT, 0.25 + 0j, NONLINEAR, dt, n)
    ref = a_closed_form(np.arange(n + 1) * dt, cons)
    assert np.max(np.abs(path - ref) / np.abs(ref)) <= 1e-3
    with pytest.raises(ValueError, match="stability"):
        simulate_width(P_NAT, 0.25 + 0j, NONLINEAR, 1.0, 10)


def test_centroid_ensemble_matches_quadrature():
    xs, _ = centroid_ensemble(P_NAT, 0.25 + 0j, LINEAR, 0.0, 0.0, 1e-3, 1000,
                              2000, base_seed=77)
    mc = np.mean(xs ** 2)
    se = np.std(xs ** 2, ddof=1) / np.sqrt(2000)
    ref = mean_square_x(1.0, P_NAT, 0.25 + 0j, 0.0, 0.0, LINEAR)
    assert abs(mc - ref) <= 4.0 * se
    # snapshot mode shape
    snaps, ks = centroid_ensemble(P_NAT, 0.25 + 0j, NONLINEAR, 0.0, 0.0, 1e-3, 100,
                                  50, base_seed=3, snapshot_steps=[0, 50, 100])
    assert snaps.shape == ks.shape == (3, 50)
    assert np.array_equal(snaps[0], np.zeros(50))


def test_riccati_matrices_entries():
    p = MechanicalParams(mass=2.0, omega=3.0, lam=4.0, hbar=0.5)
    m = riccati_matrices(p, "nonlinear")
    assert np.array_equal(m.drift, [[0.0, 0.5], [-18.0, 0.0]])
    assert m.diffusion[0, 1] == 4.0 and np.count_nonzero(m.diffusion) == 1
    assert m.backaction[1, 1] == 1.0 and np.count_nonzero(m.backaction) == 1
    lin = riccati_matrices(p, "linear")
    assert not lin.diffusion.any() and not lin.backaction.any()
    var = riccati_matrices(p, "variance")
    assert not var.diffusion.any() and var.backaction[1, 1] == 1.0
    with pytest.raises(ValueError):
        riccati_matrices(p, "other")


def test_pure_state_covariance_has_minimal_determinant():
    w = np.array([0.25 + 0j, 0.3 - 0.2j, 2.0 + 1.5j])
    cov = covariance_from_width(w, hbar=1.0)
    dets = np.linalg.det(cov)
    assert np.max(np.abs(dets - 0.25)) <= 1e-12


@pytest.mark.parametrize("which,member", [("nonlinear", NONLINEAR),
                                          ("linear", LINEAR),
                                          ("variance", None)])
def test_riccati_residual_quarters_harmonic(which, member):
    p = MechanicalParams(mass=1.0, omega=0.5, lam=1.0, hbar=1.0)
    a0 = 0.3 + 0.1j
    maxima = []
    for n in (200, 400):
        ts = np.linspace(0.0, 4.0, n + 1)
        if member is None:
            ser = variance_covariance_series(ts, p, a0)
        else:
            ser = conditional_covariance_series(ts, p, a0, member)
        res = riccati_residual(ser, riccati_matrices(p, which), ts[1] - ts[0])
        maxima.append(np.max(res))
    assert 3.3 <= maxima[0] / maxima[1] <= 4.5


def test_riccati_residual_guards():
    p = P_NAT
    with pytest.raises(ValueError):
        riccati_residual(np.zeros((2, 2, 2)), riccati_matrices(p, "variance"), 0.1)
    with pytest.raises(ValueError):
        riccati_residual(np.zeros((5, 3, 3)), riccati_matrices(p, "variance"), 0.1)


def test_variance_covariance_free_entries():
    ts = np.array([0.0, 1.0, 2.0])
    p = MechanicalParams(mass=2.0, omega=0.0, lam=0.5, hbar=1.0)
    a0 = 0.3 + 0.0j
    ser = variance_covariance_series(ts, p, a0)
    base = conditional_covariance_series(ts, p, a0, LINEAR)
    extra = ser - base
    for i, t in enumerate(ts):
        assert extra[i, 0, 0] == pytest.approx(0.5 * t ** 3 / (3 * 4), rel=1e-12, abs=1e-15)
        assert extra[i, 0, 1] == pytest.approx(0.5 * t ** 2 / (2 * 2), rel=1e-12, abs=1e-15)
        assert extra[i, 1, 1] == pytest.approx(0.5 * t, rel=1e-12, abs=1e-15)


def test_quadrature_error_is_raised_on_hopeless_integrand():
    from unravelings.gaussian import _adaptive_simpson
    rng = np.random.default_rng(0)
    with pytest.raises(QuadratureError):
        _adaptive_simpson(lambda s: rng.standard_normal(), 0.0, 1.0, 1e-12,
                          max_depth=6)


@settings(max_examples=40, deadline=None)
@given(st.floats(0.05, 5.0), st.floats(-2.0, 2.0), st.floats(0.05, 3.0))
def test_width_stays_normalizable_under_closed_form(a_re, a_im, t):
    a0 = complex(a_re, a_im)
    w = width_at(t, P_NAT, a0, NONLINEAR)
    assert w.real > 0.0
    wl = width_at(t, P_NAT, a0, LINEAR)
    assert wl.real > 0.0