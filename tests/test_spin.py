import numpy as np
import pytest

from unravelings.engine import (UnravelingParams, _EulerKernel, _ExponentialKernel,
                                conditional_moment_flow_residual)
from unravelings.noise import wiener_path
from unravelings.spin import (SIGMA_Z, CollapseReport, SpinParams, _sigma_z_paths,
                              collapse_bound, collapse_statistics,
                              exponential_reconstruction, nonlinear_ensemble,
                              sigma_z_mean, sigma_z_spread, spin_linear_solution,
                              spin_model, spin_nonlinear_trajectory,
                              supermartingale_check)

PSI0 = np.array([0.5, np.sqrt(3.0) / 2.0], dtype=complex)
SP = SpinParams(nu=1.0, lam=1.0)


def test_linear_solution_is_unitary_and_preserves_spread():
    for t, w in ((0.0, 0.0), (0.7, 1.3), (12.0, -4.2), (100.0, 0.01)):
        psi = spin_linear_solution(t, w, PSI0, SP)
        assert abs(np.vdot(psi, psi).real - 1.0) <= 1e-14
        # populations carry no phase: the spread never moves from 0.75
        assert sigma_z_spread(sigma_z_mean(psi)) == pytest.approx(0.75, abs=1e-14)


def test_linear_solution_eigenstate_gets_phase_only():
    up = np.array([1.0, 0.0], dtype=complex)
    psi = spin_linear_solution(2.0, 0.9, up, SP)
    assert abs(abs(psi[0]) - 1.0) <= 1e-14
    assert psi[1] == 0.0


def test_collapse_bound_values():
    # bound(0) = s0; at s0 = 0.75, lam = 1, t = 1 the bound is 0.75/4
    assert collapse_bound(0.75, 1.0, 0.0) == 0.75
    assert collapse_bound(0.75, 1.0, 1.0) == pytest.approx(0.1875, abs=1e-15)


@pytest.mark.parametrize("route", ["sse", "girsanov"])
def test_down_eigenstate_is_a_fixed_point(route):
    down = np.array([0.0, 1.0], dtype=complex)
    tr = spin_nonlinear_trajectory(down, SP, 1e-3, 200, seed=4, route=route)
    assert np.max(np.abs(tr.means["sz"] + 1.0)) <= 1e-12


def test_trajectorywise_spread_vanishes_at_long_times():
    # lam T = 10: the conditional spread of almost every realization is
    # below 1e-4 (assert fewer than 1% above)
    res = nonlinear_ensemble(PSI0, SP, 2e-3, 5000, 400, base_seed=31)
    final_spread = sigma_z_spread(res.means["sz"][-1])
    assert np.mean(final_spread > 1e-4) < 0.01


def test_routes_agree_pathwise():
    # the two constructions track each other on every matched noise path: both
    # route kernels run once, in lock step, on the rows wiener_path(900 + k)
    model, u = spin_model(SP), UnravelingParams.nonlinear(SP.lam)

    def rms(dt, n_paths=60):
        n = int(round(1.0 / dt))
        dW = np.array([wiener_path(900 + k, dt, n).increments for k in range(n_paths)])
        diff = (_sigma_z_paths(_EulerKernel(model, u, dt), PSI0, dW)
                - _sigma_z_paths(_ExponentialKernel(model, u, dt), PSI0, dW))
        return np.sqrt(np.mean(np.mean(diff ** 2, axis=1)))

    r1, r2 = rms(2e-3), rms(1e-3)
    assert r1 <= 0.1                      # absolute smallness at lam dt = 2e-3
    assert r2 < r1                        # and it contracts with dt


def test_route_difference_contracts_at_strong_order_half():
    # pathwise the pair differs by the Euler chain's strong error, which
    # contracts at the square-root rate per dt halving (a large lock-step
    # batch of the two route kernels keeps the statistics tight)
    model = spin_model(SP)
    u = UnravelingParams.nonlinear(SP.lam)

    def paired_rms(dt, n_pairs=20_000, T=1.0, seed=321):
        n = int(round(T / dt))
        euler, expo = _EulerKernel(model, u, dt), _ExponentialKernel(model, u, dt)
        rng = np.random.default_rng(seed)
        psi = np.tile(PSI0[:, None], (1, n_pairs))
        phi = psi.copy()
        acc, cnt = 0.0, 0
        for _ in range(n):
            dW = rng.standard_normal(n_pairs) * np.sqrt(dt)
            psi = euler.step(psi, dW)
            phi = expo.step(phi, dW)
            z_i = np.abs(psi[0]) ** 2 - np.abs(psi[1]) ** 2
            z_ii = np.abs(phi[0]) ** 2 - np.abs(phi[1]) ** 2
            acc += float(np.sum((z_i - z_ii) ** 2))
            cnt += n_pairs
        return np.sqrt(acc / cnt)

    r = [paired_rms(dt) for dt in (4e-3, 2e-3, 1e-3)]
    assert 1.25 <= r[0] / r[1] <= 1.6
    assert 1.25 <= r[1] / r[2] <= 1.6


def test_exponential_reconstruction_fidelity_deficit_halves():
    def worst_deficit(dt, n_paths=40):
        n = int(round(1.0 / dt))
        acc = []
        for k in range(n_paths):
            tr = spin_nonlinear_trajectory(PSI0, SP, dt, n, 500 + k, route="sse")
            fids = exponential_reconstruction(tr, SP)
            acc.append(np.mean((1.0 - fids) ** 2))
        return np.sqrt(np.mean(acc))

    d1, d2 = worst_deficit(2e-3), worst_deficit(1e-3)
    assert d1 <= 5e-3
    assert 1.6 <= d1 / d2 <= 2.5


def test_collapse_statistics_eigenstate_all_up():
    up = np.array([1.0, 0.0], dtype=complex)
    res = nonlinear_ensemble(up, SP, 2e-3, 500, 50, base_seed=2)
    rep = collapse_statistics(res)
    assert (rep.n_up, rep.n_down, rep.n_unresolved) == (50, 0, 0)
    assert rep.born_p_up == 1.0
    assert rep.fraction_up == 1.0


def test_collapse_statistics_born_fractions():
    res = nonlinear_ensemble(PSI0, SP, 2e-3, 5000, 2000, base_seed=77)
    rep = collapse_statistics(res, threshold=0.999)
    se = np.sqrt(0.25 * 0.75 / rep.n_total)
    assert abs(rep.fraction_up - 0.25) <= 3.0 * se
    assert rep.n_unresolved / rep.n_total < 0.01
    assert rep.n_total == 2000
    # symmetric state: fraction 1/2
    plus = np.array([1.0, 1.0], dtype=complex) / np.sqrt(2.0)
    rep2 = collapse_statistics(nonlinear_ensemble(plus, SP, 2e-3, 5000, 2000,
                                                  base_seed=78))
    assert abs(rep2.fraction_up - 0.5) <= 3.0 * np.sqrt(0.25 / 2000)


def test_born_gate_values_and_a_tally_that_fails_it():
    rep = CollapseReport(n_up=25, n_down=74, n_unresolved=1, threshold=0.999, born_p_up=0.25)
    assert rep.born_deviation == 0.0
    assert rep.binomial_se == pytest.approx(np.sqrt(0.25 * 0.75 / 100), rel=1e-15)
    # every trajectory up: 0.75 from the Born weight, 17 binomial SE
    bad = CollapseReport(n_up=100, n_down=0, n_unresolved=0, threshold=0.999, born_p_up=0.25)
    assert bad.born_deviation == 0.75 > 3.0 * bad.binomial_se


def test_supermartingale_check_bound_and_monotonicity():
    res = nonlinear_ensemble(PSI0, SP, 2e-3, 2500, 1500, base_seed=41,
                             snapshot_steps=np.arange(0, 2501, 125))
    sup = supermartingale_check(res, SP)
    assert sup.bound_ok and sup.monotone_ok
    assert sup.bound[0] == pytest.approx(0.75, abs=1e-14)
    assert sup.mean_spread[0] == pytest.approx(0.75, abs=1e-14)
    # eigenstate ensemble: spread identically zero, bound trivially satisfied
    up = np.array([1.0, 0.0], dtype=complex)
    res0 = nonlinear_ensemble(up, SP, 2e-3, 200, 30, base_seed=1)
    sup0 = supermartingale_check(res0, SP)
    assert sup0.bound_ok and np.max(sup0.mean_spread) <= 1e-12


def test_moment_flow_residual_rms_halves():
    model, u = spin_model(SP), UnravelingParams.nonlinear(SP.lam)

    def rms(dt):
        vals = []
        for k in range(25):
            tr = spin_nonlinear_trajectory(PSI0, SP, dt, int(round(1.0 / dt)),
                                           1300 + k, route="sse")
            r = conditional_moment_flow_residual(tr, SIGMA_Z, model, u, 1)
            vals.append(np.mean(r ** 2))
        return np.sqrt(np.mean(vals))

    assert 1.6 <= rms(2e-3) / rms(1e-3) <= 2.4


def test_second_moments_distinguish_the_members():
    # head to head from the same initial state: the phase-noise member keeps
    # the mean conditional spread at 0.75 (exactly, in the closed form;
    # within discretization noise, in the chain), the collapse member drives
    # it strictly under the bound 0.75/(1 + 3t)
    from unravelings.engine import simulate_ensemble
    model = spin_model(SP)
    snaps = [500, 1000]
    res_lin = simulate_ensemble(model, UnravelingParams.linear(SP.lam), PSI0,
                                1e-3, 1000, 600, base_seed=55, snapshot_steps=snaps,
                                tracked_observables={"sz": SIGMA_Z})
    res_col = simulate_ensemble(model, UnravelingParams.nonlinear(SP.lam), PSI0,
                                1e-3, 1000, 600, base_seed=56, snapshot_steps=snaps,
                                tracked_observables={"sz": SIGMA_Z})
    spread_lin = sigma_z_spread(res_lin.means["sz"]).mean(axis=1)
    spread_col = sigma_z_spread(res_col.means["sz"]).mean(axis=1)
    se_col = sigma_z_spread(res_col.means["sz"]).std(axis=1, ddof=1) / np.sqrt(600)
    assert np.max(np.abs(spread_lin - 0.75)) <= 0.01
    for i, t in enumerate((0.5, 1.0)):
        assert spread_col[i] <= collapse_bound(0.75, SP.lam, t) + 4.0 * se_col[i]
        assert spread_col[i] < spread_lin[i] - 0.3


def test_spin_model_shapes():
    m = spin_model(SpinParams(nu=2.0, lam=0.5, hbar=3.0))
    assert np.array_equal(m.H, 6.0 * np.diag([1.0, -1.0]))
    assert m.hbar == 3.0
    with pytest.raises(ValueError):
        SpinParams(lam=-1.0)
    with pytest.raises(ValueError):
        spin_nonlinear_trajectory(PSI0, SP, 1e-3, 10, 1, route="other")