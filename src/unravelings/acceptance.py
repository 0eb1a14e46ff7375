"""Acceptance criteria: one callable per criterion, shared by CLI and tests.

Each criterion pins its own parameters, seeds and tolerances; nothing is
calibrated at run time.  A gate that a scenario check applies too lives
next to the quantity it tests, in ``gaussian``, ``spin``, ``bell`` or
``engine``.  Heavy ensembles shared between criteria (the Born-rule
ensemble also feeds the collapse bound) are cached per process.
"""

import contextlib
import functools
import time
from dataclasses import dataclass, replace

import numpy as np

from .bell import bell_gates, bell_report
from .engine import (ModelSpec, UnravelingParams, _EulerKernel, _ExponentialKernel,
                     _column_means, _matched_blocks, _normalised, _state_stack, lindblad_rhs,
                     master_equation_oracle, mc_stderr, mc_tolerance, simulate_ensemble)
from .gaussian import (MEAN_SQUARE_MAX_SE, SPREAD_RTOL, MechanicalParams, centroid_ensemble,
                       conditional_covariance_series, conditional_spread_x,
                       initial_spread_deviation, mean_square_worst_se, mean_square_x,
                       riccati_matrices, riccati_residual, simulate_width, spread_constants,
                       spreads_at_most, variance_covariance_series, variance_x, width_at)
from .gcm import channel_apply, kraus_apply, povm_completeness, solve_gcm_params
from .linalg import projector
from .noise import measurement_record, wiener_path
from .procs import _forked_map
from .spin import (SIGMA_Z, SpinParams, collapse_statistics, sigma_z_mean, spin_model,
                   supermartingale_check)

_PSI0 = np.array([0.5, np.sqrt(3.0) / 2.0], dtype=complex)
_FIG1 = MechanicalParams(mass=1e-15, omega=0.0, lam=1e23)
_FIG1_A0 = 0.25e9 + 0.0j
_WIDTH_BLOCK = 1 << 16      # width-path values criterion 5 steps and compares at once
_SUBSTEP_ROWS = 200         # substeps of noise criterion 8 draws at once
_POVM_TOL = 1e-6            # completeness defect of a measurement-operator family


@dataclass(frozen=True)
class CriterionResult:
    title: str
    passed: bool
    tolerance: str
    observed: dict
    index: int = 0          # the registry key and the run time, set by run_criteria
    seconds: float = 0.0

    def line(self) -> str:
        return (f"[{'PASS' if self.passed else 'FAIL'}] criterion {self.index:2d} "
                f"({self.seconds:6.1f}s) {self.title}")


@functools.cache
def _born_ensemble():
    """N = 1e4 collapse-member spin trajectories, lam T = 10 (criteria 2 and 3)."""
    sp = SpinParams(nu=1.0, lam=1.0)
    n_steps = 5000                       # dt = 2e-3, T = 10
    snaps = np.arange(0, n_steps + 1, 250)
    return (simulate_ensemble(spin_model(sp), UnravelingParams.nonlinear(sp.lam), _PSI0, 2e-3,
                              n_steps, 10_000, base_seed=202, snapshot_steps=snaps,
                              tracked_observables={"sz": SIGMA_Z}), sp)


def criterion_1() -> CriterionResult:
    """Ensemble density matrices of both members track the master equation."""
    t0 = time.perf_counter()
    sp = SpinParams(nu=1.0, lam=1.0)
    model = spin_model(sp)
    dt, n_steps, n_traj = 1e-4, 20_000, 5000
    snaps = [5000, 10_000, 20_000]
    tol = mc_tolerance(n_traj)
    members = (("xi=1", UnravelingParams.nonlinear(sp.lam), 101),
               ("xi=-i", UnravelingParams.linear(sp.lam), 102))
    # one member after the other; each member's two chunks run at once
    results = {tag: simulate_ensemble(model, u, _PSI0, dt, n_steps, n_traj, seed,
                                      snapshot_steps=snaps) for tag, u, seed in members}
    oracle = master_equation_oracle(results["xi=1"], model, sp.lam)
    devs = {tag: float(np.max(np.abs(res.rhos - oracle))) for tag, res in results.items()}
    seconds = time.perf_counter() - t0
    worst = max(devs.values())
    passed = worst <= tol and seconds <= 60.0
    return CriterionResult("master-equation consistency of both members",
                           passed, f"elementwise <= 5/sqrt(N) = {tol:.4f}; runtime <= 60 s",
                           {"max_dev": devs, "runtime_s": seconds})


def criterion_2() -> CriterionResult:
    """Collapse branch frequencies follow the Born weights."""
    result, _ = _born_ensemble()
    rep = collapse_statistics(result)
    dev = rep.born_deviation
    unresolved = rep.n_unresolved / rep.n_total
    passed = dev <= 0.013 and unresolved < 0.01
    return CriterionResult("Born-rule branch statistics", passed,
                           "fraction up within 0.25 +/- 0.013; unresolved < 1%",
                           {"fraction_up": rep.fraction_up, "dev": dev,
                            "unresolved": unresolved, "n": rep.n_total})


def criterion_3() -> CriterionResult:
    """Mean conditional spread satisfies the collapse bound at every time."""
    result, sp = _born_ensemble()
    sup = supermartingale_check(result, sp)
    margin = float(np.min(sup.bound + 4.0 * sup.stderr - sup.mean_spread))
    return CriterionResult("supermartingale collapse bound", sup.bound_ok,
                           "mean spread <= 0.75/(1+3t) + 4 SE at every output time",
                           {"min_margin": margin, "monotone_ok": sup.monotone_ok})


def criterion_4() -> CriterionResult:
    """Free-particle closed forms: anchors, plateau, identity, ordering."""
    p, a0 = _FIG1, _FIG1_A0
    obs = {}
    grid = np.concatenate([[0.0], np.logspace(-15.0, 1.0, 1000)])
    # collapse (xi = 1), phase noise (xi = -i) and the density-matrix variance
    s_collapse, s_phase, var = (conditional_spread_x(grid, p, a0, 1.0),
                                conditional_spread_x(grid, p, a0, -1j), variance_x(grid, p, a0))
    dev0 = initial_spread_deviation(a0, s_collapse, s_phase, var)
    obs["initial_rel_dev"] = dev0
    ok_a = dev0 <= SPREAD_RTOL

    cons = spread_constants(p, 1.0)
    plateau = 1.0 / (4.0 * cons.asymptote.real)
    t_late = 100.0 / cons.rate.real
    dev_b = abs(conditional_spread_x(t_late, p, a0, 1.0) / plateau - 1.0)
    obs["plateau_m2"] = plateau
    obs["plateau_rel_dev"] = float(dev_b)
    ok_b = dev_b <= 1e-3

    ts = np.linspace(2.0, 10.0, 9)
    gap = variance_x(ts, p, a0) - conditional_spread_x(ts, p, a0, -1j)
    ref = p.lam * p.hbar ** 2 * ts ** 3 / (3.0 * p.mass ** 2)
    dev_c = float(np.max(np.abs(gap / ref - 1.0)))
    obs["identity_rel_err"] = dev_c
    ok_c = dev_c <= 1e-10

    ok_d = spreads_at_most(grid, s_phase, s_collapse) and spreads_at_most(grid, var, s_phase)
    obs["ordering_ok"] = ok_d

    return CriterionResult("free-particle closed-form spreads",
                           ok_a and ok_b and ok_c and ok_d,
                           "(a) 1e-12 anchors (b) plateau 1e-3 (c) identity 1e-10 "
                           "(d) ordering on a 1000-point grid", obs)


def _width_max_rel_err(p: MechanicalParams, a0: complex, dt: float, n: int) -> float:
    """Largest relative gap of the collapse member's Euler width path from its tanh form.

    The n steps are taken and compared _WIDTH_BLOCK at a time, each block
    from the last value of the one before, so only one block of the path is
    ever held; the running maximum keeps a NaN.
    """
    worst, a = 0.0, a0
    for k0 in range(0, n, _WIDTH_BLOCK):
        # xi = 1 has no rational width, so each block's budget check is the one at a0
        path = simulate_width(p, a, 1.0, dt, min(_WIDTH_BLOCK, n - k0))
        ref = width_at(np.arange(k0, k0 + path.size) * dt, p, a0, 1.0)
        worst = np.maximum(worst, np.max(np.abs(path - ref) / np.abs(ref)))
        a = path[-1]
    return float(worst)


def criterion_5() -> CriterionResult:
    """Width SDE matches its closed form; centroid MC matches the closed form of E[<x>^2].

    The million-step width path is checked here, block by block
    (:func:`_width_max_rel_err`), never held whole, while a forked child runs
    the centroid ensemble.
    """
    p, a0 = _FIG1, _FIG1_A0
    n = 1_000_000
    dt = 10.0 / spread_constants(p, 1.0).rate.real / n      # T = 10 / Re rate
    n2, n_traj = 1000, 2000
    dt2 = 1e-5
    snaps = [250, 500, 1000]
    rel, xs = _forked_map([lambda: _width_max_rel_err(p, a0, dt, n),
                           lambda: centroid_ensemble(p, a0, -1j, 0.0, 0.0, dt2, n2, n_traj, 505,
                                                     snapshot_steps=snaps)[0]])
    ok_width = rel <= 1e-4

    ts, x2 = np.array(snaps) * dt2, xs ** 2
    worst_se = mean_square_worst_se(ts, x2.mean(axis=1), mc_stderr(x2),
                                    mean_square_x(ts, p, a0, 0.0, 0.0, -1j))
    ok_mc = worst_se <= MEAN_SQUARE_MAX_SE

    return CriterionResult("parameter SDE vs closed forms", ok_width and ok_mc,
                           "width path rel err <= 1e-4 at dt = T/1e6; "
                           "centroid MC within 4 SE of the closed form",
                           {"width_max_rel_err": rel, "mc_worst_se": worst_se})


def criterion_6() -> CriterionResult:
    """Covariance-flow residuals quarter (>= 3.5x) under 2x grid refinement.

    One flow is exempt from the ratio test by construction: the free
    phase-noise covariance is polynomial of degree <= 2 in t, the central
    difference of which is exact, leaving a residual at the double-precision
    rounding floor with nothing left to decrease.  That flow instead must
    sit below the floor 100 eps max|S| / h.
    """
    obs = {}
    ok = True
    eps = np.finfo(float).eps
    for tag, omega in (("free", 0.0), ("harmonic", 0.5)):
        p = MechanicalParams(mass=1.0, omega=omega, lam=1.0, hbar=1.0)
        a0 = 0.3 + 0.1j
        for which, xi in (("nonlinear", 1.0), ("linear", -1j), ("variance", None)):
            maxima = []
            for n in (400, 800):
                ts = np.linspace(0.0, 4.0, n + 1)
                h_fine = ts[1] - ts[0]
                ser = (variance_covariance_series(ts, p, a0) if xi is None
                       else conditional_covariance_series(ts, p, a0, xi))
                scale = float(np.max(np.abs(ser)))
                res = riccati_residual(ser, riccati_matrices(p, xi), h_fine)
                maxima.append(float(np.max(res)))
            ratio = maxima[0] / maxima[1]
            floor = float(100.0 * eps * scale / h_fine)
            at_floor = max(maxima) <= floor
            obs[f"{tag}_{which}"] = {"ratio": ratio, "max_fine": maxima[1],
                                     "rounding_floor": floor}
            ok = ok and (ratio >= 3.5 or at_floor)
    return CriterionResult("matrix covariance-flow residual convergence", ok,
                           "max residual decreases >= 3.5x per 2x refinement "
                           "(or already sits at the rounding floor), three "
                           "flows, free and harmonic", obs)


def criterion_7() -> CriterionResult:
    """Trapped-particle formulas reach their free limits as omega -> 0."""
    p_free, a0 = _FIG1, _FIG1_A0
    cons_f = spread_constants(p_free, 1.0)
    omega = 1e-6 * np.sqrt(p_free.hbar * p_free.lam / p_free.mass)
    p_h = MechanicalParams(mass=p_free.mass, omega=omega, lam=p_free.lam,
                           hbar=p_free.hbar)
    cons_h = spread_constants(p_h, 1.0)
    dev_b = abs(cons_h.rate / cons_f.rate - 1.0)
    dev_c = abs(cons_h.asymptote / cons_f.asymptote - 1.0)
    ts = np.linspace(1e-4, 10.0 / cons_f.rate.real, 200)
    dev_s = float(np.max(np.abs(conditional_spread_x(ts, p_h, a0, 1.0)
                                / conditional_spread_x(ts, p_free, a0, 1.0) - 1.0)))
    worst = max(dev_b, dev_c, dev_s)
    return CriterionResult("trap-to-free continuity", worst <= 1e-5,
                           "rate, asymptote and spread agree to rel 1e-5 at "
                           "omega = 1e-6 sqrt(hbar lam / m)",
                           {"rate_rel": float(dev_b), "asymptote_rel": float(dev_c),
                            "spread_rel": dev_s})


def _rand_states(rng, n):
    v = rng.standard_normal((n, 2)) + 1j * rng.standard_normal((n, 2))
    return v / np.linalg.norm(v, axis=1)[:, None]


def _kraus_one_step(psis, dWs, dt, gp, model):
    """Normalized measurement update of the spin model times its commuting Hamiltonian phase."""
    dy = measurement_record(dWs, sigma_z_mean(psis), dt, gp.xi.real, gp.gamma)
    post = _normalised(*kraus_apply(psis.T, model.L, gp, dy, dt))
    return (np.exp((-1j * dt / model.hbar) * np.diag(model.H).real)[:, None] * post).T


def _phase_aligned_rms(a, b):
    ph = np.einsum("ni,ni->n", b.conj(), a)
    ph = ph / np.abs(ph)
    return float(np.sqrt(np.mean(np.linalg.norm(a - ph[:, None] * b, axis=1) ** 2)))


def criterion_8() -> CriterionResult:
    """Measurement-operator update is equivalent to the state equation.

    (i) One operator update over a window dt is compared with the state
    equation, Euler-stepped over that window on the same noise, at two
    substep counts.  At 16/dt substeps it matches at order dt^{3/2} (RMS
    ratio 2.83 +/- 0.5 under dt halving).  At one substep it differs at
    order dt (its ratio is reported for transparency: the one-step Euler
    map carries an O(dt) second-order noise remainder).
    (ii) Outcome-operator completeness within 1e-6.
    (iii) Outcome-averaged channel reproduces the measurement part of the
    master-equation step at O(dt^2).

    The substep noise of (i) is drawn, stepped and summed _SUBSTEP_ROWS
    substeps at a time, with the bits of one whole draw.
    """
    sp = SpinParams(nu=1.0, lam=1.0)
    model = spin_model(sp)
    u = UnravelingParams.nonlinear(sp.lam)
    gp = solve_gcm_params(1.0 + 0.0j, sp.lam)
    n_samples = 1000

    def rms_vs_euler(dt, nsub, seed):
        rng = np.random.default_rng(seed)
        psis = _rand_states(rng, n_samples)
        dts = dt / nsub
        kernel = _EulerKernel(model, u, dts)
        ref, window = psis.T, np.zeros(n_samples)
        for k0 in range(0, nsub, _SUBSTEP_ROWS):
            dWs = rng.standard_normal((min(_SUBSTEP_ROWS, nsub - k0), n_samples))
            dWs *= np.sqrt(dts)
            ref, n2 = kernel.run(ref, dWs.T, k0)
            # row by row, as a sum over axis 0 of the whole draw adds them
            window = functools.reduce(np.add, dWs, window)
        kr = _kraus_one_step(psis, window, dt, gp, model)
        return _phase_aligned_rms(kr, _normalised(ref, n2).T)

    # the order test's substep is dt^2 / 16; the reported ratio takes one step of dt
    r = [rms_vs_euler(dt, int(round(16.0 / dt)), 808) for dt in (4e-2, 2e-2, 1e-2)]
    ratios = [r[0] / r[1], r[1] / r[2]]
    ok_order = all(abs(x - 2.0 ** 1.5) <= 0.5 for x in ratios)
    rs = [rms_vs_euler(dt, 1, 809) for dt in (2e-3, 1e-3)]
    single_step_ratio = rs[0] / rs[1]

    worst_povm = 0.0
    for th in (0.0, 0.5, -0.9):
        g = solve_gcm_params(np.exp(1j * th), 1.0)
        defect = np.max(np.abs(povm_completeness(SIGMA_Z, g, 1e-3) - np.eye(2)))
        worst_povm = max(worst_povm, float(defect))
    ok_povm = worst_povm <= _POVM_TOL

    rho = projector(_PSI0)
    h0 = ModelSpec(H=np.zeros((2, 2), dtype=complex), L=SIGMA_Z, dim=2, hbar=1.0)
    defects = []
    for dt in (1e-3, 5e-4):
        out = channel_apply(rho, SIGMA_Z, gp, dt)
        lin = rho + lindblad_rhs(rho, h0, sp.lam) * dt
        defects.append(float(np.max(np.abs(out - lin))))
    channel_ratio = defects[0] / defects[1]
    ok_channel = 3.0 <= channel_ratio <= 5.0

    return CriterionResult(
        "measurement-operator / state-equation equivalence",
        ok_order and ok_povm and ok_channel,
        "substepped-reference RMS ratio in 2.83 +/- 0.5; "
        f"completeness <= {_POVM_TOL:g}; channel defect O(dt^2)",
        {"order_ratios": [float(x) for x in ratios],
         "single_euler_step_ratio": float(single_step_ratio),
         "povm_defect": worst_povm,
         "channel_defect_ratio": float(channel_ratio)})


def criterion_9() -> CriterionResult:
    """The two collapse-member constructions agree as dt -> 0.

    Matched-noise trajectory pairs are compared through the ensemble-mean
    conditional-spread curves (matching acts as variance reduction for this
    weak comparison); the RMS curve difference halves per dt halving.  The
    pathwise RMS difference is also reported; it contracts at the square
    root rate, as expected when an Euler chain is compared against the
    exponential construction on one noise path.
    """
    sp = SpinParams(nu=1.0, lam=1.0)
    model = spin_model(sp)
    u = UnravelingParams.nonlinear(sp.lam)
    T, n_pairs = 0.5, 100_000

    def mean_spread_curves(dt, seed):
        n = int(round(T / dt))
        kernels = (_EulerKernel(model, u, dt), _ExponentialKernel(model, u, dt))
        idx = np.linspace(0, n, 11).astype(int)
        curves = np.full((2, 11), 0.75)          # rows: Euler chain, exponential map
        with contextlib.closing(_matched_blocks(kernels, _PSI0, np.random.default_rng(seed),
                                                dt, n, n_pairs, stops=idx[1:])) as pairs:
            for j, (_, means) in enumerate(pairs, start=1):
                for i, z in enumerate(means):    # <sigma_z> = <L>, squared in place
                    np.square(z, out=z)
                    curves[i, j] = np.mean(np.subtract(1.0, z, out=z))
        return curves

    # each step size on its own stream, the three at once
    rms = [float(np.sqrt(np.mean((a - b) ** 2))) for a, b in _forked_map(
        [functools.partial(mean_spread_curves, dt, 999) for dt in (8e-3, 4e-3, 2e-3)])]
    weak_ratios = [rms[0] / rms[1], rms[1] / rms[2]]
    ok = all(1.6 <= x <= 2.4 for x in weak_ratios)

    strong = []
    for dt in (2e-3, 1e-3):
        n = int(round(T / dt))
        dW = np.array([wiener_path(7000 + k, dt, n) for k in range(150)])
        diff = (_column_means(_state_stack(_EulerKernel(model, u, dt), _PSI0, dW), SIGMA_Z)
                - _column_means(_state_stack(_ExponentialKernel(model, u, dt), _PSI0, dW),
                                SIGMA_Z)).T       # (N, n + 1): one row per trajectory
        # mean over time per trajectory, then over trajectories: a serial loop's bits
        strong.append(float(np.sqrt(np.mean(np.mean(diff ** 2, axis=1)))))
    return CriterionResult(
        "agreement of the two collapse-member constructions", ok,
        "matched-noise mean-spread curve RMS halves per dt halving (+/- 20%); "
        "pathwise RMS reported (contracts at the square-root rate)",
        {"weak_ratios": [float(x) for x in weak_ratios],
         "weak_rms": rms,
         "pathwise_ratio": float(strong[0] / strong[1])})


def criterion_10() -> CriterionResult:
    """Identical marginals, different spread means, statically and dynamically."""
    rep = bell_report(t_final=1.5, dt=1e-3, n_traj=5000, base_seed=1010)
    ana, dyn = rep["analytic"], rep["dynamical"]
    return CriterionResult(
        "two-observer demo (static and dynamical)",
        all(passed for _, passed, _, _ in bell_gates(rep)),
        "rho distance <= 1e-15 and gap = 1 exactly; dynamical gap > s0 - "
        "collapse_bound(s0, lam, T) - 5/sqrt(N) (0.786 at |+x>) with rho agreement "
        "within 5/sqrt(N)",
        {"rho_distance": ana["rho_distance"], "sigma_gap": ana["sigma_gap"],
         "dyn_gap": dyn["spread_gap_final"], "dyn_rho_worst": max(dyn["rho_distance"]),
         "dyn_rho_tol": dyn["mc_rho_tolerance"]})


def criterion_11() -> CriterionResult:
    """Re-running a preset with the same seed rewrites identical bytes."""
    import tempfile
    from .config import preset
    from .runner import run_scenario
    cfg = preset("fig2")
    with tempfile.TemporaryDirectory() as d1, tempfile.TemporaryDirectory() as d2:
        w1 = run_scenario(cfg, d1)
        w2 = run_scenario(cfg, d2)
        pairs = list(zip(sorted(w1), sorted(w2)))
        same = {a.name: a.read_bytes() == b.read_bytes() for a, b in pairs}
    return CriterionResult("byte-level determinism of preset outputs",
                           all(same.values()),
                           "every series/report file identical byte for byte",
                           {"files": same})


CRITERIA = {i: fn for i, fn in enumerate(
    (criterion_1, criterion_2, criterion_3, criterion_4, criterion_5, criterion_6,
     criterion_7, criterion_8, criterion_9, criterion_10, criterion_11), start=1)}


def selected_criteria(only=None) -> list:
    """The sorted indices in ``only`` (all for None); ValueError on an unknown or repeated one."""
    indices = sorted(CRITERIA) if only is None else sorted(only)
    missing = [i for i in indices if i not in CRITERIA]
    if missing:
        raise ValueError(f"no criterion {missing[0]}; available 1..{len(CRITERIA)}")
    repeated = [i for i, j in zip(indices, indices[1:]) if i == j]
    if repeated:
        raise ValueError(f"criterion {repeated[0]} is listed twice")
    return indices


def run_criteria(only=None, verbose: bool = False) -> list:
    """Run the selected criteria in order, each result numbered and timed here."""
    results = []
    for i in selected_criteria(only):
        t0 = time.perf_counter()
        res = replace(CRITERIA[i](), index=i, seconds=time.perf_counter() - t0)
        results.append(res)
        if verbose:
            print(res.line())
            print(f"    tolerance: {res.tolerance}")
            print(f"    observed:  {res.observed}")
    return results
