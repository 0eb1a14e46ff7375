"""The workloads: inputs made from a seed, one round of operations, checks.

Each workload builds its inputs in ``__init__`` through the program's own
constructors (``ModelSpec``, ``UnravelingParams``, ``preset``,
``validate_config``); that is the set-up the ``setup_s`` probes time.
:meth:`operations` lists the round's operations in order; each is called
with the results of those before it.  :meth:`check` reads the completed
results against references built in :mod:`checks`, never against earlier
output of the program.
"""

import math
import shutil
import traceback
from pathlib import Path

import numpy as np

import checks

SIGMA_Z = np.diag([1.0, -1.0]).astype(complex)
XI_MEMBERS = (("xi=1", 1.0, 0.0), ("xi=-i", 0.0, -1.0),
              ("xi=exp(-i pi/4)", math.cos(math.pi / 4), -math.sin(math.pi / 4)))
# Every element of psi psi^dag has a standard deviation <= 1/2, so the ensemble rho
# has SE <= 0.5/sqrt(N) per element; 3/sqrt(N) is >= 6 SE (P < 2e-8 per element).
MC_RHO_FACTOR = 3.0
ORACLE_TOL = 1e-8


def _rng(seed, name):
    return np.random.default_rng(np.random.SeedSequence([int(seed), sum(map(ord, name))]))


def _ensemble_member_checks(tag, res, ref, n_traj, snaps):
    errs = checks.max_abs_within(f"{tag} snapshot steps", res.step_indices, np.asarray(snaps), 0)
    errs += checks.max_abs_within(f"{tag} ensemble rho vs reference", res.rhos, ref,
                                  MC_RHO_FACTOR / math.sqrt(n_traj))
    errs += checks.normalized(f"{tag} final states", res.final_states)
    return errs


def _oracle_checks(tag, out, ref, snaps):
    errs = checks.max_abs_within(f"{tag} oracle snapshot steps",
                                 np.array([s for s, _ in out]), 10 * np.asarray(snaps), 0)
    return errs + checks.max_abs_within(f"{tag} oracle rho vs reference",
                                        np.array([r for _, r in out]), ref, ORACLE_TOL)


class Workload:
    name = ""
    traj_steps = 0

    def warm_up(self):
        """Pay once-per-process costs (first allocations, lazy imports)."""

    def prepare_round(self):
        """Untimed preparation before each timed pass."""

    def operations(self):
        raise NotImplementedError

    def check(self, results):
        raise NotImplementedError

    def known_failure(self, label, exc):
        """True for a fault of the program that fails this operation every time."""
        return False


class SpinEnsemble(Workload):
    """Lock-step ensembles of H = nu sigma_z, L = sigma_z for three members."""

    name = "spin_ensemble"
    part = "spin"
    nu = lam = hbar = 1.0
    dt = 2e-3
    n_traj = 2500
    steps = {"xi=1": 5000, "xi=-i": 1500, "xi=exp(-i pi/4)": 1500}   # lam T = 10, 3, 3
    n_snap = 21

    def __init__(self, seed, out_dir):
        from unravelings.engine import UnravelingParams
        from unravelings.spin import SpinParams, spin_model
        rng = _rng(seed, self.name)
        self.p_up = float(rng.uniform(0.2, 0.8))
        phase = float(rng.uniform(0.0, 2.0 * math.pi))
        self.psi0 = np.array([math.sqrt(self.p_up),
                              math.sqrt(1.0 - self.p_up) * np.exp(1j * phase)])
        self.sp = SpinParams(nu=self.nu, lam=self.lam, hbar=self.hbar)
        self.model = spin_model(self.sp)
        self.members = []
        for (tag, xr, xi_i), s in zip(XI_MEMBERS, rng.integers(0, 2 ** 31, size=3)):
            n = self.steps[tag]
            snaps = np.linspace(0, n, self.n_snap).astype(int)
            self.members.append((tag, UnravelingParams(xr, xi_i, self.lam), n, int(s), snaps))
        self.traj_steps = self.n_traj * sum(self.steps.values())

    def warm_up(self):
        from unravelings.engine import simulate_ensemble
        tag, u, _, s, _ = self.members[0]
        simulate_ensemble(self.model, u, self.psi0, self.dt, 200, self.n_traj, s,
                          tracked_observables={"sz": SIGMA_Z})

    def operations(self):
        from unravelings.engine import lindblad_evolve, simulate_ensemble
        from unravelings.spin import collapse_statistics, supermartingale_check
        rho0 = np.outer(self.psi0, self.psi0.conj())
        key = f"{self.part} ensemble xi=1"

        def ensemble(u, n, s, snaps):
            return lambda r: simulate_ensemble(self.model, u, self.psi0, self.dt, n, self.n_traj,
                                               s, snapshot_steps=snaps,
                                               tracked_observables={"sz": SIGMA_Z})

        def oracle(n, snaps):
            return lambda r: lindblad_evolve(rho0, self.model, self.lam, self.dt / 10.0, 10 * n,
                                             snapshot_steps=[10 * int(k) for k in snaps])

        ops = []
        for tag, u, n, s, snaps in self.members:
            ops += [(f"{self.part} ensemble {tag}", ensemble(u, n, s, snaps)),
                    (f"{self.part} oracle {tag}", oracle(n, snaps))]
            if tag == "xi=1":
                ops += [(f"{self.part} collapse_statistics",
                         lambda r: collapse_statistics(r[key])),
                        (f"{self.part} supermartingale_check",
                         lambda r: supermartingale_check(r[key], self.sp))]
        return ops

    def check(self, results):
        errs = []
        z0 = abs(self.psi0[0]) ** 2 - abs(self.psi0[1]) ** 2
        for tag, _, n, _, snaps in self.members:
            ref = checks.spin_closed_form_rho(self.psi0, self.nu, self.lam, snaps * self.dt)
            res = results.get(f"{self.part} ensemble {tag}")
            if res is not None:
                errs += _ensemble_member_checks(f"{self.part} {tag}", res, ref, self.n_traj,
                                                snaps)
            if f"{self.part} oracle {tag}" in results:
                errs += _oracle_checks(f"{self.part} {tag}", results[f"{self.part} oracle {tag}"],
                                       ref, snaps)
        res = results.get(f"{self.part} ensemble xi=-i")
        if res is not None:
            errs += checks.max_abs_within("spin xi=-i conditional spread frozen",
                                          1.0 - res.means["sz"] ** 2,
                                          np.full(res.means["sz"].shape, 1.0 - z0 ** 2), 1e-9)
        res = results.get(f"{self.part} ensemble xi=1")
        if res is not None:
            z = res.means["sz"]
            up, down = int(np.sum(z[-1] > 0.999)), int(np.sum(z[-1] < -0.999))
            unresolved = self.n_traj - up - down
            errs += checks.binomial_fraction("spin xi=1 branch fraction up", up, self.n_traj,
                                             self.p_up, 4.5)
            errs += checks.in_range("spin xi=1 unresolved share", unresolved / self.n_traj,
                                    0.0, 0.00999)                  # fewer than 1 %
            times = self.members[0][4] * self.dt
            errs += checks.spread_under_collapse_bound("spin xi=1 mean spread", z, times, self.lam)
            rep = results.get(f"{self.part} collapse_statistics")
            counts = (up, down, unresolved)
            if rep is not None and (rep.n_up, rep.n_down, rep.n_unresolved) != counts:
                errs.append(f"collapse_statistics counts {(rep.n_up, rep.n_down, rep.n_unresolved)}"
                            f" != {counts}")
            sup = results.get(f"{self.part} supermartingale_check")
            if sup is not None:
                errs += checks.is_true("supermartingale_check.bound_ok", sup.bound_ok)
                errs += checks.max_abs_within("supermartingale_check mean spread",
                                              sup.mean_spread, (1.0 - z ** 2).mean(axis=1), 1e-12)
        return errs


def _random_hermitian(rng, d):
    a = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    h = 0.5 * (a + a.conj().T)
    return h / np.max(np.abs(np.linalg.eigvalsh(h)))


class DenseEnsemble(Workload):
    """Three members on random dense Hermitian H and L of dimension 4."""

    name = "dense_ensemble"
    part = "dense"
    dim = 4
    lam = hbar = 1.0
    dt = 4e-3
    n_steps = 600
    n_traj = 2500
    snaps = np.array([0, 75, 150, 300, 600])

    def __init__(self, seed, out_dir):
        from unravelings.engine import ModelSpec, UnravelingParams, max_stable_dt
        rng = _rng(seed, self.name)
        H = _random_hermitian(rng, self.dim)
        L = _random_hermitian(rng, self.dim)
        psi = rng.standard_normal(self.dim) + 1j * rng.standard_normal(self.dim)
        self.psi0 = psi / np.linalg.norm(psi)
        self.members = [(tag, UnravelingParams(xr, xi_i, self.lam), int(s))
                        for (tag, xr, xi_i), s in zip(XI_MEMBERS, rng.integers(0, 2 ** 31, size=3))]
        # scale L so the step sits at half the integrator's stability budget
        cap = max_stable_dt(ModelSpec(H=H, L=L, dim=self.dim, hbar=self.hbar), self.members[0][1])
        self.model = ModelSpec(H=H, L=L * math.sqrt(cap / (2.0 * self.dt)), dim=self.dim,
                               hbar=self.hbar)
        self.traj_steps = len(self.members) * self.n_traj * self.n_steps

    def warm_up(self):
        from unravelings.engine import simulate_ensemble
        _, u, s = self.members[0]
        simulate_ensemble(self.model, u, self.psi0, self.dt, 100, self.n_traj, s)

    def operations(self):
        from unravelings.engine import lindblad_evolve, simulate_ensemble
        rho0 = np.outer(self.psi0, self.psi0.conj())
        ops = []
        for tag, u, s in self.members:
            ops.append((f"{self.part} ensemble {tag}", lambda r, u=u, s=s: simulate_ensemble(
                self.model, u, self.psi0, self.dt, self.n_steps, self.n_traj, s,
                snapshot_steps=self.snaps)))
            ops.append((f"{self.part} oracle {tag}", lambda r: lindblad_evolve(
                rho0, self.model, self.lam, self.dt / 10.0, 10 * self.n_steps,
                snapshot_steps=10 * self.snaps)))
        return ops

    def check(self, results):
        ref = checks.dense_reference_rho(self.model.H, self.model.L, self.lam, self.psi0,
                                         self.snaps * self.dt, self.hbar)
        errs = []
        done = []
        for tag, _, _ in self.members:
            res = results.get(f"{self.part} ensemble {tag}")
            if res is not None:
                errs += _ensemble_member_checks(f"{self.part} {tag}", res, ref, self.n_traj,
                                                self.snaps)
                done.append((tag, res))
            if f"{self.part} oracle {tag}" in results:
                errs += _oracle_checks(f"{self.part} {tag}", results[f"{self.part} oracle {tag}"],
                                       ref, self.snaps)
        pair_tol = MC_RHO_FACTOR * math.sqrt(2.0 / self.n_traj)
        for i, (ta, ra) in enumerate(done):
            for tb, rb in done[i + 1:]:
                errs += checks.max_abs_within(f"{self.part} {ta} vs {tb} ensemble rho",
                                              ra.rhos, rb.rhos, pair_tol)
        return errs


_MECH_PARAMS = {"mass": 1.0, "lam": 1.0, "hbar": 1.0, "a0": [0.3, 0.1], "x0": 0.0, "k0": 0.0}
_MECH_OUTPUTS = ["trajectory", "record", "ensemble_mean", "sigma", "var", "riccati"]


def scenario_traj_steps(cfg):
    """SDE trajectory-steps a scenario's outputs call for (from its config)."""
    n, N = cfg.n_steps, cfg.n_trajectories
    kinds = set(cfg.outputs)
    if cfg.model == "spin":
        total = N * n * ("trajectory" in kinds) + n * ("record" in kinds)
        total += N * n * bool(kinds & {"ensemble_mean", "collapse_stats"})
        total += 2 * N * n * ("bell" in kinds)
        return total
    return n * len(kinds & {"trajectory", "record"}) + N * n * ("ensemble_mean" in kinds)


class Presets(Workload):
    """Every preset, plus natural-unit mechanical configs, as `run --check --threads 2`."""

    name = "presets"
    n_workers = 2

    def __init__(self, seed, out_dir):
        from unravelings.config import PRESETS, preset, validate_config
        rng = _rng(seed, self.name)
        self.out_dir = Path(out_dir) / self.name
        self.raw = dict(PRESETS)
        # fig2 twice: the two runs' files are compared byte for byte
        order = [n for n in PRESETS for _ in range(2 if n == "fig2" else 1)]
        for model, extra in (("free_particle", {}), ("harmonic", {"omega": 0.5})):
            for member in ("nonlinear", "linear"):
                name = f"mech_{model}_{member}"
                self.raw[name] = {
                    "name": name, "model": model, "unraveling": member,
                    "params": {**_MECH_PARAMS, **extra}, "dt": 5e-3, "t_final": 5.0,
                    "n_trajectories": 4000, "base_seed": int(rng.integers(0, 2 ** 31)),
                    "outputs": [o for o in _MECH_OUTPUTS if member == "nonlinear" or o != "record"]}
                order.append(name)
        self.cfgs = {name: preset(name) if name in PRESETS else validate_config(raw)
                     for name, raw in self.raw.items()}
        self.runs = []                           # (label, scenario name)
        for name in order:
            rerun = any(n == name for _, n in self.runs)
            self.runs.append((f"{name} rerun" if rerun else name, name))
        self.traj_steps = sum(scenario_traj_steps(self.cfgs[name]) for _, name in self.runs)

    def _dir(self, label):
        return self.out_dir / label.replace(" ", "_")

    def prepare_round(self):
        shutil.rmtree(self.out_dir, ignore_errors=True)

    def warm_up(self):
        from unravelings.runner import run_scenario
        run_scenario(self.cfgs["fig1"], self._dir("warm_up"), n_workers=self.n_workers)
        self.prepare_round()

    def operations(self):
        from unravelings.config import PRESETS, preset, validate_config
        from unravelings.runner import files_equal_ignoring_timestamp, run_scenario, scenario_checks

        def cli_run(label, name):
            # what `unravelings run --preset/--config ... --threads 2 --check` does
            cfg = preset(name) if name in PRESETS else validate_config(self.raw[name])
            written = run_scenario(cfg, self._dir(label), n_workers=self.n_workers)
            return written, scenario_checks(cfg, self._dir(label))

        def fig2_determinism(r):
            a, b = sorted(r["fig2"][0]), sorted(r["fig2 rerun"][0])
            return {pa.name: files_equal_ignoring_timestamp(pa, pb) for pa, pb in zip(a, b)}

        ops = [(label, lambda r, label=label, name=name: cli_run(label, name))
               for label, name in self.runs]
        return ops + [("fig2 files_equal_ignoring_timestamp", fig2_determinism)]

    def known_failure(self, label, exc):
        # gaussian._tanh_stable sees cosh(2.1e-26) + cos(pi) round to 0 at omega t = pi/2
        # for the trapped phase-noise width, a false pole of a finite c coth(offset)
        return (label == "fig3" and isinstance(exc, ZeroDivisionError)
                and traceback.extract_tb(exc.__traceback__)[-1].name == "_tanh_stable")

    def check(self, results):
        errs = []
        for label, name in self.runs:
            if label not in results:
                continue
            written, outcomes = results[label]
            if not written:
                errs.append(f"{label}: no files written")
            errs += [f"{label}: {c.line()}" for c in outcomes if not c.passed]
        if "fig2" in results:
            em = checks.read_csv_series(self._dir("fig2") / "fig2_ensemble_mean.csv")
            psi = np.array([complex(*c) for c in self.raw["fig2"]["params"]["psi0"]])
            z0 = (abs(psi[0]) ** 2 - abs(psi[1]) ** 2) / np.vdot(psi, psi).real
            errs += checks.max_abs_within("fig2 lindblad_sz conserved", em["lindblad_sz"],
                                          np.full(em["lindblad_sz"].shape, z0), 1e-9)
        if "fig2" in results and "fig2 rerun" in results:
            names_a = sorted(p.name for p in results["fig2"][0])
            names_b = sorted(p.name for p in results["fig2 rerun"][0])
            if names_a != names_b:
                errs.append(f"fig2 rerun wrote {names_b}, first run {names_a}")
            for n in names_a:
                errs += checks.files_match_but_timestamp(
                    f"fig2 rerun {n}", self._dir("fig2") / n, self._dir("fig2 rerun") / n)
            same = results.get("fig2 files_equal_ignoring_timestamp")
            if same is not None and (sorted(same) != names_a or not all(same.values())):
                errs.append(f"files_equal_ignoring_timestamp reported {same}")
        if "riccati_free" in results:
            p = self.raw["riccati_free"]["params"]
            sig = checks.read_csv_series(self._dir("riccati_free") / "riccati_free_sigma.csv")
            var = checks.read_csv_series(self._dir("riccati_free") / "riccati_free_var.csv")
            t = sig["t"]
            mask = t >= 1.0
            ref = p["lam"] * p["hbar"] ** 2 * t[mask] ** 3 / (3.0 * p["mass"] ** 2)
            errs += checks.rel_within("riccati_free var - sigma_linear",
                                      var["var"][mask] - sig["sigma_linear"][mask], ref, 1e-10)
        name = "mech_free_particle_linear"
        if name in results:
            raw = self.raw[name]
            p, dt, N = raw["params"], raw["dt"], raw["n_trajectories"]
            em = checks.read_csv_series(self._dir(name) / f"{name}_ensemble_mean.csv")
            n = np.rint(em["t"] / dt)
            ito = p["lam"] * p["hbar"] ** 2 * em["t"] ** 3 / (3.0 * p["mass"] ** 2)
            euler = checks.euler_free_isometry(n, dt, p["lam"], p["hbar"], p["mass"])
            se = math.sqrt(2.0 / N) * euler          # x is Gaussian: Var(x^2) = 2 E[x^2]^2
            excess = np.abs(em["mean_x2_mc"] - ito) - (4.5 * se + np.abs(ito - euler))
            if np.any(excess > 1e-15):
                i = int(np.argmax(excess))
                errs.append(f"{name} mean_x2_mc {em['mean_x2_mc'][i]:.6g} at t = {em['t'][i]} "
                            f"not within 4.5 SE of {ito[i]:.6g}")
        if "bell" in results:
            ana = checks.read_json_report(self._dir("bell") / "bell_bell.json")["analytic"]
            errs += checks.in_range("bell rho_distance", ana["rho_distance"], 0.0, 1e-15)
            errs += checks.in_range("bell sigma_gap", ana["sigma_gap"], 1.0, 1.0)
        if "fig3" in results:
            sig = checks.read_csv_series(self._dir("fig3") / "fig3_sigma.csv")
            var = checks.read_csv_series(self._dir("fig3") / "fig3_var.csv")
            if not (np.all(sig["sigma_nonlinear"] <= sig["sigma_linear"] * (1 + 1e-12))
                    and np.all(sig["sigma_linear"] <= var["var"] * (1 + 1e-12))):
                errs.append("fig3: ordering sigma_nonlinear <= sigma_linear <= var broken")
        return errs


class Criteria(Workload):
    """Acceptance criteria 4-9 at their pinned seeds and sizes."""

    name = "criteria"
    indices = (4, 5, 6, 7, 8, 9)
    # SDE trajectory-steps fixed by the criteria's pinned sizes:
    #   5: centroid ensemble 2000 x 1000
    #   8: substepped reference 1000 samples x 16/dt for dt in (4e-2, 2e-2, 1e-2),
    #      1000 one-step Kraus updates per dt, 1000 single Euler steps and
    #      1000 Kraus steps for each of dt in (2e-3, 1e-3)
    #   9: 100 000 pairs x 2 constructions x round(0.5/dt) for dt in (8e-3, 4e-3, 2e-3),
    #      150 trajectories x 2 routes x (250 + 500)
    traj_steps = (2000 * 1000
                  + 1000 * (400 + 800 + 1600) + 3 * 1000 + 2 * (1000 + 1000)
                  + 100_000 * 2 * (62 + 125 + 250) + 150 * 2 * (250 + 500))

    def __init__(self, seed, out_dir):
        import unravelings.acceptance  # noqa: F401  (the inputs are pinned in the package)

    def warm_up(self):
        from unravelings.acceptance import run_criteria
        run_criteria(only=[4])

    def operations(self):
        from unravelings.acceptance import run_criteria
        return [(f"criterion {i}", lambda r, i=i: run_criteria(only=[i])[0])
                for i in self.indices]

    def check(self, results):
        errs = []
        for i in self.indices:
            res = results.get(f"criterion {i}")
            if res is not None:
                errs += checks.is_true(f"criterion {i} passed", res.passed)
                errs += checks.criterion_observations(i, res.observed)
        return errs


WORKLOADS = {w.name: w for w in (SpinEnsemble, DenseEnsemble, Presets, Criteria)}
