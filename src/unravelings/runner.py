"""Scenario execution: dispatch to the physics modules and serialize series.

Series files are CSV with one commented JSON metadata line::

    # {"config": {...}, "version": "...", "created_at": "...", ...}
    t,col_a,col_b
    0,1e-09,...

Every float is written with 17 significant digits, so a read-back
reproduces the array bit-exactly.  Reports (collapse statistics, the
two-observer demo) are JSON files carrying the same metadata block.
Re-running a scenario with the same seed produces byte-identical files up
to the created_at metadata field, which comparisons ignore.
"""

import json
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import __version__
from .bell import alice_measures, dynamical_gap, signaling_gap
from .config import ScenarioConfig
from .engine import (UnravelingParams, lindblad_evolve, simulate_ensemble,
                     simulate_trajectory)
from .gaussian import (LINEAR, NONLINEAR, GaussianState, centroid_ensemble,
                       conditional_covariance_series, conditional_spread_x,
                       gaussian_sde_step, mean_square_x, riccati_matrices,
                       riccati_residual, variance_covariance_series, variance_x)
from .linalg import projector
from .noise import derive_seed, measurement_record, wiener_path
from .spin import (SIGMA_Z, SpinParams, collapse_statistics, spin_model,
                   supermartingale_check)


def _metadata(cfg: ScenarioConfig, seed: int) -> dict:
    return {
        "config": cfg.echo(),
        "effective_seed": seed,
        "version": __version__,
        "created_at": time.strftime("%Y-%m-%dT%H:%M:%S"),
    }


def format_float(x: float) -> str:
    return f"{x:.17g}"


def write_series(path, columns: dict, metadata: dict) -> None:
    keys = list(columns)
    n = len(columns[keys[0]])
    lines = ["# " + json.dumps(metadata, sort_keys=True)]
    lines.append(",".join(keys))
    cols = [np.asarray(columns[k], dtype=float) for k in keys]
    for c in cols:
        if c.size != n:
            raise ValueError("all columns must share one length")
    for i in range(n):
        lines.append(",".join(format_float(c[i]) for c in cols))
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def read_series(path):
    text = Path(path).read_text(encoding="utf-8").rstrip("\n").split("\n")
    if not text or not text[0].startswith("# "):
        raise ValueError(f"{path}: missing metadata header line")
    metadata = json.loads(text[0][2:])
    keys = text[1].split(",")
    rows = [line.split(",") for line in text[2:]]
    cols = {k: np.array([float(r[j]) for r in rows]) for j, k in enumerate(keys)}
    return metadata, cols


def write_report(path, payload: dict, metadata: dict) -> None:
    doc = {"metadata": metadata, "report": payload}
    Path(path).write_text(json.dumps(doc, sort_keys=True, indent=1) + "\n",
                          encoding="utf-8")


def read_report(path):
    doc = json.loads(Path(path).read_text(encoding="utf-8"))
    return doc["metadata"], doc["report"]


def files_equal_ignoring_timestamp(path_a, path_b) -> bool:
    """Byte equality of two output files, metadata created_at excluded."""
    a = Path(path_a).read_text(encoding="utf-8")
    b = Path(path_b).read_text(encoding="utf-8")
    if Path(path_a).suffix == ".json":
        da, db = json.loads(a), json.loads(b)
        da["metadata"].pop("created_at", None)
        db["metadata"].pop("created_at", None)
        return json.dumps(da, sort_keys=True) == json.dumps(db, sort_keys=True)
    la, lb = a.split("\n", 1), b.split("\n", 1)
    ma, mb = json.loads(la[0][2:]), json.loads(lb[0][2:])
    ma.pop("created_at", None)
    mb.pop("created_at", None)
    return ma == mb and la[1] == lb[1]


# --- per-kind builders -------------------------------------------------------

def _spin_setup(cfg: ScenarioConfig):
    p = cfg.params
    sp = SpinParams(nu=float(p["nu"]), lam=float(p["lam"]), hbar=float(p.get("hbar", 1.0)))
    u = UnravelingParams(cfg.xi_r, cfg.xi_i, sp.lam)
    return sp, u, cfg.psi0()


def _grid(cfg: ScenarioConfig) -> np.ndarray:
    return np.arange(cfg.n_steps + 1) * cfg.dt


def _snapshot_steps(cfg: ScenarioConfig, n_snap: int = 41):
    return np.unique(np.linspace(0, cfg.n_steps, n_snap).astype(int))


def _mech_member(cfg: ScenarioConfig) -> str:
    return NONLINEAR if cfg.xi_r > 0 else LINEAR


def _mech_trajectory(cfg: ScenarioConfig):
    p = cfg.mechanical()
    member = _mech_member(cfg)
    path = wiener_path(derive_seed(cfg.base_seed, 0), cfg.dt, cfg.n_steps)
    g = GaussianState(width=cfg.a0(), centroid=float(cfg.params.get("x0", 0.0)),
                      wavenumber=float(cfg.params.get("k0", 0.0)))
    a = np.empty(cfg.n_steps + 1, dtype=complex)
    x = np.empty(cfg.n_steps + 1)
    k = np.empty(cfg.n_steps + 1)
    a[0], x[0], k[0] = g.width, g.centroid, g.wavenumber
    for j in range(cfg.n_steps):
        g = gaussian_sde_step(g, p, member, path.increments[j], cfg.dt)
        a[j + 1], x[j + 1], k[j + 1] = g.width, g.centroid, g.wavenumber
    return path, a, x, k


def run_scenario(cfg: ScenarioConfig, out_dir, n_workers: int = 1,
                 seed_override: int | None = None) -> list:
    """Produce every requested output file; returns the written paths.

    ``n_workers`` is accepted for compatibility and has no effect: every
    ensemble runs on one thread.  A spin scenario integrates its
    trajectories once, in one lock-step ensemble shared by its outputs.
    """
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    seed = cfg.base_seed if seed_override is None else int(seed_override)
    if seed_override is not None:
        cfg = ScenarioConfig(**{**cfg.__dict__, "base_seed": seed})
    meta = _metadata(cfg, seed)
    written = []

    def emit_series(kind, columns):
        path = out_dir / f"{cfg.name}_{kind}.csv"
        write_series(path, columns, meta)
        written.append(path)

    def emit_report(kind, payload):
        path = out_dir / f"{cfg.name}_{kind}.json"
        write_report(path, payload, meta)
        written.append(path)

    ens_cache = {}

    def spin_ensemble():
        # every step is a snapshot when the trajectory series is requested;
        # the ensemble_mean and collapse_stats rows are a subset of them
        if not ens_cache:
            sp, u, psi0 = _spin_setup(cfg)
            snaps = (np.arange(cfg.n_steps + 1) if "trajectory" in cfg.outputs
                     else _snapshot_steps(cfg))
            ens_cache["run"] = simulate_ensemble(
                spin_model(sp), u, psi0, cfg.dt, cfg.n_steps, cfg.n_trajectories,
                seed, snapshot_steps=snaps, tracked_observables={"sz": SIGMA_Z})
        return ens_cache["run"]

    for kind in cfg.outputs:
        if cfg.model == "spin":
            sp, u, psi0 = _spin_setup(cfg)
            if kind == "trajectory":
                sz = spin_ensemble().means["sz"]
                emit_series(kind, {"t": _grid(cfg),
                                   **{f"sz_{k:03d}": sz[:, k] for k in range(sz.shape[1])}})
            elif kind == "record":
                tr = simulate_trajectory(spin_model(sp), u, psi0, cfg.dt, cfg.n_steps,
                                         derive_seed(seed, 0),
                                         tracked_observables={"sz": spin_model(sp).L})
                emit_series(kind, {"t": _grid(cfg)[:-1], "dy": tr.record.values})
            elif kind == "ensemble_mean":
                snaps = _snapshot_steps(cfg)
                result = spin_ensemble().at_steps(snaps)
                oracle = lindblad_evolve(projector(psi0), spin_model(sp), sp.lam,
                                         cfg.dt / 10.0, cfg.n_steps * 10,
                                         snapshot_steps=[int(s) * 10 for s in snaps])
                sz_oracle = np.array([np.trace(r @ spin_model(sp).L).real
                                      for _, r in oracle])
                rho_diff = np.array([np.max(np.abs(result.rhos[i] - oracle[i][1]))
                                     for i in range(len(snaps))])
                emit_series(kind, {"t": result.times,
                                   "mean_sz": result.mean_of("sz"),
                                   "stderr_sz": result.se_of("sz"),
                                   "lindblad_sz": sz_oracle,
                                   "rho_maxdiff": rho_diff})
            elif kind == "collapse_stats":
                result = spin_ensemble().at_steps(_snapshot_steps(cfg))
                rep = collapse_statistics(result)
                sup = supermartingale_check(result, sp)
                emit_report(kind, {
                    "n_up": rep.n_up, "n_down": rep.n_down,
                    "n_unresolved": rep.n_unresolved, "threshold": rep.threshold,
                    "born_p_up": rep.born_p_up, "fraction_up": rep.fraction_up,
                    "bound_ok": sup.bound_ok, "monotone_ok": sup.monotone_ok,
                    "times": sup.times.tolist(),
                    "mean_spread": sup.mean_spread.tolist(),
                    "stderr": sup.stderr.tolist(),
                    "bound": sup.bound.tolist(),
                })
            elif kind == "bell":
                out_z, out_x = alice_measures("z"), alice_measures("x")
                rho_d, sig_gap = signaling_gap(out_z, out_x)
                dyn = dynamical_gap(lam=sp.lam, t_final=cfg.t_final, dt=cfg.dt,
                                    n_traj=cfg.n_trajectories, base_seed=seed)
                emit_report(kind, {
                    "analytic": {
                        "rho_distance": rho_d, "sigma_gap": sig_gap,
                        "mean_sigma_z_basis": out_z.mean_sigma,
                        "mean_sigma_x_basis": out_x.mean_sigma,
                    },
                    "dynamical": {
                        "times": dyn.times.tolist(),
                        "mean_spread_collapse": dyn.mean_spread_collapse.tolist(),
                        "mean_spread_phase": dyn.mean_spread_phase.tolist(),
                        "rho_distance": dyn.rho_distance.tolist(),
                        "spread_gap_final": dyn.spread_gap_final,
                        "mc_rho_tolerance": dyn.mc_rho_tolerance,
                    },
                })
            continue

        # mechanical models
        p = cfg.mechanical()
        a0 = cfg.a0()
        ts = _grid(cfg)
        if kind == "sigma":
            emit_series(kind, {
                "t": ts,
                "sigma_nonlinear": conditional_spread_x(ts, p, a0, NONLINEAR),
                "sigma_linear": conditional_spread_x(ts, p, a0, LINEAR),
            })
        elif kind == "var":
            emit_series(kind, {"t": ts, "var": variance_x(ts, p, a0)})
        elif kind == "riccati":
            dt = cfg.dt
            resids = {}
            for label, member, which in (("nonlinear", NONLINEAR, "nonlinear"),
                                         ("linear", LINEAR, "linear")):
                ser = conditional_covariance_series(ts, p, a0, member)
                resids[f"resid_{label}"] = riccati_residual(
                    ser, riccati_matrices(p, which), dt)
            ser = variance_covariance_series(ts, p, a0)
            resids["resid_variance"] = riccati_residual(
                ser, riccati_matrices(p, "variance"), dt)
            emit_series(kind, {"t": ts[1:-1], **resids})
        elif kind == "trajectory":
            _, a, x, k = _mech_trajectory(cfg)
            emit_series(kind, {"t": ts, "width_re": a.real, "width_im": a.imag,
                               "centroid": x, "wavenumber": k})
        elif kind == "record":
            path, a, x, k = _mech_trajectory(cfg)
            rec = measurement_record(path, x[:-1], 1.0, p.lam)
            emit_series(kind, {"t": ts[:-1], "dy": rec.values})
        elif kind == "ensemble_mean":
            member = _mech_member(cfg)
            snaps = _snapshot_steps(cfg, n_snap=21)
            xs = centroid_ensemble(p, a0, member, float(cfg.params.get("x0", 0.0)),
                                   float(cfg.params.get("k0", 0.0)), cfg.dt,
                                   cfg.n_steps, cfg.n_trajectories, seed,
                                   snapshot_steps=snaps)
            msq_mc = (xs ** 2).mean(axis=1)
            msq_se = (xs ** 2).std(axis=1, ddof=1) / np.sqrt(cfg.n_trajectories)
            msq_ref = np.array([mean_square_x(float(t), p, a0,
                                              float(cfg.params.get("x0", 0.0)),
                                              float(cfg.params.get("k0", 0.0)), member)
                                for t in snaps * cfg.dt])
            emit_series(kind, {"t": snaps * cfg.dt, "mean_x2_mc": msq_mc,
                               "stderr_x2": msq_se, "mean_x2_closed_form": msq_ref})
    return written


# --- post-run checks ----------------------------------------------------------

@dataclass(frozen=True)
class CheckOutcome:
    name: str
    passed: bool
    observed: str
    expected: str

    def line(self) -> str:
        return f"[{'PASS' if self.passed else 'FAIL'}] {self.name}: " \
               f"observed {self.observed}, expected {self.expected}"


def scenario_checks(cfg: ScenarioConfig, out_dir) -> list:
    """Re-read the written outputs and evaluate scenario-level expectations."""
    out_dir = Path(out_dir)
    checks = []
    found_any = False

    def path_of(kind, suffix):
        p = out_dir / f"{cfg.name}_{kind}{suffix}"
        return p if p.exists() else None

    if cfg.model != "spin":
        p = cfg.mechanical()
        sigma0 = 1.0 / (4.0 * cfg.a0().real)
        sig_path = path_of("sigma", ".csv")
        var_path = path_of("var", ".csv")
        if sig_path and var_path:
            found_any = True
            _, sig = read_series(sig_path)
            _, var = read_series(var_path)
            vals0 = (sig["sigma_nonlinear"][0], sig["sigma_linear"][0], var["var"][0])
            dev = max(abs(v / sigma0 - 1.0) for v in vals0)
            checks.append(CheckOutcome(
                "initial spreads coincide", dev <= 1e-12,
                f"max rel dev {dev:.2e} of {vals0}", f"all equal {sigma0:.6e}"))
            mask = sig["t"] > 0
            ok = (np.all(sig["sigma_nonlinear"][mask]
                         <= sig["sigma_linear"][mask] * (1 + 1e-12))
                  and np.all(sig["sigma_linear"][mask] <= var["var"][mask] * (1 + 1e-12)))
            checks.append(CheckOutcome(
                "spread ordering collapse <= phase-noise <= variance", bool(ok),
                "pointwise on the written grid", "holds for every t > 0"))
        ric_path = path_of("riccati", ".csv")
        if ric_path:
            found_any = True
            _, ric = read_series(ric_path)
            finite = all(np.all(np.isfinite(v)) for v in ric.values())
            checks.append(CheckOutcome("covariance-flow residuals finite", finite,
                                       "all columns finite" if finite else "non-finite values",
                                       "finite residual series"))
    else:
        traj_path = path_of("trajectory", ".csv")
        lam = float(cfg.params["lam"])
        if traj_path and lam * cfg.t_final >= 10.0:
            found_any = True
            _, cols = read_series(traj_path)
            finals = np.array([cols[k][-1] for k in cols if k != "t"])
            mn = float(np.min(np.abs(finals)))
            checks.append(CheckOutcome(
                "every trajectory settles on an eigenstate", mn > 0.999,
                f"min |<sz>(T)| = {mn:.6f}", "> 0.999"))
        cs_path = path_of("collapse_stats", ".json")
        if cs_path:
            found_any = True
            _, rep = read_report(cs_path)
            n = rep["n_up"] + rep["n_down"] + rep["n_unresolved"]
            se = np.sqrt(rep["born_p_up"] * (1 - rep["born_p_up"]) / n)
            dev = abs(rep["fraction_up"] - rep["born_p_up"])
            checks.append(CheckOutcome(
                "branch frequencies follow the Born weights",
                dev <= 3.0 * se + 1e-12,
                f"|{rep['fraction_up']:.4f} - {rep['born_p_up']:.4f}| = {dev:.4f}",
                f"<= 3 binomial SE = {3*se:.4f}"))
            checks.append(CheckOutcome(
                "mean conditional spread under the collapse bound",
                bool(rep["bound_ok"]), str(rep["bound_ok"]), "True"))
        bell_path = path_of("bell", ".json")
        if bell_path:
            found_any = True
            _, rep = read_report(bell_path)
            ana, dyn = rep["analytic"], rep["dynamical"]
            checks.append(CheckOutcome(
                "observer marginals identical across bases",
                ana["rho_distance"] <= 1e-15,
                f"max-norm {ana['rho_distance']:.2e}", "<= 1e-15"))
            checks.append(CheckOutcome(
                "spread-mean gap between bases", ana["sigma_gap"] == 1.0,
                f"{ana['sigma_gap']}", "= 1.0"))
            rho_ok = max(dyn["rho_distance"]) <= dyn["mc_rho_tolerance"]
            checks.append(CheckOutcome(
                "dynamical marginals agree within Monte Carlo error", bool(rho_ok),
                f"max {max(dyn['rho_distance']):.4f}",
                f"<= {dyn['mc_rho_tolerance']:.4f}"))
            checks.append(CheckOutcome(
                "dynamical spread gap", dyn["spread_gap_final"] > 0.5,
                f"{dyn['spread_gap_final']:.4f}", "> 0.5"))
        em_path = path_of("ensemble_mean", ".csv")
        if em_path:
            found_any = True
            _, cols = read_series(em_path)
            tol = 5.0 / np.sqrt(cfg.n_trajectories)
            dev = float(np.max(np.abs(cols["mean_sz"] - cols["lindblad_sz"])))
            checks.append(CheckOutcome(
                "ensemble mean tracks the master equation", dev <= tol,
                f"max dev {dev:.4f}", f"<= 5/sqrt(N) = {tol:.4f}"))

    if not found_any:
        checks.append(CheckOutcome("outputs present", False,
                                   "no checkable output files found", "at least one"))
    return checks
