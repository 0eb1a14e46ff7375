"""Scenario execution: dispatch to the physics modules and serialize series.

Series files are CSV with one commented JSON metadata line::

    # {"config": {...}, "version": "...", "created_at": "...", ...}
    t,col_a,col_b
    0,1e-09,...

Every float is written with 17 significant digits, so a read-back
reproduces the array bit-exactly.  Rows are written and parsed as a
stream, _SERIES_BLOCK at a time, so neither direction holds the file's
text or a string per value; the bytes are those of formatting each value
with ``f"{x:.17g}"``.  Reports (collapse statistics, the
two-observer demo) are JSON files carrying the same metadata block.
Re-running a scenario with the same seed produces byte-identical files up
to the created_at metadata field, which comparisons ignore.

:func:`scenario_checks` re-reads the written files and applies the gates
that the acceptance criteria apply too, each taken from the module of the
quantity it tests (``gaussian``, ``spin``, ``bell``, ``engine``).
"""

import itertools
import json
import time
from dataclasses import dataclass, fields, replace
from functools import cached_property
from pathlib import Path

import numpy as np

from . import __version__
from .bell import bell_gates, bell_report
from .config import ScenarioConfig
from .engine import (UnravelingParams, master_equation_oracle, mc_tolerance,
                     simulate_ensemble, simulate_trajectory)
from .gaussian import (SPREAD_RTOL, TOTAL_VARIANCE_RTOL, centroid_ensemble,
                       conditional_covariance_series, conditional_spread_x,
                       initial_spread, initial_spread_deviation, mean_square_x,
                       riccati_matrices, riccati_residual, simulate_width,
                       spreads_ordered, total_variance_deviation,
                       variance_covariance_series, variance_x)
from .noise import derive_seed, measurement_record, wiener_path
from .spin import (SETTLED, SIGMA_Z, CollapseReport, collapse_statistics, spin_model,
                   supermartingale_check)


def _metadata(cfg: ScenarioConfig) -> dict:
    return {
        "config": cfg.echo(),
        "effective_seed": cfg.base_seed,
        "version": __version__,
        "created_at": time.strftime("%Y-%m-%dT%H:%M:%S"),
    }


_SERIES_BLOCK = 4096     # rows of a series file formatted at once


def write_series(path, columns: dict, metadata: dict) -> None:
    keys = list(columns)
    n = len(columns[keys[0]])
    cols = [np.asarray(columns[k], dtype=float) for k in keys]
    for c in cols:
        if c.size != n:
            raise ValueError("all columns must share one length")
    row_format = ",".join(["%.17g"] * len(keys))      # "%.17g" % x == f"{x:.17g}"
    with open(path, "w", encoding="utf-8") as f:
        f.write("# " + json.dumps(metadata, sort_keys=True) + "\n" + ",".join(keys) + "\n")
        for r0 in range(0, n, _SERIES_BLOCK):
            rows = np.column_stack([c[r0:r0 + _SERIES_BLOCK] for c in cols]).tolist()
            f.write("\n".join(row_format % tuple(row) for row in rows) + "\n")


def read_series(path):
    with open(path, encoding="utf-8") as f:
        head = f.readline()
        if not head.startswith("# "):
            raise ValueError(f"{path}: missing metadata header line")
        metadata = json.loads(head[2:])
        keys = f.readline().rstrip("\n").split(",")
        first = f.readline()
        # loadtxt warns on an empty body, so a file with no rows never reaches it
        body = (np.loadtxt(itertools.chain([first], f), delimiter=",", ndmin=2) if first
                else np.empty((0, len(keys))))
    if body.shape[1] != len(keys):
        raise ValueError(f"{path}: {body.shape[1]} values per row under {len(keys)} column names")
    return metadata, dict(zip(keys, np.ascontiguousarray(body.T)))


def write_report(path, payload: dict, metadata: dict) -> None:
    doc = {"metadata": metadata, "report": payload}
    Path(path).write_text(json.dumps(doc, sort_keys=True, indent=1) + "\n",
                          encoding="utf-8")


def read_report(path):
    doc = json.loads(Path(path).read_text(encoding="utf-8"))
    return doc["metadata"], doc["report"]


def _without_timestamp(path):
    """An output file's content without its metadata's created_at; None if malformed."""
    text = Path(path).read_text(encoding="utf-8")
    try:
        if Path(path).suffix == ".json":          # a JSON object with a "metadata" object
            doc = json.loads(text)
            doc["metadata"].pop("created_at", None)
            return json.dumps(doc, sort_keys=True)
        head, body = text.split("\n", 1)           # a "# {json object}" line, then the rows
        meta = json.loads(head[2:])
        meta.pop("created_at", None)
        return meta, body
    except (ValueError, LookupError, TypeError, AttributeError):
        return None


def files_equal_ignoring_timestamp(path_a, path_b) -> bool:
    """Byte equality of two output files, created_at excluded; a malformed file equals none."""
    a = _without_timestamp(path_a)
    return a is not None and a == _without_timestamp(path_b)


# --- per-scenario set-up and output builders ---------------------------------

def _grid(cfg: ScenarioConfig) -> np.ndarray:
    return np.arange(cfg.n_steps + 1) * cfg.dt


def _snapshot_steps(cfg: ScenarioConfig, n_snap: int = 41):
    return np.unique(np.linspace(0, cfg.n_steps, n_snap).astype(int))


def _fields(report) -> dict:
    """A report dataclass's fields as a JSON payload, arrays as lists."""
    return {k: v.tolist() if isinstance(v, np.ndarray) else v
            for k, v in vars(report).items()}


def _record(run) -> dict:
    """Detector record of trajectory 0, from its pre-step <L> (``run.signal0``)."""
    cfg = run.cfg
    dW = wiener_path(derive_seed(run.seed, 0), cfg.dt, cfg.n_steps)
    dy = measurement_record(dW, run.signal0[:-1], cfg.dt, cfg.xi_r, float(cfg.params["lam"]))
    return {"t": _grid(cfg)[:-1], "dy": dy}


class _SpinRun:
    """A spin scenario's set-up, its shared lock-step ensemble and its builders."""

    def __init__(self, cfg: ScenarioConfig):
        self.cfg, self.seed = cfg, cfg.base_seed
        self.sp = cfg.spin()
        self.u = UnravelingParams(cfg.xi_r, cfg.xi_i, self.sp.lam)
        self.psi0 = cfg.psi0()
        self.model = spin_model(self.sp)

    @cached_property
    def ensemble(self):
        # every step is a snapshot when the trajectory series is requested;
        # the ensemble_mean and collapse_stats rows are a subset of them
        cfg = self.cfg
        snaps = (np.arange(cfg.n_steps + 1) if "trajectory" in cfg.outputs
                 else _snapshot_steps(cfg))
        return simulate_ensemble(self.model, self.u, self.psi0, cfg.dt, cfg.n_steps,
                                 cfg.n_trajectories, self.seed, snapshot_steps=snaps,
                                 tracked_observables={"sz": SIGMA_Z})

    def trajectory(self) -> dict:
        sz = self.ensemble.means["sz"]
        return {"t": _grid(self.cfg),
                **{f"sz_{k:03d}": sz[:, k] for k in range(sz.shape[1])}}

    @cached_property
    def signal0(self) -> np.ndarray:
        """<L> of trajectory 0 at every step, from its own stream ``derive_seed(seed, 0)``."""
        cfg = self.cfg
        return simulate_trajectory(self.model, self.u, self.psi0, cfg.dt, cfg.n_steps,
                                   derive_seed(self.seed, 0), {"L": self.model.L})[1]["L"]

    def ensemble_mean(self) -> dict:
        result = self.ensemble.at_steps(_snapshot_steps(self.cfg))
        oracle = master_equation_oracle(result, self.model, self.sp.lam)
        sz_oracle = np.array([np.trace(r @ self.model.L).real for r in oracle])
        rho_diff = np.max(np.abs(result.rhos - oracle), axis=(1, 2))
        return {"t": result.times, "mean_sz": result.mean_of("sz"),
                "stderr_sz": result.se_of("sz"), "lindblad_sz": sz_oracle,
                "rho_maxdiff": rho_diff}

    def collapse_stats(self) -> dict:
        result = self.ensemble.at_steps(_snapshot_steps(self.cfg))
        rep = collapse_statistics(result)
        member_rate = replace(self.sp, lam=self.sp.lam * self.cfg.xi_r ** 2)   # see _settles
        return {**_fields(rep), "fraction_up": rep.fraction_up,
                **_fields(supermartingale_check(result, member_rate))}

    def bell(self) -> dict:
        cfg = self.cfg
        return bell_report(self.sp, self.psi0, t_final=cfg.t_final, dt=cfg.dt,
                           n_traj=cfg.n_trajectories, base_seed=self.seed)


class _MechRun:
    """A mechanical scenario's set-up, its trajectory 0 and its builders."""

    columns_xi = {"nonlinear": 1.0, "linear": -1j}   # the members of the sigma_*, resid_* columns

    def __init__(self, cfg: ScenarioConfig):
        self.cfg, self.seed = cfg, cfg.base_seed
        self.p, self.a0 = cfg.mechanical(), cfg.a0()
        self.x0 = float(cfg.params.get("x0", 0.0))
        self.k0 = float(cfg.params.get("k0", 0.0))
        self.ts = _grid(cfg)

    @cached_property
    def path0(self):
        """(width, centroid, wavenumber) of trajectory 0 at every step.

        It is an ensemble of one, driven by
        ``wiener_path(derive_seed(seed, 0), dt, n_steps)``.
        """
        cfg = self.cfg
        a = simulate_width(self.p, self.a0, cfg.xi, cfg.dt, cfg.n_steps)
        x, k = centroid_ensemble(self.p, self.a0, cfg.xi, self.x0, self.k0,
                                 cfg.dt, cfg.n_steps, 1, self.seed,
                                 snapshot_steps=np.arange(cfg.n_steps + 1))
        return a, x[:, 0], k[:, 0]

    signal0 = property(lambda self: self.path0[1])   # <L> = <x>: trajectory 0's centroid

    def sigma(self) -> dict:
        return {"t": self.ts, **{f"sigma_{name}": conditional_spread_x(self.ts, self.p, self.a0, xi)
                                 for name, xi in self.columns_xi.items()}}

    def var(self) -> dict:
        return {"t": self.ts, "var": variance_x(self.ts, self.p, self.a0)}

    def riccati(self) -> dict:
        flows = [(name, conditional_covariance_series(self.ts, self.p, self.a0, xi), xi)
                 for name, xi in self.columns_xi.items()]
        flows.append(("variance", variance_covariance_series(self.ts, self.p, self.a0), None))
        return {"t": self.ts[1:-1],
                **{f"resid_{name}": riccati_residual(ser, riccati_matrices(self.p, xi), self.cfg.dt)
                   for name, ser, xi in flows}}

    def trajectory(self) -> dict:
        a, x, k = self.path0
        return {"t": self.ts, "width_re": a.real, "width_im": a.imag,
                "centroid": x, "wavenumber": k}

    def ensemble_mean(self) -> dict:
        cfg = self.cfg
        snaps = _snapshot_steps(cfg, n_snap=21)
        xs, _ = centroid_ensemble(self.p, self.a0, cfg.xi, self.x0, self.k0,
                                  cfg.dt, cfg.n_steps, cfg.n_trajectories, self.seed,
                                  snapshot_steps=snaps)
        ts = snaps * cfg.dt
        return {"t": ts, "mean_x2_mc": (xs ** 2).mean(axis=1),
                "stderr_x2": (xs ** 2).std(axis=1, ddof=1) / np.sqrt(cfg.n_trajectories),
                "mean_x2_closed_form": mean_square_x(ts, self.p, self.a0, self.x0, self.k0,
                                                     cfg.xi)}


_SETUPS = {"spin": _SpinRun, "mech": _MechRun}
_SERIES, _REPORT = ".csv", ".json"
# (family, kind) -> (file suffix, builder).  A builder returns the kind's series
# (columns) or report payload.  Builders call library functions by their
# module-global names, so a wrapper installed there sees every call.
_BUILDERS = {
    ("spin", "trajectory"): (_SERIES, _SpinRun.trajectory),
    ("spin", "record"): (_SERIES, _record),
    ("spin", "ensemble_mean"): (_SERIES, _SpinRun.ensemble_mean),
    ("spin", "collapse_stats"): (_REPORT, _SpinRun.collapse_stats),
    ("spin", "bell"): (_REPORT, _SpinRun.bell),
    ("mech", "sigma"): (_SERIES, _MechRun.sigma),
    ("mech", "var"): (_SERIES, _MechRun.var),
    ("mech", "riccati"): (_SERIES, _MechRun.riccati),
    ("mech", "trajectory"): (_SERIES, _MechRun.trajectory),
    ("mech", "record"): (_SERIES, _record),
    ("mech", "ensemble_mean"): (_SERIES, _MechRun.ensemble_mean),
}


def _output_path(cfg: ScenarioConfig, out_dir: Path, kind: str) -> Path:
    return out_dir / f"{cfg.name}_{kind}{_BUILDERS[cfg.family, kind][0]}"


def run_scenario(cfg: ScenarioConfig, out_dir, n_workers: int = 1) -> list:
    """Produce every requested output file; returns the written paths.

    ``n_workers`` is accepted for compatibility and has no effect: every
    ensemble runs on one thread.  The scenario's set-up is built once, and
    its trajectories are integrated once and shared by its outputs: one
    lock-step ensemble for a spin scenario, trajectory 0 for a mechanical one.
    Another seed is run with ``run_scenario(cfg.with_seed(seed), ...)``.
    """
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    meta = _metadata(cfg)
    run = _SETUPS[cfg.family](cfg)
    written = []
    for kind in cfg.outputs:
        path = _output_path(cfg, out_dir, kind)
        write = write_series if path.suffix == _SERIES else write_report
        write(path, _BUILDERS[cfg.family, kind][1](run), meta)
        written.append(path)
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


def _check_spreads(cfg: ScenarioConfig, sig: dict, var: dict) -> list:
    a0, series = cfg.a0(), (sig["sigma_nonlinear"], sig["sigma_linear"], var["var"])
    dev = initial_spread_deviation(a0, *series)
    return [CheckOutcome("initial spreads coincide", dev <= SPREAD_RTOL,
                         f"max rel dev {dev:.2e} of ({', '.join(f'{s[0]:.6e}' for s in series)})",
                         f"all equal {initial_spread(a0):.6e}"),
            CheckOutcome("spread ordering collapse <= phase-noise <= variance",
                         spreads_ordered(sig["t"], *series),
                         "pointwise on the written grid", "holds for every t > 0")]


def _check_riccati(cfg: ScenarioConfig, ric: dict) -> list:
    finite = all(np.all(np.isfinite(v)) for v in ric.values())
    return [CheckOutcome("covariance-flow residuals finite", finite,
                         "all columns finite" if finite else "non-finite values",
                         "finite residual series")]


def _check_total_variance(cfg: ScenarioConfig, em: dict) -> list:
    run = _MechRun(cfg)
    dev = total_variance_deviation(em["t"], em["mean_x2_closed_form"], run.p, run.a0,
                                   run.x0, run.k0, cfg.xi)
    return [CheckOutcome("law of total variance: mean_x2_closed_form - ballistic^2 "
                         "= var - spread", dev <= TOTAL_VARIANCE_RTOL,
                         f"max rel dev {dev:.2e} of var",
                         f"<= 10 x quadrature tolerance = {TOTAL_VARIANCE_RTOL:.0e}")]


def _settles(cfg: ScenarioConfig) -> bool:
    # with [H, L] = 0, <sz> follows the xi = 1 equation at the rate lam xi_r^2,
    # and collapse is only complete after many such times
    return float(cfg.params["lam"]) * cfg.xi_r ** 2 * cfg.t_final >= 10.0


def _check_settled(cfg: ScenarioConfig, cols: dict) -> list:
    if not _settles(cfg):
        return []
    finals = np.array([cols[k][-1] for k in cols if k != "t"])
    mn = float(np.min(np.abs(finals)))
    return [CheckOutcome("every trajectory settles on an eigenstate", mn > SETTLED,
                         f"min |<sz>(T)| = {mn:.6f}", f"> {SETTLED}")]


def _check_collapse_stats(cfg: ScenarioConfig, rep: dict) -> list:
    born = CollapseReport(**{f.name: rep[f.name] for f in fields(CollapseReport)})
    se, dev = born.binomial_se, born.born_deviation
    gates = [CheckOutcome("branch frequencies follow the Born weights",
                          dev <= 3.0 * se + 1e-12,
                          f"|{born.fraction_up:.4f} - {born.born_p_up:.4f}| = {dev:.4f}",
                          f"<= 3 binomial SE = {3*se:.4f}"),
             CheckOutcome("mean conditional spread under the collapse bound",
                          bool(rep["bound_ok"]), str(rep["bound_ok"]), "True")]
    return gates if _settles(cfg) else gates[1:]     # Born weights only once settled


def _check_bell(cfg: ScenarioConfig, rep: dict) -> list:
    return [CheckOutcome(*gate) for gate in bell_gates(rep)]


def _check_master_equation(cfg: ScenarioConfig, cols: dict) -> list:
    tol = mc_tolerance(cfg.n_trajectories)
    dev = float(np.max(np.abs(cols["mean_sz"] - cols["lindblad_sz"])))
    return [CheckOutcome("ensemble mean tracks the master equation", dev <= tol,
                         f"max dev {dev:.4f}", f"<= 5/sqrt(N) = {tol:.4f}")]


# family -> (output kinds read, check) in report order; a check runs when the
# config asks for every kind it reads and each was written, and returns no
# outcome when it does not apply.
# The spread, total-variance, Born and Bell checks format the outcome of a gate
# owned by the module they test; the master-equation check holds the written oracle column
# to engine.mc_tolerance, as criterion 1 holds the oracle rho.
_CHECKS = {
    "mech": [(("sigma", "var"), _check_spreads),
             (("riccati",), _check_riccati),
             (("ensemble_mean",), _check_total_variance)],
    "spin": [(("trajectory",), _check_settled),
             (("collapse_stats",), _check_collapse_stats),
             (("bell",), _check_bell),
             (("ensemble_mean",), _check_master_equation)],
}


def scenario_checks(cfg: ScenarioConfig, out_dir) -> list:
    """Re-read the outputs ``cfg`` asks for and evaluate scenario-level expectations.

    Fails only when no checkable output file is found; files whose checks
    do not apply to ``cfg`` (an unsettled horizon, say) give no outcome.
    """
    out_dir = Path(out_dir)
    checks, found = [], False
    for kinds, check in _CHECKS[cfg.family]:
        paths = [_output_path(cfg, out_dir, kind) for kind in kinds]
        if set(kinds) <= set(cfg.outputs) and all(p.exists() for p in paths):
            data = [(read_series(p) if p.suffix == _SERIES else read_report(p))[1]
                    for p in paths]
            checks += check(cfg, *data)
            found = True
    if not found:
        checks.append(CheckOutcome("outputs present", False,
                                   "no checkable output files found", "at least one"))
    return checks
