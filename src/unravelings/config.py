"""Scenario configuration: schema, validation and named presets.

Configs are JSON files.  Validation is strict (unknown keys are errors, not
warnings) and exhaustive: every violation found is reported, not just the
first.  Outputs that integrate a stochastic equation put dt through the
integrator's own stability guard; closed-form series outputs only use dt
as a grid spacing.  A mechanical config must give finite closed-form
spreads and variance at t = 0 and t_final, whatever its outputs.  The step
count, the trajectory count and their product have caps, so a config that
validates can run.
"""

import json
import math
import re
from dataclasses import dataclass, replace

import numpy as np

from .engine import UnravelingParams, check_stability
from .gaussian import HBAR_SI, MechanicalParams, check_width_stability, conditional_spread_x, \
    variance_x
from .spin import SpinParams, spin_model

# model -> family; the models of one family share their output kinds
FAMILIES = {"spin": "spin", "free_particle": "mech", "harmonic": "mech"}
# family -> {output kind: whether it integrates an SDE and so faces the
# stability budget}
OUTPUT_KINDS = {
    "spin": {"trajectory": True, "ensemble_mean": True, "record": True,
             "collapse_stats": True, "bell": True},
    "mech": {"trajectory": True, "ensemble_mean": True, "record": True,
             "sigma": False, "var": False, "riccati": False},
}
_SE_KINDS = ("ensemble_mean", "collapse_stats")   # report a standard error (ddof = 1)
# output files are named <name>_<kind>.<ext> inside the output directory
_NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]*")

# The largest run a config may ask for.  What each cap bounds, at the cap,
# on one core of a 2-core x86 machine:
# - MAX_STEPS: the time grid and each per-step series column, 8 MB; one
#   trajectory's state stack, 32 MB, and ~20 s of its serial steps;
# - MAX_TRAJECTORIES: ~7 s of per-trajectory seeds, and 32 MB of final states;
# - MAX_TRAJECTORY_STEPS (trajectories x steps): ~5 s of lock-step steps, and
#   0.8 GB of the per-step means behind a spin "trajectory" output.
MAX_STEPS = 10 ** 6
MAX_TRAJECTORIES = 10 ** 6
MAX_TRAJECTORY_STEPS = 10 ** 8

_TOP_KEYS = {"name", "model", "unraveling", "params", "dt", "t_final",
             "n_trajectories", "base_seed", "outputs"}
_SPIN_KEYS = {"nu", "lam", "hbar", "psi0"}
_MECH_KEYS = {"mass", "omega", "lam", "hbar", "a0", "x0", "k0"}


class ConfigError(ValueError):
    """Carries every validation violation found in a config."""

    def __init__(self, violations):
        self.violations = list(violations)
        super().__init__("invalid configuration:\n" +
                         "\n".join(f"  - {v}" for v in self.violations))


@dataclass(frozen=True)
class ScenarioConfig:
    name: str
    model: str
    xi_r: float
    xi_i: float
    params: dict
    dt: float
    t_final: float
    n_trajectories: int
    base_seed: int
    outputs: tuple

    @property
    def family(self) -> str:
        return FAMILIES[self.model]

    @property
    def xi(self) -> complex:
        return complex(self.xi_r, self.xi_i)

    @property
    def n_steps(self) -> int:
        return int(round(self.t_final / self.dt))

    def psi0(self) -> np.ndarray:
        pairs = self.params["psi0"]
        v = np.array([complex(re, im) for re, im in pairs])
        return v / np.linalg.norm(v)

    def spin(self) -> SpinParams:
        p = self.params
        return SpinParams(float(p["nu"]), float(p["lam"]), float(p.get("hbar", 1.0)))

    def mechanical(self) -> MechanicalParams:
        p = self.params
        omega = p.get("omega", 0.0) if self.model == "harmonic" else 0.0
        return MechanicalParams(mass=float(p["mass"]), omega=float(omega), lam=float(p["lam"]),
                                hbar=float(p.get("hbar", HBAR_SI)))

    def a0(self) -> complex:
        re, im = self.params["a0"]
        return complex(re, im)

    def with_seed(self, seed) -> "ScenarioConfig":
        """This config with ``base_seed`` replaced; an invalid seed raises ConfigError."""
        if bad := _seed_violation(seed):
            raise ConfigError([bad])
        return replace(self, base_seed=seed)

    def echo(self) -> dict:
        return {
            "name": self.name, "model": self.model,
            "unraveling": {"xi": [self.xi_r, self.xi_i]},
            "params": self.params, "dt": self.dt, "t_final": self.t_final,
            "n_trajectories": self.n_trajectories, "base_seed": self.base_seed,
            "outputs": list(self.outputs),
        }


def _real(raw):
    """``raw`` as a float if it is a finite real number (not a bool), else None."""
    if isinstance(raw, bool) or not isinstance(raw, (int, float)):
        return None
    try:
        v = float(raw)
    except OverflowError:
        return None
    return v if math.isfinite(v) else None


def _as_positive(raw, key, errs, allow_zero=False):
    v = _real(raw)
    if v is None:
        errs.append(f"{key}: expected a finite number, got {raw!r}")
        return None
    if v < 0.0 or (v == 0.0 and not allow_zero):
        errs.append(f"{key}: must be {'>= 0' if allow_zero else '> 0'}, got {v}")
        return None
    return v


def _is_int(v) -> bool:
    """True for an int that is not a bool (bool subclasses int)."""
    return isinstance(v, int) and not isinstance(v, bool)


def _seed_violation(seed) -> str | None:
    if not _is_int(seed) or seed < 0:
        return f"base_seed: must be a non-negative integer, got {seed!r}"


def validate_config(raw: dict) -> ScenarioConfig:
    """Validate a raw config dict, raising ConfigError with all violations."""
    errs = []
    if not isinstance(raw, dict):
        raise ConfigError(["config root must be a JSON object"])
    unknown = set(raw) - _TOP_KEYS
    if unknown:
        errs.append(f"unknown top-level keys: {sorted(unknown)}")

    model = raw.get("model")
    if not isinstance(model, str) or model not in FAMILIES:
        errs.append(f"model: must be one of {tuple(FAMILIES)}, got {model!r}")
        raise ConfigError(errs)
    name = raw.get("name", model)
    if not isinstance(name, str) or not _NAME.fullmatch(name):
        errs.append(f"name: must be a string matching {_NAME.pattern}, got {name!r}")

    # unraveling -> (xi_r, xi_i)
    unr = raw.get("unraveling", "nonlinear")
    xi_r = xi_i = None
    if unr == "nonlinear":
        xi_r, xi_i = 1.0, 0.0
    elif unr == "linear":
        xi_r, xi_i = 0.0, -1.0
    elif isinstance(unr, dict) and set(unr) == {"xi"}:
        xi = unr["xi"]
        parts = [_real(v) for v in xi] if isinstance(xi, list) and len(xi) == 2 else [None]
        if None in parts:
            errs.append(f"unraveling.xi: expected two finite numbers [r, i], got {xi!r}")
        else:
            xi_r, xi_i = parts
            try:
                UnravelingParams(xi_r, xi_i, 0.0)     # the one owner of the xi rule
            except ValueError as exc:
                errs.append(f"unraveling.xi: {exc}")
    else:
        errs.append(f"unraveling: must be 'nonlinear', 'linear' or {{'xi': [r, i]}}, got {unr!r}")

    dt = _as_positive(raw.get("dt"), "dt", errs)
    t_final = _as_positive(raw.get("t_final"), "t_final", errs)
    n_steps = None
    if dt is not None and t_final is not None:
        ratio = t_final / dt
        if not ratio <= MAX_STEPS:          # an inf ratio too
            errs.append(f"t_final / dt: {ratio:.4g} steps exceeds MAX_STEPS = {MAX_STEPS}")
        elif abs(ratio - round(ratio)) > 1e-9 * ratio:
            errs.append(f"t_final: {t_final} is not a whole number of steps of dt = {dt}")
        else:
            n_steps = round(ratio)
    n_traj = raw.get("n_trajectories", 1)
    if not _is_int(n_traj) or n_traj < 1:
        errs.append(f"n_trajectories: must be a positive integer, got {n_traj!r}")
    elif n_traj > MAX_TRAJECTORIES:
        errs.append(f"n_trajectories: {n_traj} exceeds MAX_TRAJECTORIES = {MAX_TRAJECTORIES}")
    elif n_steps is not None and n_traj * n_steps > MAX_TRAJECTORY_STEPS:
        errs.append(f"n_trajectories x steps: {n_traj} x {n_steps} exceeds "
                    f"MAX_TRAJECTORY_STEPS = {MAX_TRAJECTORY_STEPS}")
    base_seed = raw.get("base_seed", 0)
    if bad := _seed_violation(base_seed):
        errs.append(bad)

    outputs = raw.get("outputs", [])
    if not isinstance(outputs, (list, tuple)) or not outputs:
        errs.append("outputs: must be a non-empty list")
        outputs = []
    allowed = OUTPUT_KINDS[FAMILIES[model]]
    for i, o in enumerate(outputs):
        if not isinstance(o, str) or not any(o in kinds for kinds in OUTPUT_KINDS.values()):
            errs.append(f"outputs: unknown kind {o!r}")
        elif o in outputs[:i]:
            errs.append(f"outputs: {o!r} is listed more than once")
        elif o not in allowed:
            errs.append(f"outputs: {o!r} is not available for model {model!r}")
        elif o in _SE_KINDS and n_traj == 1 and _is_int(n_traj):
            errs.append(f"n_trajectories: {o!r} reports a standard error, which needs "
                        "at least 2 trajectories")
        elif o == "riccati" and n_steps is not None and n_steps < 2:
            errs.append(f"t_final / dt: 'riccati' takes central differences, which need "
                        f"at least 2 steps, got {n_steps}")

    params = raw.get("params", {})
    if not isinstance(params, dict):
        errs.append("params: must be an object")
        params = {}
    if "hbar" in params:
        _as_positive(params["hbar"], "params.hbar", errs)
    if model == "spin":
        unknown = set(params) - _SPIN_KEYS
        if unknown:
            errs.append(f"params: unknown spin keys {sorted(unknown)}")
        for key in ("nu", "lam"):
            if key not in params:
                errs.append(f"params.{key}: required for spin")
            else:
                _as_positive(params[key], f"params.{key}", errs, allow_zero=True)
        psi0 = params.get("psi0")
        if (not isinstance(psi0, list) or len(psi0) != 2
                or any(not isinstance(c, list) or len(c) != 2 for c in psi0)
                or any(_real(v) is None for c in psi0 for v in c)):
            errs.append("params.psi0: expected [[re_up, im_up], [re_down, im_down]] "
                        "of finite numbers")
        else:
            nrm = sum(r * r + i * i for r, i in psi0)
            if abs(nrm - 1.0) > 1e-6:
                errs.append(f"params.psi0: squared norm {nrm} must be 1 within 1e-6")
    else:
        unknown = set(params) - _MECH_KEYS
        if unknown:
            errs.append(f"params: unknown mechanical keys {sorted(unknown)}")
        for key in ("mass", "lam"):
            if key not in params:
                errs.append(f"params.{key}: required for {model}")
            else:
                _as_positive(params[key], f"params.{key}", errs, allow_zero=(key == "lam"))
        if model == "harmonic":
            if "omega" not in params:
                errs.append("params.omega: required for harmonic")
            else:
                _as_positive(params["omega"], "params.omega", errs)
        elif "omega" in params and _real(params["omega"]) != 0.0:
            errs.append("params.omega: must be absent or 0 for free_particle")
        for key in ("x0", "k0"):
            if key in params and _real(params[key]) is None:
                errs.append(f"params.{key}: expected a finite number, got {params[key]!r}")
        a0 = params.get("a0")
        if (not isinstance(a0, list) or len(a0) != 2
                or any(_real(v) is None for v in a0)):
            errs.append("params.a0: expected [re, im] in 1/m^2, finite numbers")
        elif a0[0] <= 0.0:
            errs.append(f"params.a0: real part must be > 0, got {a0[0]}")

    # a reading and a collapse both need the collapse rate lam xi_r^2 > 0
    zero = "xi_r" if xi_r == 0.0 else "lam" if _real(params.get("lam")) == 0.0 else None
    for kind, why in (("record", "a measurement reading"),
                      ("collapse_stats", "a member that collapses")):
        if zero and kind in outputs:
            errs.append(f"outputs: {kind!r} requires {zero} > 0 ({why})")

    if errs:
        raise ConfigError(errs)

    cfg = ScenarioConfig(
        name=name, model=model, xi_r=xi_r, xi_i=xi_i,
        params=params, dt=dt, t_final=t_final, n_trajectories=n_traj,
        base_seed=base_seed, outputs=tuple(outputs))

    # the stability budget only gates outputs that integrate an SDE
    if any(allowed[o] for o in cfg.outputs):
        try:
            if model == "spin":
                sp = cfg.spin()
                check_stability(spin_model(sp), UnravelingParams(xi_r, xi_i, sp.lam), dt)
            else:
                check_width_stability(cfg.mechanical(), cfg.a0(), cfg.xi, dt)
        except ValueError as exc:
            raise ConfigError([str(exc)]) from None
        except ArithmeticError as exc:      # an overflow or a zero division in the rate
            raise ConfigError([f"stability check failed numerically: {exc!r}"]) from None
    if model != "spin":
        _check_closed_forms(cfg)
    return cfg


def _check_closed_forms(cfg: ScenarioConfig) -> None:
    """ConfigError unless both members' closed-form spreads and the variance are
    finite at t = 0 and t_final; every mechanical output reads them."""
    p, a0, ts = cfg.mechanical(), cfg.a0(), np.array([0.0, cfg.t_final])
    try:
        with np.errstate(all="ignore"):
            values = [variance_x(ts, p, a0), conditional_spread_x(ts, p, a0, 1.0),
                      conditional_spread_x(ts, p, a0, -1j)]
    except ValueError as exc:
        raise ConfigError([f"closed-form spreads: {exc}"]) from None
    except ArithmeticError as exc:
        raise ConfigError([f"closed-form spreads failed numerically: {exc!r}"]) from None
    if not np.all(np.isfinite(values)):
        raise ConfigError(["closed-form spreads: not finite at t = 0 or t_final"])


def load_config(path: str) -> ScenarioConfig:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError([f"cannot read {path}: {exc}"]) from None
    try:
        raw = _decoded(text)
    except json.JSONDecodeError as exc:
        raise ConfigError([f"not valid JSON: {exc}"]) from None
    return validate_config(raw)


def _decoded(text: str):
    """``json.loads(text)``, but a key repeated in one object, at any depth, raises ConfigError."""
    repeats = {}        # id of an object -> (the object, kept alive; its first repeated key)

    def pairs_hook(pairs):
        obj, keys = dict(pairs), [k for k, _ in pairs]
        if len(obj) < len(keys):
            repeats[id(obj)] = obj, next(k for i, k in enumerate(keys) if k in keys[:i])
        return obj

    raw = json.loads(text, object_pairs_hook=pairs_hook)
    nodes = [("", raw)] if isinstance(raw, (dict, list)) else []
    for path, node in nodes:            # breadth first: the walk appends what it visits next
        if id(node) in repeats:
            raise ConfigError([f"{path}{repeats[id(node)][1]}: key given more than once"])
        inner = node.items() if isinstance(node, dict) else enumerate(node)
        nodes.extend((f"{path}{k}.", v) for k, v in inner if isinstance(v, (dict, list)))
    return raw


_SQRT3_2 = math.sqrt(3.0) / 2.0
_INV_SQRT2 = 1.0 / math.sqrt(2.0)

PRESETS = {
    # free particle, SI units: collapse spread vs phase-noise spread vs variance
    "fig1": {
        "name": "fig1", "model": "free_particle", "unraveling": "nonlinear",
        "params": {"mass": 1e-15, "lam": 1e23, "hbar": HBAR_SI,
                   "a0": [0.25e9, 0.0], "x0": 0.0, "k0": 0.0},
        "dt": 5e-5, "t_final": 0.05, "n_trajectories": 1, "base_seed": 11,
        "outputs": ["sigma", "var", "riccati"],
    },
    # spin collapse, natural units: ten trajectories reaching +/-1
    "fig2": {
        "name": "fig2", "model": "spin", "unraveling": "nonlinear",
        "params": {"nu": 1.0, "lam": 1.0, "hbar": 1.0,
                   "psi0": [[0.5, 0.0], [_SQRT3_2, 0.0]]},
        "dt": 1e-3, "t_final": 10.0, "n_trajectories": 10, "base_seed": 7,
        "outputs": ["trajectory", "ensemble_mean", "collapse_stats"],
    },
    # trapped particle, SI units (closed-form series only; the parameter set
    # has extreme scale separation between trap and collapse rates)
    "fig3": {
        "name": "fig3", "model": "harmonic", "unraveling": "nonlinear",
        "params": {"mass": 1e-15, "omega": 1e4, "lam": 1e23, "hbar": HBAR_SI,
                   "a0": [1e-3, 0.0], "x0": 0.0, "k0": 0.0},
        "dt": 1.2566370614359173e-3 / 800.0, "t_final": 1.2566370614359173e-3,
        "n_trajectories": 1, "base_seed": 13,
        "outputs": ["sigma", "var"],
    },
    # two-observer ensembles plus the dynamical analogue on one qubit
    "bell": {
        "name": "bell", "model": "spin", "unraveling": "nonlinear",
        "params": {"nu": 1.0, "lam": 1.0, "hbar": 1.0,
                   "psi0": [[_INV_SQRT2, 0.0], [_INV_SQRT2, 0.0]]},
        "dt": 1e-3, "t_final": 1.5, "n_trajectories": 5000, "base_seed": 2024,
        "outputs": ["bell"],
    },
    # natural-unit parameter sets used by the covariance-flow residual study
    "riccati_free": {
        "name": "riccati_free", "model": "free_particle", "unraveling": "nonlinear",
        "params": {"mass": 1.0, "lam": 1.0, "hbar": 1.0,
                   "a0": [0.3, 0.1], "x0": 0.0, "k0": 0.0},
        "dt": 0.01, "t_final": 4.0, "n_trajectories": 1, "base_seed": 5,
        "outputs": ["sigma", "var", "riccati"],
    },
    "riccati_harmonic": {
        "name": "riccati_harmonic", "model": "harmonic", "unraveling": "nonlinear",
        "params": {"mass": 1.0, "omega": 0.5, "lam": 1.0, "hbar": 1.0,
                   "a0": [0.3, 0.1], "x0": 0.0, "k0": 0.0},
        "dt": 0.01, "t_final": 4.0, "n_trajectories": 1, "base_seed": 5,
        "outputs": ["sigma", "var", "riccati"],
    },
}


def preset(name: str) -> ScenarioConfig:
    if name not in PRESETS:
        raise ConfigError([f"unknown preset {name!r}; available: {sorted(PRESETS)}"])
    return validate_config(PRESETS[name])
