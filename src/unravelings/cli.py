"""Command-line front end: run scenarios, list presets, run acceptance checks."""

import argparse
import json
import sys
from pathlib import Path

from .config import PRESETS, ConfigError, load_config, preset

_DESCRIBE = {
    "fig1": """\
fig1 (free particle, mass 1e-15 kg, coupling 1e23 /m^2/s, width 0.25e9 /m^2)
  sigma.csv   : sigma_nonlinear = 1/(4 Re a(t)) with the tanh-form width of the
                collapsing member; sigma_linear = same for the phase-noise member
                (rational width).  Both start at 1e-9 m^2.
  var.csv     : density-matrix variance = phase-noise spread + lam hbar^2 t^3/(3 m^2);
                member-independent.
  riccati.csv : central-difference residuals of the covariance matrix flow
                dS/dt = A S + S A^T + D - S B B^T S per member and for the variance.
""",
    "fig2": """\
fig2 (spin-1/2, hbar = nu = lam = 1, initial state (1/2, sqrt(3)/2))
  trajectory.csv     : <sigma_z> along ten collapse-member trajectories; each
                       settles at +1 or -1 with Born weights (1/4, 3/4).
  ensemble_mean.csv  : Monte Carlo mean of <sigma_z> vs the deterministic
                       master-equation value and the max-norm density-matrix gap.
  collapse_stats.json: branch counts, Born weight, and the supermartingale bound
                       E[s_t] <= s_0/(1 + 4 lam s_0 t) on the mean conditional spread.
""",
    "fig3": """\
fig3 (trapped particle, omega 1e4 rad/s, SI units)
  sigma.csv : tanh-form conditional spreads of both members (trap-modified
              rate/asymptote constants).
  var.csv   : breathing term plus windowed noise term
              lam hbar^2/(2 m^2 omega^2) (t - sin(2 omega t)/(2 omega)).
""",
    "bell": """\
bell (singlet pairs; Alice measures z or x)
  bell.json : analytic part - Bob's two ensembles give identical density
              matrices (max-norm <= 1e-15) while the mean sigma_z spread is 0
              (z basis) vs 1 (x basis); dynamical part - the collapsing member
              kills the spread, the phase-noise member preserves it, with the
              ensemble density matrices equal within Monte Carlo error.
""",
    "riccati_free": """\
riccati_free (natural units, omega = 0)
  riccati.csv : residuals of the three covariance flows; the residual of an
                exact series falls as the square of the grid spacing.
""",
    "riccati_harmonic": """\
riccati_harmonic (natural units, omega = 0.5)
  riccati.csv : as riccati_free with the trap drift term active.
""",
}


def _out_dir(command: str, path) -> Path | None:
    """``path`` as an existing directory, made if need be; None, after one line
    on stderr naming it, when it cannot be (a file is there, say)."""
    out = Path(path)
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        print(f"{command}: cannot use {out} as the output directory: {exc.strerror}",
              file=sys.stderr)
        return None
    return out


def _cmd_run(args) -> int:
    from .runner import run_scenario, scenario_checks
    try:
        cfg = preset(args.preset) if args.preset is not None else load_config(args.config)
        if args.seed is not None:
            cfg = cfg.with_seed(args.seed)
    except ConfigError as exc:
        print(exc, file=sys.stderr)
        return 2
    out_dir = _out_dir("run", args.out)
    if out_dir is None:
        return 2
    written = run_scenario(cfg, out_dir)
    for p in written:
        print(f"wrote {p}")
    if args.check:
        checks = scenario_checks(cfg, out_dir)
        ok = True
        for c in checks:
            print(c.line())
            ok = ok and c.passed
        return 0 if ok else 1
    return 0


def _cmd_presets(_args) -> int:
    for name in PRESETS:
        print(_DESCRIBE[name].splitlines()[0])
    return 0


def _cmd_describe(args) -> int:
    if args.preset not in _DESCRIBE:
        print(f"unknown preset {args.preset!r}; available: {sorted(PRESETS)}",
              file=sys.stderr)
        return 2
    print(_DESCRIBE[args.preset], end="")
    return 0


def _cmd_check(args) -> int:
    from .acceptance import CRITERIA, run_criteria
    only = None
    if args.only is not None:
        tokens = [tok.strip() for tok in args.only.split(",")]
        if any(tok not in {str(i) for i in CRITERIA} for tok in tokens):
            print(f"check: --only takes criterion numbers 1..{len(CRITERIA)} separated "
                  f"by commas, got {args.only!r}", file=sys.stderr)
            return 2
        only = sorted(int(tok) for tok in tokens)
        if len(set(only)) < len(only):
            print(f"check: --only lists a criterion twice, got {args.only!r}", file=sys.stderr)
            return 2
    out = None
    if args.out:                    # made before any criterion runs
        out = _out_dir("check", args.out)
        if out is None:
            return 2
    results = run_criteria(only=only, verbose=True)
    if out is not None:
        payload = [r.as_dict() for r in results]
        (out / "acceptance_report.json").write_text(
            json.dumps(payload, indent=1, sort_keys=True) + "\n", encoding="utf-8")
        print(f"wrote {out / 'acceptance_report.json'}")
    return 0 if all(r.passed for r in results) else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="unravelings",
        description="Simulate and compare stochastic unravelings of a "
                    "single-coupling GKLS master equation.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run a scenario and write its series/reports")
    scenario = p_run.add_mutually_exclusive_group(required=True)
    scenario.add_argument("--config", help="path to a JSON scenario config")
    scenario.add_argument("--preset", help="name of a built-in scenario")
    p_run.add_argument("--out", default="out", help="output directory")
    p_run.add_argument("--seed", type=int, default=None, help="override base seed")
    p_run.add_argument("--check", action="store_true",
                       help="evaluate scenario-level checks on the written files")
    p_run.set_defaults(func=_cmd_run)

    p_presets = sub.add_parser("presets", help="list built-in scenarios")
    p_presets.set_defaults(func=_cmd_presets)

    p_desc = sub.add_parser("describe", help="explain what a preset computes")
    p_desc.add_argument("--preset", required=True)
    p_desc.set_defaults(func=_cmd_describe)

    p_check = sub.add_parser("check", help="run the acceptance criteria")
    p_check.add_argument("--only", help="comma-separated criterion numbers")
    p_check.add_argument("--out", help="directory for the JSON report")
    p_check.set_defaults(func=_cmd_check)

    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
