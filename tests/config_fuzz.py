"""A seeded config fuzzer: an accepted config ends in a known exit code, never a traceback.

Each mutation starts from a preset, capped at ``START_STEPS`` steps and
``START_TRAJECTORIES`` trajectories, and sets one or two keys, at top level
or in ``params``, to a value of ``VALUES`` or deletes them, drawn from
``random.Random(seed)`` (QuickCheck's method: Claessen & Hughes, ICFP 2000).
The contract: ``validate_config`` raises ConfigError, or ``unravelings run
--check`` on the config returns 0, 1 or 3 and raises nothing, with every
warning an error.  An accepted config above ``MAX_STEPS`` steps or
``MAX_TRAJECTORY_STEPS`` trajectory-steps is skipped unrun; below those
sizes no run forks a noise helper or a chunk piece.  Each exit 1 or 3 is
also counted by its cause: the name of the first failed check, or the
error of a run that failed numerically.
``scripts/fuzz_configs.py`` runs the sweep from the command line.
"""

import contextlib
import copy
import io
import json
import random
import traceback
import warnings
from collections import Counter
from pathlib import Path

from unravelings import cli
from unravelings.config import PRESETS, ConfigError, validate_config

START_STEPS = 200
START_TRAJECTORIES = 50
MAX_STEPS = 2000
MAX_TRAJECTORY_STEPS = 100_000
EXITS = (0, 1, 3)       # success, a failed check, a run that failed numerically

VALUES = {"0": 0, "-1": -1, "1": 1, "0.5": 0.5, "2": 2, "inf": float("inf"),
          "-inf": float("-inf"), "nan": float("nan"), "1e300": 1e300, "1e-300": 1e-300,
          "-1e300": -1e300, "1e-12": 1e-12, "2**64": 2 ** 64, "10**400": 10 ** 400,
          "'x'": "x", "[]": [], "[1, 2]": [1, 2], "{}": {}, "None": None, "True": True}
DELETE = "deleted"


class Finding(Exception):
    """A config whose outcome breaks the contract."""


def _raised(what: str, exc: Exception) -> Finding:
    """A Finding naming the exception that ``what`` raised and its innermost frame."""
    frame = traceback.extract_tb(exc.__traceback__)[-1]
    return Finding(f"{what} raised {type(exc).__name__}: {exc} "
                   f"(in {frame.name}, {Path(frame.filename).name}:{frame.lineno})")


def start(name: str) -> dict:
    """Preset ``name`` as plain JSON data, capped at START_STEPS steps and START_TRAJECTORIES."""
    raw = json.loads(json.dumps(PRESETS[name]))
    raw["t_final"] = min(raw["t_final"], START_STEPS * raw["dt"])
    raw["n_trajectories"] = min(raw["n_trajectories"], START_TRAJECTORIES)
    return raw


def mutation(rng: random.Random) -> tuple:
    """``(label, raw)``: a capped preset with one or two keys set or deleted."""
    name = rng.choice(sorted(PRESETS))
    raw, changes = start(name), []
    for _ in range(rng.choice((1, 2))):
        params = raw.get("params")
        top = rng.random() < 0.5 or not isinstance(params, dict) or not params
        where, prefix = (raw, "") if top else (params, "params.")
        key = rng.choice(sorted(where))
        label = rng.choice(sorted(VALUES) + [DELETE])
        if label == DELETE:
            del where[key]
            changes.append(f"{prefix}{key} deleted")
        else:
            where[key] = copy.deepcopy(VALUES[label])
            changes.append(f"{prefix}{key} = {label}")
    return f"{name}: {', '.join(changes)}", raw


def _cause(printed: str) -> str | None:
    """``"[FAIL] <check>"`` of the first failed check, or ``"failed numerically: <error>"``."""
    for line in printed.splitlines():
        if line.startswith("[FAIL] "):
            return line.split(": observed ", 1)[0]
        if " failed numerically: " in line:
            return "failed numerically: " + line.split(" failed numerically: ", 1)[1]
    return None


def outcome(raw: dict, out_dir: Path) -> tuple:
    """``(outcome, cause)``: ``"rejected"``, ``"too large"`` or ``"exit <code>"``, and the
    :func:`_cause` of an exit 1 or 3 (None otherwise); Finding outside the contract."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            cfg = validate_config(raw)
        except ConfigError:
            return "rejected", None
        except Exception as exc:
            raise _raised("validate_config", exc) from None
        if cfg.n_steps > MAX_STEPS or cfg.n_steps * cfg.n_trajectories > MAX_TRAJECTORY_STEPS:
            return "too large", None
        out_dir.mkdir(parents=True)
        path = out_dir / "config.json"
        path.write_text(json.dumps(raw), encoding="utf-8")
        printed = io.StringIO()
        try:
            with contextlib.redirect_stdout(printed), contextlib.redirect_stderr(printed):
                code = cli.main(["run", "--config", str(path), "--out", str(out_dir / "out"),
                                 "--check"])
        except Exception as exc:
            raise _raised("run", exc) from None
    if code not in EXITS:
        raise Finding(f"run exited {code}: {printed.getvalue().strip()[-300:]}")
    return f"exit {code}", _cause(printed.getvalue())


def sweep(seed: int, n_mutations: int, out_dir) -> tuple:
    """``(counts, causes, findings)`` of ``n_mutations`` mutations from ``random.Random(seed)``.

    ``counts`` maps each outcome to its number, and ``causes`` each
    ``(preset, cause)`` of an exit 1 or 3 to its number; each finding names
    the seed, the mutation's index, its preset and its changes.  Each run
    writes into its own directory under ``out_dir``.
    """
    rng = random.Random(seed)
    counts, causes, findings = Counter(), Counter(), []
    for i in range(n_mutations):
        label, raw = mutation(rng)
        try:
            ended, cause = outcome(raw, Path(out_dir) / f"{seed}_{i}")
        except Finding as exc:
            counts["finding"] += 1
            findings.append(f"seed {seed} mutation {i} ({label}): {exc}")
            continue
        counts[ended] += 1
        if cause is not None:
            causes[label.split(":", 1)[0], cause] += 1
    return counts, causes, findings
