"""Golden values: the output bits a refactor must keep.

``golden.json`` beside this module holds the ``repr`` of every ``observed``
value of criteria 1-11 (without ``runtime_s``), a SHA-256 of each preset
file's bytes, and the Python and numpy versions they were taken with.
``fig3`` raises, so its files are left out.  The bits depend on the numpy
build, so a mismatch names the versions of both sides.  ``scripts/golden.py --write``
regenerates the file; a change that moves a value on purpose lists the move
with ``scripts/golden.py --diff`` (see :func:`differences`), retakes the file
and says so in ``CHANGES.md``.
"""

import hashlib
import json
import platform
import re
from pathlib import Path

import numpy as np

from unravelings.config import PRESETS, preset
from unravelings.runner import run_scenario

PATH = Path(__file__).with_name("golden.json")
FAILING_PRESETS = {"fig3"}      # raises ZeroDivisionError (ROADMAP item 1)


def versions() -> dict:
    return {"python": platform.python_version(), "numpy": np.__version__}


def observed(result) -> dict:
    """``repr`` of each ``observed`` value of a criterion result but its run time."""
    return {key: repr(value) for key, value in result.observed.items() if key != "runtime_s"}


def preset_digests(out_dir) -> dict:
    """File name -> SHA-256 of its bytes, for every preset that runs."""
    return {path.name: hashlib.sha256(path.read_bytes()).hexdigest()
            for name in PRESETS if name not in FAILING_PRESETS
            for path in run_scenario(preset(name), out_dir)}


def load() -> dict:
    return json.loads(PATH.read_text(encoding="utf-8"))


def mismatch(what: str, golden: dict) -> str:
    """The message of a value that differs from ``golden``, naming both sides' versions."""
    here = versions()
    return (f"{what} differs from {PATH.name}, taken with Python {golden['python']} and "
            f"numpy {golden['numpy']}; this run has Python {here['python']} and "
            f"numpy {here['numpy']}")


_NUMBER = re.compile(r"[-+]?(?:nan|inf|(?:\d+\.?\d*|\.\d+)(?:e[-+]?\d+)?)")


def _relative(old: float, new: float) -> float:
    """|new - old| / |old|, or |new - old| where old is 0."""
    return abs(new - old) / abs(old) if old else abs(new - old)


def differences(want: dict, got: dict) -> tuple:
    """``(lines, summary)``: each criterion value and preset file that differs between ``want``
    and ``got``, and a one-line count.

    A criterion value is compared by its ``repr``.  When both reprs hold the
    same count of numbers, a line follows for each number that moved, with
    its relative change (absolute where the old number is 0).  A preset
    file is compared by its digest.
    """
    lines, worst, n_values = [], 0.0, 0
    for index in sorted(set(want["criteria"]) | set(got["criteria"]), key=int):
        old, new = want["criteria"].get(index, {}), got["criteria"].get(index, {})
        for key in sorted(set(old) | set(new)):
            a, b = old.get(key), new.get(key)
            if a == b:
                continue
            n_values += 1
            lines.append(f"criterion {index} {key}: {a} -> {b}")
            pairs = [_NUMBER.findall(x or "") for x in (a, b)]
            if len(pairs[0]) != len(pairs[1]):
                lines.append("    the numbers do not pair up")
                continue
            for x, y in zip(*pairs):
                if x != y:
                    rel = _relative(float(x), float(y))
                    worst = max(worst, rel)
                    lines.append(f"    {x} -> {y}: relative change {rel:.3g}")
    files = sorted(set(want["presets"]) | set(got["presets"]))
    moved = [name for name in files if want["presets"].get(name) != got["presets"].get(name)]
    lines += [f"preset file {name}: digest changed" for name in moved]
    summary = (f"{n_values} criterion values differ (largest relative change {worst:.3g}); "
               f"{len(moved)} of {len(files)} preset files differ")
    return lines, summary
