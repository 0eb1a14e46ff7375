"""Golden values: the output bits a refactor must keep.

``golden.json`` beside this module holds the ``repr`` of every ``observed``
value of criteria 1-11 (without ``runtime_s``), a SHA-256 of each preset
file's bytes, and the Python and numpy versions they were taken with.
``fig3`` raises, so its files are left out.  The bits depend on the numpy
build, so a mismatch names the versions of both sides.  ``scripts/golden.py --write``
regenerates the file; a change that moves a value on purpose does that and
says so in ``CHANGES.md``.
"""

import hashlib
import json
import platform
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
