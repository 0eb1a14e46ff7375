#!/usr/bin/env python3
"""Take the golden values of tests/golden.json: criteria 1-11 and the preset files.

Runs every acceptance criterion and every preset that runs (with this
interpreter's forked helpers) and prints the values as JSON; ``--write``
writes them to tests/golden.json instead.  ``--diff`` lists every value
that differs from tests/golden.json, with the relative change of each
number, and exits 1 if any does.  Takes about as long as
``unravelings check``.

    PYTHONPATH=src python scripts/golden.py --diff
    PYTHONPATH=src python scripts/golden.py --write
"""

import argparse
import json
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "tests"))

import golden  # noqa: E402  (tests/golden.py, found through the path set above)
from unravelings.acceptance import run_criteria  # noqa: E402


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    mode = ap.add_mutually_exclusive_group()
    mode.add_argument("--write", action="store_true", help=f"write {golden.PATH}")
    mode.add_argument("--diff", action="store_true",
                      help=f"list what differs from {golden.PATH}; exit 1 if anything does")
    args = ap.parse_args()
    values = dict(golden.versions())
    values["criteria"] = {str(r.index): golden.observed(r) for r in run_criteria()}
    with tempfile.TemporaryDirectory() as out:
        values["presets"] = golden.preset_digests(out)
    text = json.dumps(values, indent=1, sort_keys=True) + "\n"
    if args.diff:
        lines, summary = golden.differences(golden.load(), values)
        print("\n".join(lines + [summary]))
        sys.exit(1 if lines else 0)
    if args.write:
        golden.PATH.write_text(text, encoding="utf-8")
        print(f"wrote {golden.PATH}")
    else:
        sys.stdout.write(text)


if __name__ == "__main__":
    main()
