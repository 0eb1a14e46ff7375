#!/usr/bin/env python3
"""Take the golden values of tests/golden.json: criteria 1-11 and the preset files.

Runs every acceptance criterion and every preset that runs (with this
interpreter's forked helpers) and prints the values as JSON; ``--write``
writes them to tests/golden.json instead.  Takes about as long as
``unravelings check``.

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
    ap.add_argument("--write", action="store_true", help=f"write {golden.PATH}")
    args = ap.parse_args()
    values = dict(golden.versions())
    values["criteria"] = {str(r.index): golden.observed(r) for r in run_criteria()}
    with tempfile.TemporaryDirectory() as out:
        values["presets"] = golden.preset_digests(out)
    text = json.dumps(values, indent=1, sort_keys=True) + "\n"
    if args.write:
        golden.PATH.write_text(text, encoding="utf-8")
        print(f"wrote {golden.PATH}")
    else:
        sys.stdout.write(text)


if __name__ == "__main__":
    main()
