#!/usr/bin/env python3
"""Sweep the seeded config fuzzer of tests/config_fuzz.py over several seeds.

For each seed, runs ``--mutations`` mutated presets through
``validate_config`` and ``unravelings run --check`` and prints how each
ended (rejected, too large to run, or the exit code), with the wall time,
and under it the count of each exit 1 and exit 3 cause: the preset, and the
first failed check or the error of a run that failed numerically.
Every finding (a traceback, a warning, or an exit code other than 0, 1 or
3 from a config that validated) is printed on its own line, and the script
exits 1 if there is any.

    PYTHONPATH=src python scripts/fuzz_configs.py --seeds 1 2 3 4 5 --mutations 2000
"""

import argparse
import sys
import tempfile
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "tests"))

import config_fuzz  # noqa: E402  (tests/config_fuzz.py, found through the path set above)


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--seeds", type=int, nargs="+", default=[1, 2, 3, 4, 5],
                    help="seeds of random.Random, one sweep each (default 1 2 3 4 5)")
    ap.add_argument("--mutations", type=int, default=2000, help="mutations per seed")
    args = ap.parse_args()
    found = []
    for seed in args.seeds:
        t0 = time.perf_counter()
        with tempfile.TemporaryDirectory() as out:
            counts, causes, findings = config_fuzz.sweep(seed, args.mutations, out)
        outcomes = ", ".join(f"{key} {n}" for key, n in sorted(counts.items()))
        print(f"seed {seed}: {outcomes} ({time.perf_counter() - t0:.1f} s)")
        for (name, cause), n in sorted(causes.items(), key=lambda item: (-item[1], item[0])):
            print(f"  {n:4d}  {name}: {cause}")
        found += findings
    for line in found:
        print(line)
    print(f"{len(found)} findings")
    sys.exit(1 if found else 0)


if __name__ == "__main__":
    main()
