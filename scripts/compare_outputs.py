#!/usr/bin/env python3
"""Compare two output directories file by file, ignoring each file's created_at.

Series (.csv) and report (.json) files are compared with
``runner.files_equal_ignoring_timestamp``; any other file byte for byte.
Prints every file that differs and every file found in one directory only,
then exits 1 if there was any, 0 otherwise.

    python scripts/compare_outputs.py out/before out/after
"""

import argparse
import sys
from pathlib import Path

from unravelings.runner import files_equal_ignoring_timestamp


def _files(root: Path) -> set:
    return {p.relative_to(root) for p in root.rglob("*") if p.is_file()}


def _same(a: Path, b: Path) -> bool:
    if a.suffix in (".csv", ".json"):
        return files_equal_ignoring_timestamp(a, b)
    return a.read_bytes() == b.read_bytes()


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("dir_a", type=Path)
    ap.add_argument("dir_b", type=Path)
    args = ap.parse_args()
    for d in (args.dir_a, args.dir_b):
        if not d.is_dir():
            ap.error(f"{d} is not a directory")

    in_a, in_b = _files(args.dir_a), _files(args.dir_b)
    both = sorted(in_a & in_b)
    differ = [rel for rel in both if not _same(args.dir_a / rel, args.dir_b / rel)]
    for rel in differ:
        print(f"differs: {rel}")
    for rel in sorted(in_a - in_b):
        print(f"only in {args.dir_a}: {rel}")
    for rel in sorted(in_b - in_a):
        print(f"only in {args.dir_b}: {rel}")
    n_diff = len(differ) + len(in_a ^ in_b)
    print(f"{len(both) - len(differ)} of {len(in_a | in_b)} files equal apart from created_at")
    sys.exit(1 if n_diff else 0)


if __name__ == "__main__":
    main()
