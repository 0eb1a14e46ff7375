"""Benchmark of the unravelings library: four workloads, timed end to end and per layer.

Run from the root of a checkout:

    python3 perfbench/run.py --workload spin_ensemble --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --workload all --seed 1

One run repeats whole rounds of the workload's operations until the timed
passes add up to ``--seconds``, checks every round's outputs, and prints as
its last line a JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``.
``--trace 0`` reports the end-to-end metrics; ``--trace 1`` adds one traced
round and reports the per-layer metrics instead.  See README.md in this
directory.
"""

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import NamedTuple

from speed import SpeedProbe, kernel, reference_seconds

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"
SETUP_PROBES = 7


def import_program():
    """Put the checkout's src/ first on the path and import the package from it."""
    src = ROOT / "src"
    if not (src / "unravelings" / "__init__.py").is_file():
        sys.exit(f"perfbench: no program source at {src}/unravelings")
    sys.path.insert(0, str(src))
    import unravelings
    if Path(unravelings.__file__).resolve().parent != src / "unravelings":
        sys.exit(f"perfbench: imported unravelings from {unravelings.__file__}, not {src}")


def setup_seconds(workload, seed):
    """Median over fresh interpreters of start -> program imported and inputs built."""
    times = []
    for _ in range(SETUP_PROBES):
        t0 = time.perf_counter()
        with subprocess.Popen([sys.executable, str(Path(__file__).resolve()), "--setup-probe",
                               "--workload", workload, "--seed", str(seed)],
                              stdout=subprocess.PIPE, text=True) as proc:
            line = proc.stdout.readline()
            times.append(time.perf_counter() - t0)
            proc.stdout.read()
        if proc.returncode != 0 or line.strip() != "ready":
            sys.exit(f"perfbench: set-up probe failed with code {proc.returncode}")
    return statistics.median(times)


def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0   # KiB on Linux


class Round(NamedTuple):
    wall: float          # seconds on the clock, speed probes included
    ref_wall: float      # seconds at reference core speed, probes left out
    factor: float        # mean core slowness during the round (1 = reference)
    attempted: int
    failed: int
    errors: list


def run_round(wl, tracer=None):
    """One timed pass over the workload's operations, then its checks.

    The pass runs under a :class:`speed.SpeedProbe`; ``ref_wall`` is its
    time at reference core speed.
    """
    wl.prepare_round()
    results, failures = {}, {}
    with SpeedProbe() as probe:
        t0 = time.perf_counter()
        for label, op in wl.operations():
            if tracer is not None:
                op = tracer.span(f"op {label}", op)
            try:
                results[label] = op(results)
            except Exception as exc:     # an operation that fails is counted, not fatal
                failures[label] = exc
        t1 = time.perf_counter()
    errs = wl.check(results)
    for label, exc in failures.items():
        if not wl.known_failure(label, exc):
            errs.append(f"{label}: unexpected {type(exc).__name__}: {exc}")
    return Round(t1 - t0, reference_seconds(probe.samples, t0, t1), probe.factor(),
                 len(results) + len(failures), len(failures), errs)


def run_workload(args):
    from workloads import WORKLOADS
    import_program()
    if args.trace == 0:
        setup_s = setup_seconds(args.workload, args.seed)
    run_dir = OUT / f"{args.workload}-{os.getpid()}"
    wl = WORKLOADS[args.workload](args.seed, run_dir)
    wl.warm_up()
    for _ in range(5):
        kernel()                                 # the probe's own first-call costs
    rounds = []
    while not rounds or sum(r.wall for r in rounds) < args.seconds:
        rounds.append(run_round(wl))
    wall_s = statistics.median(r.ref_wall for r in rounds)

    if args.trace:
        from spans import Tracer, layer_metrics, metric_specs
        tracer = Tracer()
        tracer.install()
        try:
            rounds.append(run_round(wl, tracer))
        finally:
            tracer.uninstall()
        traced = rounds[-1]
        OUT.mkdir(parents=True, exist_ok=True)
        tracer.dump(OUT / f"spans-{args.workload}-seed{args.seed}.json",
                    workload=args.workload, seed=args.seed,
                    untraced_wall_s=[r.wall for r in rounds[:-1]],
                    untraced_ref_wall_s=[r.ref_wall for r in rounds[:-1]],
                    traced_wall_s=traced.wall, traced_ref_wall_s=traced.ref_wall)
        values = layer_metrics(tracer.spans, traced.ref_wall - wall_s)
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit, _ in metric_specs()}
    else:
        metrics = {
            "wall_s": {"value": wall_s, "unit": "s"},
            "setup_s": {"value": setup_s, "unit": "s"},
            "traj_steps_per_s": {"value": wl.traj_steps / wall_s, "unit": "1/s"},
            "peak_rss_mb": {"value": peak_rss_mb(), "unit": "MB"},
        }
    attempted = sum(r.attempted for r in rounds)
    failed = sum(r.failed for r in rounds)
    errors = [e for r in rounds for e in r.errors]
    shutil.rmtree(run_dir, ignore_errors=True)

    for e in errors:
        print(f"CHECK FAILED: {e}", file=sys.stderr)
    print(f"{args.workload}: rounds (wall s / at reference speed s / core slowness) "
          + ", ".join(f"{r.wall:.3f}/{r.ref_wall:.3f}/{r.factor:.3f}" for r in rounds)
          + f"; attempted {attempted}, failed {failed}, correct {not errors}")
    for name, m in metrics.items():
        print(f"  {name:48s} {m['value']:.6g} {m['unit']}")
    print(json.dumps({"correct": not errors, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if not errors else 1


def run_all(args):
    """Each workload in a fresh process, one after another."""
    from workloads import WORKLOADS
    summary, code = {}, 0
    for name in WORKLOADS:
        proc = subprocess.run([sys.executable, str(Path(__file__).resolve()), "--workload", name,
                               "--seed", str(args.seed), "--seconds", str(args.seconds),
                               "--trace", str(args.trace)],
                              stdout=subprocess.PIPE, text=True, check=False)
        print(proc.stdout, end="")
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            code = 1
        if lines:
            summary[name] = json.loads(lines[-1])
    print(json.dumps(summary))
    return code


def main(argv=None):
    from workloads import WORKLOADS
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS) + ["all"])
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    if args.setup_probe:
        import_program()
        WORKLOADS[args.workload](args.seed, OUT)
        print("ready", flush=True)
        return 0
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
