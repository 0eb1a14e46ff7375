"""Span tracing from outside the program, and the per-layer metrics.

A :class:`Tracer` replaces each listed public function of ``unravelings``
by a wrapper that records a span (id, name, start, end, parent, counts).
The wrapper is installed in the defining module and in every loaded
``unravelings`` module that imported the function by name, and in the
acceptance registry, so calls reach it whichever name they use.  Spans stay
in memory until :meth:`Tracer.dump`.  A layer's self time is its spans'
duration minus the union of the intervals its child spans cover.
"""

import functools
import importlib
import inspect
import itertools
import json
import os
import sys
import threading
import time


def _traj_steps(args):
    return args["n_traj"] * args["n_steps"]


def _steps(args):
    return args["n_steps"]


def _bytes_of_path(args):
    return os.path.getsize(args["path"])


# (module, function, metrics, count of work taken from the call's arguments)
FUNCTIONS = [
    ("engine", "simulate_ensemble", ("self_s", "traj_steps", "traj_steps_per_s"), _traj_steps),
    ("engine", "simulate_trajectory", ("self_s", "traj_steps", "traj_steps_per_s"), _steps),
    ("engine", "sse_step", ("calls", "self_s"), None),
    ("engine", "lindblad_evolve", ("self_s", "steps", "steps_per_s"), _steps),
    ("noise", "derive_seed", ("calls", "self_s"), None),
    ("noise", "wiener_path", ("calls", "self_s"), None),
    ("noise", "measurement_record", ("self_s",), None),
    ("spin", "spin_nonlinear_trajectory", ("self_s",), None),
    ("spin", "collapse_statistics", ("self_s",), None),
    ("spin", "supermartingale_check", ("self_s",), None),
    ("gaussian", "centroid_ensemble", ("self_s", "traj_steps"), _traj_steps),
    ("gaussian", "simulate_width", ("self_s", "steps"), _steps),
    ("gaussian", "gaussian_sde_step", ("calls", "self_s"), None),
    ("gaussian", "mean_square_x", ("calls", "self_s"), None),
    ("gaussian", "riccati_residual", ("self_s",), None),
    ("gcm", "kraus_apply", ("calls", "self_s"), None),
    ("gcm", "povm_completeness", ("self_s",), None),
    ("gcm", "channel_apply", ("self_s",), None),
    ("bell", "dynamical_gap", ("self_s",), None),
    ("config", "validate_config", ("calls", "self_s"), None),
    ("runner", "run_scenario", ("self_s",), None),
    ("runner", "write_series", ("self_s",), None),
    ("runner", "write_report", ("self_s",), None),
    ("runner", "read_series", ("self_s",), None),
    ("runner", "scenario_checks", ("self_s",), None),
    ("runner", "files_equal_ignoring_timestamp", ("self_s",), None),
] + [("acceptance", f"criterion_{i}", ("self_s",), None) for i in range(4, 10)]

# counts measured after the call (file sizes exist only once written)
_AFTER = {"runner.write_series": _bytes_of_path, "runner.write_report": _bytes_of_path}
_REGISTRIES = [("unravelings.acceptance", "CRITERIA")]

# metric -> (unit, better)
_UNITS = {"self_s": ("s", "lower"), "calls": ("count", "lower"),
          "traj_steps": ("count", "lower"), "steps": ("count", "lower"),
          "traj_steps_per_s": ("1/s", "higher"), "steps_per_s": ("1/s", "higher")}


def metric_specs():
    """Every per-layer metric as (name, unit, better), in report order."""
    out = []
    for mod, fn, metrics, _ in FUNCTIONS:
        out += [(f"{mod}.{fn}.{m}",) + _UNITS[m] for m in metrics]
    out += [("runner.bytes_written", "B", "lower"), ("runner.files_written", "count", "lower"),
            ("trace.overhead_s", "s", "lower")]
    return out


def self_times(spans):
    """Self time per span id: duration minus the union of its children."""
    children = {}
    for s in spans:
        if s["parent"] is not None:
            children.setdefault(s["parent"], []).append((s["start"], s["end"]))
    out = {}
    for s in spans:
        covered, cur_lo, cur_hi = 0.0, None, None
        for lo, hi in sorted(children.get(s["id"], ())):
            lo, hi = max(lo, s["start"]), min(hi, s["end"])
            if hi <= lo:
                continue
            if cur_hi is None or lo > cur_hi:
                if cur_hi is not None:
                    covered += cur_hi - cur_lo
                cur_lo, cur_hi = lo, hi
            else:
                cur_hi = max(cur_hi, hi)
        if cur_hi is not None:
            covered += cur_hi - cur_lo
        out[s["id"]] = (s["end"] - s["start"]) - covered
    return out


def layer_metrics(spans, overhead_s):
    """The per-layer metrics of :func:`metric_specs` from a list of spans."""
    selfs = self_times(spans)
    agg = {}
    for s in spans:
        a = agg.setdefault(s["name"], {"calls": 0, "self_s": 0.0, "count": 0})
        a["calls"] += 1
        a["self_s"] += selfs[s["id"]]
        a["count"] += s.get("count", 0)
    values = {}
    for mod, fn, metrics, _ in FUNCTIONS:
        name = f"{mod}.{fn}"
        a = agg.get(name, {"calls": 0, "self_s": 0.0, "count": 0})
        for m in metrics:
            if m in ("calls", "self_s"):
                v = a[m]
            elif m in ("traj_steps", "steps"):
                v = a["count"]
            else:  # work per second of the layer's own time
                v = a["count"] / a["self_s"] if a["self_s"] > 0 else 0.0
            values[f"{name}.{m}"] = v
    written = [agg.get(f"runner.{fn}", {"calls": 0, "count": 0})
               for fn in ("write_series", "write_report")]
    values["runner.bytes_written"] = sum(w["count"] for w in written)
    values["runner.files_written"] = sum(w["calls"] for w in written)
    values["trace.overhead_s"] = overhead_s
    return values


class Tracer:
    """Installs span-recording wrappers into loaded ``unravelings`` modules."""

    def __init__(self):
        self.spans = []
        self._ids = itertools.count()
        self._local = threading.local()
        self._main_stack = self._stack()
        self._patched = []            # (owner, key, original, is_dict)

    def _stack(self):
        if not hasattr(self._local, "stack"):
            self._local.stack = []
        return self._local.stack

    def _wrap(self, name, fn, before, after):
        sig = inspect.signature(fn) if (before or after) else None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = self._stack()
            if stack:
                parent = stack[-1]
            else:  # a worker thread: attribute it to the main thread's open span
                parent = self._main_stack[-1] if self._main_stack else None
            bound = None
            if sig is not None:
                bound = sig.bind(*args, **kwargs)
                bound.apply_defaults()
            count = before(bound.arguments) if before else 0
            sid = next(self._ids)
            stack.append(sid)
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                stack.pop()
                if after:
                    count += after(bound.arguments)
                self.spans.append({"id": sid, "name": name, "start": t0, "end": t1,
                                   "parent": parent, "count": count})
        return wrapper

    def span(self, name, fn):
        """``fn`` wrapped to record a span named ``name`` (a benchmark operation)."""
        return self._wrap(name, fn, None, None)

    def install(self):
        for mod in {f"unravelings.{m}" for m, _, _, _ in FUNCTIONS}:
            importlib.import_module(mod)
        mods = {k: m for k, m in list(sys.modules.items())
                if m is not None and (k == "unravelings" or k.startswith("unravelings."))}
        for mod, fn, _, before in FUNCTIONS:
            name = f"{mod}.{fn}"
            original = getattr(mods[f"unravelings.{mod}"], fn)
            wrapper = self._wrap(name, original, before, _AFTER.get(name))
            for m in mods.values():
                for key, val in list(vars(m).items()):
                    if val is original:
                        self._patched.append((m, key, original, False))
                        setattr(m, key, wrapper)
            for mod_name, attr in _REGISTRIES:
                reg = getattr(mods[mod_name], attr)
                for key, val in list(reg.items()):
                    if val is original:
                        self._patched.append((reg, key, original, True))
                        reg[key] = wrapper

    def uninstall(self):
        for owner, key, original, is_dict in reversed(self._patched):
            if is_dict:
                owner[key] = original
            else:
                setattr(owner, key, original)
        self._patched.clear()

    def dump(self, path, **header):
        t0 = min((s["start"] for s in self.spans), default=0.0)
        rows = [{**s, "start": s["start"] - t0, "end": s["end"] - t0} for s in self.spans]
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({**header, "spans": rows}, fh)
