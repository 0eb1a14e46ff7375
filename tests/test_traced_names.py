"""The functions that perfbench traces by name stay traceable.

``perfbench/spans.py`` looks each name in ``FUNCTIONS`` up in its module when
``Tracer.install`` runs, reads the counted ones' arguments by name, and swaps
the acceptance registry's entries by identity.  So renaming one of these
functions or a parameter its counter reads, or wrapping a registry entry,
breaks ``perfbench/run.py --trace 1``; these tests break first.
"""

import importlib.util
import inspect
from pathlib import Path

import numpy as np

from unravelings import acceptance, engine, gaussian, spin
from unravelings.engine import UnravelingParams
from unravelings.gaussian import MechanicalParams
from unravelings.spin import SpinParams

ROOT = Path(__file__).resolve().parents[1]
PSI0 = np.array([0.6, 0.8j])


def _load_spans():
    path = ROOT / "perfbench" / "spans.py"
    spec = importlib.util.spec_from_file_location("perfbench_spans", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_single_trajectory_names_record_one_span_per_call():
    sp = SpinParams()
    model, u = spin.spin_model(sp), UnravelingParams.nonlinear(sp.lam)
    tracer = _load_spans().Tracer()
    tracer.install()
    try:
        engine.simulate_trajectory(model, u, PSI0, 1e-3, 7, 3)
        engine.sse_step(PSI0, model, u, 0.01, 1e-3)
        spin.spin_nonlinear_trajectory(PSI0, sp, 1e-3, 5, 4)
        gaussian.gaussian_sde_step((0.3 + 0.1j, 0.2, -0.4),
                                   MechanicalParams(mass=1.0, omega=0.0, lam=1.0, hbar=1.0),
                                   1.0, 0.01, 1e-3)
    finally:
        tracer.uninstall()
    by_name = {}
    for s in tracer.spans:
        by_name.setdefault(s["name"], []).append(s)
    assert len(by_name["engine.sse_step"]) == 1
    assert len(by_name["gaussian.gaussian_sde_step"]) == 1
    (outer,) = by_name["spin.spin_nonlinear_trajectory"]
    # one span for the direct call, one for the call inside the spin wrapper,
    # each counting its n_steps
    direct, nested = by_name["engine.simulate_trajectory"]
    assert (direct["parent"], direct["count"]) == (None, 7)
    assert (nested["parent"], nested["count"]) == (outer["id"], 5)


def test_every_traced_entry_binds_to_the_program():
    # each counter reads only parameters of the function it counts, and the
    # registry holds the criterion functions themselves, whichever a round calls
    spans = _load_spans()
    for mod, fn, _, count in spans.FUNCTIONS:
        params = inspect.signature(getattr(importlib.import_module(f"unravelings.{mod}"),
                                           fn)).parameters
        if count is not None:
            count({name: 1 for name in params})
        if f"{mod}.{fn}" in spans._AFTER:
            assert "path" in params, f"{mod}.{fn}"
    for i, criterion in acceptance.CRITERIA.items():
        assert criterion is getattr(acceptance, f"criterion_{i}")
