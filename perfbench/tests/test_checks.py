"""Each check of the benchmark accepts a right input and rejects a wrong one.

Run from the root of a checkout: python3 -m pytest perfbench/tests
"""

import json
from pathlib import Path

import numpy as np
import pytest

import checks

SZ = np.diag([1.0, -1.0]).astype(complex)
PSI0 = np.array([0.6, 0.8j])
TIMES = np.linspace(0.0, 3.0, 7)


def test_dense_reference_reproduces_the_spin_closed_form():
    nu, lam = 1.3, 0.7
    dense = checks.dense_reference_rho(nu * SZ, SZ, lam, PSI0, TIMES)
    closed = checks.spin_closed_form_rho(PSI0, nu, lam, TIMES)
    assert checks.max_abs_within("dense vs closed form", dense, closed, 1e-12) == []


def test_dense_reference_conserves_trace_and_hermiticity():
    rng = np.random.default_rng(3)
    a = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    b = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    H, L = a + a.conj().T, b + b.conj().T
    psi = rng.standard_normal(4) + 1j * rng.standard_normal(4)
    rhos = checks.dense_reference_rho(H, L, 0.5, psi / np.linalg.norm(psi), TIMES)
    assert np.allclose(np.trace(rhos, axis1=1, axis2=2), 1.0, atol=1e-12)
    assert np.allclose(rhos, rhos.conj().transpose(0, 2, 1), atol=1e-12)


def test_rho_check_rejects_a_perturbed_rho():
    ref = checks.spin_closed_form_rho(PSI0, 1.0, 1.0, TIMES)
    tol = 5.0 / np.sqrt(2500)
    assert checks.max_abs_within("rho", ref + 0.5 * tol, ref, tol) == []
    bad = ref.copy()
    bad[3, 0, 1] += 1.01 * tol
    assert checks.max_abs_within("rho", bad, ref, tol)
    assert checks.max_abs_within("rho", ref[:-1], ref, tol)     # a snapshot missing


def test_rerun_check_ignores_created_at_only(tmp_path):
    text = '# {"config": {"name": "fig2"}, "created_at": "2026-01-01T00:00:00"}\nt,x\n0,1\n'
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    a.write_text(text)
    b.write_text(text.replace("2026-01-01T00:00:00", "2026-01-02T09:30:01"))
    assert checks.files_match_but_timestamp("rerun", a, b) == []
    data = bytearray(a.read_bytes())
    data[-2] ^= 1                                               # one byte of the rows
    b.write_bytes(bytes(data))
    assert checks.files_match_but_timestamp("rerun", a, b)


def test_rerun_check_reads_json_reports(tmp_path):
    doc = {"metadata": {"created_at": "2026-01-01T00:00:00", "seed": 7}, "report": {"n": 1}}
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    a.write_text(json.dumps(doc, sort_keys=True, indent=1))
    doc["metadata"]["created_at"] = "2027-05-05T05:05:05"
    b.write_text(json.dumps(doc, sort_keys=True, indent=1))
    assert checks.files_match_but_timestamp("rerun", a, b) == []
    doc["metadata"]["seed"] = 8
    b.write_text(json.dumps(doc, sort_keys=True, indent=1))
    assert checks.files_match_but_timestamp("rerun", a, b)


GOOD = {
    4: {"initial_rel_dev": 0.0, "plateau_rel_dev": 1e-6, "identity_rel_err": 1e-13,
        "ordering_ok": True},
    5: {"width_max_rel_err": 2e-6, "mc_worst_se": 1.2},
    6: {f"{t}_{f}": {"ratio": 4.0, "max_fine": 1e-6, "rounding_floor": 1e-12}
        for t in ("free", "harmonic") for f in ("nonlinear", "linear", "variance")},
    7: {"rate_rel": 1e-9, "asymptote_rel": 1e-9, "spread_rel": 1e-8},
    8: {"order_ratios": [2.8, 2.9], "single_euler_step_ratio": 2.0, "povm_defect": 1e-9,
        "channel_defect_ratio": 4.0},
    9: {"weak_ratios": [2.0, 1.9], "weak_rms": [0.01, 0.005, 0.0025], "pathwise_ratio": 1.4},
}


@pytest.mark.parametrize("index", sorted(GOOD))
def test_criterion_observations_accept_the_method_orders(index):
    assert checks.criterion_observations(index, GOOD[index]) == []


@pytest.mark.parametrize("index,key,value", [
    (8, "order_ratios", [2.0, 2.9]),          # Euler-like 2x instead of 2^1.5
    (8, "channel_defect_ratio", 2.0),         # O(dt) instead of O(dt^2)
    (9, "weak_ratios", [1.41, 2.0]),          # square-root rate instead of first order
    (5, "width_max_rel_err", 2e-4),
    (4, "identity_rel_err", 1e-9),
    (6, "free_linear", {"ratio": 2.0, "max_fine": 1e-6, "rounding_floor": 1e-12}),
])
def test_criterion_observations_reject_a_wrong_convergence_ratio(index, key, value):
    assert checks.criterion_observations(index, {**GOOD[index], key: value})


def test_binomial_fraction_bound():
    assert checks.binomial_fraction("f", 640, 2500, 0.25, 4.5) == []
    assert checks.binomial_fraction("f", 760, 2500, 0.25, 4.5)


def test_collapse_bound_rejects_a_frozen_spread():
    rng = np.random.default_rng(0)
    times = np.linspace(0.0, 2.0, 5)
    z0 = -0.5
    frozen = np.full((times.size, 1000), z0)
    assert checks.spread_under_collapse_bound("s", frozen, times, 1.0)
    # collapsed onto +-1 after t = 0: spread 0 everywhere but the start
    collapsed = np.vstack([frozen[:1], np.sign(rng.standard_normal((4, 1000)))])
    assert checks.spread_under_collapse_bound("s", collapsed, times, 1.0) == []


def test_euler_free_isometry_tends_to_the_ito_value():
    dt, n = 1e-3, np.array([10, 100, 10_000])
    t = n * dt
    ratio = checks.euler_free_isometry(n, dt, 1.0, 1.0, 1.0) / (t ** 3 / 3.0)
    assert np.all(np.abs(ratio - (1.0 - 1.5 / n)) < 1.0 / n ** 2)


def test_csv_reader_round_trips(tmp_path):
    p = tmp_path / "s.csv"
    p.write_text('# {"created_at": "x"}\nt,a\n0,0.10000000000000001\n1,2.5\n')
    cols = checks.read_csv_series(p)
    assert cols["a"].tolist() == [0.1, 2.5]
    with pytest.raises(ValueError):
        (tmp_path / "bad.csv").write_text("t,a\n0,1\n")
        checks.read_csv_series(tmp_path / "bad.csv")


def test_benchmark_json_lists_every_layer_metric():
    from spans import metric_specs
    doc = json.loads((Path(checks.__file__).parent.parent / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"], m["better"]) for m in doc["per_layer"]] == metric_specs()
    from workloads import WORKLOADS
    assert [w["name"] for w in doc["workloads"]] == list(WORKLOADS)
