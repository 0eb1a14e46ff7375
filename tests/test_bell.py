import json

import numpy as np
import pytest

from unravelings.bell import alice_measures, bell_gates, bell_report, dynamical_gap
from unravelings.engine import mc_tolerance
from unravelings.linalg import KET_UP
from unravelings.spin import collapse_bound


def test_alice_basis_choices():
    (rho_z, spread_z), (rho_x, spread_x) = alice_measures("z"), alice_measures("x")
    assert spread_z == 0.0
    assert spread_x == 1.0
    for rho in (rho_z, rho_x):
        assert np.max(np.abs(rho - np.eye(2) / 2.0)) <= 1e-15
    with pytest.raises(ValueError):
        alice_measures("y")


def test_dynamical_gap_reproduces_the_static_signature():
    dyn = dynamical_gap(t_final=1.0, dt=2e-3, n_traj=800, base_seed=5)
    assert dyn["spread_gap_final"] > 0.5
    assert max(dyn["rho_distance"]) <= dyn["mc_rho_tolerance"]
    # phase-noise member never moves the spread off its initial value 1
    assert np.max(np.abs(np.array(dyn["mean_spread_phase"]) - 1.0)) <= 1e-10
    # collapse member decays monotonically within noise
    assert dyn["mean_spread_collapse"][-1] < 0.3


def test_bell_gates_read_the_report_and_fail_each_broken_gate():
    rep = bell_report(t_final=0.01, dt=1e-3, n_traj=20, base_seed=5)
    assert json.loads(json.dumps(rep)) == rep          # what the scenario writes
    # what Bob could detect is zero; the unraveling-dependent gap is exactly 1
    assert rep["analytic"]["rho_distance"] <= 1e-15 and rep["analytic"]["sigma_gap"] == 1.0
    assert bell_gates(rep) == bell_gates(json.loads(json.dumps(rep)))
    good = {"analytic": {"rho_distance": 1e-16, "sigma_gap": 1.0},
            "dynamical": {"rho_distance": [0.0, 0.02], "mc_rho_tolerance": 0.05,
                          "spread_gap_final": 0.9, "gap_floor": 0.786}}
    assert all(passed for _, passed, _, _ in bell_gates(good))
    for i, (part, key, value) in enumerate([("analytic", "rho_distance", 1e-14),
                                            ("analytic", "sigma_gap", 0.5),
                                            ("dynamical", "rho_distance", [0.0, 0.06]),
                                            ("dynamical", "spread_gap_final", 0.78)]):
        bad = json.loads(json.dumps(good))
        bad[part][key] = value
        assert [passed for _, passed, _, _ in bell_gates(bad)] == [j != i for j in range(4)]


@pytest.mark.parametrize("psi0, s0", [(np.array([1.0, 1.0j]) / np.sqrt(2.0), 1.0),
                                      (np.array([0.6, 0.8j]), 1.0 - 0.28 ** 2),
                                      (KET_UP, 0.0)])
def test_spread_gap_floor_reads_the_initial_state(psi0, s0):
    # the phase-noise spread stays at s0 and the collapse spread falls under
    # collapse_bound(s0, lam, T); from |up> both stay 0, and every gate passes
    rep = bell_report(psi0=psi0, t_final=0.05, dt=1e-3, n_traj=20, base_seed=5)
    dyn = rep["dynamical"]
    floor = s0 - collapse_bound(s0, 1.0, dyn["times"][-1]) - mc_tolerance(20)
    assert dyn["gap_floor"] == pytest.approx(floor, rel=1e-12, abs=1e-15)
    assert all(passed for _, passed, _, _ in bell_gates(rep))
