import json

import numpy as np
import pytest

from unravelings.bell import (alice_measures, bell_gates, bell_report, dynamical_gap,
                              signaling_gap, singlet)
from unravelings.linalg import identity, partial_trace, pauli, projector, tensor


def test_singlet_properties():
    s = singlet()
    assert np.vdot(s, s).real == pytest.approx(1.0, abs=1e-15)
    zz = tensor(pauli("z"), pauli("z"))
    assert np.vdot(s, zz @ s).real == pytest.approx(-1.0, abs=1e-15)
    rho = projector(s)
    for keep in ("first", "second"):
        assert np.allclose(partial_trace(rho, keep), identity(2) / 2.0, atol=1e-15)


def test_alice_basis_choices():
    out_z = alice_measures("z")
    out_x = alice_measures("x")
    assert out_z.mean_sigma == 0.0
    assert out_x.mean_sigma == 1.0
    for out in (out_z, out_x):
        assert np.max(np.abs(out.bob_rho - identity(2) / 2.0)) <= 1e-15
        assert sum(p for _, p in out.bob_states) == pytest.approx(1.0, abs=1e-15)
    with pytest.raises(ValueError):
        alice_measures("y")


def test_signaling_gap_values():
    out_z, out_x = alice_measures("z"), alice_measures("x")
    rho_d, gap = signaling_gap(out_z, out_x)
    assert rho_d <= 1e-15
    assert gap == 1.0
    rho_d2, gap2 = signaling_gap(out_z, alice_measures("z"))
    assert rho_d2 == 0.0 and gap2 == 0.0


def test_dynamical_gap_reproduces_the_static_signature():
    dyn = dynamical_gap(lam=1.0, t_final=1.0, dt=2e-3, n_traj=800, base_seed=5)
    assert dyn.spread_gap_final > 0.5
    assert np.max(dyn.rho_distance) <= dyn.mc_rho_tolerance
    # phase-noise member never moves the spread off its initial value 1
    assert np.max(np.abs(dyn.mean_spread_phase - 1.0)) <= 1e-10
    # collapse member decays monotonically within noise
    assert dyn.mean_spread_collapse[-1] < 0.3


def test_bell_gates_read_the_report_and_fail_each_broken_gate():
    rep = bell_report(lam=1.0, t_final=0.01, dt=1e-3, n_traj=20, base_seed=5)
    assert json.loads(json.dumps(rep)) == rep          # what the scenario writes
    assert bell_gates(rep) == bell_gates(json.loads(json.dumps(rep)))
    good = {"analytic": {"rho_distance": 1e-16, "sigma_gap": 1.0},
            "dynamical": {"rho_distance": [0.0, 0.02], "mc_rho_tolerance": 0.05,
                          "spread_gap_final": 0.9}}
    assert all(passed for _, passed, _, _ in bell_gates(good))
    for i, (part, key, value) in enumerate([("analytic", "rho_distance", 1e-14),
                                            ("analytic", "sigma_gap", 0.5),
                                            ("dynamical", "rho_distance", [0.0, 0.06]),
                                            ("dynamical", "spread_gap_final", 0.4)]):
        bad = json.loads(json.dumps(good))
        bad[part][key] = value
        assert [passed for _, passed, _, _ in bell_gates(bad)] == [j != i for j in range(4)]
