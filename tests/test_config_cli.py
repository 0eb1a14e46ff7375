import json

import numpy as np
import pytest

from unravelings.cli import main
from unravelings.config import (FAMILIES, OUTPUT_KINDS, PRESETS, ConfigError,
                                load_config, preset, validate_config)
from unravelings.engine import simulate_ensemble, simulate_trajectory
from unravelings.gaussian import GaussianState, gaussian_sde_step
from unravelings.noise import derive_seed, measurement_record, wiener_path
from unravelings.runner import (_BUILDERS, _SpinRun, _check_bell, _check_collapse_stats,
                                _check_spreads, _snapshot_steps,
                                files_equal_ignoring_timestamp, read_report,
                                read_series, run_scenario, scenario_checks,
                                write_series)
from unravelings.spin import SIGMA_Z


def test_all_presets_validate():
    for name in PRESETS:
        cfg = preset(name)
        assert cfg.name == name
    with pytest.raises(ConfigError):
        preset("fig9")


def test_fig1_preset_carries_reference_parameters():
    cfg = preset("fig1")
    p = cfg.mechanical()
    assert p.mass == 1e-15 and p.lam == 1e23 and p.omega == 0.0
    assert cfg.a0() == 0.25e9 + 0.0j
    assert 1.0 / (4.0 * cfg.a0().real) == 1e-9


def test_validation_collects_every_violation():
    raw = {
        "model": "spin",
        "unraveling": {"xi": [0.6, 0.9]},
        "params": {"nu": 1.0, "lam": 1.0, "psi0": [[1.0, 0.0], [0.0, 0.0]],
                   "mass": 5.0},
        "dt": -1.0,
        "t_final": 2.0,
        "outputs": ["trajectory", "nonsense"],
        "extra_key": 1,
    }
    with pytest.raises(ConfigError) as err:
        validate_config(raw)
    text = str(err.value)
    for fragment in ("unknown top-level", "|xi|^2", "unknown spin keys",
                     "dt", "unknown kind"):
        assert fragment in text
    assert len(err.value.violations) >= 5


def test_validation_rejects_specific_constraints():
    base = dict(PRESETS["fig2"])
    bad = {**base, "unraveling": "linear", "outputs": ["record"]}
    with pytest.raises(ConfigError, match="xi_r > 0"):
        validate_config(bad)
    bad2 = {**base, "dt": 0.5}
    with pytest.raises(ConfigError, match="stability budget"):
        validate_config(bad2)
    bad3 = json.loads(json.dumps(PRESETS["fig1"]))
    bad3["unraveling"] = {"xi": [0.6, 0.8]}
    with pytest.raises(ConfigError, match="named"):
        validate_config(bad3)
    bad4 = json.loads(json.dumps(PRESETS["fig2"]))
    bad4["params"]["psi0"] = [[1.0, 0.0], [1.0, 0.0]]
    with pytest.raises(ConfigError, match="psi0"):
        validate_config(bad4)
    for key in ("n_trajectories", "base_seed"):
        for flag in (True, False):
            with pytest.raises(ConfigError, match=key):
                validate_config({**base, key: flag})
    for t_final in (4e-4, 10.0005):
        with pytest.raises(ConfigError, match="whole number of steps"):
            validate_config({**base, "t_final": t_final, "outputs": ["ensemble_mean"]})


def _with(raw, path, value):
    out = json.loads(json.dumps(raw))
    *keys, last = path
    node = out
    for key in keys:
        node = node[key]
    node[last] = value
    return out


@pytest.mark.parametrize("preset_name, path, value, fragment", [
    ("fig2", ("unraveling",), {"xi": [float("nan"), 0.0]}, "unraveling.xi"),
    ("fig2", ("unraveling",), {"xi": [True, False]}, "unraveling.xi"),
    ("fig2", ("unraveling",), {"xi": ["one", 0.0]}, "unraveling.xi"),
    ("fig2", ("params", "psi0", 0, 0), float("nan"), "params.psi0"),
    ("fig2", ("params", "psi0", 1, 1), "zero", "params.psi0"),
    ("fig2", ("params", "nu"), True, "params.nu"),
    ("fig2", ("params", "hbar"), False, "params.hbar"),
    ("riccati_free", ("params", "a0", 0), "0.3", "params.a0"),
    ("riccati_free", ("params", "x0"), "0", "params.x0"),
], ids=["xi_nan", "xi_bool", "xi_text", "psi0_nan", "psi0_text", "nu_bool",
        "hbar_bool", "a0_text", "x0_text"])
def test_validation_rejects_non_numbers(preset_name, path, value, fragment, tmp_path, capsys):
    raw = _with(PRESETS[preset_name], path, value)
    with pytest.raises(ConfigError, match=fragment.replace(".", r"\.")):
        validate_config(raw)
    # the CLI reports it as a config error, not a traceback
    cfg_path = tmp_path / "bad.json"
    cfg_path.write_text(json.dumps(raw), encoding="utf-8")
    assert main(["run", "--config", str(cfg_path), "--out", str(tmp_path)]) == 2
    assert fragment in capsys.readouterr().err


def test_stability_violation_reports_usable_cap():
    bad = {**dict(PRESETS["fig2"]), "dt": 0.5}
    with pytest.raises(ConfigError) as err:
        validate_config(bad)
    # the message must tell the user a dt that works
    cap = float(str(err.value).split("dt <= ")[1].strip())
    fixed = {**bad, "dt": cap * 0.5}
    validate_config(fixed)


def test_load_config_round_trip(tmp_path):
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(PRESETS["fig1"]), encoding="utf-8")
    cfg = load_config(str(path))
    assert cfg.model == "free_particle"
    bad = tmp_path / "broken.json"
    bad.write_text("{not json", encoding="utf-8")
    with pytest.raises(ConfigError, match="JSON"):
        load_config(str(bad))


def test_series_io_round_trips_bit_exactly(tmp_path):
    rng = np.random.default_rng(3)
    cols = {"t": np.arange(5) * 1e-3,
            "a": rng.standard_normal(5) * 1e-22,
            "b": rng.standard_normal(5) * 1e23}
    path = tmp_path / "x.csv"
    write_series(path, cols, {"config": {"k": 1}, "created_at": "now"})
    meta, back = read_series(path)
    assert meta["config"] == {"k": 1}
    for key in cols:
        assert np.array_equal(back[key], cols[key])


def test_run_scenario_fig1_outputs(tmp_path):
    cfg = preset("fig1")
    written = run_scenario(cfg, tmp_path)
    names = sorted(p.name for p in written)
    assert names == ["fig1_riccati.csv", "fig1_sigma.csv", "fig1_var.csv"]
    meta, sig = read_series(tmp_path / "fig1_sigma.csv")
    assert sig["sigma_nonlinear"][0] == pytest.approx(1e-9, rel=1e-12)
    assert sig["sigma_linear"][0] == 1e-9
    # config echo completeness: every physics number appears in the metadata
    echoed = meta["config"]["params"]
    for key in ("mass", "lam", "hbar", "a0", "x0", "k0"):
        assert key in echoed
    checks = scenario_checks(cfg, tmp_path)
    assert checks and all(c.passed for c in checks)


def test_scenario_checks_detect_tampering(tmp_path):
    cfg = preset("fig1")
    run_scenario(cfg, tmp_path)
    target = tmp_path / "fig1_sigma.csv"
    lines = target.read_text().split("\n")
    head = lines[1].split(",")
    row = lines[2].split(",")
    row[head.index("sigma_nonlinear")] = "1e-3"      # out of place by 6 orders
    lines[2] = ",".join(row)
    target.write_text("\n".join(lines))
    checks = scenario_checks(cfg, tmp_path)
    failing = [c for c in checks if not c.passed]
    assert failing and "initial spreads" in failing[0].name
    assert "observed" not in failing[0].line() or failing[0].observed


def test_scenario_checks_fail_on_hand_built_broken_gates():
    cfg = preset("fig1")
    # collapse spread above the phase-noise one at t = 1
    sig = {"t": np.array([0.0, 1.0, 2.0]), "sigma_nonlinear": np.array([1e-9, 3e-9, 2e-9]),
           "sigma_linear": np.array([1e-9, 2e-9, 3e-9])}
    var = {"var": np.array([1e-9, 4e-9, 5e-9])}
    assert [c.passed for c in _check_spreads(cfg, sig, var)] == [True, False]
    # every trajectory up at Born weight 1/4
    born = {"n_up": 100, "n_down": 0, "n_unresolved": 0, "threshold": 0.999,
            "born_p_up": 0.25, "fraction_up": 1.0, "bound_ok": True}
    assert [c.passed for c in _check_collapse_stats(cfg, born)] == [False, True]
    # observer marginals apart by 1e-14
    bell = {"analytic": {"rho_distance": 1e-14, "sigma_gap": 1.0},
            "dynamical": {"rho_distance": [0.0, 0.01], "mc_rho_tolerance": 0.05,
                          "spread_gap_final": 0.9}}
    assert [c.passed for c in _check_bell(cfg, bell)] == [False, True, True, True]


def test_scenario_checks_empty_dir_is_failure(tmp_path):
    cfg = preset("fig1")
    checks = scenario_checks(cfg, tmp_path)
    assert len(checks) == 1 and not checks[0].passed
    assert "no checkable output" in checks[0].observed


def test_rerun_is_byte_identical(tmp_path):
    cfg = preset("fig1")
    d1, d2 = tmp_path / "a", tmp_path / "b"
    w1 = run_scenario(cfg, d1)
    w2 = run_scenario(cfg, d2)
    for a, b in zip(sorted(w1), sorted(w2)):
        assert files_equal_ignoring_timestamp(a, b)


def test_seed_override_changes_stochastic_outputs(tmp_path):
    cfg = preset("riccati_free")
    cfg = type(cfg)(**{**cfg.__dict__, "outputs": ("trajectory",),
                       "dt": 1e-3, "t_final": 0.1})
    run_scenario(cfg, tmp_path / "a")
    run_scenario(cfg, tmp_path / "b", seed_override=999)
    _, a = read_series(tmp_path / "a" / "riccati_free_trajectory.csv")
    _, b = read_series(tmp_path / "b" / "riccati_free_trajectory.csv")
    assert not np.array_equal(a["centroid"], b["centroid"])


def test_cli_basic_paths(tmp_path, capsys, monkeypatch):
    assert main(["presets"]) == 0
    assert main(["describe", "--preset", "fig1"]) == 0
    assert main(["describe", "--preset", "nope"]) == 2
    capsys.readouterr()
    rc = main(["run", "--preset", "fig1", "--out", str(tmp_path), "--check"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "wrote" in out and "[PASS]" in out
    assert "initial spreads coincide" in out and "np.float64" not in out
    rc = main(["run", "--preset", "riccati_free", "--out", str(tmp_path), "--seed", "3",
               "--check"])
    out = capsys.readouterr().out
    assert rc == 0 and "[PASS]" in out and "[FAIL]" not in out
    meta, _ = read_series(tmp_path / "riccati_free_sigma.csv")
    assert meta["effective_seed"] == 3 and meta["config"]["base_seed"] == 3
    assert main(["run", "--out", str(tmp_path)]) == 2          # no scenario given
    assert main(["run", "--preset", "zzz", "--out", str(tmp_path)]) == 2
    # a bad --only is a configuration error, reported before any criterion runs
    from unravelings import acceptance
    ran = []
    monkeypatch.setattr(acceptance, "CRITERIA",
                        {i: (lambda i=i: ran.append(i)) for i in acceptance.CRITERIA})
    capsys.readouterr()
    for only in ("12", "0", "x", "1,12", "", "1,,2"):
        assert main(["check", "--only", only]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "--only" in err
    assert ran == []


def test_cli_rejects_invalid_config_file(tmp_path, capsys):
    bad = dict(PRESETS["fig2"])
    bad["dt"] = 1.0
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(bad), encoding="utf-8")
    rc = main(["run", "--config", str(path), "--out", str(tmp_path)])
    assert rc == 2
    assert "stability budget" in capsys.readouterr().err


def test_mechanical_sde_outputs(tmp_path):
    raw = {
        "name": "mech", "model": "free_particle", "unraveling": "nonlinear",
        "params": {"mass": 1.0, "lam": 1.0, "hbar": 1.0,
                   "a0": [0.25, 0.0], "x0": 0.1, "k0": 0.0},
        "dt": 1e-3, "t_final": 0.2, "n_trajectories": 40, "base_seed": 3,
        "outputs": ["trajectory", "record", "ensemble_mean"],
    }
    cfg = validate_config(raw)
    written = run_scenario(cfg, tmp_path)
    assert len(written) == 3
    _, tr = read_series(tmp_path / "mech_trajectory.csv")
    assert tr["width_re"][0] == 0.25 and np.all(tr["width_re"] > 0)
    assert tr["centroid"][0] == 0.1
    _, rec = read_series(tmp_path / "mech_record.csv")
    assert rec["dy"].size == cfg.n_steps
    _, em = read_series(tmp_path / "mech_ensemble_mean.csv")
    dev = np.abs(em["mean_x2_mc"] - em["mean_x2_closed_form"])
    # first snapshot is t = 0 where both sides vanish identically
    assert np.all(dev[1:] <= 4.0 * em["stderr_x2"][1:] + 1e-15)


def test_builders_cover_every_output_kind():
    assert set(_BUILDERS) == {(fam, kind) for fam, kinds in OUTPUT_KINDS.items()
                              for kind in kinds}
    assert set(FAMILIES.values()) == set(OUTPUT_KINDS)
    for name, raw in PRESETS.items():
        cfg = validate_config(raw)
        assert all((cfg.family, kind) in _BUILDERS for kind in cfg.outputs)


@pytest.mark.parametrize("model, omega", [("free_particle", 0.0), ("harmonic", 0.5)])
@pytest.mark.parametrize("member", ["nonlinear", "linear"])
def test_mechanical_trajectory_is_the_sde_step_loop(tmp_path, model, omega, member):
    params = {"mass": 1.0, "lam": 1.0, "hbar": 1.0, "a0": [0.3, 0.1], "x0": 0.2, "k0": -0.4}
    if omega:
        params["omega"] = omega
    outputs = ["trajectory", "record"] if member == "nonlinear" else ["trajectory"]
    cfg = validate_config({"name": "m", "model": model, "unraveling": member,
                           "params": params, "dt": 5e-3, "t_final": 1.0,
                           "n_trajectories": 3, "base_seed": 41, "outputs": outputs})
    run_scenario(cfg, tmp_path)
    path = wiener_path(derive_seed(41, 0), cfg.dt, cfg.n_steps)
    g = GaussianState(width=0.3 + 0.1j, centroid=0.2, wavenumber=-0.4)
    states = [g]
    for dW in path.increments:
        g = gaussian_sde_step(g, cfg.mechanical(), member, dW, cfg.dt)
        states.append(g)
    _, tr = read_series(tmp_path / "m_trajectory.csv")
    assert np.array_equal(tr["width_re"], [s.width.real for s in states])
    assert np.array_equal(tr["width_im"], [s.width.imag for s in states])
    assert np.array_equal(tr["centroid"], [s.centroid for s in states])
    assert np.array_equal(tr["wavenumber"], [s.wavenumber for s in states])
    if member == "nonlinear":
        _, rec = read_series(tmp_path / "m_record.csv")
        ref = measurement_record(path, [s.centroid for s in states[:-1]], 1.0, 1.0)
        assert np.array_equal(rec["dy"], ref.values)


def test_spin_record_output(tmp_path):
    cfg = preset("fig2")
    small = type(cfg)(**{**cfg.__dict__, "t_final": 0.2,
                         "outputs": ("record",)})
    run_scenario(small, tmp_path)
    _, rec = read_series(tmp_path / "fig2_record.csv")
    assert rec["dy"].size == small.n_steps


def test_spin_outputs_roundtrip(tmp_path):
    cfg = preset("fig2")
    small = type(cfg)(**{**cfg.__dict__, "t_final": 0.5, "n_trajectories": 3})
    written = run_scenario(small, tmp_path)
    kinds = {p.name.split("_", 1)[1] for p in written}
    assert kinds == {"trajectory.csv", "ensemble_mean.csv", "collapse_stats.json"}
    _, rep = read_report(tmp_path / "fig2_collapse_stats.json")
    assert rep["n_up"] + rep["n_down"] + rep["n_unresolved"] == 3
    _, cols = read_series(tmp_path / "fig2_ensemble_mean.csv")
    assert np.max(np.abs(cols["mean_sz"] - cols["lindblad_sz"])) <= 5.0 / np.sqrt(3)


def test_fig2_outputs_share_one_ensemble(tmp_path):
    # each trajectory column is the serial trajectory of its stream, and the
    # ensemble mean is that of a separate run at the 41 snapshot steps
    cfg = preset("fig2")
    run_scenario(cfg, tmp_path)
    setup = _SpinRun(cfg)
    model, u, psi0 = setup.model, setup.u, setup.psi0
    _, traj = read_series(tmp_path / "fig2_trajectory.csv")
    assert len(traj) == cfg.n_trajectories + 1
    for k in range(cfg.n_trajectories):
        tr = simulate_trajectory(model, u, psi0, cfg.dt, cfg.n_steps, derive_seed(7, k),
                                 tracked_observables={"sz": SIGMA_Z})
        assert np.array_equal(traj[f"sz_{k:03d}"], tr.means["sz"])
    res = simulate_ensemble(model, u, psi0, cfg.dt, cfg.n_steps, cfg.n_trajectories, 7,
                            snapshot_steps=_snapshot_steps(cfg),
                            tracked_observables={"sz": SIGMA_Z})
    _, em = read_series(tmp_path / "fig2_ensemble_mean.csv")
    assert np.array_equal(em["mean_sz"], res.mean_of("sz"))
    assert np.array_equal(em["stderr_sz"], res.se_of("sz"))
