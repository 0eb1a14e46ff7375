import json
import os
import platform
import re
import subprocess
import sys
import traceback
import warnings
from pathlib import Path

import numpy as np
import pytest

from unravelings.cli import _DESCRIBE, main
from unravelings.config import (FAMILIES, OUTPUT_KINDS, PRESETS, ConfigError,
                                load_config, preset, validate_config)
from unravelings.engine import (UnravelingParams, _EulerKernel, _state_stack, mc_stderr,
                                simulate_ensemble, simulate_trajectory)
from unravelings.gaussian import gaussian_sde_step
from unravelings.noise import derive_seed, measurement_record, wiener_path
from unravelings.runner import (_REPORTS, _SETUPS, _SpinRun, _check_bell, _check_collapse_stats,
                                _check_settled, _check_spreads, _snapshot_steps,
                                read_report, read_series, run_scenario, scenario_checks,
                                write_series)
from unravelings.spin import (SIGMA_Z, _sigma_z_paths, collapse_bound, collapse_statistics,
                              supermartingale_check)

from quadrature import TOTAL_VARIANCE_RTOL, total_variance_deviation


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


def test_validation_rejects_specific_constraints(tmp_path, capsys):
    base = dict(PRESETS["fig2"])
    # no measurement reading and no collapse at xi_r = 0
    for kind in ("record", "collapse_stats"):
        for member in ("linear", {"xi": [0.0, 1.0]}):
            with pytest.raises(ConfigError, match=f"'{kind}' requires xi_r > 0"):
                validate_config({**base, "unraveling": member, "outputs": [kind]})
    bad2 = {**base, "dt": 0.5}
    with pytest.raises(ConfigError, match="stability budget"):
        validate_config(bad2)
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
    # a seed numpy cannot take, in the file or on the command line
    with pytest.raises(ConfigError, match="base_seed"):
        validate_config({**base, "base_seed": -1})
    with pytest.raises(ConfigError, match="base_seed"):
        preset("fig2").with_seed(-3)
    capsys.readouterr()
    assert main(["run", "--preset", "fig2", "--seed", "-3", "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert err.count("base_seed") == 1 and "Traceback" not in err
    assert not any(tmp_path.iterdir())
    # False is not the number 0
    free = json.loads(json.dumps(PRESETS["riccati_free"]))
    free["params"]["omega"] = False
    with pytest.raises(ConfigError, match="params.omega"):
        validate_config(free)
    # a standard error needs two trajectories
    mech = {**PRESETS["riccati_free"], "dt": 5e-3, "t_final": 1.0, "outputs": ["ensemble_mean"],
            "n_trajectories": 1}
    for raw in ({**base, "n_trajectories": 1, "outputs": ["ensemble_mean"]},
                {**base, "n_trajectories": 1, "outputs": ["collapse_stats"]}, mech):
        with pytest.raises(ConfigError, match="at least 2 trajectories"):
            validate_config(raw)
    validate_config({**base, "n_trajectories": 1, "outputs": ["trajectory", "record"]})


def _with(raw, path, value):
    out = json.loads(json.dumps(raw))
    *keys, last = path
    node = out
    for key in keys:
        node = node[key]
    node[last] = value
    return out


@pytest.mark.parametrize("preset_name, kind", [("fig2", "record"), ("fig2", "collapse_stats"),
                                               ("riccati_free", "record")])
def test_zero_collapse_rate_rejects_record_and_collapse_stats(preset_name, kind, tmp_path,
                                                              capsys):
    # at lam = 0 nothing is read and nothing collapses, whatever xi_r: a config
    # error (exit 2), not a traceback from the record or a vacuous Born line
    raw = {**_with(PRESETS[preset_name], ("params", "lam"), 0.0), "outputs": [kind]}
    with pytest.raises(ConfigError, match=f"'{kind}' requires lam > 0"):
        validate_config(raw)
    cfg_path = tmp_path / "lam0.json"
    cfg_path.write_text(json.dumps(raw), encoding="utf-8")
    assert main(["run", "--config", str(cfg_path), "--out", str(tmp_path / "out"),
                 "--check"]) == 2
    err = capsys.readouterr().err
    assert f"'{kind}' requires lam > 0" in err and "Traceback" not in err
    assert [p.name for p in tmp_path.rglob("*")] == ["lam0.json"]


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
    ("fig2", ("model",), ["spin"], "model: must be one of"),
    ("fig2", ("model",), {"spin": 1}, "model: must be one of"),
], ids=["xi_nan", "xi_bool", "xi_text", "psi0_nan", "psi0_text", "nu_bool",
        "hbar_bool", "a0_text", "x0_text", "model_list", "model_dict"])
def test_validation_rejects_non_numbers(preset_name, path, value, fragment, tmp_path, capsys):
    raw = _with(PRESETS[preset_name], path, value)
    with pytest.raises(ConfigError, match=fragment.replace(".", r"\.")):
        validate_config(raw)
    # the CLI reports it as a config error, not a traceback
    cfg_path = tmp_path / "bad.json"
    cfg_path.write_text(json.dumps(raw), encoding="utf-8")
    assert main(["run", "--config", str(cfg_path), "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert fragment in err and "Traceback" not in err


@pytest.mark.parametrize("xi, fragment", [
    ([0.6, 0.6], "|xi|^2 = 0.720000000000000 must equal 1"),
    ([-0.6, -0.8], "xi_r must be finite and >= 0, got -0.6"),
], ids=["modulus", "negative_real_part"])
def test_validation_reports_the_xi_rule_of_unraveling_params(xi, fragment):
    # the rule has one owner: the config reports UnravelingParams' own message
    with pytest.raises(ValueError) as owner:
        UnravelingParams(*xi, 0.0)
    assert str(owner.value) == fragment
    with pytest.raises(ConfigError) as info:
        validate_config(_with(PRESETS["fig2"], ("unraveling",), {"xi": xi}))
    assert info.value.violations == [f"unraveling.xi: {fragment}"]


@pytest.mark.parametrize("change, fragment", [
    ({"name": "../escaped"}, "name"),
    ({"name": 5}, "name"),
    ({"name": ""}, "name"),
    ({"outputs": ["sigma", "sigma", "var"]}, "more than once"),
], ids=["name_escapes", "name_not_str", "name_empty", "output_repeated"])
def test_validation_rejects_unsafe_names_and_repeated_outputs(change, fragment, tmp_path,
                                                              capsys):
    # output files are <out>/<name>_<kind>.<ext>: a name must not reach outside <out>,
    # and a kind listed twice would be written twice
    raw = {**PRESETS["riccati_free"], "outputs": ["sigma"], **change}
    with pytest.raises(ConfigError, match=fragment):
        validate_config(raw)
    cfg_path = tmp_path / "bad.json"
    cfg_path.write_text(json.dumps(raw), encoding="utf-8")
    assert main(["run", "--config", str(cfg_path), "--out", str(tmp_path / "out")]) == 2
    assert fragment in capsys.readouterr().err
    assert [p.name for p in tmp_path.rglob("*")] == ["bad.json"]


def test_stability_violation_reports_usable_cap():
    fig2 = PRESETS["fig2"]
    for raw in ({**fig2, "dt": 0.5},
                {**fig2, "dt": 0.5, "params": {**fig2["params"], "lam": 1.01}},
                {**fig2, "dt": 0.5, "params": {**fig2["params"], "lam": 3.99}},
                {**PRESETS["riccati_free"], "dt": 0.5, "outputs": ["trajectory"]},
                {**PRESETS["riccati_harmonic"], "dt": 0.5, "outputs": ["trajectory"]}):
        with pytest.raises(ConfigError, match="stability budget") as err:
            validate_config(raw)
        # the message must tell the user a dt that works: the printed cap itself
        cap = float(str(err.value).split("dt <= ")[1].strip())
        assert cap < raw["dt"]
        validate_config({**raw, "dt": cap, "t_final": 100 * cap})


@pytest.mark.parametrize("hbar", [1e300, 1e-300], ids=["overflow", "zero_division"])
def test_a_numerical_failure_in_the_stability_check_is_a_config_error(hbar, tmp_path, capsys):
    # spread_constants overflows at hbar = 1e300 and divides by zero at 1e-300;
    # the run reports a config error (exit 2), not a traceback, and writes nothing
    raw = _with({**PRESETS["riccati_free"], "outputs": ["trajectory"]}, ("params", "hbar"), hbar)
    with pytest.raises(ConfigError, match="stability check failed numerically"):
        validate_config(raw)
    cfg_path = tmp_path / "hbar.json"
    cfg_path.write_text(json.dumps(raw), encoding="utf-8")
    assert main(["run", "--config", str(cfg_path), "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert "stability check failed numerically" in err and "Traceback" not in err
    assert not (tmp_path / "out").exists()


def test_mechanical_params_are_floats_whatever_the_json_number(tmp_path):
    # 2**64 is a JSON integer that np.sqrt cannot take as a Python int
    cfg_path = tmp_path / "lam.json"
    cfg_path.write_text(json.dumps(_with(PRESETS["riccati_free"], ("params", "lam"), 2 ** 64)),
                        encoding="utf-8")
    assert '"lam": 18446744073709551616' in cfg_path.read_text(encoding="utf-8")
    cfg = load_config(str(cfg_path))
    p = cfg.mechanical()
    assert all(type(v) is float for v in (p.mass, p.omega, p.lam, p.hbar))
    run_scenario(cfg, tmp_path / "out")
    checks = scenario_checks(cfg, tmp_path / "out")
    assert len(checks) == 3 and all(c.passed for c in checks), [c.line() for c in checks]


def test_fig3_raises_in_the_tanh_pole_check(tmp_path):
    """The trapped preset fails in ``gaussian._tanh_stable``, and only there.

    ``perfbench/workloads.py`` ``Presets.known_failure`` exempts ``fig3`` only
    when the innermost frame of its ``ZeroDivisionError`` is ``_tanh_stable``
    (a false pole at omega t = pi/2).  A change that moves the raise makes the
    benchmark's ``presets`` workload incorrect.  ROADMAP item 1 replaces this
    contract: a cancellation-free tanh lets ``fig3`` run.
    """
    with pytest.raises(ZeroDivisionError) as err:
        run_scenario(preset("fig3"), tmp_path)
    frame = traceback.extract_tb(err.value.__traceback__)[-1]
    assert (frame.name, Path(frame.filename).name) == ("_tanh_stable", "gaussian.py")


def test_run_exits_3_on_a_numerical_failure_without_a_traceback(tmp_path, capsys):
    # fig3's ZeroDivisionError from the tanh pole check is one line on stderr
    assert main(["run", "--preset", "fig3", "--out", str(tmp_path)]) == 3
    captured = capsys.readouterr()
    assert captured.err.count("\n") == 1 and "Traceback" not in captured.err
    assert captured.err.startswith("run: fig3 failed numerically: ZeroDivisionError")


def test_free_particle_config_at_its_own_cap_validates_and_runs(tmp_path):
    from unravelings.gaussian import check_width_stability
    params = {"mass": 1.601725357683094, "lam": 1.3025019631314454, "hbar": 1.0,
              "a0": [0.7400285901907748, 0.43205968661337824]}
    dt = 0.007841331861199846
    cfg = validate_config({"name": "cap", "model": "free_particle", "params": params,
                           "dt": dt, "t_final": 10 * dt, "n_trajectories": 2,
                           "outputs": ["trajectory", "record", "ensemble_mean"]})
    # dt is the cap itself: the next float above it breaks the budget
    check_width_stability(cfg.mechanical(), cfg.a0(), cfg.xi, dt)
    with pytest.raises(ValueError, match="stability budget"):
        check_width_stability(cfg.mechanical(), cfg.a0(), cfg.xi, np.nextafter(dt, np.inf))
    assert len(run_scenario(cfg, tmp_path)) == 3


def test_bell_config_spin_setup_reaches_the_dynamical_ensembles(tmp_path, capsys):
    raw = _with(PRESETS["bell"], ("params", "psi0"), [[1.0, 0.0], [0.0, 0.0]])
    raw = {**raw, "t_final": 0.05, "n_trajectories": 20}
    path = tmp_path / "bell_up.json"
    path.write_text(json.dumps(raw), encoding="utf-8")
    # the spread-gap gate reads the state it checks: a zero gap passes at |up>
    assert main(["run", "--config", str(path), "--out", str(tmp_path), "--check"]) == 0
    out = capsys.readouterr().out
    assert "[PASS] dynamical spread gap" in out and "[FAIL]" not in out
    _, rep = read_report(tmp_path / "bell_bell.json")
    # |up> is an eigenstate of L: no spread under either member (|up_x> keeps 1)
    dyn = rep["dynamical"]
    for key in ("mean_spread_phase", "mean_spread_collapse", "rho_distance"):
        assert np.max(np.abs(dyn[key])) <= 1e-12


def test_load_config_round_trip(tmp_path):
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(PRESETS["fig1"]), encoding="utf-8")
    cfg = load_config(str(path))
    assert cfg.model == "free_particle"
    bad = tmp_path / "broken.json"
    bad.write_text("{not json", encoding="utf-8")
    with pytest.raises(ConfigError, match="JSON"):
        load_config(str(bad))


@pytest.mark.parametrize("where, repeated", [("{", '"dt": 0.002, '),
                                              ('"params": {', '"lam": 5.0, ')],
                         ids=["dt", "params.lam"])
def test_a_repeated_key_is_a_configuration_error(tmp_path, capsys, where, repeated):
    # json.loads keeps the last value of a repeated key; a config must not
    path = tmp_path / "repeated.json"
    path.write_text(json.dumps(PRESETS["fig2"]).replace(where, where + repeated, 1),
                    encoding="utf-8")
    name = "dt" if where == "{" else "params.lam"
    with pytest.raises(ConfigError, match=rf"  - {re.escape(name)}: key given more than once$"):
        load_config(str(path))
    assert main(["run", "--config", str(path), "--out", str(tmp_path / "out")]) == 2
    assert f"{name}: key given more than once" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


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


def _per_value_series_bytes(columns: dict, metadata: dict) -> bytes:
    """A series file as written one Python float at a time with f"{x:.17g}"."""
    lines = ["# " + json.dumps(metadata, sort_keys=True), ",".join(columns)]
    for row in np.column_stack([np.asarray(c, dtype=float) for c in columns.values()]):
        lines.append(",".join(f"{x:.17g}" for x in row.tolist()))
    return ("\n".join(lines) + "\n").encode("utf-8")


_SPECIAL = [np.inf, -np.inf, np.nan, -0.0, 0.0, 5e-324, -5e-324, np.finfo(float).max,
            -np.finfo(float).max, np.finfo(float).tiny, 0.1, 1.0 / 3.0, -1e-300, 2.0 ** 53 + 1]


@pytest.mark.parametrize("n_rows", [0, 1, 4097])        # 4097 rows cross a write block
def test_streamed_series_keeps_the_per_value_bytes(tmp_path, n_rows):
    rng = np.random.default_rng(n_rows)
    body = np.resize(np.concatenate([_SPECIAL, rng.standard_normal(64) * 1e-22,
                                     rng.standard_normal(64) * 1e23]), (n_rows, 3))
    cols = {"t": np.arange(n_rows) * 1e-3, "a": body[:, 0], "b": body[:, 1], "c": body[:, 2]}
    meta = {"config": {"k": 1}, "created_at": "now"}
    path = tmp_path / "x.csv"
    write_series(path, cols, meta)
    assert path.read_bytes() == _per_value_series_bytes(cols, meta)
    with warnings.catch_warnings():
        warnings.simplefilter("error")          # an empty body must not warn
        meta_back, back = read_series(path)
    assert meta_back == meta and list(back) == list(cols)
    # each value parses to the bits float() gives its text
    rows = path.read_text(encoding="utf-8").splitlines()[2:]
    for j, key in enumerate(cols):
        ref = np.array([float(r.split(",")[j]) for r in rows])
        assert back[key].shape == (n_rows,) and back[key].tobytes() == ref.tobytes()


def test_read_series_rejects_malformed_files(tmp_path):
    path = tmp_path / "x.csv"
    for text in ("t,a\n0,1\n", ""):
        path.write_text(text, encoding="utf-8")
        with pytest.raises(ValueError, match="metadata header"):
            read_series(path)
    path.write_text("# {}\nt,a,b\n0,1\n", encoding="utf-8")     # a column short
    with pytest.raises(ValueError, match="2 values per row under 3 column names"):
        read_series(path)


def test_run_out_naming_a_file_is_a_usage_error(tmp_path, capsys):
    taken = tmp_path / "taken"
    taken.write_text("kept\n", encoding="utf-8")
    assert main(["run", "--preset", "fig1", "--out", str(taken)]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and str(taken) in err
    assert taken.read_text(encoding="utf-8") == "kept\n"
    assert list(tmp_path.iterdir()) == [taken]


def test_check_out_naming_a_file_is_a_usage_error_before_any_criterion(
        tmp_path, monkeypatch, capsys):
    from unravelings import acceptance
    ran = []

    def stub(i):
        ran.append(i)
        return acceptance.CriterionResult("stub", True, "", {})

    monkeypatch.setattr(acceptance, "CRITERIA",
                        {i: (lambda i=i: stub(i)) for i in acceptance.CRITERIA})
    taken = tmp_path / "taken"
    taken.write_text("kept\n", encoding="utf-8")
    assert main(["check", "--only", "4", "--out", str(taken)]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and str(taken) in err
    assert ran == [] and taken.read_text(encoding="utf-8") == "kept\n"
    assert list(tmp_path.iterdir()) == [taken]


@pytest.mark.parametrize("helpers", [True, False], ids=["on", "off"])
def test_check_prints_its_environment_before_the_first_criterion(tmp_path, monkeypatch, capsys,
                                                                 helpers):
    from unravelings import acceptance, procs
    monkeypatch.setattr(procs, "_FORK_HELPER", helpers)
    monkeypatch.setattr(procs, "usable_cores", lambda: 1)
    monkeypatch.setattr(acceptance, "CRITERIA", dict.fromkeys(
        acceptance.CRITERIA, lambda: acceptance.CriterionResult("stub", True, "", {"x": 1})))
    assert main(["check", "--only", "4,7", "--out", str(tmp_path)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == (f"environment: Python {platform.python_version()}, numpy "
                        f"{np.__version__}, {os.cpu_count()} CPUs (1 usable), forked helpers "
                        f"{'on' if helpers else 'off'}")
    # each criterion is numbered and timed by the harness, not by itself
    assert lines[1:] == [
        "[PASS] criterion  4 (   0.0s) stub", "    tolerance: ", "    observed:  {'x': 1}",
        "[PASS] criterion  7 (   0.0s) stub", "    tolerance: ", "    observed:  {'x': 1}",
        f"wrote {tmp_path / 'acceptance_report.json'}"]
    report = (tmp_path / "acceptance_report.json").read_text(encoding="utf-8")
    rows = json.loads(report)
    assert [sorted(r) for r in rows] == 2 * [
        ["index", "observed", "passed", "seconds", "title", "tolerance"]]
    assert [r["index"] for r in rows] == [4, 7]
    assert all(r["seconds"] > 0.0 for r in rows)
    assert "environment" not in report and "numpy" not in report


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
                          "spread_gap_final": 0.9, "gap_floor": 0.786}}
    assert [c.passed for c in _check_bell(cfg, bell)] == [False, True, True, True]


def test_scenario_checks_read_only_the_outputs_the_config_asks_for(tmp_path):
    # a short fig2 run leaves unsettled trajectories behind; a later collapse_stats
    # run into the same directory is not checked against them
    run_scenario(validate_config({**PRESETS["fig2"], "t_final": 1.0}), tmp_path)
    cfg = validate_config({**PRESETS["fig2"], "outputs": ["collapse_stats"], "base_seed": 8})
    run_scenario(cfg, tmp_path)
    assert [c.name for c in scenario_checks(cfg, tmp_path)] == [
        "branch frequencies follow the Born weights",
        "mean conditional spread under the collapse bound"]


def test_collapse_stats_checks_read_the_member_rate(tmp_path):
    # <sz> collapses at lam xi_r^2: at xi = 0.6 - 0.8i and lam T = 2 the
    # spread bound is s0 / (1 + 4 lam xi_r^2 s0 t), which holds, and no
    # Born line runs (lam xi_r^2 T < 10); the bound at lam alone fails here
    cfg = validate_config({"name": "cs", "model": "spin", "unraveling": {"xi": [0.6, -0.8]},
                           "params": {"nu": 1.0, "lam": 1.0, "hbar": 1.0,
                                      "psi0": [[0.6, 0.0], [0.0, 0.8]]},
                           "dt": 1e-3, "t_final": 2.0, "n_trajectories": 30,
                           "base_seed": 17, "outputs": ["collapse_stats"]})
    run_scenario(cfg, tmp_path)
    _, rep = read_report(tmp_path / "cs_collapse_stats.json")
    s0 = 1.0 - (0.36 - 0.64) ** 2
    np.testing.assert_allclose(rep["bound"], collapse_bound(s0, 0.36, rep["times"]), rtol=1e-14)
    assert [c.line() for c in scenario_checks(cfg, tmp_path)] == [
        "[PASS] mean conditional spread under the collapse bound: observed True, expected True"]
    # at xi = 1 (xi_r^2 = 1) the report is that of the bound at lam, and
    # fig2 (lam T = 10) keeps both lines
    fig2 = validate_config({**PRESETS["fig2"], "outputs": ["collapse_stats"]})
    run = _SpinRun(fig2)
    result = run.ensemble.at_steps(_snapshot_steps(fig2))
    rep = run.collapse_stats()
    for name, value in vars(supermartingale_check(result, run.sp)).items():
        assert np.array_equal(rep[name], value)
    assert rep["n_up"] == collapse_statistics(result).n_up
    run_scenario(fig2, tmp_path)
    assert [(c.name, c.passed) for c in scenario_checks(fig2, tmp_path)] == [
        ("branch frequencies follow the Born weights", True),
        ("mean conditional spread under the collapse bound", True)]


def test_settling_check_reads_the_member_collapse_rate(tmp_path):
    # <sz> collapses at lam xi_r^2: fig2 (xi = 1, lam T = 10) keeps its line,
    # xi = 0.6 - 0.8i at lam T = 10 (lam xi_r^2 T = 3.6) has none, so an
    # unsettled trajectory there is no failure
    fig2 = preset("fig2")
    unsettled = {"t": np.array([0.0, 10.0]), "sz_000": np.array([0.5, 0.5])}
    assert [(c.name, c.passed) for c in _check_settled(fig2, unsettled)] == [
        ("every trajectory settles on an eigenstate", False)]
    interior = type(fig2)(**{**fig2.__dict__, "xi_r": 0.6, "xi_i": -0.8,
                             "outputs": ("trajectory", "ensemble_mean")})
    assert _check_settled(interior, unsettled) == []
    run_scenario(interior, tmp_path)
    checks = scenario_checks(interior, tmp_path)
    assert [c.name for c in checks] == ["ensemble mean tracks the master equation"]
    assert all(c.passed for c in checks)
    # a trajectory alone is checked by nothing at this horizon, which is no failure
    only = type(interior)(**{**interior.__dict__, "outputs": ("trajectory",)})
    assert scenario_checks(only, tmp_path) == []


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
        assert a.read_bytes() == b.read_bytes()


@pytest.mark.parametrize("name", ["fig2", "riccati_free"])
def test_written_metadata_holds_no_wall_clock_time(name, tmp_path):
    # every output kind of the family, each file's metadata: the config and
    # the seed fix every byte, so no key outside these three (no created_at)
    raw = PRESETS[name]
    cfg = validate_config({**raw, "dt": 1e-3, "t_final": 0.02, "n_trajectories": 8,
                           "outputs": list(OUTPUT_KINDS[FAMILIES[raw["model"]]])})
    written = run_scenario(cfg, tmp_path)
    assert len(written) == len(OUTPUT_KINDS[cfg.family])
    for path in written:
        meta = (read_report if path.suffix == ".json" else read_series)(path)[0]
        assert set(meta) == {"config", "effective_seed", "version"}, path.name


def test_seed_override_changes_stochastic_outputs(tmp_path):
    cfg = preset("riccati_free")
    cfg = type(cfg)(**{**cfg.__dict__, "outputs": ("trajectory",),
                       "dt": 1e-3, "t_final": 0.1})
    run_scenario(cfg, tmp_path / "a")
    run_scenario(cfg.with_seed(999), tmp_path / "b")
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
    with pytest.raises(SystemExit) as exc:                    # no scenario given
        main(["run", "--out", str(tmp_path)])
    assert exc.value.code == 2
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


def test_run_takes_one_of_preset_and_config(tmp_path, capsys):
    path = tmp_path / "fig2.json"
    path.write_text(json.dumps(PRESETS["fig2"]), encoding="utf-8")
    out = tmp_path / "out"
    with pytest.raises(SystemExit) as exc:
        main(["run", "--preset", "fig1", "--config", str(path), "--out", str(out)])
    assert exc.value.code == 2
    assert "not allowed with argument" in capsys.readouterr().err
    assert not out.exists()


def test_unreadable_config_file_is_a_configuration_error(tmp_path, capsys):
    missing = tmp_path / "missing.json"
    latin1 = tmp_path / "latin1.json"
    latin1.write_bytes(b'{"name": "caf\xe9"}')               # Latin-1, not UTF-8
    for path in (missing, latin1, tmp_path):
        with pytest.raises(ConfigError, match=f"cannot read {re.escape(str(path))}"):
            load_config(str(path))
        assert main(["run", "--config", str(path), "--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert "invalid configuration" in err and str(path) in err
    assert not (tmp_path / "out").exists()


def test_every_preset_has_a_description(capsys):
    assert set(_DESCRIBE) == set(PRESETS)
    for name in PRESETS:
        assert main(["describe", "--preset", name]) == 0
        assert capsys.readouterr().out == _DESCRIBE[name]
    assert main(["presets"]) == 0
    assert capsys.readouterr().out.splitlines() == [
        _DESCRIBE[name].splitlines()[0] for name in PRESETS]


def test_repeated_criterion_is_rejected_before_any_runs(monkeypatch, capsys):
    from unravelings import acceptance
    ran = []
    monkeypatch.setattr(acceptance, "CRITERIA",
                        {i: (lambda i=i: ran.append(i)) for i in acceptance.CRITERIA})
    assert main(["check", "--only", "11,11"]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "--only" in err and "twice" in err
    with pytest.raises(ValueError, match="criterion 11 is listed twice"):
        acceptance.run_criteria(only=[11, 11])
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


def test_harmonic_config_at_an_interior_member_runs_and_passes_its_checks(tmp_path):
    # xi = exp(-i pi/4): every mechanical output, and the Monte Carlo mean of
    # <x>^2 against the member's closed form
    xi = [np.cos(np.pi / 4), -np.sin(np.pi / 4)]
    cfg = validate_config({
        "name": "mid", "model": "harmonic", "unraveling": {"xi": xi},
        "params": {"mass": 1.0, "omega": 0.5, "lam": 1.0, "hbar": 1.0,
                   "a0": [0.3, 0.1], "x0": 0.0, "k0": 0.0},
        "dt": 5e-3, "t_final": 5.0, "n_trajectories": 4000, "base_seed": 19,
        "outputs": ["trajectory", "record", "ensemble_mean", "sigma", "var", "riccati"]})
    assert cfg.xi == complex(*xi)
    assert len(run_scenario(cfg, tmp_path)) == 6
    outcomes = scenario_checks(cfg, tmp_path)
    assert outcomes and all(c.passed for c in outcomes), [c.line() for c in outcomes]
    meta, em = read_series(tmp_path / "mid_ensemble_mean.csv")
    dev = np.abs(em["mean_x2_mc"] - em["mean_x2_closed_form"])
    # first snapshot is t = 0 where both sides vanish identically
    assert np.all(dev[1:] <= 4.0 * em["stderr_x2"][1:])
    # the written closed form keeps the law of total variance within the
    # quadrature oracle's bound
    assert total_variance_deviation(em["t"], em["mean_x2_closed_form"], cfg.mechanical(),
                                    cfg.a0(), 0.0, 0.0, cfg.xi) <= TOTAL_VARIANCE_RTOL
    # the check reads the Monte Carlo column: it passes here, and fails once one
    # snapshot is moved 5 SE further from the closed form
    def mean_square_check():
        (check,) = [c for c in scenario_checks(cfg, tmp_path)
                    if c.name.startswith("Monte Carlo mean of <x>^2")]
        return check
    assert mean_square_check().passed
    mc = em["mean_x2_mc"].copy()
    mc[10] += np.copysign(5.0 * em["stderr_x2"][10], mc[10] - em["mean_x2_closed_form"][10])
    write_series(tmp_path / "mid_ensemble_mean.csv", {**em, "mean_x2_mc": mc}, meta)
    assert not mean_square_check().passed


def test_noiseless_mechanical_ensemble_has_no_monte_carlo_check(tmp_path):
    # at lam = 0 every trajectory is the one Euler path: its standard error is
    # rounding, and the Euler step's own error is no Monte Carlo error
    cfg = validate_config({
        "name": "still", "model": "harmonic", "unraveling": "nonlinear",
        "params": {"mass": 1.0, "omega": 0.5, "lam": 0.0, "hbar": 1.0,
                   "a0": [0.3, 0.1], "x0": 0.2, "k0": -0.4},
        "dt": 5e-3, "t_final": 5.0, "n_trajectories": 20, "base_seed": 1,
        "outputs": ["ensemble_mean"]})
    run_scenario(cfg, tmp_path)
    assert scenario_checks(cfg, tmp_path) == []


def test_builders_cover_every_output_kind():
    assert set(_SETUPS) == set(OUTPUT_KINDS) == set(FAMILIES.values())
    for fam, kinds in OUTPUT_KINDS.items():
        assert all(callable(getattr(_SETUPS[fam], kind, None)) for kind in kinds), fam
    assert _REPORTS <= {kind for kinds in OUTPUT_KINDS.values() for kind in kinds}
    for name, raw in PRESETS.items():
        cfg = validate_config(raw)
        assert all(callable(getattr(_SETUPS[cfg.family], kind, None)) for kind in cfg.outputs)


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
    g = (0.3 + 0.1j, 0.2, -0.4)           # (width, centroid, wavenumber)
    states = [g]
    for dW in path:
        g = gaussian_sde_step(g, cfg.mechanical(), cfg.xi, dW, cfg.dt)
        states.append(g)
    widths, centroids, wavenumbers = (np.array(col) for col in zip(*states))
    _, tr = read_series(tmp_path / "m_trajectory.csv")
    assert np.array_equal(tr["width_re"], widths.real)
    assert np.array_equal(tr["width_im"], widths.imag)
    assert np.array_equal(tr["centroid"], centroids)
    assert np.array_equal(tr["wavenumber"], wavenumbers)
    if member == "nonlinear":
        _, rec = read_series(tmp_path / "m_record.csv")
        ref = measurement_record(path, centroids[:-1], cfg.dt, 1.0, 1.0)
        assert np.array_equal(rec["dy"], ref)


def test_spin_record_output(tmp_path):
    # trajectory 0's record, for the collapse member and an interior xi
    cfg = preset("fig2")
    for xi_r, xi_i in ((1.0, 0.0), (0.6, -0.8)):
        small = type(cfg)(**{**cfg.__dict__, "t_final": 0.2, "xi_r": xi_r, "xi_i": xi_i,
                             "outputs": ("record",)})
        run_scenario(small, tmp_path)
        _, rec = read_series(tmp_path / "fig2_record.csv")
        assert rec["dy"].size == small.n_steps
        setup = _SpinRun(small)
        seed = derive_seed(7, 0)
        _, means = simulate_trajectory(setup.model, setup.u, setup.psi0, small.dt,
                                       small.n_steps, seed, {"L": setup.model.L})
        ref = measurement_record(wiener_path(seed, small.dt, small.n_steps), means["L"][:-1],
                                 small.dt, xi_r, setup.sp.lam)
        assert np.array_equal(rec["dy"], ref)


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
    # each trajectory column is the kernel's path on its own stream (one
    # lock-step call; test_vectorized_members_equal_serial_trajectories ties
    # lock-step rows to serial trajectories), and the ensemble mean is that
    # of a separate run at the 41 snapshot steps.  fig2 on a tenth of its
    # horizon is still one noise block, so the same code runs; test_golden
    # pins the full preset's bits
    cfg = validate_config({**PRESETS["fig2"], "t_final": 1.0})
    run_scenario(cfg, tmp_path)
    setup = _SpinRun(cfg)
    model, u, psi0 = setup.model, setup.u, setup.psi0
    _, traj = read_series(tmp_path / "fig2_trajectory.csv")
    assert len(traj) == cfg.n_trajectories + 1
    dW = np.array([wiener_path(derive_seed(7, k), cfg.dt, cfg.n_steps)
                   for k in range(cfg.n_trajectories)])
    sz = _sigma_z_paths(_state_stack(_EulerKernel(model, u, cfg.dt), psi0, dW))
    for k in range(cfg.n_trajectories):
        assert np.array_equal(traj[f"sz_{k:03d}"], sz[k])
    res = simulate_ensemble(model, u, psi0, cfg.dt, cfg.n_steps, cfg.n_trajectories, 7,
                            snapshot_steps=_snapshot_steps(cfg),
                            tracked_observables={"sz": SIGMA_Z})
    _, em = read_series(tmp_path / "fig2_ensemble_mean.csv")
    assert np.array_equal(em["mean_sz"], res.means["sz"].mean(axis=1))
    assert np.array_equal(em["stderr_sz"], mc_stderr(res.means["sz"]))


@pytest.mark.parametrize("args", [["check", "--only", "7"], ["run", "--preset", "fig1"]],
                         ids=["check", "run"])
def test_a_closed_stdout_ends_the_command_quietly(tmp_path, args):
    # the reader of stdout has left before the command starts
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(Path(__file__).resolve().parents[1] / "src")]
        + [p for p in [env.get("PYTHONPATH")] if p])
    if args[0] == "run":
        args = args + ["--out", str(tmp_path)]
    r, w = os.pipe()
    os.close(r)
    try:
        done = subprocess.run([sys.executable, "-W", "error", "-m", "unravelings.cli"] + args,
                              stdout=w, stderr=subprocess.PIPE, text=True, env=env, timeout=120)
    finally:
        os.close(w)
    assert done.returncode == 1
    assert "Traceback" not in done.stderr and "BrokenPipeError" not in done.stderr, done.stderr
