"""The tracer wraps every name a function is reachable under and restores them."""

import pytest

import spans


def _span(sid, name, start, end, parent=None, count=0):
    return {"id": sid, "name": name, "start": start, "end": end, "parent": parent, "count": count}


def test_self_time_subtracts_the_union_of_children():
    rows = [_span(0, "a", 0.0, 10.0),
            _span(1, "b", 1.0, 4.0, parent=0),
            _span(2, "b", 3.0, 5.0, parent=0),      # overlaps its sibling (worker threads)
            _span(3, "c", 8.0, 9.0, parent=0),
            _span(4, "d", 2.0, 2.5, parent=1)]
    selfs = spans.self_times(rows)
    assert selfs[0] == pytest.approx(10.0 - 4.0 - 1.0)
    assert selfs[1] == pytest.approx(3.0 - 0.5)
    assert selfs[3] == pytest.approx(1.0)


def test_layer_metrics_name_every_metric():
    rows = [_span(0, "engine.simulate_ensemble", 0.0, 2.0, count=1000),
            _span(1, "noise.derive_seed", 0.5, 1.0, parent=0)]
    values = spans.layer_metrics(rows, 0.25)
    assert list(values) == [name for name, _, _ in spans.metric_specs()]
    assert values["engine.simulate_ensemble.self_s"] == pytest.approx(1.5)
    assert values["engine.simulate_ensemble.traj_steps_per_s"] == pytest.approx(1000 / 1.5)
    assert values["noise.derive_seed.calls"] == 1
    assert values["trace.overhead_s"] == 0.25


def test_tracer_reaches_imported_names_and_the_registry(tmp_path):
    from unravelings import acceptance, bell, engine, runner
    originals = (engine.simulate_ensemble, bell.simulate_ensemble, acceptance.CRITERIA[4],
                 runner.write_series)
    tracer = spans.Tracer()
    tracer.install()
    try:
        assert bell.simulate_ensemble is engine.simulate_ensemble is not originals[0]
        assert acceptance.CRITERIA[4] is acceptance.criterion_4 is not originals[2]
        tracer.span("op gap", lambda: bell.dynamical_gap(
            t_final=0.01, dt=1e-3, n_traj=3, base_seed=1, n_snapshots=2))()
        runner.write_series(tmp_path / "s.csv", {"t": [0.0, 1.0]}, {"created_at": ""})
    finally:
        tracer.uninstall()
    assert (engine.simulate_ensemble, bell.simulate_ensemble, acceptance.CRITERIA[4],
            runner.write_series) == originals
    by_name = {}
    for s in tracer.spans:
        by_name.setdefault(s["name"], []).append(s)
    gap = by_name["bell.dynamical_gap"][0]
    assert gap["parent"] == by_name["op gap"][0]["id"]
    ens = by_name["engine.simulate_ensemble"]
    assert len(ens) == 2 and all(s["parent"] == gap["id"] for s in ens)
    assert sum(s["count"] for s in ens) == 2 * 3 * 10
    assert len(by_name["noise.derive_seed"]) == 6
    assert {s["parent"] for s in by_name["noise.derive_seed"]} == {s["id"] for s in ens}
    values = spans.layer_metrics(tracer.spans, 0.0)
    assert values["runner.files_written"] == 1
    assert values["runner.bytes_written"] == (tmp_path / "s.csv").stat().st_size
