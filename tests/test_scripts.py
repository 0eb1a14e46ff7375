"""Each script in scripts/ runs to completion at tiny sizes, under -W error."""

import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from unravelings.config import preset
from unravelings.runner import files_equal_ignoring_timestamp, run_scenario

ROOT = Path(__file__).resolve().parents[1]


def _run_script(script, args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + [p for p in [env.get("PYTHONPATH")] if p])
    # tier-1 turns warnings into errors; the subprocess does not inherit that
    cmd = [sys.executable, "-W", "error", str(ROOT / "scripts" / script)] + args
    return subprocess.run(cmd, capture_output=True, text=True, env=env, timeout=120)


@pytest.mark.parametrize("script, args", [
    ("run_bell_gap.py", ["--n-traj", "20", "--t-final", "0.01"]),
    ("run_collapse_ensemble.py", ["--n-traj", "20", "--t-final", "0.1"]),
    ("run_spread_comparison.py", ["--out", "{tmp}"]),
])
def test_script_runs(script, args, tmp_path):
    proc = _run_script(script, [a.format(tmp=tmp_path) for a in args])
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout


@pytest.fixture(scope="module")
def two_fig1_runs(tmp_path_factory):
    root = tmp_path_factory.mktemp("fig1")
    for side in ("a", "b"):
        run_scenario(preset("fig1"), root / side)
    return root / "a", root / "b"


def test_compare_outputs_passes_a_rerun(two_fig1_runs):
    # two runs of one preset differ only in created_at
    a, b = two_fig1_runs
    proc = _run_script("compare_outputs.py", [str(a), str(b)])
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "differs" not in proc.stdout and "only in" not in proc.stdout


def test_compare_outputs_names_a_changed_value_and_a_missing_file(two_fig1_runs, tmp_path):
    a, b = two_fig1_runs
    changed = tmp_path / "b"
    shutil.copytree(b, changed)
    target = changed / "fig1_var.csv"
    lines = target.read_text(encoding="utf-8").split("\n")
    row = lines[2].split(",")
    row[-1] = repr(float(row[-1]) * (1.0 + 1e-15))
    lines[2] = ",".join(row)
    target.write_text("\n".join(lines), encoding="utf-8")
    proc = _run_script("compare_outputs.py", [str(a), str(changed)])
    assert proc.returncode == 1, proc.stderr
    assert proc.stdout.splitlines()[0] == "differs: fig1_var.csv"
    (changed / "fig1_var.csv").unlink()
    proc = _run_script("compare_outputs.py", [str(a), str(changed)])
    assert proc.returncode == 1, proc.stderr
    assert f"only in {a}: fig1_var.csv" in proc.stdout


def test_compare_outputs_reports_a_series_without_metadata(tmp_path):
    # a hand-written two-line series has no "# {json}" line: it differs, with
    # no traceback; so do a one-line file and one whose metadata is no object
    for side in ("a", "b"):
        (tmp_path / side).mkdir()
        (tmp_path / side / "s.csv").write_text("t,x\n0,1\n", encoding="utf-8")
    proc = _run_script("compare_outputs.py", [str(tmp_path / "a"), str(tmp_path / "b")])
    assert proc.returncode == 1, proc.stderr
    assert proc.stdout.splitlines()[0] == "differs: s.csv"
    one = tmp_path / "one.csv"
    one.write_text('# {"config": {}}', encoding="utf-8")
    assert not files_equal_ignoring_timestamp(one, one)
    number = tmp_path / "number.csv"
    number.write_text("# 5\nt,x\n", encoding="utf-8")
    assert not files_equal_ignoring_timestamp(number, number)


def test_compare_outputs_reports_a_malformed_report(tmp_path):
    # a report holding {} has no metadata, and one that is not JSON does not
    # parse: each differs, with no traceback; so does a JSON value that is no object
    for side in ("a", "b"):
        (tmp_path / side).mkdir()
        (tmp_path / side / "empty.json").write_text("{}", encoding="utf-8")
        (tmp_path / side / "text.json").write_text("not json\n", encoding="utf-8")
    proc = _run_script("compare_outputs.py", [str(tmp_path / "a"), str(tmp_path / "b")])
    assert proc.returncode == 1, proc.stderr
    assert proc.stdout.splitlines()[:2] == ["differs: empty.json", "differs: text.json"]
    for text in ("[1, 2]", "5", '"metadata"', '{"metadata": 5}'):
        value = tmp_path / "value.json"
        value.write_text(text, encoding="utf-8")
        assert not files_equal_ignoring_timestamp(value, value), text
