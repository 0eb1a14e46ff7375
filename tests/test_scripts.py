"""Each script in scripts/ runs to completion at tiny sizes."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize("script, args", [
    ("run_bell_gap.py", ["--n-traj", "20", "--t-final", "0.01"]),
    ("run_collapse_ensemble.py", ["--n-traj", "20", "--t-final", "0.1"]),
    ("run_spread_comparison.py", ["--out", "{tmp}"]),
])
def test_script_runs(script, args, tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + [p for p in [env.get("PYTHONPATH")] if p])
    # tier-1 turns warnings into errors; the subprocess does not inherit that
    cmd = [sys.executable, "-W", "error", str(ROOT / "scripts" / script)]
    cmd += [a.format(tmp=tmp_path) for a in args]
    proc = subprocess.run(cmd, capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout
