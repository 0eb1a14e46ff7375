"""The pytest configuration: a failing Hypothesis test fails, it does not abort the run."""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

_PROBE = '''\
from hypothesis import given, strategies as st


@given(st.integers())
def test_fails(x):
    assert x < 5


def test_passes():
    pass
'''


def test_falsifying_example_leaves_later_tests_running(tmp_path):
    # on a falsifying example Hypothesis writes a patch through libcst, which
    # warns on import; under filterwarnings = error that must not end the session
    (tmp_path / "test_probe.py").write_text(_PROBE, encoding="utf-8")
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-c", str(ROOT / "pyproject.toml"), "-v",
         "-p", "no:cacheprovider", str(tmp_path / "test_probe.py")],
        capture_output=True, text=True, cwd=tmp_path, timeout=120)
    assert proc.returncode == 1, proc.stdout + proc.stderr
    assert "::test_fails FAILED" in proc.stdout and "::test_passes PASSED" in proc.stdout
    assert "INTERNALERROR" not in proc.stdout + proc.stderr
