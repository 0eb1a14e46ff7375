"""Suite-wide checks of the test run itself."""

import os

import pytest


def pytest_sessionfinish(session, exitstatus):
    """Fail the run if a child process of it is left, running or unreaped (a leaked noise helper)."""
    try:
        pid, _ = os.waitpid(-1, os.WNOHANG)
    except ChildProcessError:
        return
    state = "still running" if pid == 0 else f"{pid} exited but was never reaped"
    reporter = session.config.pluginmanager.get_plugin("terminalreporter")
    reporter.write("\n")
    reporter.write_sep("!", f"a child process of the test run is left: {state}", red=True)
    session.exitstatus = pytest.ExitCode.TESTS_FAILED
