"""Acceptance gate: every criterion runs at its pinned tolerance.

Each test prints one PASS/FAIL line (visible with ``pytest -s`` or on
failure) and asserts the criterion outcome.  The same registry backs the
``unravelings check`` subcommand.
"""

import pytest

from unravelings.acceptance import CRITERIA, run_criteria


@pytest.mark.parametrize("index", sorted(CRITERIA))
def test_criterion(index):
    result = CRITERIA[index]()
    print()
    print(result.line())
    print(f"    tolerance: {result.tolerance}")
    print(f"    observed:  {result.observed}")
    assert result.passed, (f"criterion {index} failed: tolerance "
                           f"{result.tolerance}; observed {result.observed}")


def test_run_criteria_with_an_empty_selection_runs_none():
    assert run_criteria(only=[]) == []
