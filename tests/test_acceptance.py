"""Acceptance gate: every criterion runs at its pinned tolerance.

Each test prints one PASS/FAIL line (visible with ``pytest -s`` or on
failure), asserts the criterion outcome, and compares every observed value
with ``golden.json`` by ``repr``.  The same registry backs the
``unravelings check`` subcommand.
"""

import numpy as np
import pytest

import golden
from unravelings import acceptance
from unravelings.acceptance import CRITERIA, run_criteria

GOLDEN = golden.load()


@pytest.mark.parametrize("index", sorted(CRITERIA))
def test_criterion(index):
    result = CRITERIA[index]()
    print()
    print(result.line())
    print(f"    tolerance: {result.tolerance}")
    print(f"    observed:  {result.observed}")
    assert result.passed, (f"criterion {index} failed: tolerance "
                           f"{result.tolerance}; observed {result.observed}")
    assert golden.observed(result) == GOLDEN["criteria"][str(index)], golden.mismatch(
        f"criterion {index}'s observed value", GOLDEN)


def test_run_criteria_with_an_empty_selection_runs_none():
    assert run_criteria(only=[]) == []


def test_nan_in_a_late_width_block_fails_criterion_5(monkeypatch):
    # a NaN in one block of the closed form, with finite blocks after it,
    # must survive the running maximum over the blocks
    closed_form, calls = acceptance.a_closed_form, []

    def nan_in_block_10(t, cons):
        out = closed_form(t, cons)
        calls.append(t[0])
        if len(calls) == 10:
            out[out.size // 2] = np.nan
        return out

    monkeypatch.setattr(acceptance, "a_closed_form", nan_in_block_10)
    result = acceptance.criterion_5()
    assert len(calls) > 10 and calls == sorted(calls)
    assert np.isnan(result.observed["width_max_rel_err"])
    assert not result.passed
