"""Peak memory of the long-series paths, traced with ``tracemalloc``.

numpy reports its array buffers to ``tracemalloc``, so a traced peak counts
every array a call holds at once.  Each bound sits well above the blocked
path's peak and well below the peak of holding the whole series.
"""

import tracemalloc

import numpy as np
import pytest

from unravelings import acceptance
from unravelings.engine import UnravelingParams, simulate_ensemble
from unravelings.gaussian import spread_constants
from unravelings.runner import read_series, write_series
from unravelings.spin import SIGMA_Z, SpinParams, spin_model

MB = 2.0 ** 20


def _traced_peak(fn) -> float:
    """Peak traced bytes allocated while ``fn()`` runs."""
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_width_check_holds_one_block(monkeypatch):
    # 1e5 steps in blocks of 1024 (tracing the loop's 1e6 complex numbers is slow);
    # the whole path with its closed form and temporaries is ~7.7 MB
    monkeypatch.setattr(acceptance, "_WIDTH_BLOCK", 1024)
    p, a0, n = acceptance._FIG1, acceptance._FIG1_A0, 100_000
    dt = 10.0 / spread_constants(p, 1.0).rate.real / n
    assert _traced_peak(lambda: acceptance._width_max_rel_err(p, a0, dt, n)) < 1.0 * MB


def test_criterion_8_draws_its_substep_noise_in_blocks():
    # the whole (1600, 1000) draw and its scaled copy are 25.6 MB; ~3.2 MB in blocks
    assert _traced_peak(acceptance.criterion_8) < 6.0 * MB


def test_an_every_step_ensemble_reduces_its_snapshots_in_stacks():
    # fig2's ensemble: 10 trajectories, each of 10 000 steps a snapshot.  Its
    # results, held by the chunk and the caller, and its noise block come to
    # ~3.5 MB (~4.9 MB traced in all); keeping every state for one reduction
    # would add 3.2 MB, and as much again for their conjugates
    model = spin_model(SpinParams(1.0, 1.0))
    u, psi0 = UnravelingParams.nonlinear(1.0), np.array([0.5, np.sqrt(3.0) / 2.0])

    def run(n_steps):
        return simulate_ensemble(model, u, psi0, 1e-3, n_steps, 10, 7,
                                 snapshot_steps=np.arange(n_steps + 1),
                                 tracked_observables={"sz": SIGMA_Z})

    run(10)         # the first call's imports are not the ensemble's
    assert _traced_peak(lambda: run(10_000)) < 6.0 * MB


@pytest.fixture
def trajectory_columns():
    """The shape of fig2's trajectory file: a time column and ten series of 10 001 rows."""
    rng = np.random.default_rng(19)
    return {"t": np.arange(10_001) * 1e-3,
            **{f"sz_{k:03d}": rng.uniform(-1.0, 1.0, 10_001) for k in range(10)}}


def test_write_series_formats_rows_in_blocks(tmp_path, trajectory_columns):
    # one string per value of the file took ~7.6 MB; ~3.6 MB in row blocks
    path = tmp_path / "s.csv"
    assert _traced_peak(lambda: write_series(path, trajectory_columns, {})) < 5.0 * MB


def test_read_series_parses_rows_without_the_text(tmp_path, trajectory_columns):
    # the file's text split into strings took ~12.4 MB; ~1.7 MB parsed as a stream
    path = tmp_path / "s.csv"
    write_series(path, trajectory_columns, {})
    assert _traced_peak(lambda: read_series(path)) < 4.0 * MB
