"""The process contract of ``procs``, tested on ``procs`` itself: children, helpers and pieces."""

import ast
import contextlib
import functools
import itertools
import os
import select
import time
from pathlib import Path

import numpy as np
import pytest

from unravelings import engine, procs
from unravelings.engine import simulate_ensemble

from test_engine import (PSI0, XI_INTERIOR, SpikedStream, _both_kernels, _no_child_left,
                         _random_columns, deadline, pair_blocks, spin_model)

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "unravelings"


@functools.cache
def _sites() -> tuple:
    """``({name: [call]}, {module: [import]})`` over the package, one walk per file.

    A call ``os.<name>(...)`` is named ``module.function:line``, where
    ``function`` is the innermost function around it, or ``<module>``; an
    import of a module (or of a name from it) is named ``module:line``.
    """
    calls, imports = {}, {}

    def visit(node, stem, where):
        for child in ast.iter_child_nodes(node):
            if (isinstance(child, ast.Call) and isinstance(child.func, ast.Attribute)
                    and isinstance(child.func.value, ast.Name) and child.func.value.id == "os"):
                calls.setdefault(child.func.attr, []).append(f"{stem}.{where}:{child.lineno}")
            names = ([a.name for a in child.names] if isinstance(child, ast.Import)
                     else [child.module or ""] if isinstance(child, ast.ImportFrom) else [])
            for name in names:
                imports.setdefault(name.split(".")[0], []).append(f"{stem}:{child.lineno}")
            visit(child, stem, child.name if isinstance(child, ast.FunctionDef) else where)

    for path in sorted(PACKAGE.glob("*.py")):
        visit(ast.parse(path.read_text(encoding="utf-8")), path.stem, "<module>")
    return calls, imports


def test_one_fork_site_and_one_reaping_path():
    counts = {"fork": 1, "setpgid": 2, "kill": 1, "waitpid": 1}
    sites = {name: _sites()[0].get(name, []) for name in counts}
    for name, calls in sites.items():
        assert len(calls) == counts[name], calls
    functions = {call.split(":")[0] for calls in sites.values() for call in calls}
    assert functions == {"procs._forked"}, sites


def test_every_process_call_and_import_is_in_procs():
    calls, imports = _sites()
    sites = [site for name in ("fork", "pipe", "setpgid", "kill", "waitpid")
             for site in calls.get(name, [])]
    sites += [site for module in ("mmap", "pickle", "signal") for site in imports.get(module, [])]
    assert len(sites) == 11, sites      # 1 + 3 + 2 + 1 + 1 calls, 3 imports
    assert {site.split(".")[0].split(":")[0] for site in sites} == {"procs"}, sites


EIGHT = [(3 * b, (3, 4)) for b in range(8)]     # eight blocks of 3 steps x 4 streams


def _draws(fail_at=None, failure=None):
    """``open_fill`` of a fresh generator's normal draws; block ``fail_at`` calls ``failure()``."""
    def open_fill():
        rng, count = np.random.default_rng(7), itertools.count()

        def fill(out):
            if next(count) == fail_at:
                failure()
            rng.standard_normal(out=out)
        return fill
    return open_fill


needs_forks = pytest.mark.skipif(not procs._FORK_HELPER, reason="this interpreter forks nothing")


@pytest.mark.parametrize("forks", [True, False], ids=["forked", "inline"])
def test_forked_and_inline_draws_give_the_same_bits_and_buffer_reuse(monkeypatch, deadline,
                                                                     forks):
    # the first block is the shortest, so a buffer is sized by the largest.
    # Block b is a view at the start of buffer b % 2 (forked) or of the one buffer
    monkeypatch.setattr(procs, "_FORK_HELPER", forks and procs._FORK_HELPER)
    plan = [(0, (1, 4)), (1, (3, 4)), (4, (3, 4)), (7, (2, 4))]
    got = [(start, block.copy(), block.__array_interface__["data"][0])
           for start, block in procs._drawn_blocks(plan, _draws())]
    _no_child_left()
    assert [(start, block.shape) for start, block, _ in got] == plan
    joined = np.concatenate([block.ravel() for _, block, _ in got])
    assert joined.tobytes() == np.random.default_rng(7).standard_normal(36).tobytes()
    at = [a for _, _, a in got]
    assert [at.index(a) for a in at] == [b % (2 if procs._FORK_HELPER else 1) for b in range(4)]


@pytest.mark.parametrize("plan", [[], EIGHT[:1]], ids=["empty", "one_block"])
def test_one_block_and_empty_plans_fork_nothing(monkeypatch, plan):
    monkeypatch.setattr(procs, "_FORK_HELPER", True)
    monkeypatch.delattr(os, "fork")          # a fork would raise AttributeError
    assert [(start, b.shape) for start, b in procs._drawn_blocks(plan, _draws())] == plan


@pytest.mark.parametrize("taken", [1, 2, 5])
@pytest.mark.parametrize("ending", ["raises", "closes"])
@needs_forks
def test_the_helper_is_reaped_when_its_consumer_raises_or_closes_early(deadline, ending, taken):
    blocks = procs._drawn_blocks(EIGHT, _draws())
    with contextlib.suppress(ValueError), contextlib.closing(blocks):
        for _ in range(taken):
            next(blocks)
        if ending == "raises":
            raise ValueError("the consumer failed")
    _no_child_left()                         # while ``blocks`` is still referenced


@needs_forks
def test_a_fill_stuck_mid_block_is_stopped_at_once(deadline):
    # the helper's fill of block 1 sleeps; the caller stops after block 0
    blocks = procs._drawn_blocks(EIGHT, _draws(1, lambda: time.sleep(10.0)))
    next(blocks)
    t0 = time.perf_counter()
    blocks.close()
    assert time.perf_counter() - t0 < 1.0
    _no_child_left()


@pytest.mark.parametrize("block", [0, 3])
@needs_forks
def test_a_helper_that_dies_raises_naming_its_block(deadline, block):
    def no_room():
        raise MemoryError("no room for the block")

    with pytest.raises(RuntimeError, match=f"noise helper exited before block {block} of 8"):
        for _ in procs._drawn_blocks(EIGHT, _draws(block, no_room)):
            pass
    _no_child_left()


@needs_forks
def test_a_pieces_helper_is_killed_with_its_piece(deadline):
    # the helper of a forked piece writes to a pipe and hangs in its first
    # fill.  The caller's share, holding no write end, reads that byte and
    # raises; the piece is stopped, and its helper with it, so the pipe ends
    r, w = os.pipe()

    def write_and_hang():                    # runs in the piece's helper
        os.write(w, b"h")
        time.sleep(60.0)

    def piece():
        for _ in procs._drawn_blocks(EIGHT, _draws(0, write_and_hang)):
            pass

    def callers_share():
        os.close(w)
        assert os.read(r, 1) == b"h"
        raise ValueError("the caller's share failed")

    with pytest.raises(ValueError, match="the caller's share failed"):
        procs._forked_map([callers_share, piece])
    _no_child_left()
    assert select.select([r], [], [], 1.0)[0] and os.read(r, 1) == b""
    os.close(r)


@pytest.fixture
def forked_map(monkeypatch):
    """The monkeypatch of a test that needs :func:`procs._forked_map` to fork."""
    if not procs._FORK_HELPER:
        pytest.skip("this interpreter runs every piece inline")
    return monkeypatch


@pytest.mark.parametrize("cpus, sizes", [(None, [10]), (1, [10]), (2, [5, 5]), (3, [3, 3, 4]),
                                         (16, [1] * 10)])
def test_chunk_driver_runs_contiguous_groups_of_chunks_at_once(forked_map, deadline, cpus,
                                                               sizes):
    # 10 one-trajectory chunks in at most as many groups as usable cores, the
    # first here and each other one in one forked piece; results in chunk order
    forks = []
    fork = os.fork

    def counted_fork():
        forks.append(1)
        return fork()

    forked_map.setattr(procs, "_ENSEMBLE_CHUNK", 1)
    if cpus is None:    # no affinity call and no CPU count: one group
        forked_map.delattr(os, "sched_getaffinity", raising=False)
        forked_map.setattr(os, "cpu_count", lambda: None)
    else:               # the affinity set caps the groups, not the host's 64 CPUs
        forked_map.setattr(os, "cpu_count", lambda: 64)
        forked_map.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)), raising=False)
    forked_map.setattr(os, "fork", counted_fork)
    done = procs._chunked(10, lambda k0, k1: (os.getpid(), k0, k1))
    _no_child_left()
    assert [bounds for bounds, _ in done] == [(k, k + 1) for k in range(10)]
    assert all((k0, k1) == (a, b) for (k0, k1), (_, a, b) in done)
    pids = [pid for _, (pid, _, _) in done]
    assert [len(list(group)) for _, group in itertools.groupby(pids)] == sizes
    assert len(set(pids)) == len(sizes) and pids[0] == os.getpid()
    assert len(forks) == len(sizes) - 1


def test_a_forked_piece_runs_its_own_pieces_inline(forked_map, deadline):
    forked_map.setattr(procs, "_ENSEMBLE_CHUNK", 4)
    forked_map.setattr(procs, "usable_cores", lambda: 2)
    done = procs._chunked(10, lambda k0, k1: (os.getpid(),
                                               procs._forked_map([os.getpid] * 3)))
    _no_child_left()
    piece = done[-1][1][0]
    assert piece != os.getpid()
    for _, (pid, inner) in done:
        if pid == piece:
            assert inner == [piece] * 3


def _matched_means(kernels, psi0, seed):
    """Every <L> ``_matched_blocks`` hands back for 10 columns over 40 steps, stops 10 and 25."""
    with contextlib.closing(engine._matched_blocks(kernels, psi0, np.random.default_rng(seed),
                                                   1e-3, 40, 10, stops=(10, 25))) as pairs:
        return [(step, means.copy()) for step, means in pairs]


def test_forked_map_gives_the_inline_bits(forked_map, pair_blocks, deadline):
    # the pieces run their own noise helpers inside the children
    kernels = _both_kernels(1e-3)
    psi0 = _random_columns(np.random.default_rng(18), 3, 1)[:, 0]
    pieces = [lambda: (os.getpid(), _matched_means(kernels, psi0, 21)),
              lambda: (os.getpid(), _matched_means(kernels, psi0, 22)),
              lambda: (os.getpid(), simulate_ensemble(spin_model(), XI_INTERIOR, PSI0, 1e-3, 40,
                                                      10, base_seed=5).final_states)]
    forked = procs._forked_map(pieces)
    _no_child_left()
    forked_map.setattr(procs, "_FORK_HELPER", False)
    inline = procs._forked_map(pieces)
    assert [pid for pid, _ in inline] == [os.getpid()] * 3
    assert forked[0][0] == os.getpid() and os.getpid() not in {forked[1][0], forked[2][0]}
    for (_, a), (_, b) in zip(forked[:2], inline[:2]):
        assert [step for step, _ in a] == [step for step, _ in b]
        assert all(np.array_equal(x, y) for (_, x), (_, y) in zip(a, b))
    assert np.array_equal(forked[2][1], inline[2][1])


def test_forked_map_raises_a_childs_error_with_its_message(forked_map, pair_blocks, deadline):
    kernels = _both_kernels(1e-3)
    psi0 = _random_columns(np.random.default_rng(14), 3, 1)[:, 0]

    def spiked():
        for _ in engine._matched_blocks(kernels[:1], psi0, SpikedStream(), 1e-3, 9, 10):
            pass

    with pytest.raises(FloatingPointError, match="trajectory 6 became non-finite at step 5"):
        procs._forked_map([lambda: 1, spiked, lambda: 3])
    _no_child_left()


def test_forked_map_stops_its_children_when_the_callers_share_raises(forked_map, deadline):
    def callers_share():
        raise ValueError("the caller's share failed")

    t0 = time.perf_counter()
    with pytest.raises(ValueError, match="the caller's share failed"):
        procs._forked_map([callers_share, lambda: time.sleep(60), lambda: time.sleep(60)])
    _no_child_left()
    assert time.perf_counter() - t0 < 20.0


def test_forked_map_child_that_dies_raises_instead_of_hanging(forked_map, deadline):
    with pytest.raises(RuntimeError, match="forked piece 1 of 3 exited without a result"):
        procs._forked_map([lambda: 0, lambda: os._exit(3), lambda: 2])
    _no_child_left()


def test_forked_map_runs_inline_without_the_fork_helper(monkeypatch):
    def no_fork():
        raise AssertionError("forked")

    def fails():
        raise FloatingPointError("trajectory 0 became non-finite at step 3; reduce dt")

    monkeypatch.setattr(procs, "_FORK_HELPER", False)
    monkeypatch.setattr(os, "fork", no_fork)
    assert procs._forked_map([os.getpid, lambda: 2, os.getpid]) == [os.getpid(), 2, os.getpid()]
    with pytest.raises(FloatingPointError, match="at step 3"):
        procs._forked_map([lambda: 0, fails])
