"""Every child process of the library: where it starts, how it talks back and how it ends.

One context manager, :func:`_forked`, forks every child and, however the
caller's block ends, kills and reaps it.  A child is either the noise helper
of :func:`_drawn_blocks`, the one block source of ``engine``'s noise layouts,
or a piece of :func:`_forked_map`, which runs independent pieces at once (the
chunk groups of :func:`_chunked`, the width check and centroid ensemble of
criterion 5, the step sizes of criterion 9).  Only the top-level process
forks pieces.  Nothing forks where ``os.fork`` is missing or on CPython 3.12
and later, which warns when a process with threads (numpy's BLAS) forks:
there the noise is drawn inline with the same numbers, and the pieces run
one after the other.  Forked or inline, a noise block is a view into a
buffer the size of its plan's largest block, valid until the next block.
"""

import contextlib
import gc
import math
import mmap
import os
import pickle
import signal
import sys
import traceback
from functools import partial

import numpy as np

_ENSEMBLE_CHUNK = 2500    # trajectories per reduction chunk (fixed)

# CPython 3.12 and later warn when a process with more than one thread forks,
# and numpy's BLAS threads make nearly every process one: there nothing forks
_FORK_HELPER = hasattr(os, "fork") and sys.version_info < (3, 12)
_IN_CHILD = False   # set in every forked child, where _forked_map runs its pieces inline


def usable_cores() -> int:
    """The CPUs this process may run on: its affinity set where ``os`` reports one."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _chunked(n_traj: int, run_chunk) -> list:
    """``[((k0, k1), run_chunk(k0, k1))]`` over the fixed chunks of trajectories 0..n_traj-1.

    :func:`_forked_map` runs at most :func:`usable_cores` contiguous groups of
    chunks at once, whose chunk counts differ by one at most.  Each chunk is
    independent, so the results, in chunk order, are those of one loop.
    """
    bounds = [(k0, min(k0 + _ENSEMBLE_CHUNK, n_traj)) for k0 in range(0, n_traj, _ENSEMBLE_CHUNK)]
    n_groups = min(len(bounds), usable_cores())
    cuts = [len(bounds) * g // n_groups for g in range(n_groups + 1)]

    def run_group(group):
        return [(b, run_chunk(*b)) for b in group]

    return [done for group in _forked_map([partial(run_group, bounds[a:b])
                                           for a, b in zip(cuts, cuts[1:])])
            for done in group]


def _drawn_blocks(plan: list, open_fill):
    """Yield ``(start, block)`` of each ``(start, shape)`` in ``plan``, valid until the next.

    ``open_fill()`` returns ``fill(out)``, which writes the next block into
    ``out``.  When the plan has two blocks or more and ``_FORK_HELPER``
    holds, block b is a view into buffer b % 2 of two shared anonymous
    buffers, each the size of the largest block, that a forked helper fills
    one block ahead; else it is a view into one such buffer, filled here with
    the same numbers.  The helper calls ``open_fill()``, so whatever ``fill``
    advances is advanced in its copy only.  A "ready" token on one pipe hands a filled buffer over,
    and a "free" token on the other hands it back once the caller asks for
    the next block; EOF on the free pipe, or a broken ready pipe, tells the
    helper that the caller has stopped.  A helper that exits before its last
    block raises RuntimeError here; :func:`_forked` stops it, mid-fill or
    not, as the generator ends.
    """
    size = max((math.prod(shape) for _, shape in plan), default=0)
    forked = len(plan) > 1 and _FORK_HELPER
    buffers = [mmap.mmap(-1, 8 * size) for _ in range(2)] if forked else [np.empty(size)]

    def block(b):
        shape = plan[b][1]
        return np.frombuffer(buffers[b % len(buffers)], count=math.prod(shape)).reshape(shape)

    if not forked:
        fill = open_fill()
        for b, (start, _) in enumerate(plan):
            fill(block(b))
            yield start, block(b)
        return
    ready_r, ready_w = os.pipe()
    free_r, free_w = os.pipe()

    def draw():
        fill = open_fill()
        for b in range(len(plan)):
            if b >= 2 and not os.read(free_r, 1):
                return
            fill(block(b))
            os.write(ready_w, b"r")

    with _forked(draw, (ready_r, free_w), (ready_w, free_r)):
        for b, (start, _) in enumerate(plan):
            if not os.read(ready_r, 1):
                raise RuntimeError(f"the noise helper exited before block {b} of {len(plan)}")
            yield start, block(b)
            if b + 2 < len(plan):
                with contextlib.suppress(BrokenPipeError):   # a helper that left shows as EOF
                    os.write(free_w, b"f")


@contextlib.contextmanager
def _forked(run, caller_ends, child_ends):
    """Fork a child that calls ``run()`` and leaves by ``os._exit``; stop it as the block ends.

    Each process closes the other's pipe ends (both, if the fork fails).  The
    child freezes what it inherits, so it runs no finalizer of the caller's
    objects; it prints any error but a BrokenPipeError (the caller has left).
    A child of the top-level process leads its own process group, which the
    children it forks in turn (a piece's noise helper) join.  However the
    block ends, the caller closes its ends, kills the child (its whole group,
    if it leads one; a child that has exited ignores it) and reaps it.
    """
    global _IN_CHILD
    leader = not _IN_CHILD
    try:
        pid = os.fork()
    except OSError:
        for fd in caller_ends + child_ends:
            os.close(fd)
        raise
    for fd in caller_ends if pid == 0 else child_ends:
        os.close(fd)
    if pid == 0:
        _IN_CHILD = True
        code = 0
        try:
            if leader:
                os.setpgid(0, 0)
            gc.freeze()
            run()
        except BrokenPipeError:
            pass
        except BaseException:
            traceback.print_exc()
            code = 1
        finally:
            os._exit(code)
    try:
        if leader:      # here too, so the group exists before the kill, whichever side runs first
            os.setpgid(pid, 0)
        yield
    finally:
        for fd in caller_ends:
            os.close(fd)
        os.kill(-pid if leader else pid, signal.SIGKILL)
        os.waitpid(pid, 0)


def _forked_map(fns) -> list:
    """``[f() for f in fns]``: ``fns[0]`` runs here, each other one in a forked child.

    A child sends back its result, or the exception it raised, pickled, so a
    value keeps its bits and an exception its type and message; one that
    exits without sending raises RuntimeError.  If anything raises here,
    every child is stopped by :func:`_forked`.  Inside a forked child every
    ``f`` runs here, so a piece never forks pieces of its own and the
    processes stay bounded.
    """
    if not _FORK_HELPER or _IN_CHILD:
        return [f() for f in fns]

    def send(f, w):
        try:
            outcome = True, f()
        except Exception as exc:
            outcome = False, exc
        with open(w, "wb") as pipe:
            pipe.write(pickle.dumps(outcome))

    with contextlib.ExitStack() as children:
        reads = []
        for f in fns[1:]:
            r, w = os.pipe()
            children.enter_context(_forked(partial(send, f, w), (r,), (w,)))
            reads.append(r)
        results = [fns[0]()]
        for r in reads:
            data = b"".join(iter(partial(os.read, r, 1 << 16), b""))
            if not data:
                raise RuntimeError(f"forked piece {len(results)} of {len(fns)} exited "
                                   "without a result")
            sent, value = pickle.loads(data)
            if not sent:
                raise value
            results.append(value)
        return results
