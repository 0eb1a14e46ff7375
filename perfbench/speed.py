"""How fast the measuring thread's core runs, sampled while a round runs.

On a shared host the same single-threaded code runs up to 1.7 times slower
for stretches of seconds to a minute, and CPU time slows with it.  The
slowdown belongs to the core: a probe run in another process does not see
it.  So :class:`SpeedProbe` runs a fixed ~9 ms kernel of the benchmark's own
(a Python loop, small-array numpy as in the lock-step kernel, and
random draws with ufuncs on 50 000 doubles) in the measuring thread itself,
from a ``SIGALRM`` handler every :data:`INTERVAL_S`.  The handler runs
between bytecodes, so it sees the core the round's own work runs on.  It
skips its turn while the program's worker threads run (``presets`` runs
ensembles with 2 of them), because then it would compete with them for the
cores and the interpreter lock.

:func:`reference_seconds` turns a timed interval into seconds at the
reference speed: each stretch between two probes counts its length divided
by the mean of their speed factors (probe time / :data:`REF_S`), and the
probes' own time is left out.  The probe calls nothing of the program.
"""

import signal
import threading
import time

import numpy as np

INTERVAL_S = 0.5
# median probe time on the machine the README's figures come from
# (2 vCPUs of a shared Xeon host, Python 3.11, numpy 2.4)
REF_S = 0.0086

_rng = np.random.default_rng(12345)
_PSIS = _rng.standard_normal((2500, 2)) + 1j * _rng.standard_normal((2500, 2))
_OP = _rng.standard_normal((2, 2)) + 0j
_BASE = _rng.standard_normal(50_000)


def kernel():
    """A fixed mix of interpreter, small-array and large-array work."""
    s = 0
    for i in range(15_000):
        s += i * i % 7
    p = _PSIS
    for _ in range(12):
        q = p @ _OP.T
        e = np.einsum("ni,ni->n", p.conj(), q).real
        p = (p + 0.001 * q) / np.sqrt(1.0 + e[:, None] ** 2)
    g = np.random.default_rng(7)
    for _ in range(2):
        np.exp(np.sin(g.standard_normal(50_000)) * 0.1 + _BASE)
    return s


def reference_seconds(samples, t0, t1, ref=REF_S):
    """Seconds of [t0, t1] outside the probes, each stretch scaled to reference speed.

    ``samples`` are (start, end) of the probes in time order; the first ends
    at or before ``t0`` and the last starts at or after ``t1``.
    """
    total = 0.0
    for (a0, b0), (a1, b1) in zip(samples, samples[1:]):
        seg = min(a1, t1) - max(b0, t0)
        if seg > 0:
            total += seg / (0.5 * ((b0 - a0) + (b1 - a1)) / ref)
    return total


class SpeedProbe:
    """Samples :func:`kernel` in the measuring thread while the ``with`` block runs."""

    def __init__(self, interval=INTERVAL_S):
        self.interval = interval
        self.samples = []                  # (start, end) of each probe
        self._previous = None

    def sample(self):
        a = time.perf_counter()
        kernel()
        self.samples.append((a, time.perf_counter()))

    def _tick(self, signum, frame):
        if threading.active_count() == 1:
            self.sample()

    def __enter__(self):
        self.sample()
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, self.interval, self.interval)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        self.sample()
        return False

    def factor(self):
        """Mean probe time over :data:`REF_S`: above 1 the core ran slower than reference."""
        return sum(b - a for a, b in self.samples) / len(self.samples) / REF_S
