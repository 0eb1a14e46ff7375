"""Seeded Wiener increments and measurement records.

Every random draw in the library comes from numpy's PCG64 stream of an
integer seed, so a run is fully determined by integer seeds.  Ensembles
derive one child seed per trajectory with :func:`derive_seed`, which makes
the members independent of each other and of the order in which they are
simulated.  Trajectory ``k`` of an ensemble always draws the stream of
``wiener_path(derive_seed(base_seed, k), dt, n_steps)``; the lock-step
ensembles open those streams with :func:`default_rngs`, which seeds many
generators in one vectorised pass and gives the same generators as
``np.random.default_rng`` bit for bit.

The detector-record convention couples the increments to a monitored
observable mean series ``ell``::

    dy_k = xi_r * ell_k * dt + dW_k / (2 * sqrt(lam))

and is algebraically invertible: :func:`reconstruct_noise` recovers the
driving noise from a record and the conditional means.  The rate entering
the record is the same coupling ``lam`` that scales the stochastic term of
the state equation.  The ``record`` output of a scenario is this record of
its trajectory 0.
"""

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class NoisePath:
    """A realized sequence of Wiener increments on a uniform grid."""

    seed: int
    dt: float
    increments: np.ndarray

    @property
    def n_steps(self) -> int:
        return int(self.increments.size)

    def cumulative(self) -> np.ndarray:
        """W at the grid points, starting from W_0 = 0 (length n_steps + 1)."""
        out = np.empty(self.n_steps + 1)
        out[0] = 0.0
        np.cumsum(self.increments, out=out[1:])
        return out


@dataclass(frozen=True)
class RecordSeries:
    """Measurement-record increments dy_k sharing the grid of its NoisePath."""

    values: np.ndarray
    dt: float


# numpy's SeedSequence hash (NEP 19 keeps it and the PCG64 stream stable):
# uint32 arithmetic, pool of 4 words, no spawn key.
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_POOL = 4


def _hash_chain(init: int, mult: int, n: int) -> list:
    """The (xor, multiply) constants of ``n`` consecutive hash steps, as Python ints.

    They do not depend on the data, and masking Python ints to 32 bits keeps
    every product exact.
    """
    out, c = [], init
    for _ in range(n):
        nxt = (c * mult) & 0xFFFFFFFF
        out.append((c, nxt))
        c = nxt
    return out


_SEED_WORDS = _hash_chain(_INIT_B, _MULT_B, 2)   # generate_state(1, np.uint64)


def derive_seed(base_seed: int, k: int) -> int:
    """Deterministic 64-bit child seed for trajectory ``k`` of an ensemble.

    ``np.random.SeedSequence([base_seed, k]).generate_state(1, np.uint64)[0]``:
    the sequence's entropy pool, hashed into the low and the high 32-bit word
    on Python ints.
    """
    pool = np.random.SeedSequence([int(base_seed), int(k)]).pool.tolist()
    lo, hi = (_hashmix(word, consts) for word, consts in zip(pool, _SEED_WORDS))
    return lo | hi << 32


def _hashmix(value, consts: tuple):
    """One hash step of a uint32 array, or of a Python int below 2**32."""
    xor_c, mul_c = consts
    value = ((value ^ xor_c) * mul_c) & 0xFFFFFFFF
    return value ^ (value >> 16)


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    r = np.uint32(_MIX_MULT_L) * x - np.uint32(_MIX_MULT_R) * y
    return r ^ (r >> np.uint32(16))


class _FixedState(np.random.bit_generator.ISeedSequence):
    """A precomputed ``generate_state(4, np.uint64)`` handed to ``np.random.PCG64``."""

    def __init__(self, words: np.ndarray):
        self.words = words

    def generate_state(self, n_words, dtype=np.uint32):
        if n_words != 4 or np.dtype(dtype) != np.uint64:
            raise ValueError("a fixed PCG64 state holds exactly 4 uint64 words")
        return self.words


def default_rngs(seeds) -> list:
    """``[np.random.default_rng(s) for s in seeds]`` for seeds in [0, 2**64), bit for bit.

    The ``SeedSequence`` hash (``mix_entropy``, then ``generate_state(4,
    np.uint64)``) runs once on uint32 arrays with one lane per seed.  A seed
    below 2**32 is one entropy word and any other is two; the pool pads a
    missing word with 0, which is the high word of a small seed, so both
    kinds take the same lanes.
    """
    seeds = np.asarray([int(s) for s in seeds], dtype=np.uint64)
    lo = (seeds & np.uint64(0xFFFFFFFF)).astype(np.uint32)
    hi = (seeds >> np.uint64(32)).astype(np.uint32)
    zero = np.zeros_like(lo)
    chain = iter(_hash_chain(_INIT_A, _MULT_A, _POOL * _POOL))
    pool = [_hashmix(word, next(chain)) for word in (lo, hi, zero, zero)]
    for i_src in range(_POOL):
        for i_dst in range(_POOL):
            if i_src != i_dst:
                pool[i_dst] = _mix(pool[i_dst], _hashmix(pool[i_src], next(chain)))
    state = np.empty((seeds.size, 2 * _POOL), dtype=np.uint32)
    for i, consts in enumerate(_hash_chain(_INIT_B, _MULT_B, 2 * _POOL)):
        state[:, i] = _hashmix(pool[i % _POOL], consts)
    words = state.astype("<u4").view("<u8").astype(np.uint64)
    return [np.random.Generator(np.random.PCG64(_FixedState(w))) for w in words]


def wiener_path(seed: int, dt: float, n_steps: int) -> NoisePath:
    """Generate ``n_steps`` independent N(0, dt) increments from ``seed``.

    Identical (seed, dt, n_steps) triples reproduce the increments exactly;
    the generator is numpy's default PCG64 stream.
    """
    if dt <= 0.0:
        raise ValueError(f"dt must be positive, got {dt}")
    if n_steps < 1:
        raise ValueError(f"n_steps must be >= 1, got {n_steps}")
    rng = np.random.default_rng(int(seed))
    inc = rng.standard_normal(n_steps) * np.sqrt(dt)
    return NoisePath(seed=int(seed), dt=float(dt), increments=inc)


def measurement_record(path: NoisePath, conditional_L, xi_r: float, lam: float) -> RecordSeries:
    """Detector record dy_k = xi_r <L>_k dt + dW_k / (2 sqrt(lam))."""
    ell = np.asarray(conditional_L, dtype=float)
    if ell.size != path.n_steps:
        raise ValueError(f"conditional mean series length {ell.size} != path length {path.n_steps}")
    if xi_r < 0.0:
        raise ValueError("xi_r must be non-negative")
    if lam <= 0.0:
        raise ValueError("lam must be positive for a measurement record")
    dy = xi_r * ell * path.dt + path.increments / (2.0 * np.sqrt(lam))
    return RecordSeries(values=dy, dt=path.dt)


def reconstruct_noise(record: RecordSeries, conditional_L, xi_r: float, lam: float,
                      seed: int = -1) -> NoisePath:
    """Invert :func:`measurement_record`: recover dW_k from the record.

    The inversion is algebraically exact; in floating point the round trip
    reproduces the original increments to ~1e-14 relative (bit-exact when
    the signal term vanishes and 2*sqrt(lam) is a power of two).
    """
    ell = np.asarray(conditional_L, dtype=float)
    if ell.size != record.values.size:
        raise ValueError("conditional mean series length does not match record")
    dW = (record.values - xi_r * ell * record.dt) * (2.0 * np.sqrt(lam))
    return NoisePath(seed=int(seed), dt=record.dt, increments=dW)

