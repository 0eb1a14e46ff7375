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

A noise path, a record and a mean series are plain ``(n_steps,)`` float
arrays on the caller's grid of step ``dt``; the seed and ``dt`` stay with
the caller, which passes them where they are needed.
"""

import numpy as np

from .linalg import require_finite


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


def wiener_path(seed: int, dt: float, n_steps: int) -> np.ndarray:
    """``n_steps`` independent N(0, dt) increments from ``seed``, shape (n_steps,).

    Identical (seed, dt, n_steps) triples reproduce the increments exactly;
    the generator is numpy's default PCG64 stream.
    """
    require_finite("dt", dt)
    if n_steps < 1:
        raise ValueError(f"n_steps must be >= 1, got {n_steps}")
    rng = np.random.default_rng(int(seed))
    return rng.standard_normal(n_steps) * np.sqrt(dt)


def _checked_record_inputs(series, ell, xi_r: float, lam: float):
    """Both series as float arrays, once they match in length, xi_r >= 0 and lam > 0."""
    series, ell = np.asarray(series, dtype=float), np.asarray(ell, dtype=float)
    if ell.size != series.size:
        raise ValueError(f"conditional mean series length {ell.size} != path length {series.size}")
    require_finite("xi_r", xi_r, positive=False)
    if not (0.0 < lam < np.inf):
        raise ValueError(f"lam must be finite and positive for a measurement record, got {lam}")
    return series, ell


def measurement_record(dW: np.ndarray, ell, dt: float, xi_r: float, lam: float) -> np.ndarray:
    """Detector record dy_k = xi_r <L>_k dt + dW_k / (2 sqrt(lam)) of the increments ``dW``."""
    dW, ell = _checked_record_inputs(dW, ell, xi_r, lam)
    return xi_r * ell * dt + dW / (2.0 * np.sqrt(lam))


def reconstruct_noise(dy: np.ndarray, ell, dt: float, xi_r: float, lam: float) -> np.ndarray:
    """Invert :func:`measurement_record`, with its checks: the increments dW_k of record ``dy``.

    The inversion is algebraically exact; in floating point the round trip
    reproduces the original increments to ~1e-14 relative (bit-exact when
    the signal term vanishes and 2*sqrt(lam) is a power of two).
    """
    dy, ell = _checked_record_inputs(dy, ell, xi_r, lam)
    return (dy - xi_r * ell * dt) * (2.0 * np.sqrt(lam))
