"""Seeded Wiener increments and measurement records.

Every random draw in the library comes from numpy's PCG64 stream of an
integer seed, so a run is fully determined by integer seeds.  Ensembles
derive one child seed per trajectory with :func:`derive_seed`, which makes
the members independent of each other and of the order in which they are
simulated; it reads a cached block of child seeds hashed in one vectorised
pass.  Trajectory ``k`` of an ensemble always draws the stream of
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

import functools
import operator

import numpy as np

from .linalg import require_finite


# numpy's SeedSequence hash (NEP 19 keeps it and the PCG64 stream stable):
# uint32 arithmetic, pool of 4 words, no spawn key.
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_POOL = 4
_SEED_BLOCK = 2048   # child seeds hashed per pass; it divides 2**32


def _checked_seed(seed) -> int:
    """``seed`` as a Python int, once it is an integer (``operator.index``) and not negative.

    A float raises TypeError rather than being truncated to another seed.
    """
    seed = operator.index(seed)
    if seed < 0:
        raise ValueError(f"a seed must be a non-negative integer, got {seed}")
    return seed


def _words(n: int) -> list:
    """The uint32 entropy words ``SeedSequence`` takes from the int ``n >= 0``, low word first."""
    words = [n & 0xFFFFFFFF]
    while n := n >> 32:
        words.append(n & 0xFFFFFFFF)
    return words


def _hash_consts(init: int, mult: int):
    """The (xor, multiply) constants of consecutive hash steps, as Python ints.

    They do not depend on the data, and masking Python ints to 32 bits keeps
    every product exact.
    """
    c = init
    while True:
        nxt = (c * mult) & 0xFFFFFFFF
        yield c, nxt
        c = nxt


def _hashmix(value: np.ndarray, consts: tuple) -> np.ndarray:
    """One hash step of a uint32 array."""
    xor_c, mul_c = consts
    value = (value ^ xor_c) * mul_c
    return value ^ (value >> 16)


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    r = np.uint32(_MIX_MULT_L) * x - np.uint32(_MIX_MULT_R) * y
    return r ^ (r >> np.uint32(16))


def _seed_state(entropy: list, n_words: int) -> np.ndarray:
    """``SeedSequence(entropy).generate_state(n_words, np.uint64)`` of many sequences at once.

    ``entropy[i]`` is a uint32 array that holds word i of every sequence, one
    lane each, so all lanes have as many words; the result is (lanes,
    n_words).  This is numpy's hash, ``mix_entropy`` then ``generate_state``,
    with no spawn key: a pool shorter than 4 words is padded with 0, and the
    words past the fourth are mixed into every pool word.
    """
    consts = _hash_consts(_INIT_A, _MULT_A)
    padded = entropy + [np.zeros_like(entropy[0])] * (_POOL - len(entropy))
    pool = [_hashmix(word, next(consts)) for word in padded[:_POOL]]
    for i_src in range(_POOL):
        for i_dst in range(_POOL):
            if i_src != i_dst:
                pool[i_dst] = _mix(pool[i_dst], _hashmix(pool[i_src], next(consts)))
    for word in entropy[_POOL:]:
        for i_dst in range(_POOL):
            pool[i_dst] = _mix(pool[i_dst], _hashmix(word, next(consts)))
    consts = _hash_consts(_INIT_B, _MULT_B)
    state = np.stack([_hashmix(pool[i % _POOL], next(consts)) for i in range(2 * n_words)],
                     axis=-1)
    return state.astype("<u4").view("<u8").astype(np.uint64)


@functools.lru_cache(maxsize=8)
def _seed_block(base_seed: int, block: int) -> np.ndarray:
    """``derive_seed(base_seed, k)`` of the ``_SEED_BLOCK`` k from ``block * _SEED_BLOCK`` on.

    A read-only uint64 array; the cache holds 8 blocks of 16 KB at most.  The
    block is aligned and ``_SEED_BLOCK`` divides 2**32, so its k share every
    entropy word but the low one, and with it their word count: one pass of
    :func:`_seed_state` hashes them all.
    """
    base_words = _words(base_seed)
    entropy = [np.full(_SEED_BLOCK, w, dtype=np.uint32)
               for w in base_words + _words(block * _SEED_BLOCK)]
    entropy[len(base_words)] += np.arange(_SEED_BLOCK, dtype=np.uint32)
    seeds = _seed_state(entropy, 1)[:, 0]
    seeds.flags.writeable = False
    return seeds


def derive_seed(base_seed: int, k: int) -> int:
    """Deterministic 64-bit child seed for trajectory ``k`` of an ensemble.

    ``np.random.SeedSequence([base_seed, k]).generate_state(1, np.uint64)[0]``,
    read from the cached block of :func:`_seed_block` that holds ``k``.
    """
    base_seed, k = _checked_seed(base_seed), _checked_seed(k)
    return int(_seed_block(base_seed, k // _SEED_BLOCK)[k % _SEED_BLOCK])


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

    The ``SeedSequence`` hash (:func:`_seed_state`) runs once with one lane
    per seed.  A seed below 2**32 is one entropy word and any other is two;
    the pool pads a missing word with 0, which is the high word of a small
    seed, so both kinds take the same lanes.
    """
    seeds = np.asarray([_checked_seed(s) for s in seeds], dtype=np.uint64)
    lo = (seeds & np.uint64(0xFFFFFFFF)).astype(np.uint32)
    hi = (seeds >> np.uint64(32)).astype(np.uint32)
    words = _seed_state([lo, hi], 4)
    return [np.random.Generator(np.random.PCG64(_FixedState(w))) for w in words]


def wiener_path(seed: int, dt: float, n_steps: int) -> np.ndarray:
    """``n_steps`` independent N(0, dt) increments from ``seed``, shape (n_steps,).

    Identical (seed, dt, n_steps) triples reproduce the increments exactly;
    the generator is numpy's default PCG64 stream.
    """
    require_finite("dt", dt)
    if n_steps < 1:
        raise ValueError(f"n_steps must be >= 1, got {n_steps}")
    rng = np.random.default_rng(_checked_seed(seed))
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
