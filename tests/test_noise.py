import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from unravelings import noise
from unravelings.noise import (default_rngs, derive_seed, measurement_record,
                               reconstruct_noise, wiener_path)


def test_wiener_path_is_deterministic_in_seed():
    a = wiener_path(7, 1e-3, 1000)
    b = wiener_path(7, 1e-3, 1000)
    c = wiener_path(8, 1e-3, 1000)
    assert a.shape == (1000,)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)


def test_wiener_path_moments():
    n, dt = 200_000, 1e-3
    dW = wiener_path(7, dt, n)
    assert abs(dW.mean()) <= 4.0 * np.sqrt(dt / n)
    assert abs(dW.var() - dt) <= 4.0 * dt * np.sqrt(2.0 / n)


def test_wiener_path_rejects_bad_arguments():
    with pytest.raises(ValueError):
        wiener_path(1, 0.0, 10)
    with pytest.raises(ValueError):
        wiener_path(1, 1e-3, 0)


def test_derive_seed_is_stable_and_spread():
    assert derive_seed(42, 3) == derive_seed(42, 3)
    seeds = {derive_seed(42, k) for k in range(100)}
    assert len(seeds) == 100
    assert derive_seed(42, 1) != derive_seed(43, 1)


def _assert_numpy_seeding(seeds):
    rngs = default_rngs(seeds)
    assert len(rngs) == len(seeds)
    for s, rng in zip(seeds, rngs):
        ref = np.random.default_rng(s)
        assert np.array_equal(rng.bit_generator.seed_seq.generate_state(4, np.uint64),
                              np.random.SeedSequence(s).generate_state(4, np.uint64))
        assert rng.bit_generator.state == ref.bit_generator.state
        assert np.array_equal(rng.standard_normal(7), ref.standard_normal(7))
        assert np.array_equal(rng.integers(0, 2 ** 63, 3), ref.integers(0, 2 ** 63, 3))


def test_default_rngs_match_numpy_at_the_word_boundaries():
    # one entropy word below 2**32, two from 2**32 on
    _assert_numpy_seeding([0, 1, 2 ** 32 - 1, 2 ** 32, 2 ** 63, 2 ** 64 - 1])
    assert default_rngs([]) == []


@settings(max_examples=50, deadline=None)
@given(st.lists(st.integers(0, 2 ** 64 - 1), min_size=1, max_size=8))
def test_default_rngs_match_numpy(seeds):
    _assert_numpy_seeding(seeds)


def test_record_without_signal_is_scaled_noise():
    dW = wiener_path(5, 1e-3, 500)
    dy = measurement_record(dW, np.zeros(500), 1e-3, 0.0, 1.0)
    # xi_r = 0: dy = dW / (2 sqrt(lam)) exactly (power-of-two scale)
    assert np.array_equal(dy, dW / 2.0)
    assert np.array_equal(measurement_record(dW, np.ones(500), 1e-3, 0.0, 1.0), dy)
    assert np.array_equal(measurement_record(list(dW), [0.0] * 500, 1e-3, 0.0, 1.0), dy)


def test_record_mean_tracks_the_signal():
    n, dt = 100_000, 1e-3
    dy = measurement_record(wiener_path(11, dt, n), np.ones(n), dt, 1.0, 1.0)
    rate = dy / dt
    # E[dy/dt] = 1 with a noise floor 1/(2 sqrt(lam dt n)) on the average
    assert abs(rate.mean() - 1.0) <= 4.0 / (2.0 * np.sqrt(dt * n))


def test_record_length_mismatch():
    dW = wiener_path(1, 1e-3, 10)
    with pytest.raises(ValueError):
        measurement_record(dW, np.zeros(9), 1e-3, 1.0, 1.0)
    with pytest.raises(ValueError):
        reconstruct_noise(dW, np.zeros(9), 1e-3, 1.0, 1.0)


@pytest.mark.parametrize("xi_r, lam", [(1.0, 0.0), (1.0, -1.0), (1.0, math.nan),
                                       (-1.0, 1.0), (math.nan, 1.0)])
def test_reconstruct_noise_rejects_what_measurement_record_rejects(xi_r, lam):
    dW, ell = wiener_path(1, 1e-3, 10), np.zeros(10)
    for fn in (measurement_record, reconstruct_noise):
        with pytest.raises(ValueError, match="xi_r must|lam must"):
            fn(dW, ell, 1e-3, xi_r, lam)


def test_reconstruct_noise_round_trip_bit_exact_cases():
    dW = wiener_path(9, 1e-3, 1000)
    ell = np.zeros(1000)
    dy = measurement_record(dW, ell, 1e-3, 1.0, 1.0)       # 2 sqrt(lam) = 2
    assert np.array_equal(reconstruct_noise(dy, ell, 1e-3, 1.0, 1.0), dW)


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 2 ** 32 - 1), st.floats(0.1, 4.0))
def test_reconstruct_noise_round_trip_general(seed, lam):
    dW = wiener_path(seed, 1e-3, 400)
    rng = np.random.default_rng(seed + 1)
    ell = rng.uniform(-1.0, 1.0, 400)
    back = reconstruct_noise(measurement_record(dW, ell, 1e-3, 1.0, lam), ell, 1e-3, 1.0, lam)
    scale = np.max(np.abs(dW))
    assert np.max(np.abs(back - dW)) <= 1e-14 * max(scale, 1.0)


def test_zero_record_zero_signal_gives_zero_noise():
    zero = reconstruct_noise(np.zeros(5), np.zeros(5), 1e-3, 1.0, 1.0)
    assert np.array_equal(zero, np.zeros(5))


def _generate_state_seed(b, k):
    return int(np.random.SeedSequence([b, k]).generate_state(1, np.uint64)[0])


def test_derive_seed_is_the_seed_sequence_state():
    # the vectorised hash of a cached block is generate_state(1, np.uint64):
    # one and two entropy words per argument, three for 2**70, and random pairs
    edges = [0, 1, 2 ** 32 - 1, 2 ** 32, 2 ** 64 - 1]
    pairs = [(b, k) for b in edges for k in edges] + [(2 ** 70, 0), (2 ** 70, 2 ** 64 - 1)]
    rng = np.random.default_rng(16)
    pairs += [(int(b), int(k)) for b, k in rng.integers(0, 2 ** 64, size=(10_000, 2),
                                                        dtype=np.uint64)]
    for b, k in pairs:
        assert derive_seed(b, k) == _generate_state_seed(b, k), (b, k)
    info = noise._seed_block.cache_info()
    assert info.currsize <= info.maxsize


def test_derive_seed_at_the_block_edges():
    # the last and first k of a block, and the k where a word is added
    ks = [2047, 2048, 4095, 4096, 2 ** 32 - 1, 2 ** 32, 2 ** 64 - 1]
    for b in [0, 2 ** 32 - 1, 2 ** 32, 2 ** 64 - 1, 2 ** 70]:
        for k in ks:
            seed = derive_seed(b, k)
            assert type(seed) is int
            assert seed == _generate_state_seed(b, k), (b, k)
    block = noise._seed_block(0, 1)
    assert block.dtype == np.uint64 and block.shape == (noise._SEED_BLOCK,)
    with pytest.raises(ValueError, match="read-only"):
        block[0] = 0
    info = noise._seed_block.cache_info()
    assert info.currsize <= info.maxsize


@pytest.mark.parametrize("draw", [lambda s: derive_seed(s, 3), lambda s: derive_seed(3, s),
                                  lambda s: wiener_path(s, 1e-3, 5),
                                  lambda s: default_rngs([s])[0].standard_normal(5)],
                         ids=["derive_seed_base", "derive_seed_k", "wiener_path", "default_rngs"])
def test_seeds_are_integers_not_truncated_floats(draw):
    # numpy integers are seeds; 1.5 is not seed 1, and a negative seed is no seed
    assert np.array_equal(draw(np.uint64(7)), draw(7))
    with pytest.raises(TypeError):
        draw(7.0)
    with pytest.raises(TypeError):
        draw(np.float64(1.5))
    with pytest.raises(ValueError, match="non-negative"):
        draw(-1)
