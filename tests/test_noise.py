import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from unravelings.noise import (derive_seed, measurement_record, reconstruct_noise,
                               wiener_path)


def test_wiener_path_is_deterministic_in_seed():
    a = wiener_path(7, 1e-3, 1000)
    b = wiener_path(7, 1e-3, 1000)
    c = wiener_path(8, 1e-3, 1000)
    assert np.array_equal(a.increments, b.increments)
    assert not np.array_equal(a.increments, c.increments)


def test_wiener_path_moments():
    n, dt = 200_000, 1e-3
    p = wiener_path(7, dt, n)
    assert abs(p.increments.mean()) <= 4.0 * np.sqrt(dt / n)
    assert abs(p.increments.var() - dt) <= 4.0 * dt * np.sqrt(2.0 / n)


def test_wiener_path_rejects_bad_arguments():
    with pytest.raises(ValueError):
        wiener_path(1, 0.0, 10)
    with pytest.raises(ValueError):
        wiener_path(1, 1e-3, 0)


def test_cumulative_starts_at_zero():
    p = wiener_path(3, 0.5, 4)
    w = p.cumulative()
    assert w[0] == 0.0
    assert w[-1] == pytest.approx(p.increments.sum(), abs=1e-15)


def test_derive_seed_is_stable_and_spread():
    assert derive_seed(42, 3) == derive_seed(42, 3)
    seeds = {derive_seed(42, k) for k in range(100)}
    assert len(seeds) == 100
    assert derive_seed(42, 1) != derive_seed(43, 1)


def test_record_without_signal_is_scaled_noise():
    p = wiener_path(5, 1e-3, 500)
    rec = measurement_record(p, np.zeros(500), 0.0, 1.0)
    # xi_r = 0: dy = dW / (2 sqrt(lam)) exactly (power-of-two scale)
    assert np.array_equal(rec.values, p.increments / 2.0)
    rec2 = measurement_record(p, np.ones(500), 0.0, 1.0)
    assert np.array_equal(rec2.values, rec.values)


def test_record_mean_tracks_the_signal():
    n, dt = 100_000, 1e-3
    p = wiener_path(11, dt, n)
    rec = measurement_record(p, np.ones(n), 1.0, 1.0)
    rate = rec.values / dt
    # E[dy/dt] = 1 with a noise floor 1/(2 sqrt(lam dt n)) on the average
    assert abs(rate.mean() - 1.0) <= 4.0 / (2.0 * np.sqrt(dt * n))


def test_record_length_mismatch():
    p = wiener_path(1, 1e-3, 10)
    with pytest.raises(ValueError):
        measurement_record(p, np.zeros(9), 1.0, 1.0)


def test_reconstruct_noise_round_trip_bit_exact_cases():
    p = wiener_path(9, 1e-3, 1000)
    ell = np.zeros(1000)
    rec = measurement_record(p, ell, 1.0, 1.0)       # 2 sqrt(lam) = 2
    back = reconstruct_noise(rec, ell, 1.0, 1.0)
    assert np.array_equal(back.increments, p.increments)


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 2 ** 32 - 1), st.floats(0.1, 4.0))
def test_reconstruct_noise_round_trip_general(seed, lam):
    p = wiener_path(seed, 1e-3, 400)
    rng = np.random.default_rng(seed + 1)
    ell = rng.uniform(-1.0, 1.0, 400)
    rec = measurement_record(p, ell, 1.0, lam)
    back = reconstruct_noise(rec, ell, 1.0, lam)
    scale = np.max(np.abs(p.increments))
    assert np.max(np.abs(back.increments - p.increments)) <= 1e-14 * max(scale, 1.0)


def test_zero_record_zero_signal_gives_zero_noise():
    rec = measurement_record(wiener_path(1, 1e-3, 5), np.zeros(5), 1.0, 1.0)
    zero = reconstruct_noise(type(rec)(values=np.zeros(5), dt=1e-3), np.zeros(5), 1.0, 1.0)
    assert np.array_equal(zero.increments, np.zeros(5))

