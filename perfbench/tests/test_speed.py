"""Time at reference speed: probe stretches scaled by the probes around them."""

import pytest

import speed


def test_reference_seconds_scales_each_stretch_by_its_probes():
    ref = 0.01
    # probes of 10 ms (reference speed), 20 ms (half speed), 20 ms
    samples = [(0.0, 0.01), (1.01, 1.03), (2.03, 2.05)]
    # stretch 1: 1.0 s at mean factor 1.5; stretch 2: 1.0 s at factor 2
    got = speed.reference_seconds(samples, 0.01, 2.03, ref)
    assert got == pytest.approx(1.0 / 1.5 + 1.0 / 2.0)


def test_reference_seconds_counts_only_the_timed_interval():
    samples = [(0.0, 0.01), (1.01, 1.02), (2.02, 2.03)]
    assert speed.reference_seconds(samples, 0.51, 1.52, 0.01) == pytest.approx(1.0)


def test_reference_seconds_equals_wall_time_at_reference_speed():
    samples = [(0.0, 0.01), (0.51, 0.52), (1.02, 1.03)]
    assert speed.reference_seconds(samples, 0.01, 1.02, 0.01) == pytest.approx(1.0)


def test_probe_samples_around_and_within_the_block():
    with speed.SpeedProbe(interval=0.05) as probe:
        s = 0
        while len(probe.samples) < 4:
            s += 1
    n = len(probe.samples)
    assert n >= 5                      # one before, at least three during, one after
    assert all(b > a for a, b in probe.samples)
    assert all(a1 >= b0 for (_, b0), (a1, _) in zip(probe.samples, probe.samples[1:]))
    assert probe.factor() > 0
