"""Seeded Wiener increments and measurement records.

All randomness in the library flows through :func:`wiener_path`, so a run is
fully determined by integer seeds.  Ensembles derive one child seed per
trajectory with :func:`derive_seed`, which makes the members independent of
each other and of the order in which they are simulated.

The detector-record convention couples the increments to a monitored
observable mean series ``ell``::

    dy_k = xi_r * ell_k * dt + dW_k / (2 * sqrt(lam))

and is algebraically invertible, so a record plus the conditional means
recovers the driving noise (the reconstruction loop used throughout the
simulation modules).  The rate entering the record is the same coupling
``lam`` that scales the stochastic term of the state equation.
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


def derive_seed(base_seed: int, k: int) -> int:
    """Deterministic 64-bit child seed for trajectory ``k`` of an ensemble."""
    ss = np.random.SeedSequence([int(base_seed), int(k)])
    return int(ss.generate_state(1, dtype=np.uint64)[0])


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

