"""Spin-1/2 model: closed forms, collapse statistics and the two constructions' cross-checks.

Model: H = hbar * nu * sigma_z, coupling L = sigma_z with rate lam.  Both
extreme family members admit closed-form solutions:

* phase-noise member (xi = -i): unitary per realization,
  |psi_t> = exp[(-i nu t - i sqrt(lam) W_t) sigma_z] |psi_0>, so the
  conditional spread of sigma_z stays at its initial value forever.

* collapse member (xi = 1): obtained by evolving the associated linear
  (norm-losing) equation under the raw noise, normalizing, and shifting the
  noise by the drift 2 sqrt(lam) <sigma_z>_t dt (a Girsanov change of
  measure).  The normalized state is an exponential of sigma_z whose real
  exponent accumulates sqrt(lam) W_t + 2 lam int_0^t <sigma_z>_s ds, and the
  trajectory collapses onto an eigenstate with Born-rule branch weights.

:func:`spin_nonlinear_trajectory` integrates the collapse member with the
Euler-Maruyama kernel.  The closed form above is written once, as the exact
step :class:`engine._ExponentialKernel`; this module rebuilds no state from it.

The ensemble-mean conditional spread of the collapse member obeys the bound
E[s_t] <= s_0 / (1 + 4 lam s_0 t) (the spread is a supermartingale), which
is what :func:`supermartingale_check` verifies; as [H, L] = 0, a member
xi obeys it at the rate lam xi_r^2.
"""

from dataclasses import dataclass

import numpy as np

from .engine import (EnsembleResult, ModelSpec, UnravelingParams, _column_means, mc_stderr,
                     simulate_trajectory)
from .linalg import pauli, require_finite

SIGMA_Z = pauli("z")
SETTLED = 0.999   # |<sigma_z>| above which a trajectory has settled on an eigenstate


@dataclass(frozen=True)
class SpinParams:
    nu: float = 1.0
    lam: float = 1.0
    hbar: float = 1.0

    def __post_init__(self):
        if not np.isfinite(self.nu):
            raise ValueError(f"nu must be finite, got {self.nu}")
        require_finite("lam", self.lam, positive=False)
        require_finite("hbar", self.hbar)
        if not np.isfinite(float(self.hbar) * float(self.nu)):     # the scale of H
            raise ValueError(f"hbar * nu must be finite, got {self.hbar} * {self.nu}")


def spin_model(sp: SpinParams) -> ModelSpec:
    return ModelSpec(H=sp.hbar * sp.nu * SIGMA_Z, L=SIGMA_Z.copy(), dim=2, hbar=sp.hbar)


def sigma_z_mean(psi: np.ndarray) -> float:
    psi = np.asarray(psi, dtype=complex)
    return float(abs(psi[0]) ** 2 - abs(psi[1]) ** 2)


def sigma_z_spread(z):
    """Conditional spread of sigma_z in terms of its conditional mean.

    sigma_z^2 = 1, so the spread on any pure state is 1 - <sigma_z>^2.
    """
    return 1.0 - np.asarray(z, dtype=float) ** 2


def collapse_bound(sigma0: float, lam: float, t) -> np.ndarray | float:
    """Upper bound s_0 / (1 + 4 lam s_0 t) for the mean conditional spread."""
    return sigma0 / (1.0 + 4.0 * lam * sigma0 * np.asarray(t, dtype=float))


def spin_nonlinear_trajectory(psi0: np.ndarray, sp: SpinParams, dt: float, n_steps: int,
                              seed: int) -> tuple:
    """Collapse-member ``(states, means)`` on wiener_path(seed, dt, n_steps), tracking 'sz'."""
    return simulate_trajectory(spin_model(sp), UnravelingParams.nonlinear(sp.lam), psi0, dt,
                               n_steps, seed, tracked_observables={"sz": SIGMA_Z})


def _sigma_z_paths(states: np.ndarray) -> np.ndarray:
    """<sigma_z> series of an (n + 1, 2, N) state stack, (N, n + 1): one row per trajectory."""
    return _column_means(states, SIGMA_Z).T


@dataclass(frozen=True)
class CollapseReport:
    n_up: int
    n_down: int
    n_unresolved: int
    threshold: float
    born_p_up: float

    @property
    def n_total(self) -> int:
        return self.n_up + self.n_down + self.n_unresolved

    @property
    def fraction_up(self) -> float:
        return self.n_up / self.n_total

    @property
    def born_deviation(self) -> float:
        """|fraction_up - born_p_up|, the Born gate's observed value."""
        return abs(self.fraction_up - self.born_p_up)

    @property
    def binomial_se(self) -> float:
        """Standard error of fraction_up over n_total draws at the Born weight."""
        return float(np.sqrt(self.born_p_up * (1.0 - self.born_p_up) / self.n_total))


def collapse_statistics(result: EnsembleResult) -> CollapseReport:
    """Classify trajectory endpoints by the sign of the final <sigma_z>.

    ``result`` must track 'sz'.  Endpoints with |<sigma_z>| <= SETTLED are
    counted as unresolved rather than dropped.
    """
    z_final = result.means["sz"][-1]
    up = int(np.sum(z_final > SETTLED))
    down = int(np.sum(z_final < -SETTLED))
    unresolved = int(z_final.size - up - down)
    return CollapseReport(n_up=up, n_down=down, n_unresolved=unresolved,
                          threshold=SETTLED, born_p_up=float(abs(result.psi0[0]) ** 2))


@dataclass(frozen=True)
class SupermartingaleReport:
    times: np.ndarray
    mean_spread: np.ndarray
    stderr: np.ndarray
    bound: np.ndarray
    bound_ok: bool
    monotone_ok: bool


def supermartingale_check(result: EnsembleResult, sp: SpinParams) -> SupermartingaleReport:
    """Check E[s_t] <= s_0/(1 + 4 lam s_0 t) + 4 SE and monotone decrease."""
    spreads = sigma_z_spread(result.means["sz"])
    mean = spreads.mean(axis=1)
    se = mc_stderr(spreads)
    sigma0 = float(sigma_z_spread(sigma_z_mean(result.psi0)))
    bound = collapse_bound(sigma0, sp.lam, result.times)
    bound_ok = bool(np.all(mean <= bound + 4.0 * se + 1e-15))
    steps_ok = mean[1:] <= mean[:-1] + 4.0 * np.hypot(se[1:], se[:-1]) + 1e-15
    return SupermartingaleReport(times=result.times, mean_spread=mean, stderr=se,
                                 bound=bound, bound_ok=bound_ok,
                                 monotone_ok=bool(np.all(steps_ok)))
