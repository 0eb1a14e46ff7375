"""Spin-1/2 model: closed forms, collapse statistics and route cross-checks.

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

The ensemble-mean conditional spread of the collapse member obeys the bound
E[s_t] <= s_0 / (1 + 4 lam s_0 t) (the spread is a supermartingale), which
is what :func:`supermartingale_check` verifies.
"""

from dataclasses import dataclass

import numpy as np

from . import noise as noise_mod
from .engine import EnsembleResult, ModelSpec, TrajectoryRecord, UnravelingParams, \
    simulate_ensemble, simulate_trajectory
from .linalg import assert_normalized, normalize, pauli

SIGMA_Z = pauli("z")


@dataclass(frozen=True)
class SpinParams:
    nu: float = 1.0
    lam: float = 1.0
    hbar: float = 1.0

    def __post_init__(self):
        if self.lam < 0.0:
            raise ValueError("lam must be >= 0")


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


def spin_linear_solution(t: float, W_t: float, psi0: np.ndarray, sp: SpinParams) -> np.ndarray:
    """Exact phase-noise-member state at time t given the noise value W_t."""
    psi0 = np.asarray(psi0, dtype=complex)
    assert_normalized(psi0, tol=1e-10)
    phase = sp.nu * t + np.sqrt(sp.lam) * W_t
    return np.array([np.exp(-1j * phase) * psi0[0], np.exp(1j * phase) * psi0[1]])


def collapse_bound(sigma0: float, lam: float, t) -> np.ndarray | float:
    """Upper bound s_0 / (1 + 4 lam s_0 t) for the mean conditional spread."""
    return sigma0 / (1.0 + 4.0 * lam * sigma0 * np.asarray(t, dtype=float))


def spin_nonlinear_trajectory(psi0: np.ndarray, sp: SpinParams, dt: float, n_steps: int,
                              seed: int, route: str = "sse") -> TrajectoryRecord:
    """Collapse-member trajectory via either of two constructions.

    route='sse'       direct Euler-Maruyama integration of the nonlinear
                      state equation (xi = 1) on the physical noise.
    route='girsanov'  exact exponential update of the linear equation driven
                      by the raw noise xi_t, normalized step by step; the raw
                      increments are built from the same physical path by the
                      drift shift d(xi) = dW + 2 sqrt(lam) <sigma_z> dt.

    Both are driven by wiener_path(seed, dt, n_steps) as the physical noise,
    so their conditional-mean series can be compared pathwise.
    """
    psi0 = np.asarray(psi0, dtype=complex)
    assert_normalized(psi0, tol=1e-10)
    u = UnravelingParams.nonlinear(sp.lam)
    model = spin_model(sp)
    if route == "sse":
        return simulate_trajectory(model, u, psi0, dt, n_steps, seed,
                                   tracked_observables={"sz": SIGMA_Z})
    if route != "girsanov":
        raise ValueError(f"route must be 'sse' or 'girsanov', got {route!r}")

    path = noise_mod.wiener_path(seed, dt, n_steps)
    sqlam = np.sqrt(sp.lam)
    states = np.empty((n_steps + 1, 2), dtype=complex)
    states[0] = psi0
    z = np.empty(n_steps + 1)
    z[0] = sigma_z_mean(psi0)
    psi = psi0.copy()
    for k in range(n_steps):
        # raw increment from the physical one; scalar exp(-lam dt) dropped
        dxi = path.increments[k] + 2.0 * sqlam * z[k] * dt
        amp = np.exp(np.array([1.0, -1.0]) * (sqlam * dxi - 1j * sp.nu * dt))
        psi = normalize(amp * psi)
        states[k + 1] = psi
        z[k + 1] = sigma_z_mean(psi)
    record = None
    if sp.lam > 0.0 and n_steps >= 1:
        record = noise_mod.measurement_record(path, z[:-1], 1.0, sp.lam)
    times = np.arange(n_steps + 1) * dt
    return TrajectoryRecord(times=times, states=states, means={"sz": z},
                            record=record, noise=path, seed=seed, dt=dt)


def raw_noise_of(traj: TrajectoryRecord, sp: SpinParams) -> noise_mod.NoisePath:
    """Raw-measure path associated with a collapse trajectory's physical path."""
    drift = 2.0 * np.sqrt(sp.lam) * traj.means["sz"][:-1]
    return noise_mod.girsanov_shift(traj.noise, drift, "physical_to_raw")


def exponential_reconstruction(traj: TrajectoryRecord, sp: SpinParams) -> np.ndarray:
    """Fidelities between stored states and their summary-statistic rebuild.

    The collapse-member state is an exponential of sigma_z in the running
    noise W_t and the accumulated conditional mean int_0^t <sigma_z>_s ds
    (trapezoidal rule on the simulation grid).  Returns |<rebuilt|stored>|
    at every grid time; deviations measure the integrator's pathwise error.
    """
    z = traj.means["sz"]
    W = traj.noise.cumulative()
    dt = traj.dt
    integ = np.concatenate([[0.0], np.cumsum(0.5 * (z[1:] + z[:-1]) * dt)])
    expo = np.sqrt(sp.lam) * W + 2.0 * sp.lam * integ
    psi0 = traj.states[0]
    fids = np.empty(z.size)
    for k in range(z.size):
        amp = np.exp(np.array([1.0, -1.0]) * (expo[k] - 1j * sp.nu * traj.times[k]))
        rebuilt = amp * psi0
        rebuilt /= np.linalg.norm(rebuilt)
        fids[k] = abs(np.vdot(rebuilt, traj.states[k]))
    return fids


def nonlinear_ensemble(psi0: np.ndarray, sp: SpinParams, dt: float, n_steps: int,
                       n_traj: int, base_seed: int, snapshot_steps=None) -> EnsembleResult:
    """Lock-step ensemble of collapse-member trajectories tracking <sigma_z>."""
    return simulate_ensemble(spin_model(sp), UnravelingParams.nonlinear(sp.lam), psi0,
                             dt, n_steps, n_traj, base_seed,
                             snapshot_steps=snapshot_steps,
                             tracked_observables={"sz": SIGMA_Z})


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


def collapse_statistics(source, threshold: float = 0.999) -> CollapseReport:
    """Classify trajectory endpoints by the sign of the final <sigma_z>.

    ``source`` is an EnsembleResult (tracking 'sz') or a list of
    TrajectoryRecord.  Endpoints with |<sigma_z>| <= threshold are counted
    as unresolved rather than dropped.
    """
    if isinstance(source, EnsembleResult):
        z_final = source.means["sz"][-1]
        psi0 = source.psi0
    else:
        if not source:
            raise ValueError("empty trajectory collection")
        z_final = np.array([tr.means["sz"][-1] for tr in source])
        psi0 = source[0].states[0]
    up = int(np.sum(z_final > threshold))
    down = int(np.sum(z_final < -threshold))
    unresolved = int(z_final.size - up - down)
    return CollapseReport(n_up=up, n_down=down, n_unresolved=unresolved,
                          threshold=threshold, born_p_up=float(abs(psi0[0]) ** 2))


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
    se = spreads.std(axis=1, ddof=1) / np.sqrt(result.n_traj)
    sigma0 = float(sigma_z_spread(sigma_z_mean(result.psi0)))
    bound = collapse_bound(sigma0, sp.lam, result.times)
    bound_ok = bool(np.all(mean <= bound + 4.0 * se + 1e-15))
    steps_ok = mean[1:] <= mean[:-1] + 4.0 * np.hypot(se[1:], se[:-1]) + 1e-15
    return SupermartingaleReport(times=result.times, mean_spread=mean, stderr=se,
                                 bound=bound, bound_ok=bound_ok,
                                 monotone_ok=bool(np.all(steps_ok)))


def moment_flow_residual(traj: TrajectoryRecord, sp: SpinParams, n: int) -> np.ndarray:
    """Residual of d<sigma_z^n> = 2 sqrt(lam) (<sigma_z^{n+1}> - <sigma_z><sigma_z^n>) dW.

    Powers of sigma_z reduce to the identity (even n) or sigma_z (odd n), so
    even-n residuals vanish identically and every odd n reproduces the n = 1
    series.  The drift-free form requires H proportional to sigma_z, which
    is the only spin model built here.
    """
    if n < 1:
        raise ValueError("n must be a positive integer")
    z = traj.means["sz"]
    dW = traj.noise.increments
    mn = z if n % 2 else np.ones_like(z)
    mnp1 = np.ones_like(z) if n % 2 else z
    gain = 2.0 * (mnp1[:-1] - z[:-1] * mn[:-1])
    return np.diff(mn) - gain * np.sqrt(sp.lam) * dW
