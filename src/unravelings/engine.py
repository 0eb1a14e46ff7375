"""Ito integrators for a one-parameter family of diffusive state equations.

A single Hermitian coupling operator ``L`` with rate ``lam`` and a complex
unit-modulus parameter ``xi = xi_r + i*xi_i`` (xi_r >= 0) define the
stochastic state update

    d|psi> = [ -(i/hbar) H dt
               - (lam/2) (|xi|^2 L^2 - 2 xi xi_r <L> L + xi_r^2 <L>^2) dt
               + sqrt(lam) (xi L - xi_r <L>) dW ] |psi>,

whose noise average reproduces, for every admissible xi, the same
master-equation flow

    drho/dt = -(i/hbar) [H, rho] - (lam/2) [L, [L, rho]].

``xi = 1`` is the norm-preserving measurement-conditioned (collapsing)
dynamics; ``xi = -i`` is the stochastic-potential (phase-noise) dynamics.
Conditional moments of order >= 2 differ between members of the family,
which is exactly what the higher-level modules quantify.

Integration scheme: Euler-Maruyama plus exact renormalization after every
step.  Every Euler-Maruyama step in the library goes through one kernel,
:class:`_EulerKernel`, built once per (model, u, dt).  It keeps states as
the columns of a ``(dim, N)`` array, so one call advances N trajectories in
lock step, and regroups the increment as

    psi' = A psi + (lam dt xi_r <L> + sqrt(lam) dW) g + (lam dt xi_r^2 / 2) <L>^2 psi,
    A = I + (-(i/hbar) H - (lam/2) L^2) dt,   g = xi L psi - xi_r <L> psi,

which equals the update above term by term.  The noise enters only through
its product with ``g``, which vanishes on eigenstates of ``L`` for real
``xi`` (exactly, wherever ``L psi`` and ``<L>`` round exactly, as for
sigma_z on its eigenstates).  When ``H`` and ``L`` are both exactly diagonal (every spin
model) each step is elementwise; otherwise ``L psi`` and ``A psi`` come from
one product with the stacked operator ``[L; A]``.  Norms are sums of
``re^2 + im^2`` over rows in a fixed order, and a non-finite or vanishing
norm raises :class:`FloatingPointError` naming the trajectory and the step.

The one other state update is :class:`_ExponentialKernel`, the exact step
of the collapse member's linear equation driven by the raw increment
dxi = dW + 2 sqrt(lam) <L> dt, for xi = 1 and diagonal H and L (diagonals
h and l):

    psi' = exp(diag(sqrt(lam) l dxi - lam l^2 dt - (i/hbar) h dt)) psi.

The two kernels share the renormalization, the norm check and the column
layout through :class:`_ColumnKernel`, and nothing of the Euler increment,
so they stay independent constructions of one member.

:func:`simulate_ensemble` runs fixed chunks of trajectories one after the
other on one thread.  Each chunk draws its Wiener increments in blocks of at
most ``_NOISE_BUDGET`` doubles, one contiguous row per trajectory stream,
runs the kernel once per block and takes each snapshot from the kernel's
after-step callback.  Block boundaries do not depend on the snapshot steps,
and the streams do not depend on either, so the snapshots never change a
trajectory.

The deterministic master-equation oracle uses classical RK4 (for the
linear flow this equals the degree-4 Taylor propagator).
:func:`lindblad_evolve` jumps from one snapshot to the next with a power of
the one-step propagator, one power per distinct gap.
:func:`master_equation_oracle` runs it at one tenth of an ensemble's step,
at that ensemble's snapshots.
"""

from dataclasses import dataclass, replace
from functools import reduce

import numpy as np

from . import noise as noise_mod
from .linalg import assert_normalized, is_hermitian, projector
from .tolerances import TOL


@dataclass(frozen=True)
class UnravelingParams:
    """Complex family parameter (xi_r, xi_i) and coupling rate lam."""

    xi_r: float
    xi_i: float
    lam: float

    def __post_init__(self):
        if self.xi_r < 0.0:
            raise ValueError(f"xi_r must be >= 0, got {self.xi_r}")
        mod2 = self.xi_r ** 2 + self.xi_i ** 2
        if abs(mod2 - 1.0) > TOL.unit_modulus:
            raise ValueError(f"|xi|^2 = {mod2:.15f} must equal 1")
        if self.lam < 0.0:
            raise ValueError(f"lam must be >= 0, got {self.lam}")

    @property
    def xi(self) -> complex:
        return complex(self.xi_r, self.xi_i)

    @classmethod
    def nonlinear(cls, lam: float) -> "UnravelingParams":
        """xi = 1: continuous-measurement (collapsing) member."""
        return cls(1.0, 0.0, lam)

    @classmethod
    def linear(cls, lam: float) -> "UnravelingParams":
        """xi = -i: stochastic-potential (non-collapsing) member."""
        return cls(0.0, -1.0, lam)


@dataclass(frozen=True)
class ModelSpec:
    """Hamiltonian, coupling operator and Hilbert-space dimension."""

    H: np.ndarray
    L: np.ndarray
    dim: int
    hbar: float = 1.0

    def __post_init__(self):
        for name, op in (("H", self.H), ("L", self.L)):
            if op.shape != (self.dim, self.dim):
                raise ValueError(f"{name} must be {self.dim}x{self.dim}, got {op.shape}")
            if not is_hermitian(op):
                raise ValueError(f"{name} is not Hermitian")
        if self.hbar <= 0.0:
            raise ValueError("hbar must be positive")


@dataclass(frozen=True)
class TrajectoryRecord:
    """One realized trajectory with dense state storage."""

    times: np.ndarray                 # (n_steps + 1,)
    states: np.ndarray                # (n_steps + 1, dim), each row normalized
    means: dict                       # name -> (n_steps + 1,) conditional means
    record: "noise_mod.RecordSeries | None"
    noise: noise_mod.NoisePath
    seed: int
    dt: float


@dataclass(frozen=True)
class EnsembleResult:
    """Snapshots of a lock-step trajectory ensemble."""

    times: np.ndarray                 # (n_snap,)
    step_indices: np.ndarray          # (n_snap,)
    rhos: np.ndarray                  # (n_snap, dim, dim) equal-weight averages
    means: dict                       # name -> (n_snap, n_traj) conditional means
    final_states: np.ndarray          # (n_traj, dim)
    psi0: np.ndarray
    base_seed: int
    dt: float

    @property
    def n_traj(self) -> int:
        return self.final_states.shape[0]

    def mean_of(self, name: str) -> np.ndarray:
        return self.means[name].mean(axis=1)

    def se_of(self, name: str) -> np.ndarray:
        vals = self.means[name]
        return vals.std(axis=1, ddof=1) / np.sqrt(vals.shape[1])

    def at_steps(self, steps) -> "EnsembleResult":
        """The snapshots at ``steps``, each of which must be a snapshot step.

        A snapshot does not depend on which other steps were snapshotted, so
        the rows equal those of a run at ``steps`` alone.
        """
        row_of = {int(s): i for i, s in enumerate(self.step_indices)}
        try:
            rows = np.array([row_of[int(s)] for s in steps], dtype=int)
        except KeyError as exc:
            raise ValueError(f"step {exc.args[0]} is not a snapshot step") from None
        return replace(self, times=self.times[rows], step_indices=self.step_indices[rows],
                       rhos=self.rhos[rows],
                       means={name: v[rows] for name, v in self.means.items()})


def max_stable_dt(model: ModelSpec, u: UnravelingParams) -> float:
    """Largest dt satisfying lam * max_eig(L)^2 * dt <= stability budget."""
    lmax = float(np.max(np.abs(np.linalg.eigvalsh(model.L))))
    if u.lam == 0.0 or lmax == 0.0:
        return np.inf
    return TOL.stability_budget / (u.lam * lmax ** 2)


def check_stability(model: ModelSpec, u: UnravelingParams, dt: float) -> None:
    cap = max_stable_dt(model, u)
    if dt > cap:
        raise ValueError(
            f"dt = {dt:.3e} violates the stability budget "
            f"lam * max_eig(L)^2 * dt <= {TOL.stability_budget}; use dt <= {cap:.3e}")


def _sum_rows(a: np.ndarray) -> np.ndarray:
    """Sum a (dim, N) array over its rows in row order.

    Unlike ``a.sum(axis=0)``, the order of the additions does not depend on
    N, so a column gives the same bits alone as inside a wider batch.
    """
    return reduce(np.add, a)


def _column_means(psis: np.ndarray, op: np.ndarray) -> np.ndarray:
    """Conditional means <psi_n|op|psi_n> of the columns of psis, real parts."""
    return _sum_rows((psis.conj() * (op @ psis)).real)


def _is_diagonal(op: np.ndarray) -> bool:
    return not np.any(op - np.diag(np.diag(op)))


class _ColumnKernel:
    """Renormalized steps of (dim, N) column states.

    A subclass supplies ``update(psis, dW)``, the un-normalized map of one step.
    """

    def step(self, psis: np.ndarray, dW: np.ndarray, step_index: int = 0,
             first_traj: int = 0) -> np.ndarray:
        """One renormalized step of every column; ``dW`` has one entry per column."""
        return self.run(psis, dW[:, None], step_index, first_traj)

    def run(self, psis: np.ndarray, dW: np.ndarray, first_step: int = 0,
            first_traj: int = 0, states: np.ndarray | None = None,
            after_step=None) -> np.ndarray:
        """Advance the columns of ``psis`` through ``dW.shape[1]`` renormalized steps.

        ``dW`` is (N, n_steps) with one row per trajectory.  When given,
        ``states`` (n_steps, dim, N) receives the state after every step, and
        ``after_step(first_step + j + 1, psis)`` is called after step j.  A
        non-finite or vanishing norm raises FloatingPointError naming the
        trajectory ``first_traj + column`` and the step ``first_step + j``.
        """
        # an overflow is reported by the norm check, not as a warning
        with np.errstate(over="ignore", invalid="ignore"):
            for j in range(dW.shape[1]):
                psis = self.update(psis, dW[:, j])
                n2 = _sum_rows(psis.real ** 2 + psis.imag ** 2)
                ok = np.isfinite(n2) & (n2 > 0.0)
                if not ok.all():
                    k = first_traj + int(np.flatnonzero(~ok)[0])
                    raise FloatingPointError(f"trajectory {k} became non-finite at step "
                                             f"{first_step + j}; reduce dt")
                psis *= 1.0 / np.sqrt(n2)
                if states is not None:
                    states[j] = psis
                if after_step is not None:
                    after_step(first_step + j + 1, psis)
        return psis


class _EulerKernel(_ColumnKernel):
    """Euler-Maruyama step plus renormalization on (dim, N) column states.

    See the module docstring for the regrouped increment.  ``diagonal`` is
    true when H and L are both exactly diagonal; :meth:`update` then runs
    the elementwise path, otherwise the stacked-operator path.
    """

    def __init__(self, model: ModelSpec, u: UnravelingParams, dt: float):
        if dt <= 0.0:
            raise ValueError("dt must be positive")
        H, L = model.H, model.L
        A = np.eye(model.dim) + ((-1j / model.hbar) * H - (0.5 * u.lam) * (L @ L)) * dt
        self.dim = model.dim
        self.xi, self.xi_r = u.xi, u.xi_r
        self.sqrt_lam = np.sqrt(u.lam)
        self.c_ell = u.lam * dt * u.xi_r             # ell coefficient of g
        self.c_ell2 = 0.5 * u.lam * dt * u.xi_r ** 2  # ell^2 coefficient of psi
        self.stacked = np.vstack([L, A])
        self.diagonal = _is_diagonal(H) and _is_diagonal(L)
        if self.diagonal:
            self.l = np.diag(L).real[:, None].copy()
            self.a = np.diag(A)[:, None].copy()
            self.xi_l = self.xi * self.l

    def update(self, psis: np.ndarray, dW: np.ndarray) -> np.ndarray:
        """The Euler-Maruyama update of normalized columns, before renormalization."""
        if self.diagonal:
            ell = _sum_rows(self.l * (psis.real ** 2 + psis.imag ** 2))
            g = self.xi_l - self.xi_r * ell          # L psi = l psi, so g = (xi l - xi_r ell) psi
            coef = self.a + (self.c_ell * ell + self.sqrt_lam * dW) * g + self.c_ell2 * ell ** 2
            return coef * psis
        Y = self.stacked @ psis
        Lpsi, new = Y[:self.dim], Y[self.dim:]
        ell = _sum_rows((psis.conj() * Lpsi).real)
        g = self.xi * Lpsi - (self.xi_r * ell) * psis
        new += (self.c_ell * ell + self.sqrt_lam * dW) * g
        new += (self.c_ell2 * ell ** 2) * psis
        return new


class _ExponentialKernel(_ColumnKernel):
    """Exact exponential step plus renormalization on (dim, N) column states.

    See the module docstring for the map.  Any other xi, or an H or L that
    is not diagonal, raises ValueError.
    """

    def __init__(self, model: ModelSpec, u: UnravelingParams, dt: float):
        if dt <= 0.0:
            raise ValueError("dt must be positive")
        if u.xi != 1.0:
            raise ValueError(f"the exponential update needs xi = 1, got {u.xi}")
        if not (_is_diagonal(model.H) and _is_diagonal(model.L)):
            raise ValueError("the exponential update needs diagonal H and L")
        self.l = np.diag(model.L).real[:, None].copy()
        h = np.diag(model.H).real[:, None]
        self.sqrt_lam_l = np.sqrt(u.lam) * self.l
        self.shift = 2.0 * np.sqrt(u.lam) * dt       # dxi - dW per unit <L>
        self.drift = -u.lam * self.l ** 2 * dt - (1j * dt / model.hbar) * h

    def update(self, psis: np.ndarray, dW: np.ndarray) -> np.ndarray:
        """The exponential map of normalized columns, before renormalization."""
        ell = _sum_rows(self.l * (psis.real ** 2 + psis.imag ** 2))
        return np.exp(self.sqrt_lam_l * (dW + self.shift * ell) + self.drift) * psis


def sse_step(psi: np.ndarray, model: ModelSpec, u: UnravelingParams,
             dW: float, dt: float) -> np.ndarray:
    """One Euler-Maruyama step followed by exact renormalization."""
    psi = np.asarray(psi, dtype=complex)
    return _EulerKernel(model, u, dt).step(psi[:, None], np.array([dW]))[:, 0]


def simulate_trajectory(model: ModelSpec, u: UnravelingParams, psi0: np.ndarray,
                        dt: float, n_steps: int, seed: int,
                        tracked_observables: dict | None = None) -> TrajectoryRecord:
    """Integrate one trajectory, storing every state and tracked mean.

    The trajectory is a lock-step ensemble of one.  When xi_r > 0 the
    associated detector record is emitted alongside the states, built from
    the pre-step conditional means of L (matching the record-driven
    reconstruction loop).
    """
    check_stability(model, u, dt)
    return _kernel_trajectory(_EulerKernel(model, u, dt), model, u, psi0, dt, n_steps,
                              seed, tracked_observables)


def _kernel_trajectory(kernel: _ColumnKernel, model: ModelSpec, u: UnravelingParams,
                       psi0: np.ndarray, dt: float, n_steps: int, seed: int,
                       tracked_observables: dict | None) -> TrajectoryRecord:
    """One trajectory of ``kernel`` on ``wiener_path(seed, dt, n_steps)``."""
    psi0 = np.asarray(psi0, dtype=complex)
    assert_normalized(psi0, tol=1e-10)
    tracked = dict(tracked_observables or {})
    states = np.empty((n_steps + 1, model.dim, 1), dtype=complex)   # one column per step
    states[0, :, 0] = psi0
    if n_steps >= 1:
        path = noise_mod.wiener_path(seed, dt, n_steps)
        kernel.run(states[0], path.increments[None, :], states=states[1:])
    else:
        path = noise_mod.NoisePath(seed=seed, dt=dt, increments=np.empty(0))
    states = states[:, :, 0]

    means = {name: _column_means(states.T, op) for name, op in tracked.items()}
    record = None
    if u.xi_r > 0.0 and u.lam > 0.0 and n_steps >= 1:
        ell = _column_means(states[:-1].T, model.L)
        record = noise_mod.measurement_record(path, ell, u.xi_r, u.lam)
    times = np.arange(n_steps + 1) * dt
    return TrajectoryRecord(times=times, states=states, means=means,
                            record=record, noise=path, seed=seed, dt=dt)


def _wiener_block(rngs, n_steps: int, sqrt_dt: float) -> np.ndarray:
    """The next ``n_steps`` increments of every stream, one contiguous row each."""
    dW = np.empty((len(rngs), n_steps))
    for row, rng in zip(dW, rngs):
        rng.standard_normal(out=row)
    dW *= sqrt_dt
    return dW


_ENSEMBLE_CHUNK = 2500    # trajectories per reduction chunk (fixed)
_NOISE_BUDGET = 400_000   # doubles per noise block of one chunk (2500 x 160)


def _checked_snapshots(snapshot_steps, n_steps: int) -> list:
    """Sorted distinct snapshot steps, each in [0, n_steps]; default [n_steps]."""
    if snapshot_steps is None:
        return [n_steps]
    snaps = sorted(set(int(s) for s in snapshot_steps))
    if any(s < 0 or s > n_steps for s in snaps):
        raise ValueError("snapshot steps must lie in [0, n_steps]")
    return snaps


def simulate_ensemble(model: ModelSpec, u: UnravelingParams, psi0: np.ndarray,
                      dt: float, n_steps: int, n_traj: int, base_seed: int,
                      snapshot_steps=None,
                      tracked_observables: dict | None = None) -> EnsembleResult:
    """Run ``n_traj`` independent trajectories in lock step.

    Trajectory ``k`` consumes exactly the Wiener stream of
    ``wiener_path(derive_seed(base_seed, k), dt, n_steps)``.  Trajectories
    run in fixed-size chunks whose density-matrix sums are combined in
    index order, and noise blocks end independently of the snapshot steps,
    so neither the snapshot steps nor ``n_traj`` changes any trajectory.
    """
    psi0 = np.asarray(psi0, dtype=complex)
    assert_normalized(psi0, tol=1e-10)
    check_stability(model, u, dt)
    snaps = _checked_snapshots(snapshot_steps, n_steps)
    tracked = dict(tracked_observables or {})
    kernel = _EulerKernel(model, u, dt)
    sq = np.sqrt(dt)

    def run_chunk(k0: int, k1: int):
        m = k1 - k0
        rngs = [np.random.default_rng(noise_mod.derive_seed(base_seed, k))
                for k in range(k0, k1)]
        psis = np.repeat(psi0[:, None], m, axis=1)
        rho_snaps = np.empty((len(snaps), model.dim, model.dim), dtype=complex)
        mean_snaps = {name: np.empty((len(snaps), m)) for name in tracked}
        i_snap = 0

        def take_snapshots(step, psis):
            nonlocal i_snap
            while i_snap < len(snaps) and snaps[i_snap] == step:
                rho_snaps[i_snap] = psis @ psis.conj().T
                for name, op in tracked.items():
                    mean_snaps[name][i_snap] = _column_means(psis, op)
                i_snap += 1

        take_snapshots(0, psis)
        block_cap = max(1, _NOISE_BUDGET // m)
        for start in range(0, n_steps, block_cap):
            dW = _wiener_block(rngs, min(block_cap, n_steps - start), sq)
            psis = kernel.run(psis, dW, start, k0, after_step=take_snapshots)
            del dW  # freed before the next block is drawn (peak memory)
        return rho_snaps, mean_snaps, psis

    results = [run_chunk(s, min(s + _ENSEMBLE_CHUNK, n_traj))
               for s in range(0, n_traj, _ENSEMBLE_CHUNK)]
    rho_sum = np.zeros((len(snaps), model.dim, model.dim), dtype=complex)
    for r, _, _ in results:
        rho_sum += r
    rhos = rho_sum / n_traj
    means = {name: np.concatenate([m[name] for _, m, _ in results], axis=1)
             for name in tracked}
    finals = np.concatenate([f.T for _, _, f in results], axis=0)
    snaps_arr = np.asarray(snaps)
    return EnsembleResult(times=snaps_arr * dt, step_indices=snaps_arr, rhos=rhos,
                          means=means, final_states=finals, psi0=psi0.copy(),
                          base_seed=base_seed, dt=dt)


# --- deterministic master-equation flow ------------------------------------

def lindblad_rhs(rho: np.ndarray, model: ModelSpec, lam: float) -> np.ndarray:
    H, L = model.H, model.L
    comm = H @ rho - rho @ H
    LL = L @ L
    double = LL @ rho + rho @ LL - 2.0 * (L @ rho @ L)
    return (-1j / model.hbar) * comm - 0.5 * lam * double


def lindblad_step(rho: np.ndarray, model: ModelSpec, lam: float, dt: float) -> np.ndarray:
    """One classical RK4 step of the master equation (trace preserved)."""
    k1 = lindblad_rhs(rho, model, lam)
    k2 = lindblad_rhs(rho + 0.5 * dt * k1, model, lam)
    k3 = lindblad_rhs(rho + 0.5 * dt * k2, model, lam)
    k4 = lindblad_rhs(rho + dt * k3, model, lam)
    return rho + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def lindblad_generator(model: ModelSpec, lam: float) -> np.ndarray:
    """Matrix M with vec(drho/dt) = M vec(rho) (row-major vec)."""
    d = model.dim
    I = np.eye(d, dtype=complex)
    H, L = model.H, model.L
    LL = L @ L
    M = (-1j / model.hbar) * (np.kron(H, I) - np.kron(I, H.T))
    M += -0.5 * lam * (np.kron(LL, I) + np.kron(I, LL.T) - 2.0 * np.kron(L, L.T))
    return M


def lindblad_propagator(model: ModelSpec, lam: float, dt: float) -> np.ndarray:
    """Degree-4 Taylor propagator; identical to one RK4 step of the linear flow."""
    M = lindblad_generator(model, lam)
    d2 = M.shape[0]
    P = np.eye(d2, dtype=complex)
    term = np.eye(d2, dtype=complex)
    for k in range(1, 5):
        term = term @ (M * (dt / k))
        P += term
    return P


def lindblad_evolve(rho0: np.ndarray, model: ModelSpec, lam: float, dt: float,
                    n_steps: int, snapshot_steps=None) -> list:
    """Evolve with the RK4-equivalent propagator over ``n_steps`` steps.

    Returns a list of (step_index, rho) pairs for the requested steps, each
    in [0, n_steps].  Between snapshots the state jumps by the propagator's
    power for the gap, computed by repeated squaring once per distinct gap.
    """
    snaps = _checked_snapshots(snapshot_steps, n_steps)
    P = lindblad_propagator(model, lam, dt)
    powers = {}
    v = np.asarray(rho0, dtype=complex).reshape(-1)
    out = []
    step = 0
    for s in snaps:
        gap = s - step
        if gap:
            if gap not in powers:
                powers[gap] = np.linalg.matrix_power(P, gap)
            v = powers[gap] @ v
            step = s
        out.append((s, v.reshape(model.dim, model.dim).copy()))
    return out


def master_equation_oracle(result: EnsembleResult, model: ModelSpec, lam: float) -> np.ndarray:
    """The master-equation rho from ``result.psi0`` at its snapshots, (n_snap, dim, dim).

    The step is one tenth of the ensemble's, far below the Monte Carlo error.
    """
    steps = [int(s) * 10 for s in result.step_indices]
    rhos = dict(lindblad_evolve(projector(result.psi0), model, lam, result.dt / 10.0,
                                max(steps), snapshot_steps=steps))
    return np.array([rhos[s] for s in steps])


def mc_tolerance(n_traj: int) -> float:
    """5 / sqrt(n_traj): five standard errors of a mean of n_traj values in [-1, 1]."""
    return float(5.0 / np.sqrt(n_traj))


# --- moment-flow diagnostics ------------------------------------------------

def conditional_moment_flow_residual(trajectory: TrajectoryRecord, observable: np.ndarray,
                                     model: ModelSpec, u: UnravelingParams,
                                     power: int) -> np.ndarray:
    """Per-step residual of the Ito flow of <O> (power 1) or <O>^2 (power 2).

    The finite difference of the stored conditional-mean series is compared
    with the Ito right-hand side evaluated on the pre-step state and the
    recorded increment; for an exact-in-law chain the RMS residual is O(dt).
    """
    if power not in (1, 2):
        raise ValueError("power must be 1 or 2")
    psis = trajectory.states
    if psis.shape[0] < 2:
        raise ValueError("trajectory must store at least two states")
    dW = trajectory.noise.increments
    dt = trajectory.dt
    O, H, L = observable, model.H, model.L

    m = _column_means(psis.T, O)
    ell = _column_means(psis.T, L)
    comm_OH = np.einsum("ni,ij,nj->n", psis.conj(), O @ H - H @ O, psis)
    dbl = L @ L @ O + O @ L @ L - 2.0 * (L @ O @ L)
    dbl_mean = np.einsum("ni,ij,nj->n", psis.conj(), dbl, psis).real
    anti_OL = np.einsum("ni,ij,nj->n", psis.conj(), O @ L + L @ O, psis).real
    comm_OL = np.einsum("ni,ij,nj->n", psis.conj(), O @ L - L @ O, psis)

    drift = ((-1j / model.hbar) * comm_OH).real - 0.5 * u.lam * dbl_mean
    gain = u.xi_r * (anti_OL - 2.0 * m * ell) + (1j * u.xi_i * comm_OL).real

    drift = drift[:-1]
    gain = gain[:-1]
    m0 = m[:-1]
    if power == 1:
        rhs = drift * dt + np.sqrt(u.lam) * gain * dW
        fd = np.diff(m)
    else:
        rhs = (2.0 * m0 * drift * dt + u.lam * gain ** 2 * dt
               + 2.0 * m0 * np.sqrt(u.lam) * gain * dW)
        fd = np.diff(m ** 2)
    return fd - rhs
