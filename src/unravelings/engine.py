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

Integration scheme: Euler-Maruyama on unnormalised states, normalised only
where they are read.  Every Euler-Maruyama step in the library goes through one kernel,
:class:`_EulerKernel`, built once per (model, u, dt).  It keeps states as
the columns of a ``(dim, N)`` array, so one call advances N trajectories in
lock step, and it steps them in the eigenbasis of L: ``phi = V^dag psi``
with ``V^dag L V = diag(l)`` (``eigh`` of L's Hermitian part, once per
kernel; no rotation when L is diagonal), so ``L phi = l phi``.  It regroups
the increment as

    phi' = A_e phi + (lam dt xi_r <L> + sqrt(lam) dW) g + (lam dt xi_r^2 / 2) <L>^2 phi,
    A_e = I + (-(i/hbar) V^dag H V - (lam/2) diag(l^2)) dt,   g = (xi l - xi_r <L>) phi,

which equals the update above term by term.  All of it is elementwise but
``A_e phi``, one ``d x d`` product, which is elementwise too when ``A_e`` is
diagonal (every spin model).  The noise enters only through ``g``, which
vanishes on eigenstates of ``L`` for real ``xi`` (exactly, wherever ``l phi``
and ``<L>`` round exactly, as for sigma_z on its eigenstates).  When
``xi_r = 0`` (the phase-noise member ``xi = -i``) every ``<L>`` term carries a
factor ``xi_r``, so ``g = xi l phi`` with ``xi l`` fixed per kernel, and the
step forms ``A_e phi + sqrt(lam) dW g`` without reading ``<L>``; dropping
the ``0 <L>`` and ``+0`` terms keeps every bit of the general expressions,
the sign of each zero included.

Given ``<L>``, read as ``sum_rows(l |phi|^2) / n2``, the step is linear in
``phi``, so the kernels step unnormalised columns: the norm only carries
the record's likelihood (Jacobs & Knight, PRA 57, 2301 (1998)).  One
``|phi|^2`` pass after each step gives the squared norms ``n2``, ``r =
1 / n2`` and the next step's ``<L> = sum_rows(l |phi|^2) r``; norms are sums
of ``re^2 + im^2`` over rows in a fixed order.  Two dot products test every
norm of a step: ``n2 . n2 + r . r`` is finite unless some ``n2`` is 0, inf
or nan, or lies outside about [2^-512, 2^512].  Then a non-finite or
vanishing norm raises :class:`FloatingPointError` naming the trajectory and
the step, and every other column is multiplied, on its float view, by the
power of two that brings its ``n2`` into [0.5, 2).  That changes no
mantissa and no sign of zero (of a normal number), and a column scaled by
a power of two reads the same ``<L>``, so no state handed out depends on
when, or whether, a column was rescaled, nor on where blocks or batches
end.  A state is normalised only where it is read, by :func:`_normalised`,
``psis * (1 / sqrt(n2)).astype(complex)`` with the norms of the pass that
produced it: the snapshots and final states of :func:`simulate_ensemble`,
each state of :func:`_state_stack` (so :func:`sse_step`) and the stops of
:func:`_matched_blocks`.

The drivers rotate once per batch, never per noise block, so a trajectory
does not depend on where the blocks end: :func:`simulate_ensemble` starts at
``V^dag psi0`` and snapshots ``V^dag O V`` means and ``V (Phi Phi^dag) V^dag``;
:func:`_state_stack`, :func:`sse_step` and :func:`_matched_blocks` hand back
``V phi``.

Operand layout of the elementwise step: the states are C-contiguous
``(dim, N)`` complex arrays, and every elementwise operation runs on
operands of one dtype whose inner axis is contiguous and N wide.  The
per-row constant (the diagonal of ``A_e``, or the exponential step's phase)
is repeated to ``(dim, N)`` once per width; each real per-column factor is
cast to complex once, before it broadcasts over the rows; ``re^2 + im^2``
comes from one squaring pass over the float view of the states; and the
temporaries of a step are updated in place.  None of this changes an
operation, or the operand order of a complex product (numpy's complex
product fuses a multiply-add, so ``a * b`` and ``b * a`` may differ in the
last bit): the step keeps the bits of the regrouped increment as written
above.

The one other state update is :class:`_ExponentialKernel`, the exact step
of the collapse member's linear equation driven by the raw increment
dxi = dW + 2 sqrt(lam) <L> dt, for xi = 1 and diagonal H and L (diagonals
h and l):

    psi' = exp(diag(sqrt(lam) l dxi - lam l^2 dt - (i/hbar) h dt)) psi.

Only the real part of the exponent changes from step to step, so the map
is evaluated as a real exponential times the fixed phase exp(-(i/hbar) h dt),
built once per kernel; this agrees with the complex exponential of the whole
exponent to a few units in the last place.  This kernel is the library's
one statement of the xi = 1 closed form.

The two kernels share the norm pass, the norm check, the rescaling, the
column layout and the basis change through :class:`_ColumnKernel`, and
nothing of the Euler increment, so they stay independent constructions of
one member.

:func:`simulate_ensemble` and :func:`gaussian.centroid_ensemble` run fixed
chunks of trajectories through :func:`procs._chunked`, which hands back each
chunk's result in chunk order; the caller combines them in that order, so
the bits do not depend on which process ran a chunk.  Both draw a chunk's
Wiener increments from one driver, :func:`_noise_blocks`.  It takes the
chunk's ``derive_seed(base_seed, k)`` seeds, which ``noise`` hashes 2048 at a
time into a cached block, with one call per trajectory (the benchmark's
tracer counts them), and yields blocks of at most
``_NOISE_BUDGET`` doubles, one contiguous row per trajectory stream; a block
is valid until the next one is requested.  A stream that fits in one block is
drawn in one; a longer one starts on a short block of ``_FIRST_BLOCK`` steps
and doubles the block up to the budget, so the kernel starts while a forked
helper draws the rest.  Block boundaries do not depend on the snapshot
steps, and the streams do not depend on either, so the snapshots never
change a trajectory.

A shared-stream batch runs several kernels on columns that all read one
generator, so that each kernel sees the same increments (criterion 9's
matched pairs).  Only :func:`_matched_blocks` chunks such a batch: it plans
the stream in blocks of whole steps (the same numbers as one draw per step)
and advances each kernel through a block on chunks of ``_PAIR_CHUNK``
columns, which keeps a chunk's states in cache.  It hands back the states
only at the caller's stop steps, where the blocks end.  On a diagonal model
every step is elementwise, so a chunked column has the bits of the
full-width loop.  Both layouts draw their blocks through
:func:`procs._drawn_blocks`; every child process starts and ends in :mod:`procs`.

A batch sees its states only through ``after_step``, the one per-step output
of :meth:`_ColumnKernel.run`, which passes the unnormalised states and their
squared norms.  :func:`simulate_ensemble` copies a chunk's states at each
snapshot step into one kept buffer of about ``_SNAPSHOT_BUDGET`` doubles,
and their norms beside it, and reduces the buffer when it fills and after
the last block: one pass normalises the stack in place, one stacked
``s @ s^dag`` fills those rows of the chunk's rho sum, and one stacked :func:`_column_means` those of each
tracked mean.  All three give each snapshot the bits of its own per-step
product, and no step pays for a normalisation.  Step 0 enters with ``n2 =
1``, whose factor ``1 + 0j`` changes no finite non-zero value (at most the
sign of a zero part).  :func:`_state_stack` writes ``V phi`` of each step
after 0, normalised with the norms of its pass, into the one (n + 1, dim,
N) stack it returns (:func:`simulate_trajectory` is its one-column case).

The master equation is written once, in :func:`lindblad_rhs`; the oracle
takes classical RK4 steps of it.  The flow is linear, so the one-step
propagator is the RK4 step of the d^2 basis matrices, and
:func:`lindblad_evolve` jumps between snapshots with one power of it per gap.
:func:`master_equation_oracle` runs it at one tenth of an ensemble's step,
at that ensemble's snapshots.
"""

import contextlib
import math
from dataclasses import dataclass, replace
from functools import reduce

import numpy as np

from . import noise as noise_mod
from . import procs
from .linalg import assert_normalized, is_hermitian, projector, require_finite

STABILITY_BUDGET = 0.01     # lam * max_eig(L)^2 * dt, or dt * |width rate|, must stay below this
_UNIT_MODULUS_TOL = 1e-12   # | |xi|^2 - 1 | of an unraveling parameter


@dataclass(frozen=True)
class UnravelingParams:
    """Complex family parameter (xi_r, xi_i) and coupling rate lam."""

    xi_r: float
    xi_i: float
    lam: float

    def __post_init__(self):
        require_finite("xi_r", self.xi_r, positive=False)
        mod2 = self.xi_r ** 2 + self.xi_i ** 2
        if not abs(mod2 - 1.0) <= _UNIT_MODULUS_TOL:     # also a nan
            raise ValueError(f"|xi|^2 = {mod2:.15f} must equal 1")
        require_finite("lam", self.lam, positive=False)

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
        require_finite("hbar", self.hbar)


@dataclass(frozen=True)
class EnsembleResult:
    """Snapshots of a lock-step trajectory ensemble."""

    step_indices: np.ndarray          # (n_snap,)
    rhos: np.ndarray                  # (n_snap, dim, dim) equal-weight averages
    means: dict                       # name -> (n_snap, n_traj) conditional means
    final_states: np.ndarray          # (n_traj, dim)
    psi0: np.ndarray
    dt: float

    @property
    def times(self) -> np.ndarray:
        return self.step_indices * self.dt

    def at_steps(self, steps) -> "EnsembleResult":
        """The snapshots at ``steps``, each of which must be a snapshot step.

        A snapshot does not depend on which other steps were snapshotted, so
        the rows equal those of a run at ``steps`` alone.
        """
        row_of = {int(s): i for i, s in enumerate(self.step_indices)}
        try:
            rows = np.array([row_of[_step_index(s)] for s in steps], dtype=int)
        except KeyError as exc:
            raise ValueError(f"step {exc.args[0]} is not a snapshot step") from None
        return replace(self, step_indices=self.step_indices[rows], rhos=self.rhos[rows],
                       means={name: v[rows] for name, v in self.means.items()})


def max_stable_dt(model: ModelSpec, u: UnravelingParams) -> float:
    """Largest dt satisfying lam * max_eig(L)^2 * dt <= stability budget."""
    lmax = float(np.max(np.abs(np.linalg.eigvalsh(model.L))))
    if u.lam == 0.0 or lmax == 0.0:
        return np.inf
    return STABILITY_BUDGET / (u.lam * lmax ** 2)


def _require_dt_within(dt: float, cap: float, budget: str) -> None:
    """Raise ValueError unless ``0 < dt <= cap``, printing the cap rounded down to four digits."""
    require_finite("dt", dt)
    if dt > cap:
        text = f"{cap:.3e}"
        if float(text) > cap:                # rounded up: one unit of the last digit down
            mantissa, exponent = text.split("e")
            text = f"{float(mantissa) - 1e-3:.3f}e{exponent}"
        raise ValueError(f"dt = {dt:.3e} violates the stability budget {budget}; "
                         f"use dt <= {text}")


def check_stability(model: ModelSpec, u: UnravelingParams, dt: float) -> None:
    _require_dt_within(dt, max_stable_dt(model, u),
                       f"{STABILITY_BUDGET} of lam * max_eig(L)^2 * dt")


def _sum_rows(a: np.ndarray) -> np.ndarray:
    """Sum a (dim, N) array, or an (n, dim, N) stack of them, over its rows in row order.

    Unlike ``a.sum(axis=-2)``, the order of the additions does not depend on
    N, so a column gives the same bits alone as inside a wider batch, and
    each (dim, N) slice of a stack the bits it gets alone.
    """
    return reduce(np.add, a.swapaxes(0, -2))


def _column_means(psis: np.ndarray, op: np.ndarray) -> np.ndarray:
    """Real parts of the conditional means <psi_n|op|psi_n> of (dim, N) or (n, dim, N) columns."""
    return _sum_rows((psis.conj() * (op @ psis)).real)


def _abs2(psis: np.ndarray) -> np.ndarray:
    """``psis.real ** 2 + psis.imag ** 2`` of C-contiguous complex ``psis``, squared in one pass."""
    sq = psis.view(float) ** 2
    return sq[..., 0::2] + sq[..., 1::2]


def _is_diagonal(op: np.ndarray) -> bool:
    return not np.any(op - np.diag(np.diag(op)))


class _ColumnKernel:
    """Steps of (dim, N) column states, carried without normalising.

    A subclass supplies ``update(psis, dW, ell)``: one step of C-contiguous
    complex columns whose conditional means of L are ``ell``, a map linear
    in ``psis``.  ``ell`` is None when ``reads_ell`` is false; otherwise the
    subclass sets ``l``, the (dim, 1) eigenvalues of L.  An elementwise update
    reads its (dim, 1) complex constant ``row`` through :meth:`_across`,
    repeated over the columns.  :meth:`update` and :meth:`run` act on
    columns in the kernel's basis, ``V^dag psi``, and ``V`` is None for the
    standard basis.
    """

    row: np.ndarray
    V = None
    reads_ell = False
    _wide = None

    def into_basis(self, psis: np.ndarray) -> np.ndarray:
        """``V^dag psis``: standard-basis columns, or a stack of them, in the kernel's basis."""
        return psis if self.V is None else self.V.conj().T @ psis

    def out_of_basis(self, phis: np.ndarray) -> np.ndarray:
        """``V phis``: columns in the kernel's basis, or a stack of them, in the standard basis."""
        return phis if self.V is None else self.V @ phis

    def _across(self, n: int) -> np.ndarray:
        """``row`` repeated over ``n`` columns, rebuilt only when the width changes."""
        wide = self._wide
        if wide is None or wide.shape[1] != n:
            wide = self._wide = np.repeat(self.row, n, axis=1)
        return wide

    def norms_and_mean(self, psis: np.ndarray) -> tuple:
        """One ``|phi|^2`` pass: ``(n2, r, ell)``, the squared column norms, ``1 / n2`` and <L>.

        ``ell = sum_rows(l |phi|^2) * r`` is None unless ``reads_ell``.  A
        column scaled by a power of two gets the same ``ell``.
        """
        p = _abs2(psis)
        n2 = _sum_rows(p)
        r = np.divide(1.0, n2)
        ell = None
        if self.reads_ell:
            p *= self.l
            ell = _sum_rows(p)
            ell *= r
        return n2, r, ell

    def run(self, psis: np.ndarray, dW: np.ndarray, first_step: int = 0,
            first_traj: int = 0, after_step=None) -> np.ndarray:
        """Advance the columns of ``psis`` through ``dW.shape[1]`` steps, unnormalised.

        ``dW`` is (N, n_steps) with one row per trajectory.  When given,
        ``after_step(first_step + j + 1, psis, n2)`` is called after step j
        with the squared norms ``n2`` of the (unnormalised) columns.  A
        non-finite or vanishing norm raises FloatingPointError naming the
        trajectory ``first_traj + column`` and the step ``first_step + j``.
        The returned columns are unnormalised too; :func:`_normalised` reads them.
        """
        psis = np.ascontiguousarray(psis, dtype=complex)
        # an overflow or a zero norm is reported by the norm check, not as a warning
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            n2, r, ell = self.norms_and_mean(psis)
            for j in range(dW.shape[1]):
                psis = self.update(psis, dW[:, j], ell)
                n2, r, ell = self.norms_and_mean(psis)
                # finite unless some n2 is 0, inf or nan, or lies outside about [2^-512, 2^512]
                if not math.isfinite(n2 @ n2 + r @ r):
                    _rescale(psis, n2, first_traj, first_step + j)
                    n2, r, ell = self.norms_and_mean(psis)
                if after_step is not None:
                    after_step(first_step + j + 1, psis, n2)
        return psis


def _rescale(psis: np.ndarray, n2: np.ndarray, first_traj: int, step: int) -> None:
    """Scale each column of ``psis`` in place by the power of two that brings its n2 into [0.5, 2).

    The factor multiplies the float view, so it changes no mantissa and no
    sign of zero, and no normalised state depends on it.  A non-finite or
    vanishing n2 raises FloatingPointError naming its trajectory and ``step``.
    """
    bad = ~(np.isfinite(n2) & (n2 > 0.0))
    if bad.any():
        k = first_traj + int(np.flatnonzero(bad)[0])
        raise FloatingPointError(f"trajectory {k} became non-finite at step {step}; reduce dt")
    view = psis.view(float)             # re, im of column n at 2n, 2n + 1
    view *= np.repeat(np.ldexp(1.0, -(np.frexp(n2)[1] // 2)), 2)


def _normalised(psis: np.ndarray, n2: np.ndarray | None = None, out=None) -> np.ndarray:
    """Each column of (dim, N) or (n, dim, N) ``psis`` at unit norm: ``psis * (1 / sqrt(n2))``.

    The factor is cast to complex before it multiplies the columns, into
    ``out`` when given.  ``n2`` is the squared column norms of the pass that
    produced ``psis``; it defaults to those of one :func:`_abs2` pass, which
    has the bits of the kernel's own.  Every state the library hands out of
    a kernel goes through here, so none depends on when, or whether, a
    column was rescaled by a power of two.
    """
    if n2 is None:
        n2 = _sum_rows(_abs2(psis))
    inv = np.sqrt(n2)
    np.divide(1.0, inv, out=inv)
    return np.multiply(psis, inv.astype(complex)[..., None, :], out=out)


class _EulerKernel(_ColumnKernel):
    """Euler-Maruyama step on (dim, N) column states.

    See the module docstring for the step in the eigenbasis of L.  ``A`` is
    ``A_e`` when it is not diagonal, and None when ``row`` holds its diagonal.
    At ``xi_r = 0`` (phase noise) the step reads no ``<L>``: ``g = xi l phi``.
    """

    def __init__(self, model: ModelSpec, u: UnravelingParams, dt: float):
        require_finite("dt", dt)
        H, L = model.H, model.L
        if not _is_diagonal(L):
            l, self.V = np.linalg.eigh(0.5 * (L + L.conj().T))
            H, L = self.V.conj().T @ H @ self.V, np.diag(l).astype(complex)
        A = np.eye(model.dim) + ((-1j / model.hbar) * H - (0.5 * u.lam) * (L @ L)) * dt
        self.xi_r = u.xi_r
        self.reads_ell = u.xi_r != 0.0
        self.sqrt_lam = np.sqrt(u.lam)
        self.c_ell = u.lam * dt * u.xi_r             # ell coefficient of g
        self.c_ell2 = 0.5 * u.lam * dt * u.xi_r ** 2  # ell^2 coefficient of psi
        self.l = np.diag(L).real[:, None].copy()
        self.xi_l = u.xi * self.l
        self.A = None if _is_diagonal(A) else A
        self.row = np.diag(A)[:, None].copy()        # A psi = a psi when A is None

    def update(self, psis: np.ndarray, dW: np.ndarray, ell) -> np.ndarray:
        """The Euler-Maruyama map of columns whose <L> is ``ell`` (None at xi_r = 0)."""
        if ell is None:             # phase noise: g = xi l psi, and no term reads <L>
            coef = (self.sqrt_lam * dW).astype(complex) * self.xi_l
        else:
            g = self.xi_l - (self.xi_r * ell).astype(complex)   # L psi = l psi, so g psi
            coef = np.multiply((self.c_ell * ell + self.sqrt_lam * dW).astype(complex), g, out=g)
        if self.A is None:
            np.add(self._across(psis.shape[1]), coef, out=coef)
        if ell is not None:
            coef += (self.c_ell2 * ell ** 2).astype(complex)
        coef *= psis
        if self.A is not None:
            coef += self.A @ psis
        return coef


class _ExponentialKernel(_ColumnKernel):
    """Exact exponential step on (dim, N) column states.

    See the module docstring for the map.  Any other xi, or an H or L that
    is not diagonal, raises ValueError.
    """

    reads_ell = True

    def __init__(self, model: ModelSpec, u: UnravelingParams, dt: float):
        require_finite("dt", dt)
        if u.xi != 1.0:
            raise ValueError(f"the exponential update needs xi = 1, got {u.xi}")
        if not (_is_diagonal(model.H) and _is_diagonal(model.L)):
            raise ValueError("the exponential update needs diagonal H and L")
        self.l = np.diag(model.L).real[:, None].copy()
        h = np.diag(model.H).real[:, None]
        self.sqrt_lam_l = np.sqrt(u.lam) * self.l
        self.shift = 2.0 * np.sqrt(u.lam) * dt       # dxi - dW per unit <L>
        self.decay = -u.lam * self.l ** 2 * dt
        self.row = np.exp((-1j * dt / model.hbar) * h)     # the phase, the same at every step

    def update(self, psis: np.ndarray, dW: np.ndarray, ell: np.ndarray) -> np.ndarray:
        """The exponential map of columns whose <L> is ``ell``."""
        exponent = self.sqrt_lam_l * (dW + self.shift * ell)
        exponent += self.decay
        growth = np.exp(exponent, out=exponent).astype(complex)
        growth *= self._across(psis.shape[1])
        growth *= psis
        return growth


def sse_step(psi: np.ndarray, model: ModelSpec, u: UnravelingParams,
             dW: float, dt: float) -> np.ndarray:
    """One Euler-Maruyama step, normalised: the one-column, one-step :func:`_state_stack`."""
    return _state_stack(_EulerKernel(model, u, dt), psi, np.array([[dW]]))[1, :, 0]


def _state_stack(kernel: _ColumnKernel, psi0: np.ndarray, dW: np.ndarray) -> np.ndarray:
    """Every state, (n + 1, dim, N), of columns from ``psi0`` driven by the rows of (N, n) ``dW``.

    On a diagonal model each column gets the bits it would get alone.  Step
    0 is ``psi0`` itself; each later step is normalised and rotated out of
    the kernel's basis as it is kept, so the stack is the only one held.
    """
    n_paths, n = dW.shape
    psi0 = np.asarray(psi0, dtype=complex)
    states = np.empty((n + 1, psi0.size, n_paths), dtype=complex)
    states[0] = psi0[:, None]

    def keep(step, phis, n2):
        states[step] = kernel.out_of_basis(_normalised(phis, n2))

    kernel.run(np.repeat(kernel.into_basis(psi0[:, None]), n_paths, axis=1), dW, after_step=keep)
    return states


def simulate_trajectory(model: ModelSpec, u: UnravelingParams, psi0: np.ndarray,
                        dt: float, n_steps: int, seed: int,
                        tracked_observables: dict | None = None) -> tuple:
    """One trajectory on ``wiener_path(seed, dt, n_steps)``: ``(states, means)``.

    ``states`` is (n_steps + 1, dim); ``means`` maps each tracked name to its
    (n_steps + 1,) conditional means.
    """
    check_stability(model, u, dt)
    assert_normalized(psi0)
    dW = noise_mod.wiener_path(seed, dt, n_steps) if n_steps else np.empty(0)
    states = _state_stack(_EulerKernel(model, u, dt), psi0, dW[None, :])[:, :, 0]
    tracked = tracked_observables or {}
    return states, {name: _column_means(states.T, op) for name, op in tracked.items()}


def _wiener_block(rngs, out: np.ndarray, sqrt_dt: float) -> None:
    """Write the next ``out.shape[1]`` increments of every stream into its row of ``out``."""
    for row, rng in zip(out, rngs):
        rng.standard_normal(out=row)
    out *= sqrt_dt


_NOISE_BUDGET = 400_000   # doubles per noise block of one chunk (2500 x 160)
_FIRST_BLOCK = 8          # steps in the first block of a plan that takes more than one
_SNAPSHOT_BUDGET = 40_000  # doubles of states an ensemble chunk keeps per stacked reduction


def _noise_blocks(base_seed: int, k0: int, k1: int, n_steps: int, dt: float):
    """Yield ``(first_step, dW)``: the Wiener increments of trajectories k0..k1-1.

    Row ``k - k0`` of the blocks, joined, is the stream of
    ``wiener_path(derive_seed(base_seed, k), dt, n_steps)``.  A block holds
    at most ``cap = _NOISE_BUDGET // (k1 - k0)`` steps (one at least) and is a
    view that the next block refills (see :func:`procs._drawn_blocks`).  When
    ``n_steps <= cap`` there is one block, so no helper is forked; else the
    blocks hold ``_FIRST_BLOCK``, then twice as many steps each time, up to
    ``cap``, so the first block is ready at once and the helper fills the
    next while the caller steps through it.  The buffers are sized by the
    largest block.  A caller that may stop early wraps the generator in
    ``contextlib.closing``, so a helper is reaped when it stops.

    The seeds are read one ``derive_seed`` call per trajectory, which the
    benchmark's tracer pins; each call is a lookup into a block that
    ``noise`` hashed in one vectorised pass and caches.
    """
    seeds = [noise_mod.derive_seed(base_seed, k) for k in range(k0, k1)]
    cap = max(1, _NOISE_BUDGET // (k1 - k0))
    plan, start = [], 0
    size = n_steps if n_steps <= cap else min(_FIRST_BLOCK, cap)
    while start < n_steps:
        plan.append((start, (k1 - k0, min(size, n_steps - start))))
        start += size
        size = min(2 * size, cap)
    sqrt_dt = np.sqrt(dt)

    def open_fill():
        rngs = noise_mod.default_rngs(seeds)
        return lambda out: _wiener_block(rngs, out, sqrt_dt)

    yield from procs._drawn_blocks(plan, open_fill)


_PAIR_CHUNK = 10_000        # columns per kernel pass of a shared-stream batch (fixed)
_PAIR_BUDGET = 1_600_000    # doubles per block of the shared stream (100 000 x 16)


def _matched_blocks(kernels, psi0: np.ndarray, rng, dt: float, n_steps: int,
                    n_cols: int, stops=()):
    """Run ``kernels`` in lock step on ``n_cols`` columns driven by one shared stream.

    Every column of every kernel starts at ``psi0``.  Step k of column c
    takes entry c of the k-th successive ``rng.standard_normal(n_cols)``
    draw times sqrt(dt), for every kernel, so the kernels see matched noise.
    The stream is planned in blocks of whole steps that end at every step in
    ``stops`` (and at ``n_steps``) and hold at most ``_PAIR_BUDGET`` doubles,
    each one ``rng.standard_normal`` call into an (nb, n_cols) view that the
    next block refills, drawn by :func:`procs._drawn_blocks`.  A forked helper
    advances its copy of ``rng``, not ``rng``, so callers pass a fresh
    generator.  Each kernel advances a block on chunks of ``_PAIR_CHUNK``
    columns, so a chunk's states stay in cache through the block.

    Yields ``(step, c0, states)`` at each such stop step, once per chunk,
    chunks in column order; ``states[i]`` (dim, width) is kernel i's state
    of columns c0..c0+width-1 after that step.  The caller must not modify
    it.  A non-finite state raises FloatingPointError naming its column and
    step.  A caller that may stop early wraps the generator in
    ``contextlib.closing``, so a helper is reaped when it stops.
    """
    psi0 = np.asarray(psi0, dtype=complex)
    ends = sorted({int(s) for s in stops if 0 < s < n_steps} | {n_steps})
    cap = max(1, _PAIR_BUDGET // n_cols)
    plan = [(s, (min(cap, end - s), n_cols))
            for start, end in zip([0] + ends, ends) for s in range(start, end, cap)]
    chunks = [(c0, min(c0 + _PAIR_CHUNK, n_cols)) for c0 in range(0, n_cols, _PAIR_CHUNK)]
    psis = [[np.repeat(k.into_basis(psi0[:, None]), c1 - c0, axis=1) for k in kernels]
            for c0, c1 in chunks]
    sqrt_dt = np.sqrt(dt)

    def fill(out):
        rng.standard_normal(out=out)
        out *= sqrt_dt

    with contextlib.closing(procs._drawn_blocks(plan, lambda: fill)) as blocks:
        for start, dW in blocks:
            end = start + dW.shape[0]
            for (c0, c1), cols in zip(chunks, psis):
                for i, kernel in enumerate(kernels):
                    cols[i] = kernel.run(cols[i], dW[:, c0:c1].T, start, c0)
                if end in ends:
                    yield end, c0, [k.out_of_basis(_normalised(c)) for k, c in zip(kernels, cols)]


def _step_index(s) -> int:
    """``s`` as an int; ValueError unless it is a whole number."""
    if not float(s).is_integer():
        raise ValueError(f"step {s} is not a whole number")
    return int(s)


def _checked_snapshots(snapshot_steps, n_steps: int) -> list:
    """Sorted distinct snapshot steps, each a whole number in [0, n_steps]; default [n_steps].

    The steps are checked in one array pass; the first one that is not a
    whole number is named.
    """
    if n_steps < 0:
        raise ValueError(f"n_steps must be >= 0, got {n_steps}")
    if snapshot_steps is None:
        return [n_steps]
    steps = np.asarray(snapshot_steps, dtype=float)
    if steps.ndim != 1:
        raise TypeError(f"snapshot steps must be a sequence of numbers, got {snapshot_steps!r}")
    whole = np.isfinite(steps) & (np.floor(steps) == steps)
    if not whole.all():
        raise ValueError(f"step {steps[~whole][0]} is not a whole number")
    if steps.size and not (steps.min() >= 0 and steps.max() <= n_steps):
        raise ValueError("snapshot steps must lie in [0, n_steps]")
    return sorted(set(steps.astype(int).tolist()))   # np.unique pages in ~1.2 MB of sort code


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
    if n_traj < 1:
        raise ValueError(f"n_traj must be >= 1, got {n_traj}")
    psi0 = np.asarray(psi0, dtype=complex)
    assert_normalized(psi0)
    check_stability(model, u, dt)
    snaps = _checked_snapshots(snapshot_steps, n_steps)
    kernel = _EulerKernel(model, u, dt)
    V = kernel.V
    tracked = {name: op if V is None else V.conj().T @ op @ V     # in the kernel's basis
               for name, op in (tracked_observables or {}).items()}

    def run_chunk(k0, k1):
        """Trajectories k0..k1-1: their rho sums (rotated back), tracked means and final states."""
        rho = np.empty((len(snaps), model.dim, model.dim), dtype=complex)
        chunk_means = {name: np.empty((len(snaps), k1 - k0)) for name in tracked}
        depth = max(1, min(len(snaps), _SNAPSHOT_BUDGET // (2 * model.dim * (k1 - k0))))
        kept = np.empty((depth, model.dim, k1 - k0), dtype=complex)
        kept_n2 = np.empty((depth, k1 - k0))
        done = held = 0         # snapshot rows reduced, and rows held in kept after them

        def reduce_kept():
            nonlocal done, held
            s, rows = kept[:held], slice(done, done + held)
            _normalised(s, kept_n2[:held], out=s)
            rho[rows] = s @ s.conj().swapaxes(1, 2)
            for name, op in tracked.items():
                chunk_means[name][rows] = _column_means(s, op)
            done, held = done + held, 0

        def take_snapshot(step, psis, n2):
            nonlocal held, last_n2
            last_n2 = n2
            if done + held < len(snaps) and step == snaps[done + held]:
                kept[held] = psis
                kept_n2[held] = n2
                held += 1
                if held == depth:
                    reduce_kept()

        psis = np.repeat(kernel.into_basis(psi0[:, None]), k1 - k0, axis=1)
        last_n2 = np.ones(k1 - k0)      # the norms the hook saw last; step 0's are 1
        take_snapshot(0, psis, last_n2)
        with contextlib.closing(_noise_blocks(base_seed, k0, k1, n_steps, dt)) as blocks:
            for start, dW in blocks:
                psis = kernel.run(psis, dW, start, k0, after_step=take_snapshot)
        reduce_kept()
        rho = rho if V is None else V @ rho @ V.conj().T
        return rho, chunk_means, kernel.out_of_basis(_normalised(psis, last_n2)).T

    rho_sum = np.zeros((len(snaps), model.dim, model.dim), dtype=complex)
    means = {name: np.empty((len(snaps), n_traj)) for name in tracked}
    final_states = np.empty((n_traj, model.dim), dtype=complex)
    for (k0, k1), (rho, chunk_means, finals) in procs._chunked(n_traj, run_chunk):
        rho_sum += rho      # in chunk order, whichever process ran the chunk
        for name, v in chunk_means.items():
            means[name][:, k0:k1] = v
        final_states[k0:k1] = finals
    return EnsembleResult(step_indices=np.asarray(snaps), rhos=rho_sum / n_traj, means=means,
                          final_states=final_states, psi0=psi0.copy(), dt=dt)


# --- deterministic master-equation flow ------------------------------------

def lindblad_rhs(rho: np.ndarray, model: ModelSpec, lam: float) -> np.ndarray:
    """drho/dt of the master equation; ``rho`` may be a stack (..., dim, dim)."""
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


def lindblad_propagator(model: ModelSpec, lam: float, dt: float) -> np.ndarray:
    """Matrix P with vec(lindblad_step(rho)) = P vec(rho) (row-major vec).

    The RK4 step is linear in rho, so column j of P is the step of the j-th
    basis matrix; one :func:`lindblad_step` advances all d^2 of them at once.
    """
    require_finite("dt", dt)
    require_finite("lam", lam, positive=False)
    d2 = model.dim ** 2
    basis = np.eye(d2, dtype=complex).reshape(d2, model.dim, model.dim)
    return lindblad_step(basis, model, lam, dt).reshape(d2, d2).T


def lindblad_evolve(rho0: np.ndarray, model: ModelSpec, lam: float, dt: float,
                    n_steps: int, snapshot_steps=None) -> list:
    """Evolve with the RK4 step's propagator over ``n_steps`` steps.

    Returns a list of (step_index, rho) pairs for the requested steps, each
    in [0, n_steps].  Between snapshots the state jumps by the propagator's
    power for the gap, computed by repeated squaring.  A rho that is not
    finite raises FloatingPointError naming its snapshot step.
    """
    snaps = _checked_snapshots(snapshot_steps, n_steps)
    v = np.asarray(rho0, dtype=complex).reshape(-1)
    out = []
    with np.errstate(over="ignore", invalid="ignore"):     # an overflow fails the test below
        P = lindblad_propagator(model, lam, dt)
        for step, s in zip([0] + snaps, snaps):
            if s > step:
                v = np.linalg.matrix_power(P, s - step) @ v
            if not np.isfinite(v).all():
                raise FloatingPointError(f"the master-equation rho is not finite at step {s}; "
                                         "reduce dt")
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


def mc_stderr(values: np.ndarray) -> np.ndarray:
    """Standard error of each row's mean of an (n_snap, n_traj) array of samples."""
    return values.std(axis=1, ddof=1) / np.sqrt(values.shape[1])


def mc_tolerance(n_traj: int) -> float:
    """5 / sqrt(n_traj): five standard errors of a mean of n_traj values in [-1, 1]."""
    return float(5.0 / np.sqrt(n_traj))
