"""Gaussian wave-packet dynamics of a position-monitored particle.

A particle of mass ``m`` (free, or trapped with angular frequency ``omega``)
is coupled in position with rate ``lam``.  Gaussian states stay Gaussian
under every family member ``xi``, so the full dynamics reduces to three
parameters: a complex width ``a`` (the coefficient of ``-(x - centroid)^2``
in the log-amplitude), the real centroid and the real mean wavenumber::

    <x> = centroid,   <p> = hbar * wavenumber,   spread(x) = 1 / (4 Re a).

The width obeys a deterministic complex Riccati ODE, where ``c`` is the Ito
term of ``sqrt(lam) xi x dW`` (lam at xi = 1, 0 at xi = -i)::

    da/dt = c + i m omega^2 / (2 hbar) - (2 i hbar / m) a^2,   c = lam xi xi_r.

It is solved by ``a(t) = asymptote * tanh(rate * t + offset)``, or by a
rational function of t at c = omega = 0; :func:`width_at` is the one function
that evaluates either form, and every conditional spread and covariance reads
the width through it.  Only the offset, arctanh(a0 / asymptote), reads ``a0``,
and it is infinite at a0 = asymptote: the trapped ground state at phase noise
is a stationary width.  The density-matrix moments read no width: they are the
unitary flow of the initial covariance plus the noise integrals
(:func:`variance_covariance_series`).  The centroid pair (centroid,
wavenumber) is an Ornstein-Uhlenbeck-type linear SDE driven by the same
Wiener process.

Three second moments are compared throughout:

* ``conditional_spread_x`` - trajectory-level spread, member-dependent;
* ``variance_x``           - density-matrix variance, member-independent;
* ``mean_square_x``        - noise average of <x>^2, member-dependent.

All three are closed forms and take a scalar or an array of times.  Every
member's width is deterministic, so the law of total variance fixes the third
by the other two: E[<x>^2] = ballistic^2 + variance_x - conditional_spread_x.

The 2x2 covariance matrix of (x, p) satisfies a matrix Riccati flow
``dS/dt = A S + S A^T + D - S B B^T S`` whose (drift, diffusion, backaction)
triples differ per member; :func:`riccati_residual` measures how well a
covariance series satisfies a given triple, on the whole stacked series at once.
"""

import contextlib
import math
from dataclasses import dataclass

import numpy as np

from . import engine as engine_mod
from . import procs
from .linalg import require_finite

HBAR_SI = 1.054571817e-34  # J s


@dataclass(frozen=True)
class MechanicalParams:
    mass: float              # kg
    omega: float             # rad/s; 0 for a free particle
    lam: float               # m^-2 s^-1 position-coupling rate
    hbar: float = HBAR_SI

    def __post_init__(self):
        require_finite("mass", self.mass)
        require_finite("omega", self.omega, positive=False)
        require_finite("lam", self.lam, positive=False)
        require_finite("hbar", self.hbar)


@dataclass(frozen=True)
class SpreadConstants:
    """The member's constants of the tanh-form width a(t) = asymptote*tanh(rate*t + offset)."""

    rate: complex            # s^-1
    asymptote: complex       # m^-2


def _checked_xi(xi) -> complex:
    """``xi`` as a complex number, once the family's rule (|xi| = 1, Re xi >= 0) holds."""
    return engine_mod.UnravelingParams(xi.real, xi.imag, 0.0).xi


def _checked_width(a0) -> complex:
    """``a0`` as a complex number, once Re a0 is finite and > 0 and Im a0 finite."""
    a0 = complex(a0)
    if not (0.0 < a0.real < math.inf and math.isfinite(a0.imag)):
        raise ValueError(f"width must have a finite, positive real part and a finite "
                         f"imaginary part, got {a0}")
    return a0


def _rational_width(p: MechanicalParams, xi: complex) -> bool:
    """True when the width ODE has no constant term (c = omega = 0)."""
    return p.omega == 0.0 and p.lam * xi.real == 0.0


def spread_constants(p: MechanicalParams, xi: complex) -> SpreadConstants:
    """Constants of the tanh-form width solution of member ``xi``; they read no width.

    (x_a, y_a) = (m^2 omega^2 / 4 hbar^2 + m lam xi_r xi_i / 2 hbar, m lam xi_r^2 / 2 hbar)
    fixes ``asymptote = sqrt(x_a - i y_a)`` (root with Re >= 0 >= Im) and
    ``rate = 2 i hbar asymptote / m``.
    At c = omega = 0 there is no tanh form; :func:`width_at` takes the rational one.
    """
    xi = _checked_xi(xi)
    if _rational_width(p, xi):
        raise ValueError("a free width at c = 0 is rational in t; "
                         "no tanh-form constants exist (see width_at)")
    x_a = ((p.mass * p.omega) ** 2 / (4.0 * p.hbar ** 2)
           + p.mass * p.lam * xi.real * xi.imag / (2.0 * p.hbar))
    y_a = p.mass * p.lam * xi.real ** 2 / (2.0 * p.hbar)
    r = np.hypot(x_a, y_a)
    c = complex(np.sqrt(0.5 * (r + x_a)), -np.sqrt(0.5 * (r - x_a)))
    return SpreadConstants(rate=2j * p.hbar * c / p.mass, asymptote=c)


def _tanh_stable(z: np.ndarray) -> np.ndarray:
    """Complex tanh with an explicit pole diagnostic (never silently divides)."""
    z = np.asarray(z, dtype=complex)
    near_axis = np.abs(z.real) < 20.0
    if np.any(near_axis):
        u = np.where(near_axis, 2.0 * z.real, 0.0)
        v = 2.0 * z.imag
        den = np.cosh(u) + np.cos(v)
        if np.any(near_axis & (den < 1e-12 * np.cosh(u))):
            raise ZeroDivisionError("tanh-form width solution hit a pole "
                                    "(vanishing cosh+cos denominator)")
    return np.tanh(z)


def width_at(t, p: MechanicalParams, a0: complex, xi: complex):
    """Closed-form width a(t) of member ``xi``, free or trapped; scalar or array t.

    At c = omega = 0 (phase noise, or lam = 0, on a free particle) it is the
    rational a0 m / (m + 2 i hbar t a0); otherwise asymptote * tanh(rate * t +
    arctanh(a0 / asymptote)) with the :func:`spread_constants` of ``xi``.  A scalar
    t gives a complex.
    """
    xi = _checked_xi(xi)
    a0 = _checked_width(a0)
    t = np.asarray(t, dtype=float)
    if _rational_width(p, xi):
        out = a0 * p.mass / (p.mass + 2j * p.hbar * t * a0)
    else:
        cons = spread_constants(p, xi)
        with np.errstate(divide="ignore"):
            offset = np.arctanh(a0 / cons.asymptote)
        out = cons.asymptote * _tanh_stable(cons.rate * t + offset)
    return complex(out) if out.ndim == 0 else out


def conditional_spread_x(t, p: MechanicalParams, a0: complex, xi: complex):
    """Trajectory-level position spread 1 / (4 Re a(t)), member-dependent: the x-x entry
    of :func:`conditional_covariance_series`."""
    out = conditional_covariance_series(t, p, a0, xi)[..., 0, 0]
    return float(out) if out.ndim == 0 else out


def _unitary_flow(t, p: MechanicalParams):
    """(S, C) = (sin(omega t) / omega, cos(omega t)) of the unitary flow; S = t at omega = 0."""
    t = np.asarray(t, dtype=float)
    if p.omega == 0.0:
        return t, np.ones_like(t)
    return np.sin(p.omega * t) / p.omega, np.cos(p.omega * t)


def _position_noise(t, p: MechanicalParams, s, c):
    """lam hbar^2 / m^2 * int_0^t S^2, the noise part of the position variance.

    The integral is (t - S C) / (2 omega^2), which cancels as u = omega t -> 0;
    below |u| = 1e-3 it is the series (t^3 / 3)(1 - u^2 / 5), 2e-14 accurate there.
    """
    u, k = p.omega * t, p.lam * p.hbar ** 2
    with np.errstate(divide="ignore", invalid="ignore"):     # omega = 0 reads the series
        direct = k * (t - s * c) / (2.0 * (p.mass * p.omega) ** 2)
    series = k * t ** 3 * (1.0 - u * u / 5.0) / (3.0 * p.mass ** 2)
    return np.where(np.abs(u) < 1e-3, series, direct)


def variance_x(t, p: MechanicalParams, a0: complex):
    """Density-matrix position variance, the same for every member: the x-x entry of
    :func:`variance_covariance_series`."""
    out = variance_covariance_series(t, p, a0)[..., 0, 0]
    return float(out) if out.ndim == 0 else out


# --- gates on series over one time grid that starts at t = 0 ----------------

SPREAD_RTOL = 1e-12   # relative slack of the spread gates
MEAN_SQUARE_MAX_SE = 4.0   # SEs a Monte Carlo E[<x>^2] may stray from its closed form


def initial_spread(a0: complex) -> float:
    """1 / (4 Re a0), the position spread of the initial packet."""
    return 1.0 / (4.0 * _checked_width(a0).real)


def initial_spread_deviation(a0: complex, s_collapse, s_phase, var) -> float:
    """Largest relative deviation of the three t = 0 values from initial_spread(a0)."""
    sigma0 = initial_spread(a0)
    return float(max(abs(v[0] / sigma0 - 1.0) for v in (s_collapse, s_phase, var)))


def spreads_at_most(t, upper, *spreads) -> bool:
    """Each spread <= upper at every t > 0, within SPREAD_RTOL."""
    m = np.asarray(t) > 0
    return all(bool(np.all(s[m] <= upper[m] * (1 + SPREAD_RTOL))) for s in spreads)


def mean_square_worst_se(t, mc, stderr, closed_form) -> float:
    """Largest |mc - closed_form| / stderr at t > 0, where SEs are nonzero; 0.0 if no t > 0."""
    after = np.asarray(t) > 0.0
    return float(np.max(np.abs(mc - closed_form)[after] / stderr[after], initial=0.0))


# --- noise average of <x>^2 --------------------------------------------------

def _ballistic_mean(t, p: MechanicalParams, x0: float, k0: float):
    s, c = _unitary_flow(t, p)
    return x0 * c + p.hbar * k0 * s / p.mass


def mean_square_x(t, p: MechanicalParams, a0: complex, x0: float, k0: float, xi: complex):
    """Noise average of <x>_t^2 of member ``xi``, in closed form; scalar or array t.

    By the law of total variance, E[<x>_t^2] = ballistic^2 + variance_x -
    conditional_spread_x.  The variance is taken as the phase-noise spread plus
    the noise term, and the two spreads are subtracted first, so nothing cancels:
    at xi = -i the sum is the noise term alone, where variance_x - spread loses
    the digits of a variance many orders above it.  At t = 0 the value is the
    ballistic term exactly.  A scalar t gives a float.
    """
    xi = _checked_xi(xi)
    a0 = _checked_width(a0)
    t = np.asarray(t, dtype=float)
    if not np.all(np.isfinite(t) & (t >= 0.0)):
        raise ValueError("t must be finite and >= 0")
    out = np.atleast_1d(_ballistic_mean(t, p, x0, k0) ** 2)
    pos = np.atleast_1d(t) > 0.0
    if pos.any():
        ts = np.atleast_1d(t)[pos]
        out[pos] += _position_noise(ts, p, *_unitary_flow(ts, p)) + (
            conditional_spread_x(ts, p, a0, -1j) - conditional_spread_x(ts, p, a0, xi))
    return float(out[0]) if t.ndim == 0 else out.reshape(t.shape)


# --- parameter SDE integration ----------------------------------------------

def check_width_stability(p: MechanicalParams, a0: complex, xi: complex, dt: float) -> None:
    """Raise ValueError unless dt * |rate| of the width ODE stays inside the stability budget.

    |rate| (s^-1) is 2 hbar |a0| / m for a rational width, else that of :func:`spread_constants`.
    """
    xi = _checked_xi(xi)
    a0 = _checked_width(a0)
    rate = (2.0 * p.hbar * abs(a0) / p.mass if _rational_width(p, xi)
            else abs(spread_constants(p, xi).rate))
    budget = engine_mod.STABILITY_BUDGET
    engine_mod._require_dt_within(dt, budget / rate if rate > 0.0 else math.inf,
                                  f"{budget} of dt * |width rate {rate:.3e} s^-1|")


def _width_path(a0: complex, p: MechanicalParams, xi: complex, dt: float,
                n_steps: int) -> np.ndarray:
    """The n_steps + 1 values of the Euler path a -> a + (c + i m w^2 / 2 hbar - q a^2) dt."""
    const = complex(p.lam * xi.real ** 2,
                    p.lam * xi.real * xi.imag + 0.5 * p.mass * p.omega ** 2 / p.hbar)
    q = 2j * p.hbar / p.mass
    out = np.empty(n_steps + 1, dtype=complex)
    a = complex(a0)
    out[0] = a
    for k in range(n_steps):
        a = a + (const - q * a * a) * dt
        out[k + 1] = a
    return out


def _centroid_step(x, k, a, dW, p: MechanicalParams, xi: complex, dt: float):
    """One Euler step of (centroid, wavenumber) of member ``xi`` at pre-step width ``a``.

    ``x``, ``k`` and ``dW`` are scalars or arrays of one shape.  The noise
    gains are sqrt(lam) xi_r / (2 Re a) and sqrt(lam) (xi_i - xi_r Im a / Re a).
    """
    m, hb = p.mass, p.hbar
    sq = math.sqrt(p.lam)
    k_drift = k - m * p.omega ** 2 * x / hb * dt
    return (x + hb * k / m * dt + sq * xi.real / (2.0 * a.real) * dW,
            k_drift - sq * (xi.real * (a.imag / a.real) - xi.imag) * dW)


def gaussian_sde_step(state: tuple, p: MechanicalParams, xi: complex,
                      dW: float, dt: float) -> tuple:
    """One Euler-Maruyama step of ``state = (width, centroid, wavenumber)`` of member ``xi``.

    Returns the next triple.  A width with real part <= 0 raises ValueError,
    and a step that loses that positivity raises FloatingPointError.
    """
    xi = _checked_xi(xi)
    a, x, k = state
    a = _checked_width(a)
    a_new = complex(_width_path(a, p, xi, dt, 1)[1])
    if not (a_new.real > 0.0):
        raise FloatingPointError("width lost positivity; reduce dt")
    x_new, k_new = _centroid_step(x, k, a, dW, p, xi, dt)
    return a_new, float(x_new), float(k_new)


def simulate_width(p: MechanicalParams, a0: complex, xi: complex,
                   dt: float, n_steps: int) -> np.ndarray:
    """Euler path of the width ODE, all n_steps + 1 values, the last checked positive and finite.

    ``dt`` is checked once, at ``a0``: the width rate, and so the budget,
    changes along a rational path.  A call from the last value of a path
    continues it bit for bit (a complex128 holds the loop's complex exactly).
    """
    xi = _checked_xi(xi)
    check_width_stability(p, a0, xi, dt)
    out = _width_path(a0, p, xi, dt, n_steps)
    if not (out[-1].real > 0.0) or not np.isfinite(out[-1].real):
        raise FloatingPointError("width path lost positivity or diverged; reduce dt")
    return out


def centroid_ensemble(p: MechanicalParams, a0: complex, xi: complex,
                      x0: float, k0: float, dt: float, n_steps: int,
                      n_traj: int, base_seed: int,
                      snapshot_steps=None):
    """Centroids and wavenumbers of n_traj Euler trajectories of member ``xi``.

    The width is deterministic and common to every member of the ensemble;
    only (centroid, wavenumber) are stochastic.  Trajectory k is driven by
    ``wiener_path(derive_seed(base_seed, k), dt, n_steps)``.  Trajectories
    run in the fixed chunks of the spin ensembles, at once through the same
    chunk driver (:func:`procs._chunked`), and draw their increments through
    the same noise blocks, so ``n_traj`` changes no trajectory.
    Returns ``(centroids, wavenumbers)`` as (n_snapshots, n_traj) arrays, at
    the snapshot step indices (default: the final step alone).
    """
    if n_traj < 1:
        raise ValueError(f"n_traj must be >= 1, got {n_traj}")
    steps = engine_mod._checked_snapshots(snapshot_steps, n_steps)
    xi = _checked_xi(xi)
    widths = simulate_width(p, a0, xi, dt, n_steps)
    snaps = {s: i for i, s in enumerate(steps)}

    def run_chunk(c0, c1):
        """(centroids, wavenumbers) of trajectories c0..c1-1 at the snapshots, one array."""
        out = np.empty((2, len(snaps), c1 - c0))
        x = np.full(c1 - c0, float(x0))
        kk = np.full(c1 - c0, float(k0))
        if 0 in snaps:
            out[:, snaps[0]] = x, kk
        with contextlib.closing(engine_mod._noise_blocks(base_seed, c0, c1, n_steps, dt)) as blocks:
            for start, dW in blocks:
                for j in range(dW.shape[1]):
                    step = start + j
                    x, kk = _centroid_step(x, kk, widths[step], dW[:, j], p, xi, dt)
                    if step + 1 in snaps:
                        out[:, snaps[step + 1]] = x, kk
        return out

    out = np.empty((2, len(snaps), n_traj))
    for (c0, c1), chunk in procs._chunked(n_traj, run_chunk):
        out[:, :, c0:c1] = chunk
    return out[0], out[1]


# --- covariance matrices and the Riccati flow --------------------------------

@dataclass(frozen=True)
class RiccatiMatrices:
    drift: np.ndarray        # A
    diffusion: np.ndarray    # B (enters as S B B^T S)
    backaction: np.ndarray   # D

    def rhs(self, sigma: np.ndarray) -> np.ndarray:
        """dS/dt at one (2, 2) covariance or a stacked (..., 2, 2) series."""
        a, b, d = self.drift, self.diffusion, self.backaction
        return a @ sigma + sigma @ a.T + d - sigma @ b @ b.T @ sigma


def riccati_matrices(p: MechanicalParams, xi: complex | None = None) -> RiccatiMatrices:
    """(drift, diffusion, backaction) triple for a covariance flow.

    With ``xi``: the conditional covariance flow of member ``xi``.  The Ito
    term adds 2 hbar lam xi_r xi_i to the spring constant, and the state
    collapses at rate lam xi_r^2 (diffusion 2 sqrt(lam) xi_r, backaction
    lam hbar^2 xi_r^2).  With ``xi=None``: the density-matrix covariance flow,
    the same for every member (no collapse, backaction lam hbar^2).
    """
    spring = p.mass * p.omega ** 2
    b = np.zeros((2, 2))
    d = np.zeros((2, 2))
    if xi is None:
        d[1, 1] = p.lam * p.hbar ** 2
    else:
        xi = _checked_xi(xi)
        spring += 2.0 * p.hbar * p.lam * xi.real * xi.imag
        b[0, 1] = 2.0 * np.sqrt(p.lam) * xi.real
        d[1, 1] = p.lam * p.hbar ** 2 * xi.real ** 2
    a = np.array([[0.0, 1.0 / p.mass], [-spring, 0.0]])
    return RiccatiMatrices(drift=a, diffusion=b, backaction=d)


def _matrices(xx, xp, px, pp) -> np.ndarray:
    """The (..., 2, 2) stack [[xx, xp], [px, pp]] of four arrays of one shape."""
    return np.stack([xx, xp, px, pp], axis=-1).reshape(np.shape(xx) + (2, 2))


def _pure_covariance(w, hbar: float) -> np.ndarray:
    """Covariances of the pure Gaussian states of widths ``w``: S_xx = 1/(4 Re a),
    S_xp = -hbar Im a / (2 Re a) and S_pp = hbar^2 |a|^2 / Re a, so det S = hbar^2 / 4."""
    re, im = w.real, w.imag
    if np.any(re <= 0.0):
        raise ValueError("closed-form width lost positivity; inputs are unphysical")
    xp = -hbar * im / (2.0 * re)
    return _matrices(1.0 / (4.0 * re), xp, xp, hbar ** 2 * (re ** 2 + im ** 2) / re)


def conditional_covariance_series(ts, p: MechanicalParams, a0: complex,
                                  xi: complex) -> np.ndarray:
    """Closed-form conditional covariance matrices of member ``xi`` on a time grid:
    the pure covariance of the width :func:`width_at`."""
    return _pure_covariance(np.asarray(width_at(ts, p, a0, xi)), p.hbar)


def variance_covariance_series(ts, p: MechanicalParams, a0: complex) -> np.ndarray:
    """Density-matrix covariance matrices; identical for every family member.

    The unitary flow M S0 M^T of the pure covariance S0 of ``a0``, with
    M = [[C, S/m], [-m omega^2 S, C]] of :func:`_unitary_flow`, plus the noise
    integrals lam hbar^2 int_0^t [[S^2/m^2, S C/m], [S C/m, C^2]].
    """
    t = np.asarray(ts, dtype=float)
    s, c = _unitary_flow(t, p)
    m, k = p.mass, p.lam * p.hbar ** 2
    flow = _matrices(c, s / m, -m * p.omega ** 2 * s, c)
    xp = k * (s * s) / (2.0 * m)
    noise = _matrices(_position_noise(t, p, s, c), xp, xp, k * (t + s * c) / 2.0)
    s0 = _pure_covariance(np.asarray(_checked_width(a0)), p.hbar)
    return flow @ s0 @ np.swapaxes(flow, -1, -2) + noise


def riccati_residual(sigma_series: np.ndarray, mats: RiccatiMatrices, dt: float) -> np.ndarray:
    """Max-norm residual of the matrix Riccati flow via central differences.

    For a series generated by an exact solution the residual is O(dt^2): it
    quarters under grid halving.
    """
    s = np.asarray(sigma_series, dtype=float)
    if s.ndim != 3 or s.shape[1:] != (2, 2):
        raise ValueError("sigma_series must have shape (n, 2, 2)")
    if s.shape[0] < 3:
        raise ValueError("need at least three grid points for a central difference")
    fd = (s[2:] - s[:-2]) / (2.0 * dt)
    return np.max(np.abs(fd - mats.rhs(s[1:-1])), axis=(1, 2))
