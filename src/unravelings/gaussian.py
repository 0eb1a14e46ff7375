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
that evaluates either form, and every spread and covariance reads the width
through it.  The centroid pair (centroid, wavenumber) is an
Ornstein-Uhlenbeck-type linear SDE driven by the same Wiener process.

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

import cmath
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
    """Constants of the tanh-form width solution a(t) = asymptote*tanh(rate*t + offset)."""

    rate: complex            # s^-1
    asymptote: complex       # m^-2
    offset: complex          # dimensionless


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


def spread_constants(p: MechanicalParams, a0: complex, xi: complex) -> SpreadConstants:
    """Constants of the tanh-form width solution of member ``xi``.

    (x_a, y_a) = (m^2 omega^2 / 4 hbar^2 + m lam xi_r xi_i / 2 hbar, m lam xi_r^2 / 2 hbar)
    fixes ``asymptote = sqrt(x_a - i y_a)`` (root with Re >= 0 >= Im) and
    ``rate = 2 i hbar asymptote / m``; the offset matches the initial width.
    At c = omega = 0 there is no tanh form; :func:`width_at` takes the rational one.
    """
    xi = _checked_xi(xi)
    a0 = _checked_width(a0)
    if _rational_width(p, xi):
        raise ValueError("a free width at c = 0 is rational in t; "
                         "no tanh-form constants exist (see width_at)")
    x_a = ((p.mass * p.omega) ** 2 / (4.0 * p.hbar ** 2)
           + p.mass * p.lam * xi.real * xi.imag / (2.0 * p.hbar))
    y_a = p.mass * p.lam * xi.real ** 2 / (2.0 * p.hbar)
    r = np.hypot(x_a, y_a)
    c = complex(np.sqrt(0.5 * (r + x_a)), -np.sqrt(0.5 * (r - x_a)))
    b = 2j * p.hbar * c / p.mass
    ratio = a0 / c
    if abs(ratio - 1.0) < 1e-14 or abs(ratio + 1.0) < 1e-14:
        raise ValueError("initial width coincides with the tanh-form asymptote; "
                         "offset is singular")
    if ratio.imag == 0.0 and abs(ratio.real) >= 1.0:
        raise ValueError(f"a0/asymptote = {ratio.real} lies on the arctanh branch cut")
    return SpreadConstants(rate=b, asymptote=c, offset=cmath.atanh(ratio))


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
    offset) with the :func:`spread_constants` of ``xi``.  A scalar t gives a complex.
    """
    xi = _checked_xi(xi)
    a0 = _checked_width(a0)
    t = np.asarray(t, dtype=float)
    if _rational_width(p, xi):
        out = a0 * p.mass / (p.mass + 2j * p.hbar * t * a0)
    else:
        cons = spread_constants(p, a0, xi)
        out = cons.asymptote * _tanh_stable(cons.rate * t + cons.offset)
    return complex(out) if out.ndim == 0 else out


def conditional_spread_x(t, p: MechanicalParams, a0: complex, xi: complex):
    """Trajectory-level position spread 1 / (4 Re a(t)); member-dependent."""
    w = np.asarray(width_at(t, p, a0, xi))
    re = w.real
    if np.any(re <= 0.0):
        raise ValueError("closed-form width lost positivity; inputs are unphysical")
    out = 1.0 / (4.0 * re)
    return float(out) if out.ndim == 0 else out


def _noise_spread_free(t, p: MechanicalParams):
    return p.lam * p.hbar ** 2 * np.asarray(t, dtype=float) ** 3 / (3.0 * p.mass ** 2)


def _noise_spread_harmonic(t, p: MechanicalParams):
    """lam hbar^2/(2 m^2 omega^2) * (t - sin(2 omega t)/(2 omega)), series-guarded."""
    t = np.asarray(t, dtype=float)
    u = p.omega * t
    small = np.abs(u) < 1e-3
    # direct form loses all digits for u -> 0; two series terms are 1e-13 accurate there
    direct = t - np.sin(2.0 * u) / (2.0 * p.omega) if p.omega > 0 else np.zeros_like(t)
    series = (2.0 / 3.0) * p.omega ** 2 * t ** 3 * (1.0 - 0.6 * u ** 2)
    bracket = np.where(small, series, direct)
    return p.lam * p.hbar ** 2 / (2.0 * (p.mass * p.omega) ** 2) * bracket


def variance_x(t, p: MechanicalParams, a0: complex):
    """Density-matrix position variance; identical for every family member.

    Free particle: the unitary spreading term plus lam hbar^2 t^3 / (3 m^2).
    Trapped: the breathing term from the phase-noise width constants plus
    the windowed-noise term lam hbar^2/(2 m^2 omega^2) (t - sin(2wt)/2w).
    """
    t = np.asarray(t, dtype=float)
    a0 = _checked_width(a0)
    if p.omega == 0.0:
        unitary = (((p.mass - 2.0 * p.hbar * t * a0.imag) ** 2
                    + (2.0 * p.hbar * t * a0.real) ** 2)
                   / (4.0 * p.mass ** 2 * a0.real))
        out = unitary + _noise_spread_free(t, p)
    else:
        cons = spread_constants(p, a0, -1j)     # the unitary width: xi = -i
        k = cons.offset
        breathing = (p.hbar / (2.0 * p.mass * p.omega)
                     * (np.cosh(2.0 * k.real) + np.cos(2.0 * (p.omega * t + k.imag)))
                     / np.sinh(2.0 * k.real))
        out = breathing + _noise_spread_harmonic(t, p)
    return float(out) if out.ndim == 0 else out


# --- gates on series over one time grid that starts at t = 0 ----------------

SPREAD_RTOL = 1e-12   # relative slack of both spread gates
MEAN_SQUARE_MAX_SE = 4.0   # SEs a Monte Carlo E[<x>^2] may stray from its closed form


def initial_spread(a0: complex) -> float:
    """1 / (4 Re a0), the position spread of the initial packet."""
    return 1.0 / (4.0 * _checked_width(a0).real)


def initial_spread_deviation(a0: complex, s_collapse, s_phase, var) -> float:
    """Largest relative deviation of the three t = 0 values from initial_spread(a0)."""
    sigma0 = initial_spread(a0)
    return float(max(abs(v[0] / sigma0 - 1.0) for v in (s_collapse, s_phase, var)))


def spreads_ordered(t, s_collapse, s_phase, var) -> bool:
    """collapse <= phase-noise <= variance at every t > 0, within SPREAD_RTOL."""
    m = np.asarray(t) > 0
    return bool(np.all(s_collapse[m] <= s_phase[m] * (1 + SPREAD_RTOL))
                and np.all(s_phase[m] <= var[m] * (1 + SPREAD_RTOL)))


def mean_square_worst_se(t, mc, stderr, closed_form) -> float:
    """Largest |mc - closed_form| / stderr at t > 0, where SEs are nonzero; 0.0 if no t > 0."""
    after = np.asarray(t) > 0.0
    return float(np.max(np.abs(mc - closed_form)[after] / stderr[after], initial=0.0))


# --- noise average of <x>^2 --------------------------------------------------

def _ballistic_mean(t, p: MechanicalParams, x0: float, k0: float):
    if p.omega == 0.0:
        return x0 + p.hbar * k0 * t / p.mass
    return (p.hbar * k0 / (p.mass * p.omega)) * np.sin(p.omega * t) + x0 * np.cos(p.omega * t)


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
        noise = _noise_spread_free(ts, p) if p.omega == 0.0 else _noise_spread_harmonic(ts, p)
        out[pos] += noise + (conditional_spread_x(ts, p, a0, -1j)
                             - conditional_spread_x(ts, p, a0, xi))
    return float(out[0]) if t.ndim == 0 else out.reshape(t.shape)


# --- parameter SDE integration ----------------------------------------------

def check_width_stability(p: MechanicalParams, a0: complex, xi: complex, dt: float) -> None:
    """Raise ValueError unless dt * |rate| of the width ODE stays inside the stability budget.

    |rate| (s^-1) is 2 hbar |a0| / m for a rational width, else that of :func:`spread_constants`.
    """
    xi = _checked_xi(xi)
    a0 = _checked_width(a0)
    rate = (2.0 * p.hbar * abs(a0) / p.mass if _rational_width(p, xi)
            else abs(spread_constants(p, a0, xi).rate))
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


def _width_blocks(p: MechanicalParams, a0: complex, xi: complex, dt: float,
                  n_steps: int, block: int):
    """Yield ``(first_step, values)``: the n_steps + 1 values of the width's Euler path, in blocks.

    Each block holds at most ``block`` consecutive values, and the blocks, joined,
    are the :func:`simulate_width` path bit for bit: a block continues the loop
    from the last value of the one before, and a complex128 holds the loop's
    Python complex exactly.  ``dt`` is checked once, at ``a0`` (the width rate,
    and so the budget, changes along a rational path), and the path's last
    value once, after the last block.
    """
    xi = _checked_xi(xi)
    check_width_stability(p, a0, xi, dt)
    for first in range(0, n_steps + 1, block):
        size = min(block, n_steps + 1 - first)
        if first == 0:
            values = _width_path(a0, p, xi, dt, size - 1)
        else:       # from the last value of the block before, which it does not repeat
            values = _width_path(values[-1], p, xi, dt, size)[1:]
        yield first, values
    if not (values[-1].real > 0.0) or not np.isfinite(values[-1].real):
        raise FloatingPointError("width path lost positivity or diverged; reduce dt")


def simulate_width(p: MechanicalParams, a0: complex, xi: complex,
                   dt: float, n_steps: int) -> np.ndarray:
    """Euler path of the width ODE, all n_steps + 1 values; dt must pass check_width_stability."""
    # one block; unpacking it runs the generator to its end, and so to its last check
    ((_, out),) = _width_blocks(p, a0, xi, dt, n_steps, n_steps + 1)
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


def conditional_covariance_series(ts, p: MechanicalParams, a0: complex,
                                  xi: complex) -> np.ndarray:
    """Closed-form conditional covariance matrices of member ``xi`` on a time grid.

    The pure Gaussian state of width a = :func:`width_at` has S_xx = 1/(4 Re a),
    S_xp = -hbar Im a / (2 Re a) and S_pp = hbar^2 |a|^2 / Re a, so det S = hbar^2 / 4.
    """
    w = np.asarray(width_at(ts, p, a0, xi))
    re, im = w.real, w.imag
    out = np.empty(w.shape + (2, 2))
    out[..., 0, 0] = 1.0 / (4.0 * re)
    out[..., 0, 1] = out[..., 1, 0] = -p.hbar * im / (2.0 * re)
    out[..., 1, 1] = p.hbar ** 2 * (re ** 2 + im ** 2) / re
    return out


def variance_covariance_series(ts, p: MechanicalParams, a0: complex) -> np.ndarray:
    """Density-matrix covariance matrices: unitary part plus noise integrals."""
    ts = np.asarray(ts, dtype=float)
    base = conditional_covariance_series(ts, p, a0, -1j)   # the unitary part: xi = -i
    lam, hb, m, om = p.lam, p.hbar, p.mass, p.omega
    add = np.zeros(ts.shape + (2, 2))
    if om == 0.0:
        add[..., 0, 0] = _noise_spread_free(ts, p)
        add[..., 0, 1] = add[..., 1, 0] = lam * hb ** 2 * ts ** 2 / (2.0 * m)
        add[..., 1, 1] = lam * hb ** 2 * ts
    else:
        u = om * ts
        add[..., 0, 0] = _noise_spread_harmonic(ts, p)
        sin_ratio = np.sin(u) / om
        add[..., 0, 1] = add[..., 1, 0] = lam * hb ** 2 * sin_ratio ** 2 / (2.0 * m)
        add[..., 1, 1] = lam * hb ** 2 * (0.5 * ts + np.sin(2.0 * u) / (4.0 * om))
    return base + add


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
