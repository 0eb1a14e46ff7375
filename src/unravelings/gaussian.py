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
rational function of t at c = omega = 0.  The centroid pair (centroid,
wavenumber) is an Ornstein-Uhlenbeck-type linear SDE driven by the same
Wiener process.

Three second moments are compared throughout:

* ``conditional_spread_x`` - trajectory-level spread, member-dependent;
* ``variance_x``           - density-matrix variance, member-independent;
* ``mean_square_x``        - noise average of <x>^2, member-dependent,
                             evaluated by quadrature over the width history.

All three take a scalar or an array of times.  ``mean_square_x`` runs the
integrals of every time through one adaptive Simpson quadrature, refined
level by level with one array evaluation of the integrand per level.

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
from .tolerances import TOL

HBAR_SI = 1.054571817e-34  # J s


class QuadratureError(RuntimeError):
    """Adaptive quadrature failed to reach the requested tolerance."""


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


def _rational_width(p: MechanicalParams, xi: complex) -> bool:
    """True when the width ODE has no constant term (c = omega = 0)."""
    return p.omega == 0.0 and p.lam * xi.real == 0.0


def spread_constants(p: MechanicalParams, a0: complex, xi: complex) -> SpreadConstants:
    """Constants of the tanh-form width solution of member ``xi``.

    (x_a, y_a) = (m^2 omega^2 / 4 hbar^2 + m lam xi_r xi_i / 2 hbar, m lam xi_r^2 / 2 hbar)
    fixes ``asymptote = sqrt(x_a - i y_a)`` (root with Re >= 0 >= Im) and
    ``rate = 2 i hbar asymptote / m``; the offset matches the initial width.
    At c = omega = 0 there is no tanh form: use :func:`width_linear_free`.
    """
    xi = _checked_xi(xi)
    a0 = complex(a0)
    if not (a0.real > 0.0):
        raise ValueError("initial width must have positive real part")
    if _rational_width(p, xi):
        raise ValueError("a free width at c = 0 is rational in t; "
                         "no tanh-form constants exist (see width_linear_free)")
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


def a_closed_form(t, constants: SpreadConstants):
    """Width a(t) = asymptote * tanh(rate * t + offset); scalar or array t."""
    t = np.asarray(t, dtype=float)
    out = constants.asymptote * _tanh_stable(constants.rate * t + constants.offset)
    return complex(out) if out.ndim == 0 else out


def width_linear_free(t, p: MechanicalParams, a0: complex):
    """Free width a(t) = a0 m / (m + 2 i hbar t a0) at c = 0 (phase noise, or lam = 0)."""
    t = np.asarray(t, dtype=float)
    out = a0 * p.mass / (p.mass + 2j * p.hbar * t * a0)
    return complex(out) if out.ndim == 0 else out


def _width_fn(p: MechanicalParams, a0: complex, xi: complex):
    """The closed-form width t -> a(t) of member ``xi`` (already checked)."""
    if _rational_width(p, xi):
        return lambda t: width_linear_free(t, p, a0)
    cons = spread_constants(p, a0, xi)
    return lambda t: a_closed_form(t, cons)


def width_at(t, p: MechanicalParams, a0: complex, xi: complex):
    """Closed-form width of member ``xi``, free or trapped."""
    return _width_fn(p, a0, _checked_xi(xi))(t)


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
    a0 = complex(a0)
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


# --- spread gates: series on one time grid that starts at t = 0 --------------

SPREAD_RTOL = 1e-12   # relative slack of both gates


def initial_spread(a0: complex) -> float:
    """1 / (4 Re a0), the position spread of the initial packet."""
    return 1.0 / (4.0 * complex(a0).real)


def initial_spread_deviation(a0: complex, s_collapse, s_phase, var) -> float:
    """Largest relative deviation of the three t = 0 values from initial_spread(a0)."""
    sigma0 = initial_spread(a0)
    return float(max(abs(v[0] / sigma0 - 1.0) for v in (s_collapse, s_phase, var)))


def spreads_ordered(t, s_collapse, s_phase, var) -> bool:
    """collapse <= phase-noise <= variance at every t > 0, within SPREAD_RTOL."""
    m = np.asarray(t) > 0
    return bool(np.all(s_collapse[m] <= s_phase[m] * (1 + SPREAD_RTOL))
                and np.all(s_phase[m] <= var[m] * (1 + SPREAD_RTOL)))


# --- noise average of <x>^2 --------------------------------------------------

_MAX_PENDING = 4096   # intervals one integral may have pending at one level


def _adaptive_simpson(f, a, b, rel_tol: float, max_depth: int = 48) -> np.ndarray:
    """Adaptive Simpson integrals of ``f`` over ``[a[i], b[i]]``, refined level by level.

    ``f(s, rows)`` returns integral ``rows[j]``'s integrand at ``s[j]`` for every j; each
    level makes one call for the pending intervals of all integrals.  An interval is
    halved until its Richardson error is within ``rel_tol`` of its own value or of a
    tenth of its integral's first estimate.  An integral is the sum of its accepted
    intervals taken up their bisection tree, left half plus right half, as a
    depth-first recursion adds them.  Raises
    QuadratureError at ``max_depth``, or when one integral has more than _MAX_PENDING
    intervals pending, so a hopeless integrand fails in bounded time and memory.
    """
    a, b = np.atleast_1d(np.asarray(a, dtype=float)), np.atleast_1d(np.asarray(b, dtype=float))
    rows = np.arange(a.size)
    x0, x2 = a, b
    f0, f1, f2 = np.split(f(np.concatenate([a, 0.5 * (a + b), b]), np.tile(rows, 3)), 3)
    s = (b - a) * (f0 + 4.0 * f1 + f2) / 6.0
    scale = np.maximum(np.abs(s), 1e-300)
    levels = []        # per level: (accepted values, rejected mask)
    for depth in range(max_depth + 1):
        x1 = 0.5 * (x0 + x2)
        flm, frm = np.split(f(np.concatenate([0.5 * (x0 + x1), 0.5 * (x1 + x2)]),
                              np.tile(rows, 2)), 2)
        sl = (x1 - x0) * (f0 + 4.0 * flm + f1) / 6.0
        sr = (x2 - x1) * (f1 + 4.0 * frm + f2) / 6.0
        err = (sl + sr - s) / 15.0
        rejected = ~(np.abs(err) <= rel_tol * np.maximum(np.abs(sl + sr), 0.1 * scale[rows]))
        levels.append((sl + sr + err, rejected))
        if not rejected.any():
            break
        if depth >= max_depth:
            raise QuadratureError(f"adaptive Simpson did not converge to rel {rel_tol}")
        # the halves of the k-th rejected interval are intervals 2k and 2k + 1 of the next level
        rows = np.repeat(rows[rejected], 2)
        if np.bincount(rows).max() > _MAX_PENDING:
            raise QuadratureError(f"adaptive Simpson needs more than {_MAX_PENDING} intervals "
                                  f"for one integral at rel {rel_tol}")
        def halves(left, right):
            return np.stack([left[rejected], right[rejected]], axis=1).ravel()
        x0, x2 = halves(x0, x1), halves(x1, x2)
        f0, f1, f2, s = halves(f0, f1), halves(flm, frm), halves(f1, f2), halves(sl, sr)
    total = levels[-1][0]
    for value, rejected in reversed(levels[:-1]):
        value[rejected] = total[0::2] + total[1::2]
        total = value
    return total


def _ballistic_mean(t, p: MechanicalParams, x0: float, k0: float):
    if p.omega == 0.0:
        return x0 + p.hbar * k0 * t / p.mass
    return (p.hbar * k0 / (p.mass * p.omega)) * np.sin(p.omega * t) + x0 * np.cos(p.omega * t)


def _response_integrals(ts: np.ndarray, p: MechanicalParams, a0: complex,
                        xi: complex) -> np.ndarray:
    """``int_0^t g^2 ds`` of :func:`mean_square_x` at each time t > 0 of ``ts``, in one quadrature."""
    m, hb, om = p.mass, p.hbar, p.omega
    width = _width_fn(p, a0, xi)
    n = ts.size
    rate = p.lam * xi.real ** 2
    if rate == 0.0:                   # the width does not relax: no boundary layer
        lo, hi = np.zeros(n), ts
    else:
        layer = complex(a0).real / rate   # width-relaxation time scale
        split = np.minimum(0.5 * ts, 1e-3 * layer)
        lo = np.concatenate([np.zeros(n), np.log(split)])
        hi = np.concatenate([split, np.log(ts)])

    def integrand(s, rows):
        # g = xi_r * collapse + xi_i * Phi_xk, with collapse = Phi_xx / (2 Re a) - Im a Phi_xk / Re a;
        # rows n and up are the outer parts, in log-time u = log s
        log_time = rows >= n
        s = s.copy()
        s[log_time] = np.exp(s[log_time])
        tr = ts[rows % n]
        a = width(s)
        if om == 0.0:
            collapse = (0.5 - (hb / m) * (tr - s) * a.imag) / a.real
            phi_xk = hb * (tr - s) / m
        else:
            u = om * (s - tr)
            collapse = ((2.0 * a.imag * hb * np.sin(u) + m * om * np.cos(u))
                        / (2.0 * a.real * m * om))
            phi_xk = -hb * np.sin(u) / (m * om)
        g = xi.real * collapse + xi.imag * phi_xk
        return np.where(log_time, g * g * s, g * g)

    return _adaptive_simpson(integrand, lo, hi, TOL.quadrature_rel).reshape(-1, n).sum(axis=0)


def mean_square_x(t, p: MechanicalParams, a0: complex, x0: float, k0: float, xi: complex):
    """Noise average of <x>_t^2: ballistic term plus an Ito-isometry integral; scalar or array t.

    The integral ``lam int_0^t g^2 ds`` runs the closed-form width history through the
    response ``g = xi_r / (2 Re a) Phi_xx + (xi_i - xi_r Im a / Re a) Phi_xk`` (Phi_xx =
    cos w(t - s), Phi_xk = hbar sin w(t - s) / m w; free: 1, hbar (t - s) / m), by adaptive
    Simpson quadrature at relative tolerance TOL.quadrature_rel.  The width relaxes on
    the scale Re(a0) / (lam xi_r^2), which can be many orders shorter than t; the
    integral is then split there and the outer part taken in log-time, so the early
    boundary layer is always resolved.  The integrals of every time run through one
    quadrature, which evaluates the width on arrays, one call per refinement level.
    A scalar t gives a float.
    """
    xi = _checked_xi(xi)
    t = np.asarray(t, dtype=float)
    if not np.all(np.isfinite(t) & (t >= 0.0)):
        raise ValueError("t must be finite and >= 0")
    out = np.atleast_1d(_ballistic_mean(t, p, x0, k0) ** 2)
    pos = np.flatnonzero(np.atleast_1d(t) > 0.0)
    if p.lam > 0.0 and pos.size:
        out[pos] += p.lam * _response_integrals(np.atleast_1d(t)[pos], p, a0, xi)
    return float(out[0]) if t.ndim == 0 else out.reshape(t.shape)


TOTAL_VARIANCE_RTOL = 10.0 * TOL.quadrature_rel   # slack of the total-variance gate, of var


def total_variance_deviation(t, mean_x2, p: MechanicalParams, a0: complex, x0: float,
                             k0: float, xi: complex) -> float:
    """Largest |mean_x2 - ballistic^2 - (var - spread)| / var over the times ``t``.

    By the law of total variance, Var(<x>_t) = variance_x - conditional_spread_x for
    every member, so a series ``mean_x2`` of E[<x>_t^2] (``mean_square_x``) keeps this
    within TOTAL_VARIANCE_RTOL at every t.
    """
    t = np.asarray(t, dtype=float)
    var = variance_x(t, p, a0)
    gap = (np.asarray(mean_x2, dtype=float) - _ballistic_mean(t, p, x0, k0) ** 2
           - (var - conditional_spread_x(t, p, a0, xi)))
    return float(np.max(np.abs(gap) / var))


# --- parameter SDE integration ----------------------------------------------

def width_rate_scale(p: MechanicalParams, a0: complex, xi: complex) -> float:
    """Characteristic relaxation rate |rate| of member ``xi``'s width ODE (s^-1)."""
    xi = _checked_xi(xi)
    if _rational_width(p, xi):
        return 2.0 * p.hbar * abs(a0) / p.mass
    return abs(spread_constants(p, a0, xi).rate)


def check_width_stability(p: MechanicalParams, a0: complex, xi: complex, dt: float) -> None:
    """Raise ValueError unless dt * |rate| of the width ODE stays inside the stability budget."""
    rate = width_rate_scale(p, a0, xi)
    engine_mod._require_dt_within(dt, TOL.stability_budget / rate if rate > 0.0 else math.inf,
                                  f"{TOL.stability_budget} of dt * |width rate {rate:.3e} s^-1|")


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
    if not (a.real > 0.0):
        raise ValueError(f"width must have positive real part, got {a}")
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


def covariance_from_width(width, hbar: float) -> np.ndarray:
    """(x, p) covariance matrix of a pure Gaussian state with given width.

    S_xx = 1/(4 Re a), S_xp = -hbar Im a / (2 Re a), S_pp = hbar^2 |a|^2 / Re a;
    det S = hbar^2 / 4 identically (pure state).
    """
    w = np.asarray(width, dtype=complex)
    re, im = w.real, w.imag
    sxx = 1.0 / (4.0 * re)
    sxp = -hbar * im / (2.0 * re)
    spp = hbar ** 2 * (re ** 2 + im ** 2) / re
    out = np.empty(w.shape + (2, 2))
    out[..., 0, 0] = sxx
    out[..., 0, 1] = sxp
    out[..., 1, 0] = sxp
    out[..., 1, 1] = spp
    return out


def conditional_covariance_series(ts, p: MechanicalParams, a0: complex,
                                  xi: complex) -> np.ndarray:
    """Closed-form conditional covariance matrices of member ``xi`` on a time grid."""
    return covariance_from_width(width_at(np.asarray(ts, dtype=float), p, a0, xi), p.hbar)


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
