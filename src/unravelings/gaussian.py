"""Gaussian wave-packet dynamics of a position-monitored particle.

A particle of mass ``m`` (free, or trapped with angular frequency ``omega``)
is coupled in position with rate ``lam``.  Gaussian states stay Gaussian
under both extreme family members, so the full dynamics reduces to three
parameters: a complex width ``a`` (the coefficient of ``-(x - centroid)^2``
in the log-amplitude), the real centroid and the real mean wavenumber::

    <x> = centroid,   <p> = hbar * wavenumber,   spread(x) = 1 / (4 Re a).

The width obeys a deterministic complex Riccati ODE

    da/dt = lam' + i m omega^2 / (2 hbar) - (2 i hbar / m) a^2,

with lam' = lam for the collapsing member and lam' = 0 for the
phase-noise member, solved by ``a(t) = asymptote * tanh(rate * t + offset)``
(for the free phase-noise case the solution degenerates to a rational
function of t).  The centroid pair (centroid, wavenumber) is an
Ornstein-Uhlenbeck-type linear SDE driven by the same Wiener process.

Three second moments are compared throughout:

* ``conditional_spread_x`` - trajectory-level spread, member-dependent;
* ``variance_x``           - density-matrix variance, member-independent;
* ``mean_square_x``        - noise average of <x>^2, member-dependent,
                             evaluated by quadrature over the width history.

The 2x2 covariance matrix of (x, p) satisfies a matrix Riccati flow
``dS/dt = A S + S A^T + D - S B B^T S`` whose (drift, diffusion, backaction)
triples differ per member; :func:`riccati_residual` measures how well a
covariance series satisfies a given triple.
"""

import cmath
import math
from dataclasses import dataclass

import numpy as np

from . import noise as noise_mod
from .engine import _checked_snapshots
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
        if self.mass <= 0.0:
            raise ValueError("mass must be positive")
        if self.omega < 0.0:
            raise ValueError("omega must be >= 0")
        if self.lam < 0.0:
            raise ValueError("lam must be >= 0")
        if self.hbar <= 0.0:
            raise ValueError("hbar must be positive")


@dataclass(frozen=True)
class GaussianState:
    width: complex           # m^-2, real part > 0
    centroid: float          # m
    wavenumber: float        # m^-1

    def __post_init__(self):
        if not (self.width.real > 0.0):
            raise ValueError(f"width must have positive real part, got {self.width}")


@dataclass(frozen=True)
class SpreadConstants:
    """Constants of the tanh-form width solution a(t) = asymptote*tanh(rate*t + offset)."""

    rate: complex            # s^-1
    asymptote: complex       # m^-2
    offset: complex          # dimensionless


NONLINEAR = "nonlinear"
LINEAR = "linear"
_MEMBERS = (NONLINEAR, LINEAR)


def _require_member(unraveling: str) -> None:
    if unraveling not in _MEMBERS:
        raise ValueError(f"unraveling must be one of {_MEMBERS}, got {unraveling!r}")


def spread_constants(p: MechanicalParams, a0: complex, unraveling: str) -> SpreadConstants:
    """Constants of the tanh-form width solution for the given member.

    The pair (x_a, y_a) = (m^2 omega^2 / 4 hbar^2, m lam' / 2 hbar) fixes
    ``asymptote = sqrt(x_a - i y_a)`` (root with Re >= 0 >= Im) and
    ``rate = 2 i hbar asymptote / m``; the offset matches the initial width.
    The free phase-noise case (omega = lam' = 0) has no tanh form and is
    rejected; use :func:`width_linear_free` instead.
    """
    _require_member(unraveling)
    a0 = complex(a0)
    if not (a0.real > 0.0):
        raise ValueError("initial width must have positive real part")
    x_a = (p.mass * p.omega) ** 2 / (4.0 * p.hbar ** 2)
    y_a = p.mass * p.lam / (2.0 * p.hbar) if unraveling == NONLINEAR else 0.0
    if x_a == 0.0 and y_a == 0.0:
        raise ValueError("free-particle phase-noise width is rational in t; "
                         "no tanh-form constants exist (see width_linear_free)")
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
    if out.ndim == 0:
        return complex(out)
    return out


def width_linear_free(t, p: MechanicalParams, a0: complex):
    """Free-particle phase-noise width a(t) = a0 m / (m + 2 i hbar t a0)."""
    t = np.asarray(t, dtype=float)
    out = a0 * p.mass / (p.mass + 2j * p.hbar * t * a0)
    if out.ndim == 0:
        return complex(out)
    return out


def width_at(t, p: MechanicalParams, a0: complex, unraveling: str):
    """Closed-form width for either member, free or trapped."""
    _require_member(unraveling)
    if unraveling == LINEAR and p.omega == 0.0:
        return width_linear_free(t, p, a0)
    return a_closed_form(t, spread_constants(p, a0, unraveling))


def conditional_spread_x(t, p: MechanicalParams, a0: complex, unraveling: str):
    """Trajectory-level position spread 1 / (4 Re a(t)); member-dependent."""
    w = np.asarray(width_at(t, p, a0, unraveling))
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
        cons = spread_constants(p, a0, LINEAR)
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

def _adaptive_simpson(f, a: float, b: float, rel_tol: float, max_depth: int = 48) -> float:
    fa, fm, fb = f(a), f(0.5 * (a + b)), f(b)
    whole = (b - a) * (fa + 4.0 * fm + fb) / 6.0
    scale = max(abs(whole), 1e-300)

    def recurse(x0, x2, f0, f1, f2, s, depth):
        x1 = 0.5 * (x0 + x2)
        lm, rm = 0.5 * (x0 + x1), 0.5 * (x1 + x2)
        flm, frm = f(lm), f(rm)
        sl = (x1 - x0) * (f0 + 4.0 * flm + f1) / 6.0
        sr = (x2 - x1) * (f1 + 4.0 * frm + f2) / 6.0
        err = (sl + sr - s) / 15.0
        if abs(err) <= rel_tol * max(abs(sl + sr), 0.1 * scale):
            return sl + sr + err
        if depth >= max_depth:
            raise QuadratureError(f"adaptive Simpson did not converge to rel {rel_tol}")
        return (recurse(x0, x1, f0, flm, f1, sl, depth + 1)
                + recurse(x1, x2, f1, frm, f2, sr, depth + 1))

    return recurse(a, b, fa, fm, fb, whole, 0)


def _ballistic_mean(t: float, p: MechanicalParams, x0: float, k0: float) -> float:
    if p.omega == 0.0:
        return x0 + p.hbar * k0 * t / p.mass
    return (p.hbar * k0 / (p.mass * p.omega)) * np.sin(p.omega * t) + x0 * np.cos(p.omega * t)


def mean_square_x(t: float, p: MechanicalParams, a0: complex, x0: float, k0: float,
                  unraveling: str) -> float:
    """Noise average of <x>_t^2: ballistic term plus an Ito-isometry integral.

    The integral runs the closed-form width history through the member's
    response kernel and is evaluated with adaptive Simpson quadrature at
    relative tolerance TOL.quadrature_rel.  For the collapsing member the
    width relaxes on the scale Re(a0)/lam, which can be many orders shorter
    than t; the integral is therefore split at that scale and the outer part
    taken in log-time, so the early boundary layer is always resolved.
    """
    _require_member(unraveling)
    if t < 0.0:
        raise ValueError("t must be >= 0")
    ball = _ballistic_mean(t, p, x0, k0) ** 2
    if t == 0.0 or p.lam == 0.0:
        return float(ball)
    m, hb, om = p.mass, p.hbar, p.omega

    if unraveling == LINEAR:
        if om == 0.0:
            integrand = lambda s: (hb * (t - s) / m) ** 2
        else:
            integrand = lambda s: (hb * np.sin(om * (s - t)) / (m * om)) ** 2
        total = _adaptive_simpson(integrand, 0.0, t, TOL.quadrature_rel)
        return float(ball + p.lam * total)

    cons = spread_constants(p, a0, NONLINEAR)

    def integrand(s):
        a = a_closed_form(s, cons)
        if om == 0.0:
            g = ((hb / m) * (t - s) * a.imag - 0.5) / a.real
        else:
            g = ((2.0 * a.imag * hb * np.sin(om * (s - t))
                  + m * om * np.cos(om * (s - t)))
                 / (2.0 * a.real * m * om))
        return g * g

    layer = complex(a0).real / p.lam  # width-relaxation time scale
    split = min(0.5 * t, 1e-3 * layer)
    total = _adaptive_simpson(integrand, 0.0, split, TOL.quadrature_rel)
    total += _adaptive_simpson(lambda u: integrand(np.exp(u)) * np.exp(u),
                               np.log(split), np.log(t), TOL.quadrature_rel)
    return float(ball + p.lam * total)


# --- parameter SDE integration ----------------------------------------------

def width_rate_scale(p: MechanicalParams, a0: complex, unraveling: str) -> float:
    """Characteristic relaxation rate |rate| of the width ODE (s^-1)."""
    if unraveling == LINEAR and p.omega == 0.0:
        return 2.0 * p.hbar * abs(a0) / p.mass
    return abs(spread_constants(p, a0, unraveling).rate)


def _width_path(a0: complex, p: MechanicalParams, unraveling: str, dt: float,
                n_steps: int) -> np.ndarray:
    """The n_steps + 1 values of the Euler path a -> a + (c - q a^2) dt of the width."""
    lam_eff = p.lam if unraveling == NONLINEAR else 0.0
    c, q = complex(lam_eff, 0.5 * p.mass * p.omega ** 2 / p.hbar), 2j * p.hbar / p.mass
    out = np.empty(n_steps + 1, dtype=complex)
    a = complex(a0)
    out[0] = a
    for k in range(n_steps):
        a = a + (c - q * a * a) * dt
        out[k + 1] = a
    return out


def _centroid_step(x, k, a, dW, p: MechanicalParams, unraveling: str, dt: float):
    """One Euler step of (centroid, wavenumber) at pre-step width ``a``.

    ``x``, ``k`` and ``dW`` are scalars or arrays of one shape; the
    phase-noise member does not read ``a``.
    """
    m, hb = p.mass, p.hbar
    sq = math.sqrt(p.lam)
    k_drift = k - m * p.omega ** 2 * x / hb * dt
    if unraveling == NONLINEAR:
        return (x + hb * k / m * dt + sq / (2.0 * a.real) * dW,
                k_drift - sq * (a.imag / a.real) * dW)
    return x + hb * k / m * dt, k_drift - sq * dW


def gaussian_sde_step(g: GaussianState, p: MechanicalParams, unraveling: str,
                      dW: float, dt: float) -> GaussianState:
    """One Euler-Maruyama step of the (width, centroid, wavenumber) system."""
    _require_member(unraveling)
    a = complex(g.width)
    a_new = complex(_width_path(a, p, unraveling, dt, 1)[1])
    if not (a_new.real > 0.0):
        raise FloatingPointError("width lost positivity; reduce dt")
    x_new, k_new = _centroid_step(g.centroid, g.wavenumber, a, dW, p, unraveling, dt)
    return GaussianState(width=a_new, centroid=float(x_new), wavenumber=float(k_new))


def simulate_width(p: MechanicalParams, a0: complex, unraveling: str,
                   dt: float, n_steps: int) -> np.ndarray:
    """Euler path of the deterministic width ODE, all n_steps + 1 values.

    Guards the step against the width relaxation rate (dt * |rate| must stay
    inside the stability budget).
    """
    _require_member(unraveling)
    rate = width_rate_scale(p, a0, unraveling)
    if rate > 0.0 and dt * rate > TOL.stability_budget:
        raise ValueError(f"dt = {dt:.3e} violates the stability budget for the "
                         f"width rate {rate:.3e} s^-1; "
                         f"use dt <= {TOL.stability_budget / rate:.3e}")
    out = _width_path(a0, p, unraveling, dt, n_steps)
    if not (out[-1].real > 0.0) or not np.isfinite(out[-1].real):
        raise FloatingPointError("width path lost positivity or diverged; reduce dt")
    return out


def centroid_ensemble(p: MechanicalParams, a0: complex, unraveling: str,
                      x0: float, k0: float, dt: float, n_steps: int,
                      n_traj: int, base_seed: int,
                      snapshot_steps=None):
    """Centroids and wavenumbers of n_traj Euler trajectories (width path shared).

    The width is deterministic and common to every member of the ensemble;
    only (centroid, wavenumber) are stochastic.  Trajectory k is driven by
    ``wiener_path(derive_seed(base_seed, k), dt, n_steps)``.  Returns
    ``(centroids, wavenumbers)``: the final values as (n_traj,) arrays, or
    (n_snapshots, n_traj) arrays when snapshot step indices are given.
    """
    _require_member(unraveling)
    if unraveling == NONLINEAR:
        widths = simulate_width(p, a0, unraveling, dt, n_steps)
    dWs = np.empty((n_traj, n_steps))
    for k in range(n_traj):
        dWs[k] = noise_mod.wiener_path(noise_mod.derive_seed(base_seed, k), dt,
                                       n_steps).increments
    snaps = {s: i for i, s in enumerate(_checked_snapshots(snapshot_steps, n_steps))}
    out_x, out_k = np.empty((2, len(snaps), n_traj))
    x = np.full(n_traj, float(x0))
    kk = np.full(n_traj, float(k0))
    for j in range(n_steps + 1):
        if j in snaps:
            out_x[snaps[j]], out_k[snaps[j]] = x, kk
        if j < n_steps:
            a = widths[j] if unraveling == NONLINEAR else None
            x, kk = _centroid_step(x, kk, a, dWs[:, j], p, unraveling, dt)
    return (out_x[0], out_k[0]) if snapshot_steps is None else (out_x, out_k)


# --- covariance matrices and the Riccati flow --------------------------------

@dataclass(frozen=True)
class RiccatiMatrices:
    drift: np.ndarray        # A
    diffusion: np.ndarray    # B (enters as S B B^T S)
    backaction: np.ndarray   # D

    def rhs(self, sigma: np.ndarray) -> np.ndarray:
        a, b, d = self.drift, self.diffusion, self.backaction
        return a @ sigma + sigma @ a.T + d - sigma @ b @ b.T @ sigma


def riccati_matrices(p: MechanicalParams, which: str) -> RiccatiMatrices:
    """(drift, diffusion, backaction) triple for a covariance flow.

    which = 'nonlinear' : conditional covariance of the collapsing member;
            'linear'    : conditional covariance of the phase-noise member;
            'variance'  : density-matrix covariance (member-independent).
    """
    a = np.array([[0.0, 1.0 / p.mass], [-p.mass * p.omega ** 2, 0.0]])
    b = np.zeros((2, 2))
    d = np.zeros((2, 2))
    if which == "nonlinear":
        b[0, 1] = 2.0 * np.sqrt(p.lam)
        d[1, 1] = p.lam * p.hbar ** 2
    elif which == "variance":
        d[1, 1] = p.lam * p.hbar ** 2
    elif which != "linear":
        raise ValueError(f"which must be 'nonlinear', 'linear' or 'variance', got {which!r}")
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
                                  unraveling: str) -> np.ndarray:
    """Closed-form conditional covariance matrices on a time grid."""
    return covariance_from_width(width_at(np.asarray(ts, dtype=float), p, a0, unraveling),
                                 p.hbar)


def variance_covariance_series(ts, p: MechanicalParams, a0: complex) -> np.ndarray:
    """Density-matrix covariance matrices: unitary part plus noise integrals."""
    ts = np.asarray(ts, dtype=float)
    base = conditional_covariance_series(ts, p, a0, LINEAR)
    lam, hb, m, om = p.lam, p.hbar, p.mass, p.omega
    add = np.zeros(ts.shape + (2, 2))
    if om == 0.0:
        add[..., 0, 0] = lam * hb ** 2 * ts ** 3 / (3.0 * m ** 2)
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
    out = np.empty(s.shape[0] - 2)
    for k in range(out.size):
        out[k] = np.max(np.abs(fd[k] - mats.rhs(s[k + 1])))
    return out
