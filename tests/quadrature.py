"""Oracles of the Gaussian closed forms, for the tests.

Nothing in the library reads them.  ``mean_square_x`` integrates the Ito
isometry over the closed-form width history by adaptive quadrature, where
``gaussian.mean_square_x`` takes the closed form of the law of total
variance.  ``variance_covariance_series`` adds the noise integrals to the
phase-noise member's covariance, which reads its width, where the library
flows the initial covariance.  Each pair agrees only if both are right.
"""

import numpy as np

from unravelings.gaussian import (MechanicalParams, _ballistic_mean, _checked_width, _checked_xi,
                                  conditional_covariance_series, conditional_spread_x, variance_x,
                                  width_at)

QUADRATURE_REL = 1e-8       # relative tolerance the oracle is run at by default
TOTAL_VARIANCE_RTOL = 10.0 * QUADRATURE_REL   # slack of the total-variance gate, of var
_MAX_PENDING = 4096         # intervals one integral may have pending at one level


class QuadratureError(RuntimeError):
    """Adaptive quadrature failed to reach the requested tolerance."""


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


def _response_integrals(ts: np.ndarray, p: MechanicalParams, a0: complex,
                        xi: complex, rel_tol: float) -> np.ndarray:
    """``int_0^t g^2 ds`` of :func:`mean_square_x` at each time t > 0 of ``ts``, in one quadrature."""
    m, hb, om = p.mass, p.hbar, p.omega
    n = ts.size
    rate = p.lam * xi.real ** 2
    if rate == 0.0:                   # the width does not relax: no boundary layer
        lo, hi = np.zeros(n), ts
    else:
        layer = a0.real / rate            # width-relaxation time scale
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
        a = width_at(s, p, a0, xi)
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

    return _adaptive_simpson(integrand, lo, hi, rel_tol).reshape(-1, n).sum(axis=0)


def mean_square_x(t, p: MechanicalParams, a0: complex, x0: float, k0: float, xi: complex,
                  rel_tol: float = QUADRATURE_REL):
    """Noise average of <x>_t^2: ballistic term plus an Ito-isometry integral; scalar or array t.

    The integral ``lam int_0^t g^2 ds`` runs the closed-form width history through the
    response ``g = xi_r / (2 Re a) Phi_xx + (xi_i - xi_r Im a / Re a) Phi_xk`` (Phi_xx =
    cos w(t - s), Phi_xk = hbar sin w(t - s) / m w; free: 1, hbar (t - s) / m), by adaptive
    Simpson quadrature at relative tolerance ``rel_tol``.  The width relaxes on
    the scale Re(a0) / (lam xi_r^2), which can be many orders shorter than t; the
    integral is then split there and the outer part taken in log-time, so the early
    boundary layer is always resolved.  The integrals of every time run through one
    quadrature, which evaluates the width on arrays, one call per refinement level.
    A scalar t gives a float.
    """
    xi = _checked_xi(xi)
    a0 = _checked_width(a0)
    t = np.asarray(t, dtype=float)
    out = np.atleast_1d(_ballistic_mean(t, p, x0, k0) ** 2)
    pos = np.flatnonzero(np.atleast_1d(t) > 0.0)
    if p.lam > 0.0 and pos.size:
        out[pos] += p.lam * _response_integrals(np.atleast_1d(t)[pos], p, a0, xi, rel_tol)
    return float(out[0]) if t.ndim == 0 else out.reshape(t.shape)


def total_variance_deviation(t, mean_x2, p: MechanicalParams, a0: complex, x0: float,
                             k0: float, xi: complex) -> float:
    """Largest |mean_x2 - ballistic^2 - (var - spread)| / var over the times ``t``.

    By the law of total variance, Var(<x>_t) = variance_x - conditional_spread_x for
    every member, so a series ``mean_x2`` of E[<x>_t^2] (the quadrature above) keeps
    this within TOTAL_VARIANCE_RTOL at every t.
    """
    t = np.asarray(t, dtype=float)
    var = variance_x(t, p, a0)
    gap = (np.asarray(mean_x2, dtype=float) - _ballistic_mean(t, p, x0, k0) ** 2
           - (var - conditional_spread_x(t, p, a0, xi)))
    return float(np.max(np.abs(gap) / var))


def variance_covariance_series(ts, p: MechanicalParams, a0: complex) -> np.ndarray:
    """Density-matrix covariances: the phase-noise member's conditional covariance
    (through :func:`width_at` at xi = -i) plus lam hbar^2 times the noise integrals,
    written out for the free and the trapped particle."""
    ts = np.asarray(ts, dtype=float)
    m, om = p.mass, p.omega
    add = np.empty(ts.shape + (2, 2))
    if om == 0.0:
        add[..., 0, 0] = ts ** 3 / (3.0 * m ** 2)
        add[..., 0, 1] = add[..., 1, 0] = ts ** 2 / (2.0 * m)
        add[..., 1, 1] = ts
    else:
        u = om * ts
        add[..., 0, 0] = (ts - np.sin(2.0 * u) / (2.0 * om)) / (2.0 * (m * om) ** 2)
        add[..., 0, 1] = add[..., 1, 0] = np.sin(u) ** 2 / (2.0 * m * om ** 2)
        add[..., 1, 1] = 0.5 * ts + np.sin(2.0 * u) / (4.0 * om)
    return conditional_covariance_series(ts, p, a0, -1j) + p.lam * p.hbar ** 2 * add
