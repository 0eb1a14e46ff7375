"""Gaussian measurement operators generating the unraveling family.

Every family member with xi_r > 0 can be read as a repeated generalized
Gaussian measurement of the coupling operator ``L``: in each window dt the
detector returns

    dy = xi_r <L> dt + dW / (2 sqrt(gamma)),

and the state is updated (up to normalization) with the operator

    A(dy) = N * exp( -(gamma/dt) * (record_scale * dy - operator_scale * L * dt)^2 ).

Matching the expansion of the normalized A(dy)|psi> to the family's state
equation fixes the four real/complex gains.  With the noise gain set to 1:

    operator_scale : Re d = sqrt(xi_r^2/2 + sqrt((xi_i xi_r)^2 + xi_r^4)/2),
                     Im d = xi_r xi_i / (2 Re d)
    signal_gain    : a = xi_r
    record_scale   : c = xi / d

which satisfy  c d a = xi xi_r,  c d = xi,  Im(d^2 - xi^2/2) = 0  and
|xi|^2 = 2 Re(d^2 - xi^2/2).

Two normalizations of N are carried side by side:

* ``record_mean``: the outcome integral of dy against tr[A^dag A rho] equals
  <L> dt (the convention the gain-solving derivation pins down).  Its total
  outcome mass is 1/xi_r, not 1, whenever xi_r < 1.
* ``povm``: mass-1 family, int A^dag A dy = identity; the first moment of the
  normalized outcome density is then xi_r <L> dt, consistent with the record
  equation above.  The two coincide at xi = 1.

The xi_r = 0 member admits no measurement reading and is rejected.
"""

from dataclasses import dataclass

import numpy as np

from .linalg import is_hermitian
from .tolerances import TOL

RECORD_MEAN = "record_mean"
POVM = "povm"
_NORMS = (RECORD_MEAN, POVM)


@dataclass(frozen=True)
class GcmParams:
    signal_gain: float        # a, multiplies <L> dt in the record
    noise_gain: float         # b, fixed to 1
    record_scale: complex     # c, multiplies dy in the exponent
    operator_scale: complex   # d, multiplies L dt in the exponent
    xi: complex
    gamma: float

    def identity_defects(self) -> dict:
        """Residuals of the defining gain identities (all ~0 for valid params)."""
        c, d, a, b = self.record_scale, self.operator_scale, self.signal_gain, self.noise_gain
        beta = d * d * (1.0 - 0.5 * c * c * b * b)
        return {
            "alpha": abs(c * d * a - self.xi * self.xi.real),
            "epsilon": abs(c * d * b - self.xi),
            "beta_imag": abs(beta.imag),
            "beta_real": abs(abs(self.xi) ** 2 - 2.0 * beta.real),
        }


def solve_gcm_params(xi: complex, gamma: float) -> GcmParams:
    """Solve the measurement-operator gains for a family member xi.

    Requires xi_r > 0 (with |xi| = 1); the purely imaginary member is a
    stochastic potential, not a measurement, and has no such operator.
    """
    xi = complex(xi)
    if abs(abs(xi) ** 2 - 1.0) > TOL.unit_modulus:
        raise ValueError(f"|xi|^2 = {abs(xi)**2:.15f} must equal 1")
    if xi.real <= 0.0:
        raise ValueError("xi_r must be strictly positive for a measurement reading")
    if gamma <= 0.0:
        raise ValueError("gamma must be positive")
    xr, xi_i = xi.real, xi.imag
    d_re = np.sqrt(0.5 * xr ** 2 + 0.5 * np.sqrt((xi_i * xr) ** 2 + xr ** 4))
    d_im = xr * xi_i / (2.0 * d_re)
    d = complex(d_re, d_im)
    mod2 = d_re ** 2 + d_im ** 2
    c = complex((xr * d_re + xi_i * d_im) / mod2, (xi_i * d_re - xr * d_im) / mod2)
    gp = GcmParams(signal_gain=xr, noise_gain=1.0, record_scale=c,
                   operator_scale=d, xi=xi, gamma=float(gamma))
    worst = max(gp.identity_defects().values())
    if worst > 1e-10:
        raise AssertionError(f"gain identities violated by {worst:.3e}")
    return gp


def norm_const_sq(gp: GcmParams, dt: float, normalization: str = RECORD_MEAN) -> float:
    """|N|^2 for the requested outcome-mass convention."""
    if normalization not in _NORMS:
        raise ValueError(f"normalization must be one of {_NORMS}")
    c, d = gp.record_scale, gp.operator_scale
    c2 = c.real ** 2 - c.imag ** 2
    proj = c.real * d.real - c.imag * d.imag
    if c2 <= 0.0 or proj <= 0.0:
        raise ValueError("gains do not define a normalizable outcome kernel")
    base = np.sqrt(2.0 * gp.gamma / (np.pi * dt)) * c2 ** 1.5 / proj
    if normalization == POVM:
        base *= gp.xi.real
    return float(base)


def _eigs(L: np.ndarray):
    if not is_hermitian(L):
        raise ValueError("coupling operator must be Hermitian")
    return np.linalg.eigh(L)


def _amplitudes(evals: np.ndarray, gp: GcmParams, dys: np.ndarray, dt: float,
                normalization: str) -> np.ndarray:
    """A(dy) eigen-amplitudes, shape (n_outcomes, n_eigenvalues)."""
    n = np.sqrt(norm_const_sq(gp, dt, normalization))
    arg = gp.record_scale * dys[:, None] - gp.operator_scale * evals[None, :] * dt
    return n * np.exp(-(gp.gamma / dt) * arg * arg)


def kraus_matrix(L: np.ndarray, gp: GcmParams, dy: float, dt: float,
                 normalization: str = RECORD_MEAN) -> np.ndarray:
    """The measurement operator A(dy) in the original basis."""
    evals, V = _eigs(L)
    amp = _amplitudes(evals, gp, np.array([float(dy)]), dt, normalization)[0]
    return (V * amp) @ V.conj().T


def kraus_apply(states: np.ndarray, L: np.ndarray, gp: GcmParams, dys, dt: float,
                normalization: str = RECORD_MEAN):
    """Un-normalized posteriors A(dy)|psi> and their outcome weights ||A psi||^2.

    ``states`` is one state (dim,) with a scalar outcome ``dys``, or (dim, N)
    columns with N outcomes, one per column; L is diagonalized once per call.
    """
    if dt <= 0.0:
        raise ValueError("dt must be positive")
    states = np.asarray(states, dtype=complex)
    evals, V = _eigs(L)
    amps = _amplitudes(evals, gp, np.atleast_1d(dys), dt, normalization)
    cols = states.reshape(states.shape[0], -1)
    out = (V @ (amps.T * (V.conj().T @ cols))).reshape(states.shape)
    return out, np.sum(out.real ** 2 + out.imag ** 2, axis=0)


def outcome_grid(L: np.ndarray, gp: GcmParams, dt: float,
                 n_points: int = 10_001, n_std: float = 8.0) -> np.ndarray:
    """Uniform dy grid covering every eigenvalue's outcome kernel.

    The kernel around eigenvalue ell is a Gaussian centered at
    xi_r * ell * dt with standard deviation sqrt(dt) / (2 sqrt(gamma));
    n_std = 8 bounds the truncated mass below 1e-14 of the total.
    """
    evals, _ = _eigs(L)
    centers = gp.xi.real * evals * dt
    sd = np.sqrt(dt) / (2.0 * np.sqrt(gp.gamma))
    return np.linspace(centers.min() - n_std * sd, centers.max() + n_std * sd, n_points)


def povm_completeness(L: np.ndarray, gp: GcmParams, dt: float,
                      grid: np.ndarray | None = None,
                      normalization: str = POVM) -> np.ndarray:
    """Quadrature of int A^dag(y) A(y) dy (identity for the povm convention)."""
    evals, V = _eigs(L)
    if grid is None:
        grid = outcome_grid(L, gp, dt)
    amps = _amplitudes(evals, gp, grid, dt, normalization)
    dy = grid[1] - grid[0]
    masses = np.sum(np.abs(amps) ** 2, axis=0) * dy
    return (V * masses) @ V.conj().T


def channel_apply(rho: np.ndarray, L: np.ndarray, gp: GcmParams, dt: float,
                  grid: np.ndarray | None = None,
                  normalization: str = POVM) -> np.ndarray:
    """Outcome-averaged channel int A(y) rho A^dag(y) dy by quadrature.

    With the povm convention this is trace preserving and reproduces one
    measurement-only master-equation step up to O(dt^2):
    rho -> rho - (gamma/2) [L, [L, rho]] dt.
    """
    evals, V = _eigs(L)
    if grid is None:
        grid = outcome_grid(L, gp, dt)
    amps = _amplitudes(evals, gp, grid, dt, normalization)
    dy = grid[1] - grid[0]
    kernel = (amps.T @ amps.conj()) * dy        # K_ij = int amp_i conj(amp_j) dy
    rho_eig = V.conj().T @ np.asarray(rho, dtype=complex) @ V
    return V @ (kernel * rho_eig) @ V.conj().T


@dataclass(frozen=True)
class RecordMeanStats:
    """First-moment diagnostics of the outcome density for one state."""

    mean: float               # int y <A^dag A> dy with the record_mean norm
    mass: float               # int <A^dag A> dy with the record_mean norm
    mean_normalized: float    # first moment of the mass-1 outcome density
    target_conditional: float  # <L> dt
    target_scaled: float       # xi_r <L> dt


def record_mean_check(state: np.ndarray, L: np.ndarray, gp: GcmParams, dt: float,
                      n_points: int = 10_001) -> RecordMeanStats:
    """Quadrature of the outcome first moment against its two analytic targets.

    The record_mean convention integrates to exactly <L> dt (its mass is
    1/xi_r); the mass-1 density has first moment xi_r <L> dt, matching the
    record equation.  Both are reported.
    """
    state = np.asarray(state, dtype=complex)
    evals, V = _eigs(L)
    w = np.abs(V.conj().T @ state) ** 2
    grid = outcome_grid(L, gp, dt, n_points=n_points)
    dy = grid[1] - grid[0]
    amps = _amplitudes(evals, gp, grid, dt, RECORD_MEAN)
    dens = (np.abs(amps) ** 2) @ w
    mean = float(np.sum(grid * dens) * dy)
    mass = float(np.sum(dens) * dy)
    ell = float(w @ evals)
    return RecordMeanStats(mean=mean, mass=mass,
                           mean_normalized=mean / mass,
                           target_conditional=ell * dt,
                           target_scaled=gp.xi.real * ell * dt)
