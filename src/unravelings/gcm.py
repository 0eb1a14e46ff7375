"""Gaussian measurement operators generating the unraveling family.

Every family member with xi_r > 0 can be read as a repeated generalized
Gaussian measurement of the coupling operator ``L``: in each window dt the
detector returns

    dy = xi_r <L> dt + dW / (2 sqrt(gamma)),

and the state is updated (up to normalization) with the operator

    A(dy) = N * exp( -(gamma/dt) * (record_scale * dy - operator_scale * L * dt)^2 ).

Matching the expansion of the normalized A(dy)|psi> to the family's state
equation fixes the two complex gains, given the record's signal gain xi_r
and noise gain 1:

    operator_scale : Re d = sqrt(xi_r^2/2 + sqrt((xi_i xi_r)^2 + xi_r^4)/2),
                     Im d = xi_r xi_i / (2 Re d)
    record_scale   : c = xi / d

which satisfy  c d xi_r = xi xi_r,  c d = xi,  Im(d^2 - xi^2/2) = 0  and
|xi|^2 = 2 Re(d^2 - xi^2/2).

N is the POVM normalization: int A^dag A dy = identity, so the outcome
density tr[A^dag A rho] has mass 1 and first moment xi_r <L> dt, as the
record equation above requires.  Normalizing the first moment to <L> dt
instead would give outcome mass 1/xi_r, which is no measurement when
xi_r < 1.

The xi_r = 0 member admits no measurement reading and is rejected.
"""

from dataclasses import dataclass

import numpy as np

from .linalg import is_hermitian
from .tolerances import TOL

_GRID_POINTS = 10_001    # outcome quadrature nodes
_GRID_WIDTHS = 8.0       # kernel standard deviations beyond the outer centers


@dataclass(frozen=True)
class GcmParams:
    record_scale: complex     # c, multiplies dy in the exponent
    operator_scale: complex   # d, multiplies L dt in the exponent
    xi: complex
    gamma: float

    def identity_defects(self) -> dict:
        """Residuals of the defining gain identities (all ~0 for valid params)."""
        c, d, xr = self.record_scale, self.operator_scale, self.xi.real
        beta = d * d * (1.0 - 0.5 * c * c)
        return {
            "alpha": abs(c * d * xr - self.xi * xr),
            "epsilon": abs(c * d - self.xi),
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
    gp = GcmParams(record_scale=c, operator_scale=d, xi=xi, gamma=float(gamma))
    worst = max(gp.identity_defects().values())
    if worst > 1e-10:
        raise AssertionError(f"gain identities violated by {worst:.3e}")
    return gp


def _eigs(L: np.ndarray):
    if not is_hermitian(L):
        raise ValueError("coupling operator must be Hermitian")
    return np.linalg.eigh(L)


def _amplitudes(evals: np.ndarray, gp: GcmParams, dys: np.ndarray, dt: float) -> np.ndarray:
    """A(dy) eigen-amplitudes, shape (n_outcomes, n_eigenvalues), normalized by N."""
    c, d = gp.record_scale, gp.operator_scale
    c2 = c.real ** 2 - c.imag ** 2
    proj = c.real * d.real - c.imag * d.imag
    if c2 <= 0.0 or proj <= 0.0:
        raise ValueError("gains do not define a normalizable outcome kernel")
    n = np.sqrt(float(np.sqrt(2.0 * gp.gamma / (np.pi * dt)) * c2 ** 1.5 / proj * gp.xi.real))
    arg = gp.record_scale * dys[:, None] - gp.operator_scale * evals[None, :] * dt
    return n * np.exp(-(gp.gamma / dt) * arg * arg)


def kraus_apply(states: np.ndarray, L: np.ndarray, gp: GcmParams, dys, dt: float):
    """Un-normalized posteriors A(dy)|psi> and their outcome weights ||A psi||^2.

    ``states`` is (dim, N) columns with N outcomes ``dys``, one per column;
    L is diagonalized once per call.
    """
    if dt <= 0.0:
        raise ValueError("dt must be positive")
    states = np.asarray(states, dtype=complex)
    dys = np.asarray(dys, dtype=float)
    if states.ndim != 2 or dys.shape != states.shape[1:]:
        raise ValueError(f"states {states.shape} must be (dim, N) columns, one per outcome")
    evals, V = _eigs(L)
    out = V @ (_amplitudes(evals, gp, dys, dt).T * (V.conj().T @ states))
    return out, np.sum(out.real ** 2 + out.imag ** 2, axis=0)


def outcome_grid(L: np.ndarray, gp: GcmParams, dt: float) -> np.ndarray:
    """Uniform dy grid covering every eigenvalue's outcome kernel.

    The kernel around eigenvalue ell is a Gaussian centered at
    xi_r * ell * dt with standard deviation sqrt(dt) / (2 sqrt(gamma));
    8 of them beyond the outer centers bound the truncated mass below
    1e-14 of the total.
    """
    evals, _ = _eigs(L)
    centers = gp.xi.real * evals * dt
    sd = np.sqrt(dt) / (2.0 * np.sqrt(gp.gamma))
    return np.linspace(centers.min() - _GRID_WIDTHS * sd, centers.max() + _GRID_WIDTHS * sd,
                       _GRID_POINTS)


def povm_completeness(L: np.ndarray, gp: GcmParams, dt: float) -> np.ndarray:
    """Quadrature of int A^dag(y) A(y) dy (the identity, up to quadrature error)."""
    evals, V = _eigs(L)
    grid = outcome_grid(L, gp, dt)
    amps = _amplitudes(evals, gp, grid, dt)
    dy = grid[1] - grid[0]
    masses = np.sum(np.abs(amps) ** 2, axis=0) * dy
    return (V * masses) @ V.conj().T


def channel_apply(rho: np.ndarray, L: np.ndarray, gp: GcmParams, dt: float) -> np.ndarray:
    """Outcome-averaged channel int A(y) rho A^dag(y) dy by quadrature.

    It is trace preserving and reproduces one measurement-only
    master-equation step up to O(dt^2): rho -> rho - (gamma/2) [L, [L, rho]] dt.
    """
    evals, V = _eigs(L)
    grid = outcome_grid(L, gp, dt)
    amps = _amplitudes(evals, gp, grid, dt)
    dy = grid[1] - grid[0]
    kernel = (amps.T @ amps.conj()) * dy        # K_ij = int amp_i conj(amp_j) dy
    rho_eig = V.conj().T @ np.asarray(rho, dtype=complex) @ V
    return V @ (kernel * rho_eig) @ V.conj().T
