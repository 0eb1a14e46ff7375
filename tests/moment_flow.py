"""The Ito moment-flow residual of a lock-step state stack, for the tests.

Nothing in the library reads it: it checks the Euler chain of
``engine._state_stack`` against the Ito flow of a conditional mean.
"""

import numpy as np

from unravelings.engine import ModelSpec, UnravelingParams, lindblad_rhs


def conditional_moment_flow_residual(states: np.ndarray, dW: np.ndarray,
                                     observable: np.ndarray, model: ModelSpec,
                                     u: UnravelingParams, dt: float, power: int) -> np.ndarray:
    """Per-step residual of the Ito flow of <O> (power 1) or <O>^2 (power 2).

    For the (n + 1, dim, N) ``states`` of :func:`_state_stack` and their (N, n)
    ``dW``, the finite difference of each conditional-mean series is compared
    with the Ito right-hand side on the pre-step state and increment: (N, n).
    For an exact-in-law chain the RMS residual is O(dt).  The drift of <O>
    is tr(O drho/dt) of :func:`lindblad_rhs` at each state.
    """
    if power not in (1, 2):
        raise ValueError("power must be 1 or 2")
    if states.shape[0] < 2:
        raise ValueError("trajectory must store at least two states")
    O, L = observable, model.L
    conj = states.conj()

    def expect(op):                       # <psi|op|psi> of every stored state, (n + 1, N)
        return np.einsum("kin,ij,kjn->kn", conj, op, states)

    m, ell = expect(O).real, expect(L).real
    flow = lindblad_rhs(np.einsum("kin,kjn->knij", states, conj), model, u.lam)
    drift = np.einsum("ij,knji->kn", O, flow).real
    gain = (u.xi_r * (expect(O @ L + L @ O).real - 2.0 * m * ell)
            + (1j * u.xi_i * expect(O @ L - L @ O)).real)

    drift, gain, m0, dW = drift[:-1], gain[:-1], m[:-1], dW.T
    if power == 1:
        rhs = drift * dt + np.sqrt(u.lam) * gain * dW
        fd = np.diff(m, axis=0)
    else:
        rhs = (2.0 * m0 * drift * dt + u.lam * gain ** 2 * dt
               + 2.0 * m0 * np.sqrt(u.lam) * gain * dW)
        fd = np.diff(m ** 2, axis=0)
    return (fd - rhs).T
