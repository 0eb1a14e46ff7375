"""Two-observer demonstration that conditional spreads are not signals.

Alice and Bob share singlet pairs.  Alice's basis choice (z or x) steers
Bob's marginal into two different pure-state ensembles:

    z basis: {|up_z>, |down_z>}              each with probability 1/2
    x basis: {(|up>+|down>)/sqrt2, (|up>-|down>)/sqrt2}  each 1/2

Both ensembles average to the maximally mixed state, so nothing Bob can
measure on his side distinguishes them; but the ensemble-mean conditional
spread of sigma_z is 0 in the first case and 1 in the second.  The same
signature appears dynamically: evolving Bob's qubit with the collapsing
member drives the spread to zero, while the phase-noise member freezes it,
with the two ensemble density matrices staying equal throughout.
"""

from dataclasses import dataclass

import numpy as np

from .engine import UnravelingParams, simulate_ensemble
from .linalg import KET_DOWN, KET_UP, density_from_ensemble, pauli, tensor
from .spin import SpinParams, sigma_z_spread, spin_model


def singlet() -> np.ndarray:
    """(|up down> - |down up>) / sqrt(2) on the 2x2 product basis."""
    return (tensor(KET_UP, KET_DOWN) - tensor(KET_DOWN, KET_UP)) / np.sqrt(2.0)


@dataclass(frozen=True)
class BellOutcome:
    basis: str
    bob_states: list                  # [(state, probability), ...]
    bob_rho: np.ndarray
    mean_sigma: float                 # ensemble mean of the sigma_z spread


def alice_measures(basis: str, n_samples: int = 0, seed: int = 0) -> BellOutcome:
    """Bob's post-measurement ensemble for Alice's basis choice.

    The default is the exact two-outcome ensemble; with ``n_samples`` > 0 the
    ensemble is sampled (pedagogical mode) and the weights become empirical
    frequencies.
    """
    if basis == "z":
        states = [KET_UP.copy(), KET_DOWN.copy()]
    elif basis == "x":
        states = [(KET_UP + KET_DOWN) / np.sqrt(2.0), (KET_UP - KET_DOWN) / np.sqrt(2.0)]
    else:
        raise ValueError(f"basis must be 'z' or 'x', got {basis!r}")
    if n_samples > 0:
        rng = np.random.default_rng(seed)
        n_first = int(rng.binomial(n_samples, 0.5))
        probs = [n_first / n_samples, 1.0 - n_first / n_samples]
    else:
        probs = [0.5, 0.5]
    rho = density_from_ensemble(states, probs)
    sz = pauli("z")
    spread = sum(p * (1.0 - float(np.vdot(s, sz @ s).real) ** 2)
                 for s, p in zip(states, probs))
    return BellOutcome(basis=basis, bob_states=list(zip(states, probs)),
                       bob_rho=rho, mean_sigma=float(spread))


def signaling_gap(outcome_a: BellOutcome, outcome_b: BellOutcome):
    """(max-norm distance of Bob's density matrices, spread-mean gap).

    The first number is what Bob could actually detect (zero); the second is
    the unraveling-dependent quantity that is not operationally his.
    """
    rho_distance = float(np.max(np.abs(outcome_a.bob_rho - outcome_b.bob_rho)))
    sigma_gap = float(abs(outcome_a.mean_sigma - outcome_b.mean_sigma))
    return rho_distance, sigma_gap


@dataclass(frozen=True)
class DynamicalGap:
    times: np.ndarray
    mean_spread_collapse: np.ndarray
    mean_spread_phase: np.ndarray
    rho_distance: np.ndarray          # max-norm ensemble rho difference per time
    spread_gap_final: float
    mc_rho_tolerance: float           # 5 / sqrt(n_traj)


def dynamical_gap(lam: float = 1.0, t_final: float = 1.5, dt: float = 1e-3,
                  n_traj: int = 5000, base_seed: int = 2024,
                  n_snapshots: int = 6) -> DynamicalGap:
    """Evolve Bob's qubit from |up_x> under both members and compare.

    The collapsing member (xi = 1) destroys the sigma_z spread while the
    phase-noise member (xi = -i) keeps it at 1; the two ensemble density
    matrices agree within Monte Carlo resolution at every snapshot.
    """
    sp = SpinParams(nu=1.0, lam=lam)
    model = spin_model(sp)
    psi0 = (KET_UP + KET_DOWN) / np.sqrt(2.0)
    n_steps = int(round(t_final / dt))
    snaps = np.linspace(0, n_steps, n_snapshots).astype(int)
    sz = pauli("z")
    results = {}
    for tag, u in (("collapse", UnravelingParams.nonlinear(lam)),
                   ("phase", UnravelingParams.linear(lam))):
        results[tag] = simulate_ensemble(model, u, psi0, dt, n_steps, n_traj,
                                         base_seed if tag == "collapse" else base_seed + 1,
                                         snapshot_steps=snaps,
                                         tracked_observables={"sz": sz})
    rc, rp = results["collapse"], results["phase"]
    spread_c = sigma_z_spread(rc.means["sz"]).mean(axis=1)
    spread_p = sigma_z_spread(rp.means["sz"]).mean(axis=1)
    rho_dist = np.array([np.max(np.abs(a - b)) for a, b in zip(rc.rhos, rp.rhos)])
    return DynamicalGap(times=rc.times, mean_spread_collapse=spread_c,
                        mean_spread_phase=spread_p, rho_distance=rho_dist,
                        spread_gap_final=float(abs(spread_p[-1] - spread_c[-1])),
                        mc_rho_tolerance=float(5.0 / np.sqrt(n_traj)))
