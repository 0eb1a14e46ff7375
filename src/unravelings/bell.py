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
Criterion 10 and the ``bell`` scenario check both evaluate
:func:`bell_gates` on the JSON payload of :func:`bell_report`.
"""

from dataclasses import dataclass

import numpy as np

from .engine import UnravelingParams, mc_tolerance, simulate_ensemble
from .linalg import KET_DOWN, KET_UP, density_from_ensemble, pauli, tensor
from .spin import SpinParams, collapse_bound, sigma_z_mean, sigma_z_spread, spin_model


def singlet() -> np.ndarray:
    """(|up down> - |down up>) / sqrt(2) on the 2x2 product basis."""
    return (tensor(KET_UP, KET_DOWN) - tensor(KET_DOWN, KET_UP)) / np.sqrt(2.0)


@dataclass(frozen=True)
class BellOutcome:
    basis: str
    bob_states: list                  # [(state, probability), ...]
    bob_rho: np.ndarray
    mean_sigma: float                 # ensemble mean of the sigma_z spread


def alice_measures(basis: str) -> BellOutcome:
    """Bob's exact two-outcome post-measurement ensemble for Alice's basis choice."""
    if basis == "z":
        states = [KET_UP.copy(), KET_DOWN.copy()]
    elif basis == "x":
        states = [(KET_UP + KET_DOWN) / np.sqrt(2.0), (KET_UP - KET_DOWN) / np.sqrt(2.0)]
    else:
        raise ValueError(f"basis must be 'z' or 'x', got {basis!r}")
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
    gap_floor: float                  # least final gap the two members must show
    mc_rho_tolerance: float           # mc_tolerance(n_traj)


_PLUS_X = (KET_UP + KET_DOWN) / np.sqrt(2.0)


def dynamical_gap(sp: SpinParams = SpinParams(), psi0: np.ndarray = _PLUS_X, *,
                  t_final: float, dt: float, n_traj: int, base_seed: int,
                  n_snapshots: int = 6) -> DynamicalGap:
    """Evolve Bob's qubit from ``psi0`` (default |up_x>) under both members and compare.

    From |up_x> the collapsing member (xi = 1) destroys the sigma_z spread
    while the phase-noise member (xi = -i) keeps it at 1; the two ensemble
    density matrices agree within Monte Carlo resolution at every snapshot.

    ``gap_floor`` is the final gap any ``psi0`` must show.  With
    s0 = 1 - <sigma_z>_0^2, the phase-noise spread stays at s0 (sigma_z
    commutes with H and L), and the mean collapse spread at time T lies
    below ``collapse_bound(s0, lam, T)``; the floor is their difference less
    ``mc_tolerance(n_traj)``, five standard errors of a mean of spreads in
    [0, 1].  It is 0.786 from |up_x> at lam T = 1.5 and N = 5000, and
    below zero from an eigenstate of sigma_z, where both spreads vanish.
    """
    model = spin_model(sp)
    n_steps = int(round(t_final / dt))
    snaps = np.linspace(0, n_steps, n_snapshots).astype(int)
    rc, rp = (simulate_ensemble(model, u, psi0, dt, n_steps, n_traj, seed,
                                snapshot_steps=snaps, tracked_observables={"sz": pauli("z")})
              for u, seed in ((UnravelingParams.nonlinear(sp.lam), base_seed),
                              (UnravelingParams.linear(sp.lam), base_seed + 1)))
    spread_c = sigma_z_spread(rc.means["sz"]).mean(axis=1)
    spread_p = sigma_z_spread(rp.means["sz"]).mean(axis=1)
    rho_dist = np.max(np.abs(rc.rhos - rp.rhos), axis=(1, 2))
    s0 = float(sigma_z_spread(sigma_z_mean(psi0)))
    floor = s0 - float(collapse_bound(s0, sp.lam, rc.times[-1])) - mc_tolerance(n_traj)
    return DynamicalGap(times=rc.times, mean_spread_collapse=spread_c,
                        mean_spread_phase=spread_p, rho_distance=rho_dist,
                        spread_gap_final=float(abs(spread_p[-1] - spread_c[-1])),
                        gap_floor=floor, mc_rho_tolerance=mc_tolerance(n_traj))


def bell_report(sp: SpinParams = SpinParams(), psi0: np.ndarray = _PLUS_X, *,
                t_final: float, dt: float, n_traj: int, base_seed: int) -> dict:
    """The exact ensembles and the dynamical analogue as a JSON payload."""
    out_z, out_x = alice_measures("z"), alice_measures("x")
    rho_d, sig_gap = signaling_gap(out_z, out_x)
    dyn = dynamical_gap(sp, psi0, t_final=t_final, dt=dt, n_traj=n_traj, base_seed=base_seed)
    return {"analytic": {"rho_distance": rho_d, "sigma_gap": sig_gap,
                         "mean_sigma_z_basis": out_z.mean_sigma,
                         "mean_sigma_x_basis": out_x.mean_sigma},
            "dynamical": {k: v.tolist() if isinstance(v, np.ndarray) else v
                          for k, v in vars(dyn).items()}}


def bell_gates(report: dict) -> list:
    """(name, passed, observed, expected) of each gate on a :func:`bell_report` payload."""
    ana, dyn = report["analytic"], report["dynamical"]
    rho_worst, rho_tol = max(dyn["rho_distance"]), dyn["mc_rho_tolerance"]
    gap, floor = dyn["spread_gap_final"], dyn["gap_floor"]
    return [("observer marginals identical across bases", ana["rho_distance"] <= 1e-15,
             f"max-norm {ana['rho_distance']:.2e}", "<= 1e-15"),
            ("spread-mean gap between bases", ana["sigma_gap"] == 1.0,
             f"{ana['sigma_gap']}", "= 1.0"),
            ("dynamical marginals agree within Monte Carlo error", rho_worst <= rho_tol,
             f"max {rho_worst:.4f}", f"<= {rho_tol:.4f}"),
            ("dynamical spread gap", gap > floor, f"{gap:.4f}", f"> {floor:.4f}")]
