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
:func:`alice_measures` gives Bob's exact density matrix and mean spread for
each basis, and :func:`dynamical_gap` the dynamical analogue as a JSON-ready
dict; :func:`bell_report` joins them into one payload, which criterion 10
and the ``bell`` scenario check both read through :func:`bell_gates`.
"""

import numpy as np

from .engine import UnravelingParams, mc_tolerance, simulate_ensemble
from .linalg import KET_DOWN, KET_UP, projector
from .spin import SIGMA_Z, SpinParams, collapse_bound, sigma_z_mean, sigma_z_spread, spin_model


def alice_measures(basis: str) -> tuple:
    """Bob's density matrix and mean sigma_z spread ``(rho, mean_spread)`` for Alice's basis."""
    if basis == "z":
        s1, s2 = KET_UP, KET_DOWN
    elif basis == "x":
        s1, s2 = (KET_UP + KET_DOWN) / np.sqrt(2.0), (KET_UP - KET_DOWN) / np.sqrt(2.0)
    else:
        raise ValueError(f"basis must be 'z' or 'x', got {basis!r}")
    rho = 0.5 * projector(s1) + 0.5 * projector(s2)
    return rho, float(0.5 * sigma_z_spread(sigma_z_mean(s1))
                      + 0.5 * sigma_z_spread(sigma_z_mean(s2)))


_PLUS_X = (KET_UP + KET_DOWN) / np.sqrt(2.0)


def dynamical_gap(sp: SpinParams = SpinParams(), psi0: np.ndarray = _PLUS_X, *,
                  t_final: float, dt: float, n_traj: int, base_seed: int,
                  n_snapshots: int = 6) -> dict:
    """Evolve Bob's qubit from ``psi0`` (default |up_x>) under both members and compare.

    From |up_x> the collapsing member (xi = 1) destroys the sigma_z spread
    while the phase-noise member (xi = -i) keeps it at 1; the two ensemble
    density matrices agree within Monte Carlo resolution at every snapshot.

    Returns the JSON-ready dict :func:`bell_report` embeds: the snapshot
    ``times``, both members' mean spreads, the max-norm ``rho_distance`` of
    their ensemble density matrices per snapshot, ``spread_gap_final``,
    ``gap_floor`` and ``mc_rho_tolerance`` (``mc_tolerance(n_traj)``).

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
                                snapshot_steps=snaps, tracked_observables={"sz": SIGMA_Z})
              for u, seed in ((UnravelingParams.nonlinear(sp.lam), base_seed),
                              (UnravelingParams.linear(sp.lam), base_seed + 1)))
    spread_c = sigma_z_spread(rc.means["sz"]).mean(axis=1)
    spread_p = sigma_z_spread(rp.means["sz"]).mean(axis=1)
    s0 = float(sigma_z_spread(sigma_z_mean(psi0)))
    return {"times": rc.times.tolist(), "mean_spread_collapse": spread_c.tolist(),
            "mean_spread_phase": spread_p.tolist(),
            "rho_distance": np.max(np.abs(rc.rhos - rp.rhos), axis=(1, 2)).tolist(),
            "spread_gap_final": float(abs(spread_p[-1] - spread_c[-1])),
            "gap_floor": (s0 - float(collapse_bound(s0, sp.lam, rc.times[-1]))
                          - mc_tolerance(n_traj)),
            "mc_rho_tolerance": mc_tolerance(n_traj)}


def bell_report(sp: SpinParams = SpinParams(), psi0: np.ndarray = _PLUS_X, *,
                t_final: float, dt: float, n_traj: int, base_seed: int) -> dict:
    """The exact ensembles and the dynamical analogue as a JSON payload.

    Of the two analytic numbers, ``rho_distance`` (the max-norm distance of
    Bob's density matrices for the two bases) is what Bob could actually
    detect, and it is zero; ``sigma_gap`` (the gap of the spread means) is
    the unraveling-dependent quantity that is not operationally his.
    """
    (rho_z, spread_z), (rho_x, spread_x) = alice_measures("z"), alice_measures("x")
    return {"analytic": {"rho_distance": float(np.max(np.abs(rho_z - rho_x))),
                         "sigma_gap": abs(spread_z - spread_x),
                         "mean_sigma_z_basis": spread_z, "mean_sigma_x_basis": spread_x},
            "dynamical": dynamical_gap(sp, psi0, t_final=t_final, dt=dt, n_traj=n_traj,
                                       base_seed=base_seed)}


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
