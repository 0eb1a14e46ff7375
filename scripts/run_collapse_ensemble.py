#!/usr/bin/env python3
"""Collapse-member spin ensemble: Born statistics and the spread bound.

Runs N trajectories of the collapsing member at lam*T = 10 from the tilted
state (1/2, sqrt(3)/2), then reports branch frequencies against the Born
weight 1/4 and the mean conditional spread against s0 / (1 + 4 lam s0 t).
"""

import argparse

import numpy as np

from unravelings.spin import (SpinParams, collapse_statistics, nonlinear_ensemble,
                              supermartingale_check)


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--n-traj", type=int, default=4000)
    ap.add_argument("--dt", type=float, default=2e-3)
    ap.add_argument("--t-final", type=float, default=10.0)
    ap.add_argument("--seed", type=int, default=202)
    args = ap.parse_args()

    sp = SpinParams(nu=1.0, lam=1.0)
    psi0 = np.array([0.5, np.sqrt(3.0) / 2.0], dtype=complex)
    n_steps = int(round(args.t_final / args.dt))
    snaps = np.unique(np.linspace(0, n_steps, 21).astype(int))
    res = nonlinear_ensemble(psi0, sp, args.dt, n_steps, args.n_traj, args.seed,
                             snapshot_steps=snaps)

    rep = collapse_statistics(res)
    print(f"N = {rep.n_total}, threshold |<sz>| > {rep.threshold}")
    print(f"up / down / unresolved  : {rep.n_up} / {rep.n_down} / {rep.n_unresolved}")
    print(f"fraction up             : {rep.fraction_up:.4f} "
          f"(Born weight {rep.born_p_up:.4f}, binomial SE {rep.binomial_se:.4f})")

    sup = supermartingale_check(res, sp)
    print(f"spread bound satisfied  : {sup.bound_ok} (monotone: {sup.monotone_ok})")
    for i in range(0, len(sup.times), 5):
        print(f"  t = {sup.times[i]:5.2f}  mean spread = {sup.mean_spread[i]:.4f}"
              f"  bound = {sup.bound[i]:.4f}")


if __name__ == "__main__":
    main()
