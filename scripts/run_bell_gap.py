#!/usr/bin/env python3
"""Two-observer gap: what the marginal shows vs what the spread mean hides.

Prints the exact ensemble construction (Alice measuring z or x on shared
singlets) and the dynamical analogue (collapse vs phase-noise member on one
qubit starting from |up_x>).
"""

import argparse

from unravelings.bell import alice_measures, dynamical_gap, signaling_gap


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--n-traj", type=int, default=3000)
    ap.add_argument("--t-final", type=float, default=1.5)
    ap.add_argument("--dt", type=float, default=1e-3)
    ap.add_argument("--seed", type=int, default=2024)
    args = ap.parse_args()

    out_z, out_x = alice_measures("z"), alice_measures("x")
    rho_d, gap = signaling_gap(out_z, out_x)
    print("exact ensembles")
    print(f"  marginal max-norm difference : {rho_d:.2e}")
    print(f"  spread means (z / x basis)   : {out_z.mean_sigma} / {out_x.mean_sigma}")
    print(f"  spread-mean gap              : {gap}")

    dyn = dynamical_gap(t_final=args.t_final, dt=args.dt,
                        n_traj=args.n_traj, base_seed=args.seed)
    print("dynamical analogue")
    for i, t in enumerate(dyn.times):
        print(f"  t = {t:5.2f}  spread collapse/phase = "
              f"{dyn.mean_spread_collapse[i]:.4f} / {dyn.mean_spread_phase[i]:.4f}"
              f"   rho diff = {dyn.rho_distance[i]:.4f}")
    print(f"  final spread gap             : {dyn.spread_gap_final:.4f}")
    print(f"  rho tolerance (5/sqrt(N))    : {dyn.mc_rho_tolerance:.4f}")


if __name__ == "__main__":
    main()
