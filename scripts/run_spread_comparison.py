#!/usr/bin/env python3
"""Free-particle spread comparison: collapse vs phase-noise vs variance.

Writes the three series of the fig1 preset and prints the landmark numbers
(initial coincidence, collapse plateau, cubic noise growth).
"""

import argparse

from unravelings.config import preset
from unravelings.gaussian import conditional_spread_x, spread_constants
from unravelings.runner import run_scenario


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--out", default="out/spreads", help="output directory")
    args = ap.parse_args()

    cfg = preset("fig1")
    written = run_scenario(cfg, args.out)
    for p in written:
        print(f"wrote {p}")

    p = cfg.mechanical()
    a0 = cfg.a0()
    xi = 1.0   # the collapse member; the preset's series also hold xi = -i and the variance
    cons = spread_constants(p, a0, xi)
    plateau = 1.0 / (4.0 * cons.asymptote.real)
    t_late = 100.0 / cons.rate.real
    print(f"initial spread          : {conditional_spread_x(0.0, p, a0, xi):.6e} m^2")
    print(f"collapse plateau        : {plateau:.6e} m^2")
    print(f"spread at t = 100/rate  : "
          f"{conditional_spread_x(t_late, p, a0, xi):.6e} m^2 "
          f"(t = {t_late:.4f} s)")
    noise_rate = p.lam * p.hbar ** 2 / (3.0 * p.mass ** 2)
    print(f"variance noise term     : {noise_rate:.3e} * t^3 m^2")


if __name__ == "__main__":
    main()
