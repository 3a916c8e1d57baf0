#!/usr/bin/env python3
"""Measure the hyperbolic-ball diagnostic c(r) against its published window.

c(r) = 4 lambda_1(-Lap on B^n_{-1}(r)) / (n-1)^2 - 1/r^2 is claimed to lie in
[1/6, 1] for r >= 1; the measured values exceed that window by a wide margin
at small and moderate radii.  The proven window (comparison.hyperbolic_c_window,
from closed forms alone) is printed next to each value; in dimension 3 it
collapses to the exact c(r) = 1 + (pi^2 - 1)/r^2, so the published window
cannot hold.  It is recovered only asymptotically (c -> 1 as r -> infinity).

    PYTHONPATH=src python scripts/hyperbolic_window.py --grid 400 --radii 1 2
"""

import argparse

from scx.comparison import hyperbolic_c, hyperbolic_c_window, hyperbolic_sc


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--grid", type=int, default=1500)
    parser.add_argument("--radii", type=float, nargs="+",
                        default=[1.0, 1.5, 2.0, 3.0, 5.0, 10.0, 20.0])
    args = parser.parse_args()

    print(f"{'n':>2} {'r':>6} {'c(r)':>10} {'proven window':>22} "
          f"{'in [1/6, 1]':>12} {'sc':>10}")
    for n in (2, 3, 4):
        for r in args.radii:
            c = hyperbolic_c(n, r, args.grid)
            lo, hi = hyperbolic_c_window(n, r)
            window = f"[{lo:.5f}, {hi:.5f}]"
            inside = "yes" if 1 / 6 <= c <= 1 else "no"
            sc = hyperbolic_sc(n, r, args.grid)
            print(f"{n:>2} {r:>6.2f} {c:>10.4f} {window:>22} {inside:>12} {sc:>10.4f}")


if __name__ == "__main__":
    main()
