"""Grid-refinement study for the graph mean-curvature residual and the solver.

Prints residual sups, solver errors against the exact profiles, each solve's
Newton passes and LU factorizations, and the empirical convergence orders
across a refinement ladder.

Usage: python3 scripts/convergence_study.py [--surface catenoid] [--tau 0.5] [--d 2.0]
"""

from __future__ import annotations

import argparse
import math

import numpy as np

from etau import mean_curvature, solve_dirichlet
from etau.graphs import reference_problem


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--surface", choices=("catenoid", "invariant"), default="catenoid")
    ap.add_argument("--tau", type=float, default=0.5)
    ap.add_argument("--d", type=float, default=2.0)
    ap.add_argument("--s", type=float, default=1.0)
    ap.add_argument("--grids", type=int, nargs="+", default=[17, 33, 65, 129, 257])
    args = ap.parse_args()

    print(f"{args.surface}  tau={args.tau}  d={args.d}")
    print(
        f"{'n':>5s} {'residual sup':>14s} {'order':>7s} {'solver sup err':>15s} {'order':>7s}"
        f" {'iters':>5s} {'factors':>7s}"
    )
    residuals: list[float] = []
    errors: list[float] = []
    for n in args.grids:
        exact = reference_problem(args.surface, args.tau, args.d, args.s, n)
        residuals.append(mean_curvature(exact).sup())
        solved = solve_dirichlet(exact.domain, args.tau, exact.values)
        errors.append(float(np.max(np.abs(solved.graph.values - exact.values))))
        r_order = f"{math.log2(residuals[-2] / residuals[-1]):7.3f}" if len(residuals) > 1 else "      -"
        e_order = f"{math.log2(errors[-2] / errors[-1]):7.3f}" if len(errors) > 1 else "      -"
        print(
            f"{n:5d} {residuals[-1]:14.6e} {r_order} {errors[-1]:15.6e} {e_order}"
            f" {solved.report['iterations']:5d} {solved.report['factorizations']:7d}"
        )


if __name__ == "__main__":
    main()
