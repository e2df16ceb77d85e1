#!/usr/bin/env python3
"""h-refinement study for the annulus Newton solver.

Solves the Monge-Ampere and special-Lagrangian Dirichlet problems on
[rIn, rOut] with boundary data sampled from closed-form solutions, then
reports max-norm errors and h-halving ratios over three grids.

The `iters` column counts Newton steps per grid, chord steps included.
The first grid is solved after its coarsenings (on the defaults one,
17x32, from the affine blend of the boundary data), and starts from the
last of them prolonged by cubic interpolation (3-7 steps on the defaults,
the first factored); each later grid refines the one before and starts
from its solution, prolonged the same way.  On the defaults only the
first grid and its coarsening factor, and only they take chord steps.
The middle and last grids take 2-3 steps that factor nothing: each
assembles its Jacobian and solves it by GMRES preconditioned with one
multigrid cycle, on the first grid's factors for the middle grid and a
V-cycle through the middle grid's last Jacobian down to them for the last.
"""
import argparse
import math
import time

from asymlab import ConfigError, EquationSpec, LaurentCoeffs, oracle_sle
from asymlab.cli import _comma_list, run_script
from asymlab.core import AnnulusGrid
from asymlab.oracle2d import builtin
from asymlab.solver import convergence_study


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--r-inner", type=float, default=1.0)
    ap.add_argument("--r-outer", type=float, default=8.0)
    ap.add_argument("--base", default="33,64", help="coarsest nR,nTheta")
    ap.add_argument("--levels", type=int, default=3)
    ap.add_argument("--spacing", choices=["uniform", "logarithmic"],
                    default="uniform")
    run_script(ap, run)


def run(args):
    n_r, n_t = _comma_list(args.base, "--base", (int, int))
    if args.levels < 1:
        raise ConfigError(f"--levels must be >= 1, got {args.levels}")
    grids = [AnnulusGrid(args.r_inner, args.r_outer, n_r, n_t, args.spacing)]
    for _ in range(args.levels - 1):
        grids.append(grids[-1].refine())

    cases = [
        ("MA  (radial, c=1)", EquationSpec("MA", 2),
         builtin("ma-radial", {"c": 1.0})),
        ("SLE (Theta=pi/2)", EquationSpec("SLE", 2, theta=math.pi / 2),
         oracle_sle(LaurentCoeffs(a1=0.1, am1=0.5), math.pi / 4)),
    ]
    for name, spec, P in cases:
        t0 = time.perf_counter()
        rows = convergence_study(spec, P, grids)
        print(f"{name}  [{time.perf_counter() - t0:.1f}s]")
        print(f"  {'h':>10} {'max error':>12} {'ratio':>7} {'iters':>6}")
        for row in rows:
            ratio = "" if row["ratio"] != row["ratio"] else f"{row['ratio']:.3f}"
            print(f"  {row['h']:10.5f} {row['maxError']:12.3e} {ratio:>7} "
                  f"{row['iterations']:6d}")


if __name__ == "__main__":
    main()
