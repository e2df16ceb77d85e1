#!/usr/bin/env python3
"""Robustness sweep of the annulus solver on exact data.

Calls `solve_annulus` with the boundary data of eleven oracles on sixteen
annuli each, 176 solves on the defaults:

- oracles: `ma-radial` with c in {0.01, 0.1, 1, 10}; four `ihh-oracle`
  data sets; three `oracle_sle` data sets at vartheta = pi/4, solved as
  Theta = pi/2 problems;
- annuli: r_inner 1 or 1.5 times max(rho, 0.1), r_outer/r_inner 4 or 64,
  both spacings, and each grid size of --sizes (65x128 and 129x256).

One line per solve gives its outcome (`converged` or the exception class),
its Newton steps on the last grid and the GMRES iterations of all its
levels.  The summary counts converged and failed solves per equation and
exception class, and the GMRES iterations of the whole sweep.  With
--expect-converged N the script exits 1 unless exactly N solves converge.
"""
import argparse
import math
import sys
import time
from collections import Counter

from asymlab import ConfigError, EquationSpec, LaurentCoeffs, oracle_sle
from asymlab import solver
from asymlab.cli import _comma_list, run_script
from asymlab.core import AnnulusGrid
from asymlab.errors import DidNotConverge, LabError
from asymlab.oracle2d import builtin

MA2 = EquationSpec("MA", 2)
IHH2 = EquationSpec("IHH", 2)
SLE2 = EquationSpec("SLE", 2, theta=math.pi / 2)

IHH_SETS = [{"am1": 0.4}, {"a1": 0.3, "am1": 0.4}, {"a1": 0.44, "am1": 0.4},
            {"a1": 0.3, "am1": 0.4, "tail": [0.2, 0.1]}]
SLE_SETS = [LaurentCoeffs(a1=0.1, am1=0.5), LaurentCoeffs(a1=0.1 + 0.05j, am1=0.5),
            LaurentCoeffs(a1=0.2, am1=0.5, tail=(0.25,))]


def oracles():
    """(equation, label, spec, potential) of each oracle in the sweep."""
    for c in (0.01, 0.1, 1.0, 10.0):
        yield "MA", f"ma-radial c={c}", MA2, builtin("ma-radial", {"c": c})
    for params in IHH_SETS:
        label = " ".join(f"{k}={v}" for k, v in params.items())
        yield "IHH", f"ihh-oracle {label}", IHH2, builtin("ihh-oracle", params)
    for co in SLE_SETS:
        tail = ", ".join(f"{t:g}" for t in co.tail)
        yield ("SLE", f"oracle_sle a1={co.a1:g} am1={co.am1:g} tail=[{tail}]", SLE2,
               oracle_sle(co, math.pi / 4))


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--sizes", default="65x128,129x256",
                    help="comma list of nRxnTheta grid sizes")
    ap.add_argument("--expect-converged", type=int, default=None,
                    help="exit 1 unless exactly this many solves converge")
    run_script(ap, run)


def _sizes(text):
    try:
        return [_comma_list(size.replace("x", ","), "--sizes", (int, int))
                for size in text.split(",")]
    except ConfigError:
        raise ConfigError(f"--sizes takes a comma list of nRxnTheta, got {text!r}") from None


def run(args):
    sizes = _sizes(args.sizes)
    gmres, iterations = solver._gmres, [0]

    def counting_gmres(*a):  # every level's GMRES solves, failed solves included
        x, its = gmres(*a)
        iterations[0] += its
        return x, its

    solver._gmres = counting_gmres
    counts, total, converged = Counter(), 0, 0
    t0 = time.perf_counter()
    try:
        for equation, label, spec, P in oracles():
            for factor in (1.0, 1.5):
                r_in = factor * max(P.rho, 0.1)
                for ratio in (4, 64):
                    for spacing in ("uniform", "logarithmic"):
                        for n_r, n_t in sizes:
                            grid = AnnulusGrid(r_in, ratio * r_in, n_r, n_t, spacing)
                            before, steps = iterations[0], ""
                            try:
                                steps = solver.solve_annulus(spec, P, grid).iterations
                                outcome = "converged"
                                converged += 1
                            except DidNotConverge as e:
                                outcome = f"DidNotConverge |r|={e.report.final_residual_inf:.2g}"
                            except LabError as e:
                                outcome = type(e).__name__
                            total += 1
                            counts[equation, outcome.split()[0]] += 1
                            print(f"{label:<42} r_in {r_in:<4g} ratio {ratio:<2} {spacing:<11} "
                                  f"{f'{n_r}x{n_t}':<7} {outcome:<28} steps {steps!s:>2} "
                                  f"gmres {iterations[0] - before}", flush=True)
    finally:
        solver._gmres = gmres
    print(f"\n{'equation':<9} {'outcome':<20} {'solves':>6}")
    for (equation, outcome), n in sorted(counts.items()):
        print(f"{equation:<9} {outcome:<20} {n:6d}")
    print(f"\nconverged {converged} of {total}, GMRES iterations {iterations[0]}, "
          f"{time.perf_counter() - t0:.0f}s")
    if args.expect_converged is not None and converged != args.expect_converged:
        sys.exit(f"solver_sweep.py: error: {converged} solves converged, "
                 f"expected {args.expect_converged}")


if __name__ == "__main__":
    main()
