#!/usr/bin/env python3
"""Sweep manufactured special-Lagrangian solutions across rotation angles.

For each instance: fit the asymptotic profile on far shells, recompute the
log coefficient d from the boundary integral, and measure the decay rates
of the expansion remainder and of D^2 u - A.
"""
import argparse
import math

import numpy as np

from asymlab import (
    BoundaryCurve,
    EquationSpec,
    LaurentCoeffs,
    ShellSpec,
    boundary_d,
    expected_profile,
    fit_profile,
    hessian_limit,
    oracle_sle,
)
from asymlab.asymptotics import decay_exponent, shell_points
from asymlab.cli import _comma_list, run_script

INSTANCES = [
    (math.pi / 8, LaurentCoeffs(a1=0.5 + 0.3j, a0=0.2 + 0.1j, am1=0.7, tail=(0.3,))),
    (math.pi / 8, LaurentCoeffs(a1=-0.8, am1=-0.4, tail=(0.2, -0.1))),
    (math.pi / 4, LaurentCoeffs(a1=0.2, am1=0.5, tail=(0.25,))),
    (math.pi / 4, LaurentCoeffs(a1=0.1 + 0.25j, am1=1.0, tail=(-0.3, 0.15))),
    (3 * math.pi / 8, LaurentCoeffs(a1=0.15 - 0.1j, am1=0.6, tail=(0.2,))),
]


def remainder_slope(P, prof, radii, pin_radius=1e4):
    A, b, d, L = prof.A.m, prof.b, prof.d, prof.L.m

    def resid(X):
        return (P.values(X) - 0.5 * np.einsum("ni,ij,nj->n", X, A, X) - X @ b
                - 0.5 * d * np.log(np.einsum("ni,ij,nj->n", X, L, X)))

    c = float(np.mean(resid(shell_points(pin_radius, 64, 2))))
    samples = [(r, float(np.max(np.abs(resid(shell_points(r, 64, 2)) - c))))
               for r in radii]
    return decay_exponent(samples)


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--shells", default="50,400,6",
                    help="rMin,rMax,count for the geometric shell family")
    run_script(ap, run)


def run(args):
    lo, hi, n = _comma_list(args.shells, "--shells", (float, float, int))
    radii = np.geomspace(lo, hi, n)
    shells = ShellSpec(tuple(radii))

    print(f"{'vartheta':>9} {'a_-1':>6} {'d fit':>10} {'d boundary':>12} "
          f"{'u-Q-Gamma':>10} {'D2u-A':>7}")
    for vt, co in INSTANCES:
        spec = EquationSpec("SLE", 2, theta=2 * vt)
        P = oracle_sle(co, vt)
        prof = fit_profile(P, spec, shells)
        d_bd = boundary_d(spec, P, BoundaryCurve.circle(max(2.0, 1.2 * P.rho)))
        r_slope = remainder_slope(P, expected_profile(co, vt), radii)
        _, h_slope = hessian_limit(P, shells)
        print(f"{vt:9.4f} {co.am1:6.2f} {prof.d:10.6f} {d_bd:12.8f} "
              f"{r_slope:10.2f} {h_slope:7.2f}")


if __name__ == "__main__":
    main()
