#!/usr/bin/env python3
"""Log-coefficient pipeline for the two closed-form radial families.

Monge-Ampere: u'(r) = sqrt(r^2 + c) gives d = c/2; the boundary integral
reproduces it to quadrature accuracy and the flux of the linearized log
term equals 2*pi*d at every radius.  Inverse harmonic Hessian: the oracle
built from the dual problem (Laplacian = 1) has d = -a_{-1}.
"""
import argparse
import math

import numpy as np

from asymlab import (
    BoundaryCurve,
    EquationSpec,
    ShellSpec,
    SymMat,
    boundary_d,
    fit_profile,
    flux_identity,
)
from asymlab.cli import run_script
from asymlab.oracle2d import builtin, ihh_expected_d
from asymlab.oracle2d import LaurentCoeffs


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--c", type=float, default=1.0, help="Monge-Ampere parameter")
    ap.add_argument("--am1", type=float, default=0.4, help="IHH dual log charge")
    run_script(ap, run)


def run(args):
    ma = EquationSpec("MA", 2)
    P = builtin("ma-radial", {"c": args.c})
    prof = fit_profile(P, ma, ShellSpec((50.0, 100.0, 200.0)))
    d_bd = boundary_d(ma, P, BoundaryCurve.circle(3.0))
    print(f"[MA  c={args.c}] expected d = {args.c / 2}")
    print(f"  fit d      = {prof.d:.10f}")
    print(f"  boundary d = {d_bd:.14f}")
    for R in (1.0, 2.0, 6.0):
        f = flux_identity(ma, SymMat.identity(2), args.c / 2, R)
        print(f"  flux at R={R}: {f:.12f}  (2*pi*d = {math.pi * args.c:.12f})")

    ihh = EquationSpec("IHH", 2)
    P = builtin("ihh-oracle", {"am1": args.am1})
    d_exp = ihh_expected_d(LaurentCoeffs(am1=args.am1))
    prof = fit_profile(P, ihh, ShellSpec(tuple(np.geomspace(50, 400, 5))))
    d_bd = boundary_d(ihh, P, BoundaryCurve.circle(max(2.0, 1.2 * P.rho)))
    print(f"[IHH a_-1={args.am1}] expected d = {d_exp}")
    print(f"  fit d      = {prof.d:.10f}")
    print(f"  boundary d = {d_bd:.14f}")
    print(f"  log kernel = A^2 check: "
          f"{np.abs(prof.L.m - prof.A.m @ prof.A.m).max():.2e}")


if __name__ == "__main__":
    main()
