"""Seeded workloads of the asymlab benchmark.

Every workload draws its inputs from its seed, does once what a user of the
library does once (its set-up), and then runs one pass at a time. A pass
returns how many ops it attempted, which of them failed a check, and its
accuracy figure. An op is one convergence study or one experiment; a failed
check fails its op, and nothing is skipped or retried.

Seeds perturb the inputs inside ranges where every check holds and where
the work and the truncation error barely move: SLE Laurent data is rotated
(a rotation of the plane leaves the error on a polar grid and every fitted
d unchanged), and radial parameters move by a few percent.
"""

from __future__ import annotations

import cmath
import contextlib
import io
import json
import math
import os
import random
import shutil
import sys
import traceback
from dataclasses import dataclass, field

import numpy as np

from asymlab import core, oracle2d, solver

# criterion 8: a second-order scheme divides the max error by about 4 per
# h-halving, and the finest grid is accurate to 5e-4
RATIO_WINDOW = (3.0, 5.0)
FINEST_ERROR_TOL = 5e-4
# the CLI's own d tolerances, applied again here to the summary it writes
D_FIT_TOL = 2e-3
D_BOUNDARY_TOL = 1e-4


@dataclass
class PassResult:
    ops: int
    failures: list = field(default_factory=list)
    error: float = math.nan
    bytes_written: int = 0

    @property
    def failed(self) -> int:
        return len({op for op, _ in self.failures})


def _describe(e: BaseException) -> str:
    traceback.print_exception(e, file=sys.stderr)
    return f"{type(e).__name__}: {e}"


def _grids(levels_below: int):
    """Three nested uniform grids on [1, 8], `levels_below` halvings under the
    criterion-8 ones (33x64, 65x128, 129x256), and their finest-grid error
    tolerance: the O(h^2) bound grows fourfold per level."""
    n_r, n_t = 33, 64
    for _ in range(levels_below):
        n_r, n_t = (n_r + 1) // 2, n_t // 2
    grids = [core.AnnulusGrid(1.0, 8.0, n_r, n_t, "uniform")]
    for _ in range(2):
        grids.append(grids[-1].refine())
    return grids, FINEST_ERROR_TOL * 4 ** levels_below


class SolveStudy:
    """`convergence_study` on three nested grids against one oracle: the
    criterion-8 grids for MA, one level coarser for SLE, whose pass is
    otherwise too long (9-14 s) to time steadily; the self-test runs both
    one level coarser than that."""

    def __init__(self, equation: str, seed: int, size: str = "full"):
        rng = random.Random(seed)
        self.equation = equation
        self.grids, self.error_tol = _grids((equation == "SLE") + (size != "full"))
        self.ratio_window = RATIO_WINDOW
        if equation == "MA":
            # solve-ma: sparse LU dominates and the oracle is closed form.
            # The workload for solver linear algebra (ROADMAP item 4) and the
            # "bypassed, predict no change" one for batched potentials (item 2).
            self.spec = core.EquationSpec("MA", 2)
            self.params = {"c": rng.uniform(0.97, 1.03)}
        else:
            # solve-sle: about three quarters of the time is scalar oracle
            # inversion and the rest is the solver; where item 2 shows. Next
            # to solve-ma it shows whether a solver change depends on the
            # equation (arctan residual, phase-window line search).
            self.spec = core.EquationSpec("SLE", 2, theta=math.pi / 2)
            self.params = {"a1": 0.1 * cmath.exp(1j * rng.uniform(0, 2 * math.pi)),
                           "am1": rng.uniform(0.45, 0.55)}
        self.oracle = None

    def setup(self):
        if self.equation == "MA":
            self.oracle = oracle2d.builtin("ma-radial", self.params)
        else:
            self.oracle = oracle2d.oracle_sle(
                oracle2d.LaurentCoeffs(**self.params), math.pi / 4)
        if self.oracle.rho > self.grids[0].r_inner:
            raise RuntimeError(f"oracle radius {self.oracle.rho} exceeds the "
                               f"annulus inner radius {self.grids[0].r_inner}")

    def run_pass(self) -> PassResult:
        try:
            rows = solver.convergence_study(self.spec, self.oracle, self.grids)
        except Exception as e:  # a solve that raises is a failed op
            return PassResult(1, [(0, _describe(e))])
        out = PassResult(1, error=rows[-1]["maxError"])
        lo, hi = self.ratio_window
        ratios = [r["ratio"] for r in rows[1:]]
        if not all(lo <= q <= hi for q in ratios):
            out.failures.append((0, f"h-halving ratios {ratios} outside [{lo}, {hi}]"))
        if not out.error <= self.error_tol:
            out.failures.append((0, f"finest max error {out.error:.3e} > {self.error_tol}"))
        return out


# five SLE oracles of criterion 4: (vartheta, Laurent data, boundary circle
# radius max(2, 1.2 rho) for the oracle's certified rho)
SLE_BASES = [
    (math.pi / 8, {"a1": 0.5 + 0.3j, "a0": 0.2 + 0.1j, "am1": 0.7, "tail": (0.3,)}, 2.0),
    (math.pi / 8, {"a1": -0.8, "am1": -0.4, "tail": (0.2, -0.1)}, 2.4),
    (math.pi / 4, {"a1": 0.2, "am1": 0.5, "tail": (0.25,)}, 2.0),
    (math.pi / 4, {"a1": 0.1 + 0.25j, "am1": 1.0, "tail": (-0.3, 0.15)}, 2.0),
    (3 * math.pi / 8, {"a1": 0.15 - 0.1j, "am1": 0.6, "tail": (0.2,)}, 2.0),
]


def _rotated(co: dict, alpha: float) -> dict:
    """Laurent data of the harmonic potential u(e^{i alpha} x), with complex
    numbers as [re, im]: a_k gains the factor e^{i(k+1) alpha}, so a_{-1}
    (and with it d) is unchanged."""
    def rot(a, k):
        z = complex(a) * cmath.exp(1j * (k + 1) * alpha)
        return [z.real, z.imag]

    return {"a1": rot(co["a1"], 1), "a0": rot(co.get("a0", 0.0), 0), "am1": co["am1"],
            "tail": [rot(t, -k) for k, t in enumerate(co["tail"], start=2)]}


class Pipeline:
    """In-process `asymlab.cli.main(["experiment", "--config", ...])` over
    seven generated configs.

    pipeline: the only workload that runs cli, asymptotics, the IHH Legendre
    inversion, logarithmic spacing and output writing. It calls grad/hess at
    far-field shell points and writes them out, where solve-sle calls value
    on near-field grid nodes.
    """

    def __init__(self, seed: int, size: str, workdir: str):
        rng = random.Random(seed)
        small = size != "full"
        pps = 32 if small else 64
        order = 128 if small else 512
        n_ma, n_ihh = ((17, 32), (17, 32)) if small else ((65, 128), (33, 64))
        self.workdir = workdir
        self.d_shift = 0.0
        self.experiments = []  # (name, config, expected d)
        for k, (vt, co, radius) in enumerate(SLE_BASES):
            sol = {"kind": "sle", "vartheta": vt,
                   **_rotated(co, rng.uniform(0, 2 * math.pi))}
            self.experiments.append((f"sle{k}", {
                "equation": {"kind": "sle", "dim": 2, "theta": 2 * vt},
                "solution": sol,
                "shells": {"radii": np.geomspace(50, 400, 6).tolist(),
                           "pointsPerShell": pps},
                "curve": {"type": "circle", "radius": radius, "order": order},
            }, co["am1"]))
        c = rng.uniform(0.97, 1.03)
        self.experiments.append(("ma-radial", {
            "equation": {"kind": "ma", "dim": 2},
            "solution": {"kind": "builtin", "name": "ma-radial", "params": {"c": c}},
            "shells": {"radii": [50.0, 100.0, 200.0], "pointsPerShell": pps},
            "curve": {"type": "kernel-ellipse", "radius": 10.0, "order": order},
            "solver": {"grid": {"rInner": 1.0, "rOuter": 8.0, "nR": n_ma[0],
                                "nTheta": n_ma[1], "spacing": "uniform"}},
        }, c / 2))
        am1 = rng.uniform(0.38, 0.42)
        self.experiments.append(("ihh-oracle", {
            "equation": {"kind": "ihh", "dim": 2},
            "solution": {"kind": "builtin", "name": "ihh-oracle", "params": {"am1": am1}},
            "shells": {"radii": np.geomspace(50, 400, 5).tolist(),
                       "pointsPerShell": pps},
            "curve": {"type": "circle", "radius": 2.0, "order": order},
            "solver": {"grid": {"rInner": 1.0, "rOuter": 8.0, "nR": n_ihh[0],
                                "nTheta": n_ihh[1], "spacing": "logarithmic"}},
        }, -am1))
        self.summaries = {}

    def setup(self):
        os.makedirs(self.workdir, exist_ok=True)
        for name, cfg, d in self.experiments:
            cfg = dict(cfg, expectedD=d + self.d_shift)
            with open(os.path.join(self.workdir, name + ".json"), "w") as f:
                json.dump(cfg, f)

    def run_pass(self) -> PassResult:
        from asymlab import cli  # solve-* never import the CLI

        out = PassResult(len(self.experiments), error=0.0)
        for op, (name, _, d_true) in enumerate(self.experiments):
            out_dir = os.path.join(self.workdir, name)
            shutil.rmtree(out_dir, ignore_errors=True)
            os.environ["LAB_OUTPUT_DIR"] = out_dir
            try:
                with contextlib.redirect_stdout(io.StringIO()):
                    rc = cli.main(["experiment", "--config",
                                   os.path.join(self.workdir, name + ".json")])
                with open(os.path.join(out_dir, "summary.json"), "rb") as f:
                    blob = f.read()
                summary = json.loads(blob)
                d_fit, d_boundary = summary["profile"]["d"], summary["dBoundary"]
                out.bytes_written += sum(e.stat().st_size for e in os.scandir(out_dir))
            except Exception as e:  # a crash or a missing summary is a failed op
                out.failures.append((op, f"{name}: {_describe(e)}"))
                continue
            finally:
                del os.environ["LAB_OUTPUT_DIR"]
            fit_err, boundary_err = abs(d_fit - d_true), abs(d_boundary - d_true)
            out.error = max(out.error, fit_err)
            if rc != 0 or summary.get("pass") is not True:
                out.failures.append((op, f"{name}: exit {rc}, checks {summary.get('checks')}"))
            if not fit_err <= D_FIT_TOL:
                out.failures.append((op, f"{name}: |d_fit - d| = {fit_err:.3e}"))
            if not boundary_err <= D_BOUNDARY_TOL:
                out.failures.append((op, f"{name}: |d_boundary - d| = {boundary_err:.3e}"))
            if self.summaries.setdefault(name, blob) != blob:
                out.failures.append((op, f"{name}: summary.json differs from pass 1"))
        return out


def make(name: str, seed: int, size: str, workdir: str):
    if name == "solve-ma":
        return SolveStudy("MA", seed, size)
    if name == "solve-sle":
        return SolveStudy("SLE", seed, size)
    if name == "pipeline":
        return Pipeline(seed, size, workdir)
    raise ValueError(f"unknown workload {name!r}")
