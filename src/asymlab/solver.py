"""Damped-Newton finite-difference solver on a 2D polar annulus.

The discrete unknown is the potential at interior radial rows (theta is
periodic, the two radial boundary rows carry Dirichlet data).  Cartesian
Hessians are H = sum_k C_k S_k U: stencil sums of second-order centered
differences in the (log-)radial and angular coordinates times the polar
chain-rule coefficients; the Jacobian contracts the same C_k with dF/dM.
Each Jacobian is factored by SuperLU under the minimum-degree ordering of
J^T + J, which suits the structurally symmetric 9-point stencil.  The
factors are kept for chord (simplified Newton) steps while the residual
contracts, the frozen-Jacobian test of Deuflhard, "Newton Methods for
Nonlinear Problems" (Springer 2004, sec. 2.1).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .core import AnnulusField, AnnulusGrid, EquationSpec, PotentialFn
from .equations import OPERATORS
from .errors import (BadParams, DidNotConverge, InadmissibleIterate,
                     NotAdmissible, SingularJacobian, WrongDimension)

NEWTON_TOL = 1e-10
NEWTON_MAX_ITER = 50
DAMPING_FLOOR = 2.0 ** -20
# a chord step reusing the held LU factors is taken only if it cuts the
# sup-norm residual at least this much
CHORD_CONTRACTION = 0.25


@dataclass
class SolveReport:
    iterations: int
    final_residual_inf: float
    damping_events: int
    field: AnnulusField
    residual_history: list
    converged: bool
    # one entry per Newton iteration: accepted step length t, number of
    # halvings before it, nnz of the LU factors it solved with, whether it
    # factored its own Jacobian (else a chord step on held factors), and its
    # residual evaluations (a rejected chord trial included)
    steps: list

    def to_dict(self) -> dict:
        return {
            "iterations": self.iterations,
            "finalResidualInf": self.final_residual_inf,
            "dampingEvents": self.damping_events,
            "converged": self.converged,
            "residualHistory": self.residual_history,
            "steps": self.steps,
        }


# offset (di, dj) of a neighbor: its weights in the five stencil sums S U, which
# are the discrete derivatives (U_tt, U_tth, U_thth, U_t, U_th) in the
# differenced coordinates times (ht^2, 4 ht hth, hth^2, 2 ht, 2 hth)
_STENCILS = {
    (1, 0): (1.0, 0.0, 0.0, 1.0, 0.0),
    (-1, 0): (1.0, 0.0, 0.0, -1.0, 0.0),
    (0, 1): (0.0, 0.0, 1.0, 0.0, 1.0),
    (0, -1): (0.0, 0.0, 1.0, 0.0, -1.0),
    (0, 0): (-2.0, 0.0, -2.0, 0.0, 0.0),
    (1, 1): (0.0, 1.0, 0.0, 0.0, 0.0),
    (1, -1): (0.0, -1.0, 0.0, 0.0, 0.0),
    (-1, 1): (0.0, -1.0, 0.0, 0.0, 0.0),
    (-1, -1): (0.0, 1.0, 0.0, 0.0, 0.0),
}


def _stencil_sums(grid: AnnulusGrid, U: np.ndarray) -> np.ndarray:
    """S U at interior rows, shape (5, n_r - 2, n_theta), from _STENCILS."""
    S = np.zeros((5, grid.n_r - 2, grid.n_theta))
    for (di, dj), st in _STENCILS.items():
        V = np.roll(U[1 + di:grid.n_r - 1 + di], -dj, axis=1)  # V[i, j] = U[i + di, j + dj]
        for k in np.flatnonzero(st):
            S[k] += st[k] * V
    return S


def _hessian_coefficients(grid: AnnulusGrid) -> np.ndarray:
    """The polar chain rule as coefficients C (5, n_r - 2, n_theta, 2, 2):
    the Cartesian Hessian at an interior node is H = sum_k C[k] S_k U."""
    ht, hth = grid.h_t, grid.h_theta
    r = grid.r[1:-1]
    c, s = np.cos(grid.theta), np.sin(grid.theta)
    cc, cs, ss = c * c, c * s, s * s
    # (H11, H12, H22) on (u_rr, u_rth, u_thth, u_r, u_th): angular factors
    # times the radial ones r^0, r^-1, r^-2, r^-1, r^-2
    T = np.array([[cc, cs, ss], [-2 * cs, cc - ss, 2 * cs], [ss, -cs, cc],
                  [ss, -cs, cc], [2 * cs, ss - cc, -2 * cs]])
    R = np.array([r ** 0, 1 / r, 1 / r ** 2, 1 / r, 1 / r ** 2])
    if grid.spacing == "logarithmic":
        # u_r = u_t/r, u_rr = (u_tt - u_t)/r^2, u_rth = u_tth/r
        T[3] -= T[0]
        R[:] = 1 / r ** 2
    R *= np.array([1 / ht ** 2, 1 / (4 * ht * hth), 1 / hth ** 2,
                   1 / (2 * ht), 1 / (2 * hth)])[:, None]
    # stored entry-major, so that each entry is contiguous over the nodes
    C = T[:, [0, 1, 1, 2], None, :] * R[:, None, :, None]
    return np.moveaxis(C, 1, -1).reshape(5, len(r), grid.n_theta, 2, 2)


def _hessians(grid: AnnulusGrid, U: np.ndarray, C: np.ndarray) -> np.ndarray:
    """Cartesian Hessians (n_r - 2, n_theta, 2, 2) at interior nodes."""
    return np.einsum("k...ab,k...->...ab", C, _stencil_sums(grid, U))


def _assemble_jacobian(grid: AnnulusGrid, C: np.ndarray, G: np.ndarray) -> sp.csc_matrix:
    """dF/dU from G = dF/dM (n_r - 2, n_theta, 2, 2): S_k U enters F with
    weight sum_ab G_ab C[k]_ab, spread over the stencil offsets."""
    nI, nT = grid.n_r - 2, grid.n_theta
    W = np.einsum("k...ab,...ab->k...", C, G)
    node = np.arange(nI)[:, None] * nT + np.arange(nT)[None, :]
    data, rows, cols = [], [], []
    for (di, dj), st in _STENCILS.items():
        w = np.tensordot(st, W, axes=1)
        ni = np.arange(nI)[:, None] + di
        mask = np.broadcast_to((ni >= 0) & (ni <= nI - 1), w.shape)  # neighbor is unknown
        data.append(w[mask])
        rows.append(node[mask])
        cols.append((ni * nT + (np.arange(nT)[None, :] + dj) % nT)[mask])
    J = sp.coo_matrix(
        (np.concatenate(data), (np.concatenate(rows), np.concatenate(cols))),
        shape=(nI * nT, nI * nT))
    return J.tocsc()


def _blend_initial(grid: AnnulusGrid, inner, outer) -> np.ndarray:
    """Radial interpolation of the boundary data, affine in |x|^2 so that
    quadratic data is reproduced exactly and convexity is not destroyed."""
    w = ((grid.r ** 2 - grid.r_inner ** 2)
         / (grid.r_outer ** 2 - grid.r_inner ** 2))[:, None]
    return (1.0 - w) * inner[None, :] + w * outer[None, :]


def _prolong(U: np.ndarray) -> np.ndarray:
    """Cubic interpolation of a grid function onto `grid.refine()`.

    Coarse nodes are kept; each midpoint gets the 4-point weights
    (-1, 9, 9, -1)/16, periodically in theta and along the differenced radial
    coordinate, and the one-sided weights (5, 15, -5, 1)/16 next to the two
    Dirichlet rows, so the error is O(h^4) everywhere.
    """
    n_r, n_t = U.shape
    V = np.empty((n_r, 2 * n_t))
    V[:, ::2] = U
    V[:, 1::2] = (9.0 * (U + np.roll(U, -1, axis=1))
                  - np.roll(U, 1, axis=1) - np.roll(U, -2, axis=1)) / 16.0
    W = np.empty((2 * n_r - 1, 2 * n_t))
    W[::2] = V
    mid = W[1::2]  # a view: row k lies between coarse rows k and k + 1
    mid[1:-1] = (9.0 * (V[1:-2] + V[2:-1]) - V[:-3] - V[3:]) / 16.0
    mid[0] = (5.0 * V[0] + 15.0 * V[1] - 5.0 * V[2] + V[3]) / 16.0
    mid[-1] = (V[-4] - 5.0 * V[-3] + 15.0 * V[-2] + 5.0 * V[-1]) / 16.0
    return W


def _newton_step(J: sp.csc_matrix, rhs: np.ndarray, it: int):
    """Solve J step = rhs by sparse LU; return the step and the factors."""
    try:
        lu = spla.splu(J, permc_spec="MMD_AT_PLUS_A")
    except RuntimeError as e:  # SuperLU: "Factor is exactly singular"
        raise SingularJacobian(f"iteration {it}: {e}") from e
    step = lu.solve(rhs)
    if not np.isfinite(step).all():
        raise SingularJacobian(f"iteration {it}: non-finite Newton step")
    return step, lu


def _trial(spec: EquationSpec, grid: AnnulusGrid, C: np.ndarray, U: np.ndarray,
           step: np.ndarray, accept):
    """Evaluate the iterate U - step once: its (U, H, residual, sup-norm
    residual) if `accept` takes that sup norm and every interior node is
    admissible, else None."""
    op = OPERATORS[spec.kind]
    U_new = U.copy()
    U_new[1:-1] -= step
    H_new = _hessians(grid, U_new, C)
    res_new = op.residual(spec, H_new)
    new_inf = float(np.max(np.abs(res_new)))
    if accept(new_inf) and op.admissible(spec, H_new).all():
        return U_new, H_new, res_new, new_inf
    return None


def solve_annulus(spec: EquationSpec, P: PotentialFn, grid: AnnulusGrid,
                  start: AnnulusField | None = None) -> SolveReport:
    """Damped Newton on the stacked nodewise residual, with the Dirichlet
    data P on the two boundary rings, started from `start` or, if it is
    None, from the affine blend of that data.

    Each iteration first tries a chord step: a full step solved with the
    held LU factors of the last factored Jacobian, kept if every interior
    node stays admissible and the sup-norm residual falls by the factor
    CHORD_CONTRACTION.  Otherwise the factors are dropped and the Jacobian
    at the iterate is assembled and factored; the line search halves that
    step until the sup-norm residual decreases and every interior node
    stays admissible.  The solve ends at a sup-norm residual <= NEWTON_TOL,
    or raises DidNotConverge after NEWTON_MAX_ITER iterations.
    """
    if spec.dim != 2 or P.dim != 2:
        raise WrongDimension("annulus solver is 2D only")
    if start is not None and start.grid != grid:
        raise BadParams(f"start is on {start.grid}, not on the solve's grid {grid}")
    inner, outer = boundary_data_from(P, grid)
    if not (np.isfinite(inner).all() and np.isfinite(outer).all()):
        raise BadParams("boundary data must be finite")
    U = _blend_initial(grid, inner, outer) if start is None else start.values.copy()
    U[0], U[-1] = inner, outer  # the Dirichlet rows; no step changes them

    op = OPERATORS[spec.kind]
    C = _hessian_coefficients(grid)
    H = _hessians(grid, U, C)
    res = op.residual(spec, H)
    if not op.admissible(spec, H).all():
        raise NotAdmissible("initial iterate is inadmissible at some node")

    history = [float(np.max(np.abs(res)))]
    steps = []
    lu = None  # factors of the last factored Jacobian, held for chord steps
    while history[-1] > NEWTON_TOL and len(steps) < NEWTON_MAX_ITER:
        it, rinf = len(steps) + 1, history[-1]
        t, halvings, trials, new = 1.0, 0, 0, None
        if lu is not None:
            trials += 1
            chord = lu.solve(res.ravel()).reshape(res.shape)
            new = _trial(spec, grid, C, U, chord, lambda r: r <= CHORD_CONTRACTION * rinf)
        factored = new is None
        if factored:
            lu = None
            J = _assemble_jacobian(grid, C, op.gradient(spec, H))
            step, lu = _newton_step(J, res.ravel(), it)
            step = step.reshape(res.shape)
            while True:
                trials += 1
                new = _trial(spec, grid, C, U, t * step, lambda r: r < rinf)
                if new is not None:
                    break
                t *= 0.5
                halvings += 1
                if t < DAMPING_FLOOR:
                    raise InadmissibleIterate(
                        f"damping floor reached at iteration {it}, |r|={rinf:.3g}")
        U, H, res, new_inf = new
        history.append(new_inf)
        steps.append({"t": t, "halvings": halvings, "nnzLU": int(lu.nnz),
                      "factored": factored, "trials": trials})
    lu = None

    fld = AnnulusField(grid, U)
    report = SolveReport(len(steps), history[-1], sum(s["halvings"] for s in steps), fld,
                         history, history[-1] <= NEWTON_TOL, steps)
    if not report.converged:
        raise DidNotConverge(
            f"|r|_inf = {history[-1]:.3g} after {len(steps)} iterations", report)
    return report


def boundary_data_from(P: PotentialFn, grid: AnnulusGrid):
    """Sample a potential on the two Dirichlet rows."""
    x, y = grid.nodes_xy()
    rings = np.stack([x[[0, -1]].ravel(), y[[0, -1]].ravel()], axis=1)
    inner, outer = P.values(rings).reshape(2, grid.n_theta)
    return inner, outer


def convergence_study(spec: EquationSpec, oracle: PotentialFn,
                      grids: list[AnnulusGrid]):
    """Solve with oracle boundary data on nested grids; report per-grid max
    nodal error against the oracle and successive error ratios.

    A grid that is `refine()` of the previous one starts Newton from the
    previous solution prolonged by `_prolong` (nested iteration); the first
    grid, any other grid, and a prolonged start that is inadmissible at some
    node start from the affine blend of the boundary data.
    """
    rows = []
    prev_err = None
    prev = None
    for grid in grids:
        report = None
        if prev is not None and grid == prev.grid.refine():
            try:
                report = solve_annulus(spec, oracle, grid,
                                       AnnulusField(grid, _prolong(prev.values)))
            except NotAdmissible:
                pass
        if report is None:
            report = solve_annulus(spec, oracle, grid)
        exact = AnnulusField.from_potential(grid, oracle).values
        err = float(np.max(np.abs(report.field.values - exact)))
        h = grid.h_t
        ratio = (prev_err / err) if (prev_err is not None and err > 1e-13) else math.nan
        rows.append({"h": h, "maxError": err, "ratio": ratio,
                     "iterations": report.iterations})
        prev_err = err
        prev = report.field
    return rows
