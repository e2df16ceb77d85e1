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

Every solve is nested iteration (`_nested`), and its last grid factors
nothing: inexact Newton-Krylov (Knoll & Keyes, J. Comput. Phys. 193, 2004),
each Newton system solved by GMRES to the forcing term of Eisenstat & Walker
(SIAM J. Sci. Comput. 17, 1996), right-preconditioned by one two-grid cycle
on the factors the level below leaves; its chord steps are CHORD_CYCLES
such cycles on the frozen Jacobian.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

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
# the two-grid path: damped-Jacobi sweeps before and after the coarse
# correction and their weight, the GMRES iterations after which it falls back
# to the direct path, and the two-grid cycles of one chord step
SMOOTHING_SWEEPS = 2
JACOBI_WEIGHT = 0.7
KRYLOV_MAX_ITER = 40
CHORD_CYCLES = 3


@dataclass
class SolveReport:
    iterations: int
    final_residual_inf: float
    damping_events: int
    field: AnnulusField
    residual_history: list
    converged: bool
    # one entry per Newton iteration: accepted step length t, number of
    # halvings before it, nnz of the LU factors it solved with (the coarse
    # ones on the two-grid path), whether it factored its own Jacobian,
    # its GMRES iterations (0 on direct and chord steps), and its residual
    # evaluations (a rejected chord trial included)
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
    # int32 node numbers, the index type of the sparse matrix, so that the
    # triplets are not copied to convert them
    node = np.arange(nI * nT, dtype=np.int32).reshape(nI, nT)
    data, rows, cols = [], [], []
    for (di, dj), st in _STENCILS.items():
        lo, hi = max(-di, 0), nI - max(di, 0)  # the rows whose neighbor is unknown
        data.append(np.tensordot(st, W, axes=1)[lo:hi])
        rows.append(node[lo:hi])
        cols.append(np.roll(node, -dj, axis=1)[lo + di:hi + di])
    J = sp.coo_matrix(
        (np.concatenate(data, axis=None),
         (np.concatenate(rows, axis=None), np.concatenate(cols, axis=None))),
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


def _coarsenings(grid: AnnulusGrid) -> list[AnnulusGrid]:
    """The grids `_nested` solves before `grid`, each refining to the next: it
    coarsens while n_r is odd and 4 divides n_theta, to n_theta 32 and n_r 4."""
    chain = []
    while grid.n_r % 2 and grid.n_theta % 4 == 0 and grid.n_theta >= 64 and grid.n_r >= 7:
        grid = replace(grid, n_r=(grid.n_r + 1) // 2, n_theta=grid.n_theta // 2)
        chain.insert(0, grid)
    return chain


def _full_weighting(centers: np.ndarray, n: int) -> sp.csr_matrix:
    """Rows of weights (1/4, 1/2, 1/4) at the n fine nodes centers - 1,
    centers, centers + 1 (indices mod n)."""
    cols = (centers[:, None] + np.arange(-1, 2)) % n
    return sp.csr_matrix((np.tile([0.25, 0.5, 0.25], len(centers)),
                          (np.repeat(np.arange(len(centers)), 3), cols.ravel())),
                         shape=(len(centers), n))


class _TwoGrid:
    """Two-grid cycles for Newton systems on `grid`, with the LU factors of a
    Jacobian on the grid it refines (Trottenberg, Oosterlee & Schueller,
    "Multigrid", 2001)."""

    def __init__(self, grid: AnnulusGrid, lu):
        m, n = (grid.n_r + 1) // 2, grid.n_theta // 2
        # `_prolong` is linear and works on rows and columns apart, so it is
        # kron(P_r, P_theta) with each factor `_prolong` of unit vectors; a
        # correction is zero on the Dirichlet rows
        P_r = _prolong(np.eye(m))[:, ::2][1:-1, 1:-1]
        P_t = _prolong(np.eye(n))[::2].T
        self.P = sp.kron(P_r, P_t, format="csr")
        self.R = sp.kron(_full_weighting(2 * np.arange(m - 2) + 1, 2 * m - 3),
                         _full_weighting(2 * np.arange(n), 2 * n), format="csr")
        self.lu = lu

    def cycle(self, J: sp.csr_matrix):
        """b -> one cycle for J x = b from x = 0: SMOOTHING_SWEEPS damped-Jacobi
        sweeps, the coarse correction of the full-weighted residual, and as
        many sweeps again.  A linear map of b, so fit to precondition GMRES."""
        w = JACOBI_WEIGHT / J.diagonal()

        def apply(b):
            x = w * b  # the first sweep, from x = 0
            for _ in range(SMOOTHING_SWEEPS - 1):
                x += w * (b - J @ x)
            x += self.P @ self.lu.solve(self.R @ (b - J @ x))
            for _ in range(SMOOTHING_SWEEPS):
                x += w * (b - J @ x)
            return x
        return apply

    def step(self, J: sp.csc_matrix, rhs: np.ndarray, rinf: float):
        """Solve J step = rhs by GMRES, preconditioned with one cycle, to the
        forcing term min(0.5, 0.1 |rhs|_inf), floored at 0.1 NEWTON_TOL /
        |rhs|_inf so that the last step does not solve past the tolerance.
        Return (step, GMRES iterations, the chord solve of CHORD_CYCLES
        cycles on this J), or step None if GMRES missed the forcing term
        within KRYLOV_MAX_ITER iterations or gave a non-finite step."""
        J = J.tocsr()
        M = self.cycle(J)
        eta = max(min(0.5, 0.1 * rinf), 0.1 * NEWTON_TOL / rinf)
        step, its = _gmres(J, M, rhs, eta)
        if step is not None and not np.isfinite(step).all():
            step = None

        def chord(b):
            x = M(b)
            for _ in range(CHORD_CYCLES - 1):
                x += M(b - J @ x)
            return x
        return step, its, chord


def _gmres(A: sp.csr_matrix, M, b: np.ndarray, rtol: float):
    """Right-preconditioned GMRES from x = 0 (Saad & Schultz, SIAM J. Sci.
    Stat. Comput. 7, 1986), Arnoldi by modified Gram-Schmidt: (x, iterations)
    with |b - A x|_2 <= rtol |b|_2, or (None, iterations) if KRYLOV_MAX_ITER
    iterations do not reach it or the basis is not finite.  The basis grows
    one vector per iteration, so its memory is what the iterations use."""
    beta = np.linalg.norm(b)
    V, Z = [b / beta], []  # the Arnoldi basis, and M of it
    H = np.zeros((KRYLOV_MAX_ITER + 1, KRYLOV_MAX_ITER))
    g = np.zeros(KRYLOV_MAX_ITER + 1)
    g[0] = beta
    for k in range(KRYLOV_MAX_ITER):
        Z.append(M(V[k]))
        w = A @ Z[k]
        for i, v in enumerate(V):
            H[i, k] = v @ w
            w -= H[i, k] * v
        H[k + 1, k] = np.linalg.norm(w)
        if not np.isfinite(H[:k + 2, k]).all():
            return None, k + 1
        Hk, gk = H[:k + 2, :k + 1], g[:k + 2]
        y = np.linalg.lstsq(Hk, gk, rcond=None)[0]
        if np.linalg.norm(gk - Hk @ y) <= rtol * beta:
            return sum(yi * z for yi, z in zip(y, Z)), k + 1
        V.append(w / H[k + 1, k])
    return None, KRYLOV_MAX_ITER


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


def _solve_level(spec: EquationSpec, grid: AnnulusGrid, rings, start: AnnulusField | None,
                 handoff: list, keep: bool) -> SolveReport:
    """Damped Newton on the stacked nodewise residual of one grid with the
    Dirichlet data `rings` (inner, outer), from `start` or, if it is None,
    from the affine blend of that data.

    Each iteration first tries a chord step: a full step solved with the
    held LU factors of the last factored Jacobian, kept if every interior
    node stays admissible and the sup-norm residual falls by the factor
    CHORD_CONTRACTION.  Otherwise the factors are dropped and the Jacobian
    at the iterate is assembled and factored; the line search halves that
    step until the sup-norm residual decreases and every interior node
    stays admissible.  The solve ends at a sup-norm residual <= NEWTON_TOL,
    or raises DidNotConverge after NEWTON_MAX_ITER iterations.

    If `handoff` holds the LU factors of the grid this one refines, the
    solve removes them from it and takes the two-grid path on them (module
    docstring) until a GMRES solve misses its forcing term.  If `keep`,
    `handoff` holds this solve's last factors on return.
    """
    two_grid = _TwoGrid(grid, handoff.pop()) if handoff else None
    U = _blend_initial(grid, *rings) if start is None else start.values.copy()
    U[0], U[-1] = rings  # the Dirichlet rows; no step changes them

    op = OPERATORS[spec.kind]
    C = _hessian_coefficients(grid)
    H = _hessians(grid, U, C)
    res = op.residual(spec, H)
    if not op.admissible(spec, H).all():
        raise NotAdmissible("initial iterate is inadmissible at some node")

    history = [float(np.max(np.abs(res)))]
    steps = []
    lu = None  # factors of the last factored Jacobian
    chord = None  # the linear solve of a chord step: with lu, or cycles on a frozen J
    while history[-1] > NEWTON_TOL and len(steps) < NEWTON_MAX_ITER:
        it, rinf = len(steps) + 1, history[-1]
        t, halvings, trials, krylov, new = 1.0, 0, 0, 0, None
        if chord is not None:
            trials += 1
            step = chord(res.ravel()).reshape(res.shape)
            new = _trial(spec, grid, C, U, step, lambda r: r <= CHORD_CONTRACTION * rinf)
        factored = False
        if new is None:
            chord = lu = None  # dropped before the next Jacobian is assembled
            J = _assemble_jacobian(grid, C, op.gradient(spec, H))
            step = None
            if two_grid is not None:
                step, krylov, chord = two_grid.step(J, res.ravel(), rinf)
                if step is None:  # the direct path from here on
                    two_grid = chord = None
            if step is None:
                step, lu = _newton_step(J, res.ravel(), it)
                chord, factored = lu.solve, True
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
        steps.append({"t": t, "halvings": halvings,
                      "nnzLU": int((lu if two_grid is None else two_grid.lu).nnz),
                      "factored": factored, "krylov": krylov, "trials": trials})
    if keep and lu is not None:
        handoff.append(lu)
    chord = two_grid = lu = None
    report = SolveReport(len(steps), history[-1], sum(s["halvings"] for s in steps),
                         AnnulusField(grid, U), history, history[-1] <= NEWTON_TOL, steps)
    if not report.converged:
        raise DidNotConverge(
            f"|r|_inf = {history[-1]:.3g} after {len(steps)} iterations", report)
    return report


def solve_annulus(spec: EquationSpec, P: PotentialFn, grid: AnnulusGrid,
                  start: AnnulusField | None = None) -> SolveReport:
    """Solve on `grid` with the Dirichlet data P on its boundary rings, by
    `_nested`: the report describes the Newton iterations on `grid` alone."""
    return _nested(spec, P, [grid], start)[0]


def _nested(spec: EquationSpec, P: PotentialFn, grids: list[AnnulusGrid],
            start: AnnulusField | None = None) -> list[SolveReport]:
    """The reports of `grids`, solved in order by nested iteration (Brandt,
    Math. Comp. 31, 1977).  The first grid starts from `start` if it is
    given; a grid that refines the one before it starts from its solution
    prolonged; any other grid first solves its `_coarsenings` so, on its own
    data at every other node (every fourth, ...), the coarsest from the
    blend.  The level before the last grid leaves it its LU factors if the
    last grid refines it.  A numerical failure on a coarsening or from a
    prolonged start leaves the grid to be solved from the blend, direct.
    """
    if spec.dim != 2 or P.dim != 2:
        raise WrongDimension("annulus solver is 2D only")
    if start is not None and start.grid != grids[0]:
        raise BadParams(f"start is on {start.grid}, not on the solve's grid {grids[0]}")
    rings = [boundary_data_from(P, grid) for grid in grids]
    if not all(np.isfinite(ring).all() for pair in rings for ring in pair):
        raise BadParams("boundary data must be finite")
    levels = []  # (grid, the index in `grids` of the grid it serves, its node stride there)
    for k, grid in enumerate(grids):
        nested = start is not None if k == 0 else grid == grids[k - 1].refine()
        chain = [grid] if nested else _coarsenings(grid) + [grid]
        levels += [(g, k, 2 ** (len(chain) - 1 - m)) for m, g in enumerate(chain)]
    reports, handoff, prev, dropped = [], [], None, None
    for i, (grid, k, stride) in enumerate(levels):
        if stride > 1 and k == dropped:
            continue
        keep = i == len(levels) - 2 and levels[-1][0] == grid.refine()
        warm = prev is not None and grid == prev.grid.refine()
        first = AnnulusField(grid, _prolong(prev.values)) if warm else start if i == 0 else None
        data = tuple(ring[::stride] for ring in rings[k])
        report = None
        try:
            report = _solve_level(spec, grid, data, first, handoff, keep)
        except (NotAdmissible, InadmissibleIterate, SingularJacobian, DidNotConverge):
            if stride == 1 and not warm:
                raise
            handoff.clear()
        if report is None:  # out of the except clause, which holds the failed level's frame
            prev, dropped = None, k
            if stride > 1:
                continue
            report = _solve_level(spec, grid, data, None, handoff, keep)
        prev = report.field
        if stride == 1:
            reports.append(report)
    return reports


def boundary_data_from(P: PotentialFn, grid: AnnulusGrid):
    """Sample a potential on the two Dirichlet rows."""
    x, y = grid.nodes_xy()
    rings = np.stack([x[[0, -1]].ravel(), y[[0, -1]].ravel()], axis=1)
    inner, outer = P.values(rings).reshape(2, grid.n_theta)
    return inner, outer


def convergence_study(spec: EquationSpec, oracle: PotentialFn,
                      grids: list[AnnulusGrid]):
    """Solve with oracle boundary data on nested grids by `_nested`; report
    per-grid max nodal error against the oracle and successive error ratios."""
    rows = []
    prev_err = None
    for grid, report in zip(grids, _nested(spec, oracle, grids)):
        exact = AnnulusField.from_potential(grid, oracle).values
        err = float(np.max(np.abs(report.field.values - exact)))
        ratio = (prev_err / err) if (prev_err is not None and err > 1e-13) else math.nan
        rows.append({"h": grid.h_t, "maxError": err, "ratio": ratio,
                     "iterations": report.iterations})
        prev_err = err
    return rows
