"""Damped-Newton finite-difference solver on a 2D polar annulus.

The discrete unknown is the potential at interior radial rows (theta is
periodic, the two radial boundary rows carry Dirichlet data).  Cartesian
Hessians are H = sum_k C_k S_k U: stencil sums of second-order centered
differences in the (log-)radial and angular coordinates times the polar
chain-rule coefficients; the Jacobian contracts the same C_k with dF/dM,
written straight into CSR order with closed-form column indices.  The
direct path factors its CSC copy by SuperLU under the minimum-degree
ordering of J^T + J, which suits the structurally symmetric 9-point
stencil.  The factors are kept for chord (simplified Newton) steps while
the residual contracts, the frozen-Jacobian test of Deuflhard, "Newton
Methods for Nonlinear Problems" (Springer 2004, sec. 2.1).

Every solve is nested iteration (`_nested`), and only its small levels
factor.  The last level and every level above FACTOR_MAX_UNKNOWNS unknowns,
if a level lies below it, run inexact Newton-Krylov (Knoll & Keyes,
J. Comput. Phys. 193, 2004), each Newton system solved by GMRES to the
forcing term of Eisenstat & Walker (SIAM J. Sci. Comput. 17, 1996),
right-preconditioned by one multigrid cycle on the CSR Jacobian with
matrix-free transfers.  Its coarse solve is
the LU factors of the level below or one cycle of that level on its last
Jacobian: a V-cycle down to the largest level that factored.  Chord steps
are CHORD_CYCLES such cycles on the frozen Jacobian, more on a V-cycle's
levels while they pay.
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
# the multigrid path: damped-Jacobi sweeps before and after the coarse
# correction and their weight, the GMRES iterations after which it falls back
# to the direct path, and the cycles of one chord step
SMOOTHING_SWEEPS = 2
JACOBI_WEIGHT = 0.7
KRYLOV_MAX_ITER = 40
CHORD_CYCLES = 3
# on a V-cycle's levels a chord step goes on, up to CHORD_MAX_CYCLES cycles,
# while the last cut |b - J x|_2 by CHORD_CYCLE_CUT: the criterion-8 MA
# study's 65x128 then takes 3 Newton steps, not 4, and 129x256 2, not 4.  On
# the last level of two they did not pay (medians of 41 interleaved runs):
# MA 65x128 took 3 steps, not 4, in 11% more time, IHH 33x64 10 in 30% more
CHORD_MAX_CYCLES = 8
CHORD_CYCLE_CUT = 0.5
# a level other than the last that `_nested` solves factors its Jacobian
# only with at most this many unknowns (33x64 has 1984); any larger one
# cycles down to the factors below it.  Medians of 21 interleaved studies:
# SLE 33x64 took 14.5 ms cycled on the 17x32 factors, 12.6 ms factored; MA
# 65x128 took 18.7 ms cycled on the 33x64 factors, 32.3 ms factored
FACTOR_MAX_UNKNOWNS = 2048


@dataclass
class SolveReport:
    iterations: int
    final_residual_inf: float
    damping_events: int
    field: AnnulusField
    residual_history: list
    converged: bool
    # one entry per Newton iteration: accepted step length t, number of
    # halvings before it, nnz of the LU factors it solved with (those at the
    # bottom of the cycle on the multigrid path), whether it factored its own
    # Jacobian, its GMRES iterations (0 on direct and chord steps), and its
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
# the same weights as a (9, 5) table, its rows in (di, dj) order
_STENCIL_TABLE = np.array([_STENCILS[di, dj] for di in (-1, 0, 1) for dj in (-1, 0, 1)])


def _stencil_sums(grid: AnnulusGrid, U: np.ndarray) -> np.ndarray:
    """S U at interior rows, shape (5, n_r - 2, n_theta), from _STENCILS: each
    sum adds its terms in table order to +0.0, in place."""
    S = np.empty((5, grid.n_r - 2, grid.n_theta))
    started = [False] * 5
    Up = np.concatenate([U[:, -1:], U, U[:, :1]], axis=1)  # theta padded by one node
    for (di, dj), st in _STENCILS.items():
        V = Up[1 + di:grid.n_r - 1 + di, 1 + dj:1 + dj + grid.n_theta]  # V[i, j] = U[i + di, j + dj]
        for k, w in enumerate(st):
            if w:  # a + w V as a +- |w| V, which is exact, with no temporary for |w| = 1
                term = V if abs(w) == 1.0 else abs(w) * V
                (np.add if w > 0 else np.subtract)(S[k] if started[k] else 0.0, term, out=S[k])
                started[k] = True
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


def _csr_pattern(grid: AnnulusGrid):
    """The column indices and row pointers of the Jacobians that
    `_assemble_jacobian` writes on `grid`."""
    nI, nT = grid.n_r - 2, grid.n_theta
    col = np.sort((np.arange(nT, dtype=np.int32)[:, None] + np.arange(-1, 2, dtype=np.int32)) % nT)
    # node (i, j)'s columns in rows i + di: (i + di) nT + col[j], summed over
    # contiguous (n_theta, 3, 3) blocks, which numpy broadcasts fast
    ind = (np.arange(nI, dtype=np.int32)[:, None, None, None] * nT
           + (np.arange(-1, 2, dtype=np.int32)[:, None] * nT + col[:, None, :]))
    # the first and last interior rows have no unknown neighbor below or above
    indices = np.concatenate([ind[0, :, 1:], ind[1:-1], ind[-1, :, :2]], axis=None)
    node = np.arange(nI * nT + 1, dtype=np.int32)
    indptr = 9 * node - 3 * np.minimum(node, nT) - 3 * np.maximum(node - (nI - 1) * nT, 0)
    return indices, indptr


def _assemble_jacobian(grid: AnnulusGrid, C: np.ndarray, G: np.ndarray,
                       indices: np.ndarray, indptr: np.ndarray) -> sp.csr_matrix:
    """dF/dU from G = dF/dM (n_r - 2, n_theta, 2, 2): S_k U enters F with
    weight sum_ab G_ab C[k]_ab, spread over the stencil offsets.  Written in
    the CSR order of `_csr_pattern`, with sorted column indices."""
    nI, nT = grid.n_r - 2, grid.n_theta
    W = np.einsum("k...ab,...ab->k...", C, G)
    # A[i, j, di + 1, b]: the entry of node (i, j) at its neighbor in row
    # i + di and in the b-th smallest of the columns j - 1, j, j + 1 (mod
    # n_theta), which are in offset order except where theta wraps
    A = np.tensordot(W, _STENCIL_TABLE, axes=(0, 1)).reshape(nI, nT, 3, 3)
    A[:, 0] = A[:, 0][..., [1, 2, 0]]
    A[:, -1] = A[:, -1][..., [2, 0, 1]]
    data = np.concatenate([A[0, :, 1:], A[1:-1], A[-1, :, :2]], axis=None)
    return sp.csr_matrix((data, indices, indptr), shape=(nI * nT, nI * nT))


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
    Up = np.concatenate([U[:, -1:], U, U[:, :2]], axis=1)  # Up[:, j + 1] = U[:, j mod n_t]
    V = np.empty((n_r, 2 * n_t))
    V[:, ::2] = U
    V[:, 1::2] = (9.0 * (U + Up[:, 2:-1]) - Up[:, :-3] - Up[:, 3:]) / 16.0
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


class _Cycle:
    """Multigrid cycles for Newton systems on `grid` (Trottenberg, Oosterlee &
    Schueller, "Multigrid", 2001).  The coarse solve is `coarse`: the LU
    factors of a Jacobian on the grid `grid` refines, or that grid's own
    _Cycle, which applies one of its cycles on its last Jacobian, so that
    a chain of them is a V-cycle down to the factors.  Both transfers are
    stencils applied by slicing: prolongation is `_prolong` of a correction
    padded with its zero Dirichlet rows, restriction is (1/4, 1/2, 1/4) full
    weighting in theta, then radially, onto the coarse nodes."""

    def __init__(self, grid: AnnulusGrid, coarse, hands_on: bool):
        self.m, self.n = (grid.n_r + 1) // 2, grid.n_theta // 2  # the coarse grid's
        self.coarse = coarse
        self.J = self.w = None  # the Jacobian of the last `step`, and the Jacobi weights on it
        # chord steps go on past CHORD_CYCLES on the levels of a V-cycle:
        # one that hands its cycle on, and one that cycles on such a level
        self.max_cycles = (CHORD_MAX_CYCLES if hands_on or isinstance(coarse, _Cycle)
                           else CHORD_CYCLES)

    nnz = property(lambda self: self.coarse.nnz)  # of the factors at the bottom of the cycle

    def prolong(self, e: np.ndarray) -> np.ndarray:
        """A correction at the coarse interior nodes onto the fine ones."""
        E = np.zeros((self.m, self.n))
        E[1:-1] = e.reshape(self.m - 2, self.n)
        return _prolong(E)[1:-1].ravel()

    def restrict(self, r: np.ndarray) -> np.ndarray:
        """A residual at the fine interior nodes onto the coarse ones."""
        r = r.reshape(-1, 2 * self.n)
        rp = np.concatenate([r[:, -1:], r], axis=1)  # rp[:, j + 1] = r[:, j mod 2n]
        # coarse column j: fine column 2j between the odd ones 2j - 1 and 2j + 1
        r = 0.5 * rp[:, 1::2] + 0.25 * (rp[:, :-1:2] + rp[:, 2::2])
        return (0.5 * r[1::2] + 0.25 * (r[:-1:2] + r[2::2])).ravel()

    def solve(self, b: np.ndarray) -> np.ndarray:
        """One cycle for J x = b from x = 0, J the last step's Jacobian:
        SMOOTHING_SWEEPS damped-Jacobi sweeps, the coarse correction of the
        full-weighted residual, and as many sweeps again.  A linear map of
        b, so fit to precondition GMRES and to be the coarse solve above."""
        J, w = self.J, self.w
        x = w * b  # the first sweep, from x = 0
        for k in range(2 * SMOOTHING_SWEEPS):
            r = J @ x
            np.subtract(b, r, out=r)  # b - J x, in place
            if k == SMOOTHING_SWEEPS - 1:  # the coarse correction between the sweeps
                x += self.prolong(self.coarse.solve(self.restrict(r)))
            else:  # a damped-Jacobi sweep
                x += np.multiply(w, r, out=r)
        return x

    def step(self, J: sp.csr_matrix, rhs: np.ndarray, rinf: float):
        """Solve J step = rhs by GMRES, preconditioned with one cycle, to the
        forcing term `_forcing(rinf)`.  Return (step, GMRES iterations, the
        chord solve on this J), or step None if GMRES missed the forcing term
        within KRYLOV_MAX_ITER iterations or gave a non-finite step."""
        self.J, self.w = J, JACOBI_WEIGHT / J.diagonal()
        step, its = _gmres(J, self.solve, rhs, _forcing(rinf))
        if step is not None and not np.isfinite(step).all():
            step = None
        return step, its, self.chord

    def chord(self, b: np.ndarray) -> np.ndarray:
        """CHORD_CYCLES cycles for J x = b on the frozen J, then, up to
        max_cycles, more while the last one cut |b - J x|_2 by the factor
        CHORD_CYCLE_CUT and left it above the forcing term."""
        x, norms = self.solve(b), [np.linalg.norm(b)]
        eta = _forcing(float(np.max(np.abs(b))))
        for k in range(1, self.max_cycles):
            r = b - self.J @ x
            norms.append(np.linalg.norm(r))
            if k >= CHORD_CYCLES and not CHORD_CYCLE_CUT * norms[-2] >= norms[-1] > eta * norms[0]:
                break
            x += self.solve(r)
        return x


def _forcing(rinf: float) -> float:
    """The forcing term at sup-norm residual rinf: min(0.5, 0.1 rinf), floored
    at 0.1 NEWTON_TOL / rinf so that the last step does not solve past it."""
    return max(min(0.5, 0.1 * rinf), 0.1 * NEWTON_TOL / rinf)


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
    if accept(new_inf) and op.admissible(spec, H_new, res_new).all():
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

    If `handoff` holds the coarse solve of the grid this one refines (its LU
    factors, or its `_Cycle` on its last Jacobian), the solve removes it
    and takes the multigrid path on it (module docstring) until a GMRES
    solve misses its forcing term.  If `keep`, `handoff` holds this solve's
    own on return: its last factors, or its `_Cycle`.
    """
    cycle = _Cycle(grid, handoff.pop(), keep) if handoff else None
    U = _blend_initial(grid, *rings) if start is None else start.values.copy()
    U[0], U[-1] = rings  # the Dirichlet rows; no step changes them

    op = OPERATORS[spec.kind]
    C = _hessian_coefficients(grid)
    indices, indptr = _csr_pattern(grid)
    H = _hessians(grid, U, C)
    res = op.residual(spec, H)
    if not op.admissible(spec, H, res).all():
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
            J = _assemble_jacobian(grid, C, op.gradient(spec, H), indices, indptr)
            step = None
            if cycle is not None:
                step, krylov, chord = cycle.step(J, res.ravel(), rinf)
                if step is None:  # the direct path from here on
                    cycle = chord = None
            if step is None:
                step, lu = _newton_step(J.tocsc(), res.ravel(), it)
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
                      "nnzLU": int((lu if cycle is None else cycle).nnz),
                      "factored": factored, "krylov": krylov, "trials": trials})
    if keep and steps:
        handoff.append(lu if cycle is None else cycle)
    chord = cycle = lu = None
    report = SolveReport(len(steps), history[-1], sum(s["halvings"] for s in steps),
                         AnnulusField(grid, U), history, history[-1] <= NEWTON_TOL, steps)
    if not report.converged:
        raise DidNotConverge(
            f"|r|_inf = {history[-1]:.3g} after {len(steps)} iterations", report)
    return report


def solve_annulus(spec: EquationSpec, P: PotentialFn, grid: AnnulusGrid) -> SolveReport:
    """Solve on `grid` with the Dirichlet data P on its boundary rings, by
    `_nested`: the report describes the Newton iterations on `grid` alone."""
    return _nested(spec, P, [grid])[0]


def _nested(spec: EquationSpec, P: PotentialFn, grids: list[AnnulusGrid]) -> list[SolveReport]:
    """The reports of `grids`, each refining the one before, solved by nested
    iteration (Brandt, Math. Comp. 31, 1977): the first grid's `_coarsenings`,
    the coarsest from the blend, then every level from the one before it
    prolonged, each on the last grid's data at every other node (every
    fourth, ...).  A level leaves the next its coarse solve if the next is
    the last level or has more than FACTOR_MAX_UNKNOWNS unknowns.  A
    numerical failure on a coarsening drops the rest of the chain, and one
    from a prolonged start leaves the grid to be solved from the blend, direct.
    """
    if spec.dim != 2 or P.dim != 2:
        raise WrongDimension("annulus solver is 2D only")
    if not grids or any(g != f.refine() for f, g in zip(grids, grids[1:])):
        raise BadParams("a study takes a non-empty list of grids, each the refinement "
                        "of the one before")
    if grids[0].r_inner < P.rho:
        raise BadParams(f"r_inner = {grids[0].r_inner} lies inside the solution's "
                        f"domain radius rho = {P.rho}")
    rings = boundary_data_from(P, grids[-1])
    if not np.isfinite(rings).all():
        raise BadParams("boundary data must be finite")
    chain = _coarsenings(grids[0])
    levels = chain + grids
    reports, handoff, prev = [], [], None
    for i, grid in enumerate(levels):
        coarse = i < len(chain)
        if coarse and i and prev is None:
            continue  # a coarsening failed: the rest of the chain goes
        nxt = levels[i + 1] if i + 1 < len(levels) else None
        keep = nxt is not None and (
            i + 2 == len(levels) or (nxt.n_r - 2) * nxt.n_theta > FACTOR_MAX_UNKNOWNS)
        first = None if prev is None else AnnulusField(grid, _prolong(prev.values))
        data = tuple(ring[::grids[-1].n_theta // grid.n_theta] for ring in rings)
        report = None
        try:
            report = _solve_level(spec, grid, data, first, handoff, keep)
        except (NotAdmissible, InadmissibleIterate, SingularJacobian, DidNotConverge):
            if first is None and not coarse:
                raise
            handoff.clear()
        if report is None:  # out of the except clause, which holds the failed level's frame
            prev = None
            if coarse:
                continue
            report = _solve_level(spec, grid, data, None, handoff, keep)
        prev = report.field
        if not coarse:
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
    per-grid max nodal error against the oracle and successive error ratios.
    The oracle is evaluated once, on the last grid: each grid's nodes are the
    last grid's at every other node (every fourth, ...), bit for bit, and
    row k of a potential depends on row k alone."""
    reports = _nested(spec, oracle, grids)  # first: it checks the grids
    finest = AnnulusField.from_potential(grids[-1], oracle).values
    rows = []
    prev_err = None
    for grid, report in zip(grids, reports):
        s = grids[-1].n_theta // grid.n_theta
        err = float(np.max(np.abs(report.field.values - finest[::s, ::s])))
        ratio = (prev_err / err) if (prev_err is not None and err > 1e-13) else math.nan
        rows.append({"h": grid.h_t, "maxError": err, "ratio": ratio,
                     "iterations": report.iterations})
        prev_err = err
    return rows
