"""Damped-Newton finite-difference solver on a 2D polar annulus.

The discrete unknown is the potential at interior radial rows (theta is
periodic, the two radial boundary rows carry Dirichlet data).  Cartesian
Hessians are stencil sums S_k U of second-order centered differences in the
(log-)radial and angular coordinates times the polar chain rule, kept as its
radial and angular factors R_k and T_k.  The Jacobian contracts the same
factors with dF/dM, written straight into CSR storage with closed-form
column indices; a level drops its last Jacobian and step before it
assembles the next, and an iterate's Hessians and dF/dM once it has formed
the stencil weights from them.  The direct path factors a CSC copy by
SuperLU under the minimum-degree ordering of J^T + J, which suits the
structurally symmetric 9-point stencil, and keeps the factors for chord
(simplified Newton) steps while the residual contracts (Deuflhard, "Newton
Methods for Nonlinear Problems", Springer 2004, sec. 2.1): there they save
a factorization.

Every solve is nested iteration (`_nested`), and only its first level
factors.  Every level above it runs inexact Newton-Krylov (Knoll & Keyes,
J. Comput. Phys. 193, 2004): GMRES to the forcing term of Eisenstat &
Walker (SIAM J. Sci. Comput. 17, 1996), right-preconditioned by one
multigrid cycle with matrix-free transfers, a V-cycle through the lower
levels' last Jacobians down to the first level's factors.  Such a level
assembles the Jacobian at every iterate, which costs a few matvecs; the
coarse factors and the lower levels' Jacobians stay frozen.  A level
factors its own Jacobian only when GMRES misses its forcing term.
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
# the multigrid path: damped-Jacobi weights, in order before the coarse correction and in
# reverse after it: Chebyshev's on [1/2, 2], the upper three quarters of D^-1 J's spectrum
# (Adams et al., J. Comput. Phys. 188, 2003); the GMRES iterations before the direct path
JACOBI_WEIGHTS = tuple(1 / (5 / 4 + s * 3 / 4 * math.cos(math.pi / 4)) for s in (1, -1))
KRYLOV_MAX_ITER = 40


@dataclass
class SolveReport:
    field: AnnulusField
    residual_history: list
    # one entry per Newton iteration: accepted step length t, number of
    # halvings before it, nnz of the LU factors it solved with (those at the
    # bottom of the cycle on the multigrid path), whether it factored its own
    # Jacobian, its GMRES iterations (0 on the direct path), and its residual
    # evaluations (a rejected chord trial included)
    steps: list

    iterations = property(lambda self: len(self.steps))
    final_residual_inf = property(lambda self: self.residual_history[-1])
    damping_events = property(lambda self: sum(s["halvings"] for s in self.steps))
    converged = property(lambda self: self.residual_history[-1] <= NEWTON_TOL)

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


def _hessian_coefficients(grid: AnnulusGrid):
    """The polar chain rule as factors T (5, 3, n_theta) and R (5, n_r - 2):
    (H11, H12, H22) at interior node (i, j) is sum_k R[k, i] T[k, :, j] S_k U."""
    ht, hth, r = grid.h_t, grid.h_theta, grid.r[1:-1]
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
    return T, R * np.array([1 / ht ** 2, 1 / (4 * ht * hth), 1 / hth ** 2,
                            1 / (2 * ht), 1 / (2 * hth)])[:, None]


def _hessians(grid: AnnulusGrid, U: np.ndarray, C) -> np.ndarray:
    """Interior Cartesian Hessians (n_r - 2, n_theta, 2, 2): R S U contracted with T."""
    S = _stencil_sums(grid, U)
    S *= C[1][:, :, None]
    return np.einsum("kij,kej->ije", S, C[0][:, [0, 1, 1, 2]]).reshape(*S.shape[1:], 2, 2)


def _stencil_weights(C, G: np.ndarray) -> np.ndarray:
    """W (5, n_r - 2, n_theta), the weights of S_k U in F: W_k = R_k sum_e T_ke G_e, G = dF/dM."""
    W = np.einsum("kej,eij->kij", C[0], (G[..., 0, 0], G[..., 0, 1] + G[..., 1, 0], G[..., 1, 1]))
    W *= C[1][:, :, None]
    return W


def _csr_pattern(grid: AnnulusGrid):
    """The column indices and row pointers of the Jacobians that
    `_assemble_jacobian` writes on `grid`, each array written in place."""
    nI, nT = grid.n_r - 2, grid.n_theta
    # the row lengths, then their running sum: the first and last interior
    # rows have no unknown neighbor below or above, so 6 entries, not 9
    indptr = np.full(nI * nT + 1, 9, dtype=np.int32)
    indptr[0], indptr[1:nT + 1], indptr[-nT:] = 0, 6, 6
    np.cumsum(indptr, out=indptr)
    col = np.sort((np.arange(nT, dtype=np.int32)[:, None] + np.arange(-1, 2, dtype=np.int32)) % nT)
    # node (i, j)'s columns in rows i + di, di = -1, 0, 1: i nT + (di nT + col[j]), one
    # contiguous (n_theta, 3, 3) block per row i, copied and then offset in place (a
    # broadcast sum of the two would buffer both, up to 64 KiB)
    block = np.arange(-1, 2, dtype=np.int32)[:, None] * nT + col[:, None, :]
    rows = np.arange(nI, dtype=np.int32)[:, None, None, None] * nT
    indices, n = np.empty(indptr[-1], dtype=np.int32), 6 * nT
    for out, offset, b in ((indices[:n], rows[:1], block[:, 1:]), (indices[n:-n], rows[1:-1], block),
                           (indices[-n:], rows[-1:], block[:, :2])):
        out = out.reshape(-1, *b.shape)
        out[...] = b
        np.add(out, offset, out=out)
    return indices, indptr


def _assemble_jacobian(grid: AnnulusGrid, W: np.ndarray,
                       indices: np.ndarray, indptr: np.ndarray) -> sp.csr_matrix:
    """dF/dU from the stencil weights W = `_stencil_weights(C, dF/dM)` spread over
    the stencil offsets, written straight into the CSR storage of
    `_csr_pattern`'s sorted columns."""
    n = 6 * grid.n_theta
    data = np.empty(len(indices))
    # the first and last interior rows have no unknown neighbor below or above
    for A, rows, table in ((data[:n], W[:, :1], _STENCIL_TABLE[3:]),
                           (data[n:-n], W[:, 1:-1], _STENCIL_TABLE),
                           (data[-n:], W[:, -1:], _STENCIL_TABLE[:6])):
        np.matmul(rows.reshape(5, -1).T, table.T, out=A.reshape(-1, len(table)))
        # A[i, j, di, b]: node (i, j)'s entry in the di-th neighbor row `table` covers and in the
        # b-th smallest column of j - 1, j, j + 1 (mod n_theta): offset order but where theta wraps
        A = A.reshape(-1, grid.n_theta, len(table) // 3, 3)
        A[:, 0], A[:, -1] = A[:, 0][..., [1, 2, 0]], A[:, -1][..., [2, 0, 1]]
    return sp.csr_matrix((data, indices, indptr), shape=(len(indptr) - 1,) * 2)


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


class _Direct:
    """The direct path: the sparse LU factors of each Newton Jacobian, whose
    back-solve is the chord step's and a `_Cycle` above's coarse solve."""

    solve = property(lambda self: self.lu.solve)
    nnz = property(lambda self: self.lu.nnz)

    def step(self, J: sp.csr_matrix, rhs: np.ndarray, it: int):
        """(step, 0 GMRES iterations) of J step = rhs by new LU factors."""
        self.lu = None  # the old factors go before the new ones are made
        try:
            self.lu = spla.splu(J.tocsc(), permc_spec="MMD_AT_PLUS_A")
        except RuntimeError as e:  # SuperLU: "Factor is exactly singular"
            raise SingularJacobian(f"iteration {it}: {e}") from e
        step = self.lu.solve(rhs)
        if not np.isfinite(step).all():
            raise SingularJacobian(f"iteration {it}: non-finite Newton step")
        return step, 0


class _Cycle:
    """Multigrid cycles for Newton systems on `grid` (Trottenberg, Oosterlee &
    Schueller, "Multigrid", 2001).  The coarse solve is `coarse.solve`: by the
    `_Direct` or _Cycle of the grid `grid` refines, on its last Jacobian, so
    that a chain of _Cycles is a V-cycle down to the factors.  It smooths by
    damped Jacobi at the Chebyshev weights JACOBI_WEIGHTS.  Both transfers are
    stencils applied by slicing: prolongation is `_prolong` of a correction
    padded with its zero Dirichlet rows, restriction is (1/4, 1/2, 1/4) full
    weighting in theta, then radially, onto the coarse nodes."""

    def __init__(self, grid: AnnulusGrid, coarse):
        self.m, self.n = (grid.n_r + 1) // 2, grid.n_theta // 2  # the coarse grid's
        self.coarse = coarse
        self.J = self.w = None  # the last `step`'s Jacobian, and omega / its diagonal per weight
        # the diagonal's place in each CSR row: j's rank in j, j +- 1 mod n_theta, + 3 after row 0
        self.diag = np.ones((grid.n_r - 2, grid.n_theta), dtype=np.int32)
        self.diag[:, [0, -1]] = 0, 2
        self.diag[1:] += 3

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
        """One cycle for J x = b from x = 0, J the last step's Jacobian: a
        damped-Jacobi sweep at each of JACOBI_WEIGHTS, the coarse correction
        of the full-weighted residual, and the sweeps in reverse.  A linear
        map of b, so fit to precondition GMRES and to be the coarse solve above."""
        J, w = self.J, self.w
        x = w[0] * b  # the first sweep, from x = 0
        for wk in (*w[1:], None, *w[::-1]):
            r = J @ x
            np.subtract(b, r, out=r)  # b - J x, in place
            if wk is None:  # the coarse correction between the sweeps
                x += self.prolong(self.coarse.solve(self.restrict(r)))
            else:  # a damped-Jacobi sweep
                x += np.multiply(wk, r, out=r)
        return x

    def step(self, J: sp.csr_matrix, rhs: np.ndarray, it: int):
        """Solve J step = rhs by GMRES, preconditioned with one cycle, to the
        forcing term at |rhs|_inf: (step, GMRES iterations), or step None if it
        missed that in KRYLOV_MAX_ITER iterations or gave a non-finite step."""
        # the diagonal, kept to the return: dropped before GMRES it raised peak RSS by 0.8 MB
        d = J.data[J.indptr[:-1] + self.diag.ravel()]
        self.J, self.w = J, tuple(omega / d for omega in JACOBI_WEIGHTS)
        step, its = _gmres(J, self.solve, rhs, _forcing(float(np.max(np.abs(rhs)))))
        if step is not None and not np.isfinite(step).all():
            step = None
        return step, its


def _forcing(rinf: float) -> float:
    """The forcing term at sup-norm residual rinf: min(0.5, 0.1 rinf), floored
    at 0.1 NEWTON_TOL / rinf so that the last step does not solve past it."""
    return max(min(0.5, 0.1 * rinf), 0.1 * NEWTON_TOL / rinf)


def _gmres(A: sp.csr_matrix, M, b: np.ndarray, rtol: float):
    """Right-preconditioned GMRES from x = 0 (Saad & Schultz, SIAM J. Sci.
    Stat. Comput. 7, 1986), Arnoldi by modified Gram-Schmidt: (x, iterations)
    with |b - A x|_2 <= rtol |b|_2, or (None, iterations) if KRYLOV_MAX_ITER
    iterations do not reach it or the basis is not finite.  The basis grows
    one vector per iteration, so its memory is what the iterations use.
    Givens rotations take the Hessenberg columns to a triangle R and beta e_1
    to g, whose last entry is the least-squares residual, beta times the
    rotations' |sin|; y solves R y = g by back substitution, in Python floats."""
    beta = np.linalg.norm(b)
    V, Z, R, rot = [b / beta], [], [], []  # the Arnoldi basis, M of it, R's columns, rotations
    g = [beta]
    for k in range(KRYLOV_MAX_ITER):
        Z.append(M(V[k]))
        w = A @ Z[k]
        h = []  # the Hessenberg column
        for v in V:
            h.append(v @ w)
            w -= h[-1] * v
        h.append(np.linalg.norm(w))
        if not np.isfinite(h).all():
            return None, k + 1
        for i, (c, s) in enumerate(rot):  # the earlier rotations, on the new column
            h[i], h[i + 1] = c * h[i] + s * h[i + 1], c * h[i + 1] - s * h[i]
        r = np.hypot(h[k], h[k + 1])  # a numpy scalar, so that 0 / 0 is nan, not an exception
        c, s = h[k] / r, h[k + 1] / r
        rot.append((c, s))
        R.append(h[:k] + [r])  # the new rotation takes (h_k, h_k+1) to (r, 0)
        g.append(-s * g[k])
        g[k] *= c
        if abs(g[k + 1]) <= rtol * beta:
            y = g[:k + 1]
            for i in range(k, -1, -1):  # column by column, from the last
                y[i] /= R[i][i]
                for j in range(i):
                    y[j] -= R[i][j] * y[i]
            x = 0.0 + y[0] * Z[0]  # summed in place as sum() from 0 does: -0.0 becomes +0.0
            for yi, z in zip(y[1:], Z[1:]):
                x += yi * z
            return x, k + 1
        w /= h[k + 1]
        V.append(w)
    return None, KRYLOV_MAX_ITER


def _trial(spec: EquationSpec, grid: AnnulusGrid, C, U: np.ndarray,
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

    The linear solver `lin` is a `_Direct` or a `_Cycle`.  On the direct
    path each iteration after the first tries a chord step: a full step
    solved by the held factors, kept if every interior node stays admissible
    and the sup-norm residual falls by the factor CHORD_CONTRACTION.
    Otherwise, and on every iteration of a `_Cycle`, the Jacobian at the
    iterate replaces the last one and `lin.step` solves it; the line search
    halves that step until the sup-norm residual decreases and every
    interior node stays admissible.  The solve ends at a sup-norm residual
    <= NEWTON_TOL, or raises DidNotConverge after NEWTON_MAX_ITER iterations.

    If `handoff` holds the linear solver of the grid this one refines, the
    solve takes it off and cycles on it (module docstring) until GMRES misses
    its forcing term.  If `keep`, `handoff` holds this solve's own on return.
    """
    lin = _Cycle(grid, handoff.pop()) if handoff else _Direct()
    U = _blend_initial(grid, *rings) if start is None else start.values.copy()
    start = None  # the caller passed it inline, so this was its last reference
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
    while history[-1] > NEWTON_TOL and len(steps) < NEWTON_MAX_ITER:
        it, rinf = len(steps) + 1, history[-1]
        t, halvings, trials, krylov, new = 1.0, 0, 0, 0, None
        if steps and isinstance(lin, _Direct):
            trials += 1
            step = lin.solve(res.ravel()).reshape(res.shape)
            new = _trial(spec, grid, C, U, step, lambda r: r <= CHORD_CONTRACTION * rinf)
        factored = False
        if new is None:
            J = lin.J = step = None  # the last Jacobian (a `_Cycle`'s too) and step go first
            # dF/dM dies with this line, before the CSR data; no line reads H again
            W, H = _stencil_weights(C, op.gradient(spec, H)), None
            J, W = _assemble_jacobian(grid, W, indices, indptr), None
            step, krylov = lin.step(J, res.ravel(), it)
            if step is None:  # GMRES missed its forcing term: the direct path from here on
                lin = _Direct()
                step = lin.step(J, res.ravel(), it)[0]
            factored = isinstance(lin, _Direct)
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
        steps.append({"t": t, "halvings": halvings, "nnzLU": int(lin.nnz),
                      "factored": factored, "krylov": krylov, "trials": trials})
    if keep and steps:
        handoff.append(lin)
    lin = None
    report = SolveReport(AnnulusField(grid, U), history, steps)
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
    fourth, ...).  Every level but the last leaves the next its linear
    solver as the coarse solve, so only the first level factors.  A
    numerical failure on a coarsening drops the rest of the chain, and one
    from a prolonged start leaves the grid to be solved from the blend, direct.
    """
    if spec.dim != 2 or P.dim != 2:
        raise WrongDimension("annulus solver is 2D only")
    if not grids or any(g != f.refine() for f, g in zip(grids, grids[1:])):
        raise BadParams("a study takes a non-empty list of grids, each the refinement "
                        "of the one before")
    if spec.kind == "SLE" and not spec.supercritical:
        raise NotAdmissible(f"SLE at Theta = {spec.theta} is not supercritical: the "
                            "solver needs |Theta| > (dim - 2) pi/2")
    rings = boundary_data_from(P, grids[-1])  # the last grid's rings hold every level's nodes
    chain = _coarsenings(grids[0])
    levels = chain + grids
    reports, handoff, prev = [], [], None
    for i, grid in enumerate(levels):
        coarse = i < len(chain)
        if coarse and i and prev is None:
            continue  # a coarsening failed: the rest of the chain goes
        keep, warm = i + 1 < len(levels), prev is not None
        data = tuple(ring[::grids[-1].n_theta // grid.n_theta] for ring in rings)
        report = None
        try:  # the start inline: `_solve_level` drops it once it has its copy
            report = _solve_level(spec, grid, data, AnnulusField(grid, _prolong(prev.values))
                                  if warm else None, handoff, keep)
        except (NotAdmissible, InadmissibleIterate, SingularJacobian, DidNotConverge):
            if not warm and not coarse:
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
    """Sample a potential on the two Dirichlet rows (the inner ring's nodes first)."""
    x, y = grid.nodes_xy()
    rings = np.stack([x[[0, -1]].ravel(), y[[0, -1]].ravel()], axis=1)
    return tuple(P.values(rings).reshape(2, grid.n_theta))


def convergence_study(spec: EquationSpec, oracle: PotentialFn,
                      grids: list[AnnulusGrid]):
    """Solve with oracle boundary data on nested grids by `_nested`; report
    per-grid max nodal error against the oracle and successive error ratios.
    The oracle is evaluated once, on the last grid: each grid's nodes are the
    last grid's at every other node (every fourth, ...), bit for bit, and
    row k of a potential depends on row k alone."""
    reports = _nested(spec, oracle, grids)  # first: it checks the grids
    finest = AnnulusField.from_potential(grids[-1], oracle).values
    rows, prev_err = [], None
    for grid, report in zip(grids, reports):
        s = grids[-1].n_theta // grid.n_theta
        err = float(np.max(np.abs(report.field.values - finest[::s, ::s])))
        ratio = (prev_err / err) if (prev_err is not None and err > 1e-13) else math.nan
        rows.append({"h": grid.h_t, "maxError": err, "ratio": ratio,
                     "iterations": report.iterations})
        prev_err = err
    return rows
