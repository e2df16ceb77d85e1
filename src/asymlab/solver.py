"""Damped-Newton finite-difference solver on a 2D polar annulus.

The discrete unknown is the potential at interior radial rows (theta is
periodic, the two radial boundary rows carry Dirichlet data).  Cartesian
Hessians are assembled from second-order centered differences in the
(log-)radial and angular coordinates through the polar chain rule, the
Jacobian from the equation's linearization contracted with the stencils.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .core import AnnulusField, AnnulusGrid, EquationSpec, PotentialFn, SymMat
from .equations import eigvals_2x2
from .errors import (BadParams, DidNotConverge, InadmissibleIterate,
                     NotAdmissible, WrongDimension)

NEWTON_TOL = 1e-10
NEWTON_MAX_ITER = 50
DAMPING_FLOOR = 2.0 ** -20


@dataclass
class SolveReport:
    iterations: int
    final_residual_inf: float
    damping_events: int
    field: AnnulusField
    residual_history: list = field(default_factory=list)
    converged: bool = True

    def to_dict(self) -> dict:
        return {
            "iterations": self.iterations,
            "finalResidualInf": self.final_residual_inf,
            "dampingEvents": self.damping_events,
            "converged": self.converged,
            "residualHistory": self.residual_history,
        }


def _interior_hessians(grid: AnnulusGrid, U: np.ndarray):
    """Cartesian Hessian components (H11, H12, H22) at interior rows,
    each of shape (n_r - 2, n_theta)."""
    ht, hth = grid.h_t, grid.h_theta
    r = grid.r[1:-1][:, None]
    th = grid.theta[None, :]

    Ut = (U[2:] - U[:-2]) / (2 * ht)
    Utt = (U[2:] - 2 * U[1:-1] + U[:-2]) / ht ** 2
    Uth = (np.roll(U[1:-1], -1, axis=1) - np.roll(U[1:-1], 1, axis=1)) / (2 * hth)
    Uthth = (np.roll(U[1:-1], -1, axis=1) - 2 * U[1:-1]
             + np.roll(U[1:-1], 1, axis=1)) / hth ** 2
    Utth = (np.roll(U[2:], -1, axis=1) - np.roll(U[2:], 1, axis=1)
            - np.roll(U[:-2], -1, axis=1) + np.roll(U[:-2], 1, axis=1)) / (4 * ht * hth)

    if grid.spacing == "logarithmic":
        ur = Ut / r
        urr = (Utt - Ut) / r ** 2
        urth = Utth / r
    else:
        ur, urr, urth = Ut, Utt, Utth
    uth, uthth = Uth, Uthth

    c, s = np.cos(th), np.sin(th)
    H11 = (c * c * urr - 2 * c * s * urth / r + s * s * uthth / r ** 2
           + s * s * ur / r + 2 * c * s * uth / r ** 2)
    H22 = (s * s * urr + 2 * c * s * urth / r + c * c * uthth / r ** 2
           + c * c * ur / r - 2 * c * s * uth / r ** 2)
    H12 = (c * s * urr + (c * c - s * s) * urth / r - c * s * uthth / r ** 2
           - c * s * ur / r - (c * c - s * s) * uth / r ** 2)
    return H11, H12, H22


def grid_hessian(fld: AnnulusField, i: int, j: int) -> SymMat:
    """Cartesian Hessian at interior node (i, j) from the FD stencils."""
    grid = fld.grid
    if not 1 <= i <= grid.n_r - 2:
        raise BadParams(f"i must be an interior radial index, got {i}")
    H11, H12, H22 = _interior_hessians(grid, fld.values)
    k = i - 1
    j = j % grid.n_theta
    return SymMat(np.array([[H11[k, j], H12[k, j]], [H12[k, j], H22[k, j]]]))


def _residual_and_gradient(spec: EquationSpec, H11, H12, H22):
    """Nodewise residual and its partials (G11, G12eff, G22) with respect to
    the scalar Hessian components; G12eff carries the symmetric double count."""
    if spec.kind == "MA":
        det = H11 * H22 - H12 ** 2
        return det - 1.0, H22, -2.0 * H12, H11
    if spec.kind == "SLE":
        lo, hi = eigvals_2x2(H11, H12, H22)
        res = np.arctan(lo) + np.arctan(hi) - spec.theta
        p11 = 1.0 + H11 ** 2 + H12 ** 2
        p22 = 1.0 + H12 ** 2 + H22 ** 2
        p12 = H12 * (H11 + H22)
        detp = p11 * p22 - p12 ** 2
        return res, p22 / detp, -2.0 * p12 / detp, p11 / detp
    if spec.kind == "IHH":
        det = H11 * H22 - H12 ** 2
        tr = H11 + H22
        res = tr / det - 1.0
        g11 = (det - tr * H22) / det ** 2
        g22 = (det - tr * H11) / det ** 2
        g12 = 2.0 * tr * H12 / det ** 2
        return res, g11, g12, g22
    raise BadParams(f"solver does not handle {spec.kind}")


def _admissible_mask(spec: EquationSpec, H11, H12, H22):
    if spec.kind == "MA":
        return (H11 > 0) & (H11 * H22 - H12 ** 2 > 0)
    if spec.kind == "SLE":
        # keep the discrete phase on the supercritical branch around Theta
        lo, hi = eigvals_2x2(H11, H12, H22)
        ph = np.arctan(lo) + np.arctan(hi)
        return (ph > spec.theta - math.pi / 2) & (ph < spec.theta + math.pi / 2)
    if spec.kind == "IHH":
        lo, _ = eigvals_2x2(H11, H12, H22)
        return lo > 1.0
    raise BadParams(f"solver does not handle {spec.kind}")


def _hessian_coefficients(grid: AnnulusGrid):
    """Per-node coefficients of each Hessian component on the five discrete
    derivatives (u_tt, u_tth, u_thth, u_t, u_th) in the differenced coords."""
    r = grid.r[1:-1][:, None]
    th = grid.theta[None, :]
    c, s = np.cos(th), np.sin(th)
    one = np.ones_like(r * c)

    # coefficients on (u_rr, u_rth, u_thth, u_r, u_th)
    polar = {
        "H11": (c * c * one, -2 * c * s / r, s * s / r ** 2, s * s / r, 2 * c * s / r ** 2),
        "H12": (c * s * one, (c * c - s * s) / r, -c * s / r ** 2, -c * s / r,
                -(c * c - s * s) / r ** 2),
        "H22": (s * s * one, 2 * c * s / r, c * c / r ** 2, c * c / r, -2 * c * s / r ** 2),
    }
    out = {}
    for key, (arr, brth, cthth, dr, eth) in polar.items():
        if grid.spacing == "logarithmic":
            # u_r = u_t/r, u_rr = (u_tt - u_t)/r^2, u_rth = u_tth/r
            ctt = arr / r ** 2
            ctth = brth / r
            cthth2 = cthth
            ct = dr / r - arr / r ** 2
            cth = eth
        else:
            ctt, ctth, cthth2, ct, cth = arr, brth, cthth, dr, eth
        out[key] = (ctt, ctth, cthth2, ct, cth)
    return out


_STENCILS = {
    # offset (di, dj): weights of (u_tt, u_tth, u_thth, u_t, u_th), as
    # multipliers of 1/ht^2, 1/(4 ht hth), 1/hth^2, 1/(2 ht), 1/(2 hth)
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


def _assemble_jacobian(spec: EquationSpec, grid: AnnulusGrid, U: np.ndarray,
                       coeffs) -> sp.csr_matrix:
    nR, nT = grid.n_r, grid.n_theta
    nI = nR - 2
    ht, hth = grid.h_t, grid.h_theta
    H11, H12, H22 = _interior_hessians(grid, U)
    _, G11, G12, G22 = _residual_and_gradient(spec, H11, H12, H22)

    # total weight per derivative: sum_ab G_ab * coeff_ab
    W = [G11 * coeffs["H11"][k] + G12 * coeffs["H12"][k] + G22 * coeffs["H22"][k]
         for k in range(5)]
    scale = (1.0 / ht ** 2, 1.0 / (4 * ht * hth), 1.0 / hth ** 2,
             1.0 / (2 * ht), 1.0 / (2 * hth))

    rows_idx = np.arange(nI)[:, None]
    cols_idx = np.arange(nT)[None, :]
    node = (rows_idx * nT + cols_idx)

    data, rows, cols = [], [], []
    for (di, dj), st in _STENCILS.items():
        w = sum(W[k] * (st[k] * scale[k]) for k in range(5) if st[k])
        if isinstance(w, int):
            continue
        ni = rows_idx + di
        inside = (ni >= 0) & (ni <= nI - 1)  # neighbor is an unknown row
        nj = (cols_idx + dj) % nT
        neighbor = ni * nT + nj
        mask = np.broadcast_to(inside, w.shape)
        data.append(w[mask])
        rows.append(np.broadcast_to(node, w.shape)[mask])
        cols.append(neighbor[mask])
    J = sp.coo_matrix(
        (np.concatenate(data), (np.concatenate(rows), np.concatenate(cols))),
        shape=(nI * nT, nI * nT))
    return J.tocsr()


def _blend_initial(grid: AnnulusGrid, inner_bc, outer_bc) -> np.ndarray:
    """Radial interpolation of the boundary data, affine in |x|^2 so that
    quadratic data is reproduced exactly and convexity is not destroyed."""
    w = ((grid.r ** 2 - grid.r_inner ** 2)
         / (grid.r_outer ** 2 - grid.r_inner ** 2))[:, None]
    return (1.0 - w) * inner_bc[None, :] + w * outer_bc[None, :]


def solve_annulus(spec: EquationSpec, grid: AnnulusGrid, inner_bc, outer_bc,
                  init="affine-blend", tol: float = NEWTON_TOL,
                  max_iter: int = NEWTON_MAX_ITER) -> SolveReport:
    """Damped Newton on the stacked nodewise residual with Dirichlet data.

    The line search halves the step until the sup-norm residual decreases
    and every interior node stays admissible.
    """
    if spec.dim != 2:
        raise WrongDimension("annulus solver is 2D only")
    inner_bc = np.asarray(inner_bc, dtype=float)
    outer_bc = np.asarray(outer_bc, dtype=float)
    if inner_bc.shape != (grid.n_theta,) or outer_bc.shape != (grid.n_theta,):
        raise BadParams("boundary arrays must have length n_theta")

    if isinstance(init, AnnulusField):
        U = init.values.copy()
        U[0], U[-1] = inner_bc, outer_bc
    elif init == "affine-blend":
        U = _blend_initial(grid, inner_bc, outer_bc)
    else:
        raise BadParams("init must be an AnnulusField or 'affine-blend'")

    coeffs = _hessian_coefficients(grid)

    def eval_state(U):
        H = _interior_hessians(grid, U)
        res, *_ = _residual_and_gradient(spec, *H)
        return H, res

    H, res = eval_state(U)
    if not _admissible_mask(spec, *H).all():
        raise NotAdmissible("initial iterate is inadmissible at some node")

    history = [float(np.max(np.abs(res)))]
    damping_events = 0
    for it in range(1, max_iter + 1):
        rinf = history[-1]
        if rinf <= tol:
            fld = AnnulusField(grid, U, inner_bc, outer_bc)
            return SolveReport(it - 1, rinf, damping_events, fld, history)
        J = _assemble_jacobian(spec, grid, U, coeffs)
        step = spla.spsolve(J, res.ravel()).reshape(res.shape)
        t = 1.0
        while True:
            U_new = U.copy()
            U_new[1:-1] -= t * step
            H_new, res_new = eval_state(U_new)
            new_inf = float(np.max(np.abs(res_new)))
            if new_inf < rinf and _admissible_mask(spec, *H_new).all():
                break
            t *= 0.5
            damping_events += 1
            if t < DAMPING_FLOOR:
                raise InadmissibleIterate(
                    f"damping floor reached at iteration {it}, |r|={rinf:.3g}")
        U, res = U_new, res_new
        history.append(new_inf)

    fld = AnnulusField(grid, U, inner_bc, outer_bc)
    report = SolveReport(max_iter, history[-1], damping_events, fld, history,
                         converged=history[-1] <= tol)
    if not report.converged:
        raise DidNotConverge(
            f"|r|_inf = {history[-1]:.3g} after {max_iter} iterations", report)
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
    nodal error against the oracle and successive error ratios."""
    rows = []
    prev_err = None
    for grid in grids:
        inner, outer = boundary_data_from(oracle, grid)
        report = solve_annulus(spec, grid, inner, outer)
        exact = AnnulusField.from_potential(grid, oracle).values
        err = float(np.max(np.abs(report.field.values - exact)))
        h = grid.h_t
        ratio = (prev_err / err) if (prev_err is not None and err > 1e-13) else math.nan
        rows.append({"h": h, "maxError": err, "ratio": ratio,
                     "iterations": report.iterations})
        prev_err = err
    return rows
