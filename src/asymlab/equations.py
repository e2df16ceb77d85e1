"""The operator table of the four equations.

Operators, acting on the Hessian M = D^2 u:

    SLE     sum_i arctan(lambda_i(M)) = Theta
    MA      det M = 1
    SIGMA2  sigma_2(lambda(M)) = 1
    IHH     sum_i 1/lambda_i(M) = 1

`OPERATORS` gives, per kind, the residual F, its derivative dF/dM and the
admissible set on stacked Hessians (..., n, n); on n = 2 batches they use
closed-form invariants and inverses, which cost a small fraction of a
LAPACK call per matrix; dF/dM, read only by the 2D solver, is 2D only. The
2D kinds add the log kernel and the algebraic form that `asymptotics`
reads. `residual` and `residual_many` are views of it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .core import EquationSpec, SymMat
from .errors import SingularHessian, WrongDimension


def sigma2_margin(dim: int) -> float:
    """K = sqrt(2/(n(n-1))): shifting by K*I makes sigma_2 solutions convex."""
    return math.sqrt(2.0 / (dim * (dim - 1)))


# ---------------------------------------------------------------------------
# invariants of stacked symmetric matrices (..., n, n), n = 2 or 3
# ---------------------------------------------------------------------------

def eigvals_2x2(h11, h12, h22):
    """Eigenvalues (ascending) of symmetric 2x2 matrices, elementwise."""
    mean = 0.5 * (h11 + h22)
    rad = np.sqrt((0.5 * (h11 - h22)) ** 2 + h12 ** 2)
    return mean - rad, mean + rad


def _spectrum(H: np.ndarray):
    """Ascending eigenvalues of each stacked symmetric matrix, one array per
    rank: eigvals_2x2's two planes in 2D, LAPACK's columns in 3D."""
    if H.shape[-1] == 3:
        return np.moveaxis(np.linalg.eigvalsh(H), -1, 0)
    return eigvals_2x2(H[..., 0, 0], H[..., 0, 1], H[..., 1, 1])


def eigvals(H: np.ndarray) -> np.ndarray:
    """Ascending eigenvalues of each stacked symmetric matrix."""
    return np.stack(_spectrum(H), axis=-1)


def _det(H: np.ndarray) -> np.ndarray:
    if H.shape[-1] == 3:
        return np.linalg.det(H)
    return H[..., 0, 0] * H[..., 1, 1] - H[..., 0, 1] ** 2


def sym_2x2(a11, a12, a22) -> np.ndarray:
    """Stacked symmetric 2x2 matrices from their three planes, elementwise."""
    S = np.empty(np.shape(a11) + (2, 2))
    S[..., 0, 0], S[..., 1, 1] = a11, a22
    S[..., 0, 1] = S[..., 1, 0] = a12
    return S


def _planes(H: np.ndarray):
    """h11, h12, h22 of stacked symmetric 2x2 H: every dF/dM's dimension check."""
    if H.shape[-1] != 2:
        raise WrongDimension(f"dF/dM is 2D only, got {H.shape[-1]}x{H.shape[-1]} Hessians")
    return H[..., 0, 0], H[..., 0, 1], H[..., 1, 1]


def _adj(H: np.ndarray) -> np.ndarray:
    _planes(H)  # the check; the adjugate keeps H's layout, which the Jacobian reads fastest
    return H[..., ::-1, ::-1] * np.array([[1.0, -1.0], [-1.0, 1.0]])


def _sle_gradient_2x2(H: np.ndarray) -> np.ndarray:
    """(I + H^2)^-1 for each stacked symmetric 2x2 H, elementwise: the
    adjugate of I + H^2 over its determinant (1 - det H)^2 + tr(H)^2, which
    is at least 1, so nothing cancels."""
    h11, h12, h22 = _planes(H)
    q, tr = h12 * h12, h11 + h22
    den = (1.0 - (h11 * h22 - q)) ** 2 + tr * tr
    return sym_2x2((1.0 + h22 * h22 + q) / den, -h12 * tr / den, (1.0 + h11 * h11 + q) / den)


def _ihh_gradient_2x2(H: np.ndarray) -> np.ndarray:
    """-H^-2 for each stacked symmetric 2x2 H, elementwise, as the square of
    H^-1 = adj(H) / det H; adj(H)^2 / det(H)^2 would under- or overflow
    det(H)^2 for entries near 1e+-150."""
    i11, i12, i22 = _planes(_adj(H) / _det(H)[..., None, None])
    q = i12 * i12
    return sym_2x2(-(i11 * i11 + q), -i12 * (i11 + i22), -(i22 * i22 + q))


def _phase(H: np.ndarray) -> np.ndarray:
    # from +0.0 in rank order, as np.sum adds the few terms of a stacked row
    return sum(np.arctan(w) for w in _spectrum(H))


def _sigma2(w: np.ndarray) -> np.ndarray:
    """Second elementary symmetric polynomial of the eigenvalues w."""
    s1 = np.sum(w, axis=-1)
    return (s1 * s1 - np.sum(w * w, axis=-1)) / 2.0


def _ihh_residual(spec: EquationSpec, H: np.ndarray) -> np.ndarray:
    w = eigvals(H)
    if np.min(np.abs(w)) < 1e-14:
        raise SingularHessian("IHH residual needs nonzero eigenvalues")
    return np.sum(1.0 / w, axis=-1) - 1.0


@dataclass(frozen=True)
class Operator:
    """F(M), dF/dM (2D only, None for SIGMA2) and the admissible set on
    stacked Hessians: the first two as fn(spec, H), the set as
    fn(spec, H, res) given res = F(H), which only SLE reads (the MA, SIGMA2
    and IHH rows take res None where it is not at hand). `branch` is the
    solution branch as fn(spec, H) where it is wider than the admissible
    set (SLE: the phase window, without the supercritical condition the
    solver needs); None means the admissible set. The 2D kinds also give
    the kernel L(A) of the log term (d/2) log(x'Lx) as fn(spec, A), and the
    weights (lw, cw, aw) of the algebraic form lw tr M + cw det M - aw = 0
    of the equation as fn(spec)."""

    residual: Callable
    gradient: Callable | None
    admissible: Callable
    branch: Callable | None = None
    log_kernel: Callable | None = None
    div_form: Callable | None = None

    def in_branch(self, spec, H) -> np.ndarray:
        if self.branch is None:
            return self.admissible(spec, H, None)
        return self.branch(spec, H)


OPERATORS = {
    # the branch kept is the supercritical one, phase in (Theta - pi/2, Theta + pi/2),
    # where res = phase - Theta
    "SLE": Operator(lambda spec, H: _phase(H) - spec.theta,
                    lambda spec, H: _sle_gradient_2x2(H),
                    lambda spec, H, res: spec.supercritical & (np.abs(res) < math.pi / 2),
                    branch=lambda spec, H: np.abs(_phase(H) - spec.theta) < math.pi / 2,
                    log_kernel=lambda spec, A: np.eye(A.shape[-1]) + A @ A,
                    div_form=lambda spec: (math.cos(spec.theta), math.sin(spec.theta),
                                           math.sin(spec.theta))),
    "MA": Operator(lambda spec, H: _det(H) - 1.0,
                   lambda spec, H: _adj(H),
                   lambda spec, H, res: _spectrum(H)[0] > 0.0,
                   log_kernel=lambda spec, A: A,
                   div_form=lambda spec: (0.0, 1.0, 1.0)),
    "SIGMA2": Operator(lambda spec, H: _sigma2(eigvals(H)) - 1.0,
                       None,
                       lambda spec, H, res: (_spectrum(H)[0]
                                             > spec.delta - sigma2_margin(spec.dim))),
    # dF/dM = -M^-2 is negative definite; in 2D, 1/l1 + 1/l2 = 1 is tr = det
    "IHH": Operator(_ihh_residual,
                    lambda spec, H: _ihh_gradient_2x2(H),
                    lambda spec, H, res: _spectrum(H)[0] > 1.0,
                    log_kernel=lambda spec, A: A @ A,
                    div_form=lambda spec: (-1.0, 1.0, 0.0)),
}


def residual(spec: EquationSpec, M: SymMat) -> float:
    return float(OPERATORS[spec.kind].residual(spec, M.m))


def residual_many(spec: EquationSpec, H: np.ndarray) -> np.ndarray:
    """Residuals for a batch of Hessians, shape (N, dim, dim) -> (N,)."""
    return OPERATORS[spec.kind].residual(spec, np.asarray(H, dtype=float))
