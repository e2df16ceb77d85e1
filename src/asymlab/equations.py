"""Residuals, linearizations, and admissibility for the four operators.

Operators, acting on the Hessian M = D^2 u:

    SLE     sum_i arctan(lambda_i(M)) = Theta
    MA      det M = 1
    SIGMA2  sigma_2(lambda(M)) = 1
    IHH     sum_i 1/lambda_i(M) = 1
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import EquationSpec, SymMat, phase
from .errors import NotAdmissible, SingularHessian, WrongDimension

FORMS_TOL = 1e-10


@dataclass(frozen=True)
class LinearizedCoeffs:
    """Coefficient matrix of the linearized operator, positive definite on the
    admissible set (IHH carries an internal sign flip, see `linearization`)."""

    a: SymMat


def sigma2_margin(dim: int) -> float:
    """K = sqrt(2/(n(n-1))): shifting by K*I makes sigma_2 solutions convex."""
    return math.sqrt(2.0 / (dim * (dim - 1)))


def residual(spec: EquationSpec, M: SymMat) -> float:
    if spec.kind == "SLE":
        return phase(M) - spec.theta
    w = np.linalg.eigvalsh(M.m)
    if spec.kind == "MA":
        return float(np.prod(w)) - 1.0
    if spec.kind == "SIGMA2":
        # second elementary symmetric polynomial of the eigenvalues
        s1 = np.sum(w)
        return float((s1 * s1 - np.sum(w * w)) / 2.0) - 1.0
    # IHH
    if np.min(np.abs(w)) < 1e-14:
        raise SingularHessian("IHH residual needs nonzero eigenvalues")
    return float(np.sum(1.0 / w)) - 1.0


def residual_algebraic_2d(spec: EquationSpec, M: SymMat) -> float:
    """2D algebraic forms: SLE as cos(T)*tr + sin(T)*(det - 1), IHH as tr - det.

    These lose branch information (they vanish for phases Theta mod pi);
    consistency checks must consult the trigonometric phase.
    """
    if spec.dim != 2 or M.dim != 2:
        raise WrongDimension("algebraic form is 2D only")
    tr = float(np.trace(M.m))
    det = float(np.linalg.det(M.m))
    if spec.kind == "SLE":
        return math.cos(spec.theta) * tr + math.sin(spec.theta) * (det - 1.0)
    if spec.kind == "IHH":
        return tr - det
    raise WrongDimension(f"no 2D algebraic form for {spec.kind}")


def forms_consistent(M: SymMat, theta: float, tol: float = FORMS_TOL) -> bool:
    """True iff M satisfies the 2D SLE at phase theta in both the trigonometric
    and the algebraic form; the trig phase picks the branch."""
    spec = EquationSpec("SLE", 2, theta=theta)
    return (abs(residual(spec, M)) <= tol
            and abs(residual_algebraic_2d(spec, M)) <= tol)


def in_phase_window(spec: EquationSpec, ph):
    """Elementwise: the phase lies in (Theta - pi/2, Theta + pi/2), the SLE
    branch kept around Theta by `admissible` and by the solver."""
    return (ph > spec.theta - math.pi / 2) & (ph < spec.theta + math.pi / 2)


def admissible(spec: EquationSpec, M: SymMat) -> bool:
    if spec.kind == "SLE":
        return spec.supercritical and bool(in_phase_window(spec, phase(M)))
    w = np.linalg.eigvalsh(M.m)
    if spec.kind == "MA":
        return bool(w[0] > 0)
    if spec.kind == "SIGMA2":
        return bool(w[0] > spec.delta - sigma2_margin(spec.dim))
    # IHH
    return bool(w[0] > 1)


def linearization(spec: EquationSpec, M: SymMat) -> LinearizedCoeffs:
    """F_M at M, returned positive definite on the admissible set.

    SLE -> (I + M^2)^-1; MA -> cofactor matrix det(M) M^-1;
    SIGMA2 -> tr(M) I - M; IHH -> M^-2 (derivative of the residual is -M^-2;
    the sign is flipped so every linearization has the same elliptic
    orientation, consumers of IHH must negate when forming directional
    derivatives of `residual`).
    """
    # (I + M^2)^-1 is positive definite for every M, so SLE needs only the
    # supercritical branch, not the phase window
    ok = spec.supercritical if spec.kind == "SLE" else admissible(spec, M)
    if not ok:
        raise NotAdmissible(f"matrix not admissible for {spec.kind}")
    A = M.m
    n = M.dim
    if spec.kind == "SLE":
        a = np.linalg.inv(np.eye(n) + A @ A)
    elif spec.kind == "MA":
        a = float(np.linalg.det(A)) * np.linalg.inv(A)
    elif spec.kind == "SIGMA2":
        a = np.trace(A) * np.eye(n) - A
    else:  # IHH
        inv = np.linalg.inv(A)
        a = inv @ inv
    return LinearizedCoeffs(SymMat(0.5 * (a + a.T)))


# ---------------------------------------------------------------------------
# vectorized 2x2 helpers used by the solver and by bulk residual sweeps
# ---------------------------------------------------------------------------

def eigvals_2x2(h11, h12, h22):
    """Eigenvalues (ascending) of symmetric 2x2 matrices, elementwise."""
    mean = 0.5 * (h11 + h22)
    rad = np.sqrt((0.5 * (h11 - h22)) ** 2 + h12 ** 2)
    return mean - rad, mean + rad


def residual_many(spec: EquationSpec, H: np.ndarray) -> np.ndarray:
    """Residuals for a batch of Hessians, shape (N, dim, dim) -> (N,)."""
    H = np.asarray(H, dtype=float)
    w = np.linalg.eigvalsh(H)
    if spec.kind == "SLE":
        return np.sum(np.arctan(w), axis=-1) - spec.theta
    if spec.kind == "MA":
        return np.prod(w, axis=-1) - 1.0
    if spec.kind == "SIGMA2":
        s1 = np.sum(w, axis=-1)
        return (s1 * s1 - np.sum(w * w, axis=-1)) / 2.0 - 1.0
    if np.min(np.abs(w)) < 1e-14:
        raise SingularHessian("IHH residual needs nonzero eigenvalues")
    return np.sum(1.0 / w, axis=-1) - 1.0
