"""Profile extraction and the boundary-integral route to the log coefficient.

A potential with quadratic asymptotics satisfies
u ~ x'Ax/2 + b'x + c + Gamma, Gamma = (d/2) log(x'Lx), where the kernel L
depends on the equation (I + A^2 for SLE, A for MA, A^2 for IHH) and d is
also a boundary integral over any curve enclosing the hole.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .core import AsymptoticProfile, EquationSpec, PotentialFn, SymMat, matvecs, rowdot
from .equations import OPERATORS
from .errors import (BadParams, IllConditioned, NoDecay, NonPositiveValue,
                     NotAdmissible, WrongDimension)

EXACT_FLOOR = 1e-12
EXACT_SLOPE = -math.inf
DEFAULT_QUAD_ORDER = 512
MAX_QUAD_ORDER = 1 << 16  # far past where the trapezoid rule, spectrally accurate, gains digits


@dataclass(frozen=True)
class ShellSpec:
    radii: tuple
    points_per_shell: int = 64

    def __post_init__(self):
        r = tuple(float(v) for v in self.radii)
        object.__setattr__(self, "radii", r)
        if len(r) < 2 or any(b <= a for a, b in zip(r, r[1:])):
            raise BadParams("radii must be strictly increasing, >= 2 of them")
        if not all(math.isfinite(v) and v > 0 for v in r):
            raise BadParams(f"radii must be finite and positive, got {r}")
        if self.points_per_shell < 32:
            raise BadParams("points_per_shell must be >= 32")

    def points(self, dim: int, seed: int | None = None) -> np.ndarray:
        """Every shell's sample points, shell by shell, as one batch of shape
        (len(radii) * points_per_shell, dim)."""
        return np.concatenate([shell_points(r, self.points_per_shell, dim, seed=seed)
                               for r in self.radii])


def shell_points(radius: float, n: int, dim: int, seed: int | None = None) -> np.ndarray:
    """Deterministic sample points on a sphere of given radius.

    2D: equiangular; 3D: Fibonacci spiral.  A seed rotates the pattern so
    repeated sweeps decorrelate, without losing determinism.
    """
    if dim == 2:
        offset = 0.0
        if seed is not None:
            offset = (seed % 997) * (2 * math.pi / 997)
        th = np.arange(n) * (2 * math.pi / n) + offset
        return radius * np.stack([np.cos(th), np.sin(th)], axis=1)
    golden = math.pi * (3.0 - math.sqrt(5.0))
    k = np.arange(n)
    zc = 1.0 - (2.0 * k + 1.0) / n
    rc = np.sqrt(np.clip(1.0 - zc * zc, 0.0, None))
    phi = k * golden + (0.0 if seed is None else (seed % 997) * 0.01)
    return radius * np.stack([rc * np.cos(phi), rc * np.sin(phi), zc], axis=1)


def hessian_limit(P: PotentialFn, shells: ShellSpec) -> tuple[SymMat, float]:
    """Far-field Hessian A (outermost-shell mean) and the decay slope of
    the per-shell max of ||D^2 P - A||.

    Raises NotAdmissible naming the first Hessian that is not finite, and
    NoDecay when the outermost residual exceeds the innermost one: the
    Hessian is not settling (e.g. critical-phase counterexamples).
    """
    hessians = P.hessians(shells.points(P.dim)).reshape(
        len(shells.radii), shells.points_per_shell, P.dim, P.dim)
    bad = np.argwhere(~np.isfinite(hessians).all(axis=(2, 3)))
    if bad.size:  # overflowed: name it, not the log kernel it would spoil
        raise NotAdmissible(f"Hessian {hessians[tuple(bad[0])].tolist()} on the shell of "
                            f"radius {shells.radii[bad[0][0]]:g} is not finite")
    A = hessians[-1].mean(axis=0)
    A = 0.5 * (A + A.T)
    res = np.linalg.norm(hessians - A, axis=(2, 3)).max(axis=1)
    scale = 1.0 + np.abs(A).max()
    if res[-1] <= EXACT_FLOOR * scale:
        return SymMat(A), EXACT_SLOPE
    if res[-1] > res[0]:
        raise NoDecay(
            f"Hessian residual grows with radius ({res[0]:.3g} -> {res[-1]:.3g})")
    slope = _log_slope(np.asarray(shells.radii), res)
    return SymMat(A), slope


def _log_slope(r: np.ndarray, v: np.ndarray) -> float:
    mask = v > 0
    if mask.sum() < 2:
        return EXACT_SLOPE
    return float(np.polyfit(np.log(r[mask]), np.log(v[mask]), 1)[0])


def decay_exponent(samples) -> float:
    """Least-squares slope of log(value) against log(r)."""
    r = np.array([float(a) for a, _ in samples])
    v = np.array([float(b) for _, b in samples])
    if len(r) < 3 or len(np.unique(r)) < 3:
        raise BadParams("need >= 3 distinct radii")
    if np.any(v <= 0):
        raise NonPositiveValue("decay_exponent needs positive values")
    return float(np.polyfit(np.log(r), np.log(v), 1)[0])


def _row(spec: EquationSpec, name: str) -> Callable:
    """The equation's `name` entry of `OPERATORS` (log_kernel or div_form)."""
    fn = getattr(OPERATORS[spec.kind], name)
    if fn is None:
        raise BadParams(f"no 2D {name} for {spec.kind}")
    return fn


def log_kernel(spec: EquationSpec, A: SymMat) -> SymMat:
    """The matrix L of the log term, from the equation's row of `OPERATORS`."""
    L = _row(spec, "log_kernel")(spec, A.m)
    return SymMat(0.5 * (L + L.T))


def fit_profile(P: PotentialFn, spec: EquationSpec, shells: ShellSpec,
                seed: int | None = None) -> AsymptoticProfile:
    """Two-stage fit: A from the Hessian limit, then linear least squares for
    (b, c, d) against {x1, x2, 1, log(x'Lx)/2} over all shell samples.
    The log column is dropped for dim 3 (no log term in the expansion)."""
    A, _ = hessian_limit(P, shells)
    with_log = P.dim == 2
    L = log_kernel(spec, A) if with_log else SymMat.identity(P.dim)
    w = np.linalg.eigvalsh(L.m)
    if not w[0] > EXACT_FLOOR * w[-1]:  # nan too; else x'Lx can round to <= 0
        raise NotAdmissible(f"log kernel L is not positive definite: eigenvalues {w.tolist()}")

    X = shells.points(P.dim, seed=seed)
    columns = [X, np.ones((len(X), 1))]
    if with_log:
        columns.append(0.5 * np.log(rowdot(matvecs(L.m, X), X))[:, None])
    D = np.hstack(columns)
    y = P.values(X) - 0.5 * rowdot(matvecs(A.m, X), X)
    if np.linalg.cond(D) > 1e12:
        raise IllConditioned("normal equations condition number exceeds 1e12")
    coef, *_ = np.linalg.lstsq(D, y, rcond=None)
    b = coef[:P.dim]
    c = float(coef[P.dim])
    d = float(coef[P.dim + 1]) if with_log else 0.0

    resid = np.abs(D @ coef - y)
    per_shell = resid.reshape(len(shells.radii), shells.points_per_shell).max(axis=1)
    scale = 1.0 + np.abs(y).max()
    if per_shell[-1] <= EXACT_FLOOR * scale:
        slope = EXACT_SLOPE
    else:
        slope = _log_slope(np.asarray(shells.radii), per_shell)
    return AsymptoticProfile(A, b, c, d, L, slope)


# ---------------------------------------------------------------------------
# boundary integrals
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class BoundaryCurve:
    """Smooth, simple, positively oriented closed curve t in [0, 2pi).

    `gamma` and `dgamma` take parameters t of shape (K,) and return the
    points and tangents, each of shape (K, 2)."""

    gamma: Callable[[np.ndarray], np.ndarray]
    dgamma: Callable[[np.ndarray], np.ndarray]
    order: int = DEFAULT_QUAD_ORDER

    def __post_init__(self):
        if not 16 <= self.order <= MAX_QUAD_ORDER:  # 16: experiment.json's minimum
            raise BadParams(f"quadrature order must be in [16, {MAX_QUAD_ORDER}], got {self.order}")

    @staticmethod
    def circle(radius: float, center=(0.0, 0.0), order: int = DEFAULT_QUAD_ORDER):
        if not 0 < radius < math.inf:
            raise BadParams(f"circle radius must be finite and > 0, got {radius!r}")
        cx, cy = center
        return BoundaryCurve(
            lambda t: np.stack([cx + radius * np.cos(t), cy + radius * np.sin(t)], axis=1),
            lambda t: np.stack([-radius * np.sin(t), radius * np.cos(t)], axis=1),
            order)

    @staticmethod
    def ellipse_of_kernel(L: SymMat, R: float, order: int = DEFAULT_QUAD_ORDER):
        """The level curve {x : x'Lx = R^2} for positive definite L."""
        w, V = np.linalg.eigh(L.m)
        if w[0] <= 0:
            raise BadParams("kernel must be positive definite")
        S = V @ np.diag(1.0 / np.sqrt(w)) @ V.T
        return BoundaryCurve(
            lambda t: R * matvecs(S, np.stack([np.cos(t), np.sin(t)], axis=1)),
            lambda t: R * matvecs(S, np.stack([-np.sin(t), np.cos(t)], axis=1)),
            order)

    def quad_nodes(self):
        t = np.arange(self.order) * (2 * math.pi / self.order)
        return t, 2 * math.pi / self.order

    def enclosed_area(self) -> float:
        t, h = self.quad_nodes()
        g, dg = self.gamma(t), self.dgamma(t)
        return float(np.sum(0.5 * (g[:, 0] * dg[:, 1] - g[:, 1] * dg[:, 0]))) * h


def _curve_integral(curve: BoundaryCurve, integrand) -> float:
    """Composite trapezoid of integrand(X, nu) * |gamma'| over the closed
    curve, with the integrand taking all nodes X and unit normals nu as
    (K, 2) batches; spectrally accurate for smooth periodic data."""
    t, h = curve.quad_nodes()
    g, dg = curve.gamma(t), curve.dgamma(t)
    speed = np.hypot(dg[:, 0], dg[:, 1])
    nu = np.stack([dg[:, 1], -dg[:, 0]], axis=1) / speed[:, None]
    return float(np.sum(integrand(g, nu) * speed)) * h


def boundary_d(spec: EquationSpec, P: PotentialFn, curve: BoundaryCurve) -> float:
    """The log coefficient as a boundary integral over a curve enclosing the
    hole, d = (integral - aw * area) / 2pi. With the weights (lw, cw, aw) of
    the equation's algebraic form, the integrand lw u_nu + cw u_1 (u_22, -u_12).nu
    is the flux whose divergence is lw tr D^2u + cw det D^2u. A Hessian
    off the equation's solution branch at a node raises NotAdmissible."""
    if spec.dim != 2 or P.dim != 2:
        raise WrongDimension("boundary_d is 2D only")
    lw, cw, aw = _row(spec, "div_form")(spec)

    def integrand(X, nu):
        g = P.grads(X)
        H = P.hessians(X)
        bad = np.flatnonzero(~OPERATORS[spec.kind].in_branch(spec, H))
        if bad.size:
            raise NotAdmissible(f"D^2u at curve node {X[bad[0]].tolist()} is not "
                                f"admissible for {spec.kind}")
        return (lw * rowdot(g, nu)
                + cw * g[:, 0] * (H[:, 1, 1] * nu[:, 0] - H[:, 0, 1] * nu[:, 1]))

    total = _curve_integral(curve, integrand)
    return (total - aw * curve.enclosed_area()) / (2 * math.pi)


def flux_identity(spec: EquationSpec, A: SymMat, d: float, R: float) -> float:
    """Flux of the linearized log term through the kernel ellipse of radius R.

    Integrates the cross terms of the equation's algebraic form between
    Q = x'Ax/2 and Gamma = (d/2) log(x'Lx); the result is 2*pi*d
    independently of R, by the distributional identity concentrating the
    bulk integrand at the origin.
    """
    if A.dim != 2:
        raise WrongDimension("flux identity is 2D only")
    L = log_kernel(spec, A)
    lw, cw, _ = _row(spec, "div_form")(spec)
    Am = A.m
    Lm = L.m
    curve = BoundaryCurve.ellipse_of_kernel(L, R)

    def integrand(X, nu):
        Lx = matvecs(Lm, X)
        q = rowdot(Lx, X)
        dGamma = d * Lx / q[:, None]
        HGamma11 = d * (Lm[1, 1] / q - 2.0 * Lx[:, 1] ** 2 / q ** 2)
        HGamma01 = d * (Lm[0, 1] / q - 2.0 * Lx[:, 0] * Lx[:, 1] / q ** 2)
        Q1 = rowdot(X, Am[0])
        return (lw * rowdot(dGamma, nu)
                + cw * (Q1 * (HGamma11 * nu[:, 0] - HGamma01 * nu[:, 1])
                        + dGamma[:, 0] * (Am[1, 1] * nu[:, 0] - Am[0, 1] * nu[:, 1])))

    return _curve_integral(curve, integrand)
