"""Changes of variables: U(n) rotation of the gradient graph, Legendre
transform, and the shifted (Legendre-Lewy) transform for sigma_2 solutions.

The rotation by angle vartheta sends (x, Du) to
(c x + s Du, -s x + c Du) with (c, s) = (cos vartheta, sin vartheta);
every Hessian eigen-angle arctan(lambda_i) drops by vartheta.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import EquationSpec, PotentialFn, SymMat, matvecs, rowdot, sym_upper
from .errors import (BadParams, InverseMapDiverged, NotAdmissible, NotConvex,
                     SingularRotation, StripViolation)

NEWTON_TOL = 1e-12
NEWTON_MAX_ITER = 100


@dataclass(frozen=True)
class RotationParams:
    vartheta: float

    def __post_init__(self):
        if not 0 < self.vartheta < math.pi / 2:
            raise BadParams(f"vartheta must be in (0, pi/2), got {self.vartheta}")

    @property
    def c(self) -> float:
        return math.cos(self.vartheta)

    @property
    def s(self) -> float:
        return math.sin(self.vartheta)

    @staticmethod
    def from_spec(spec: EquationSpec) -> "RotationParams":
        """vartheta = (Theta - (n-2)pi/2)/n, so the rotated phase is critical."""
        if spec.kind != "SLE" or not spec.supercritical:
            raise BadParams("rotation parameters need a supercritical SLE spec")
        if spec.theta <= (spec.dim - 2) * math.pi / 2:
            raise BadParams("rotation device assumes Theta > (n-2)pi/2; "
                            "apply the symmetry u -> -u first")
        return RotationParams((spec.theta - (spec.dim - 2) * math.pi / 2) / spec.dim)


def _with_eigenvalues(V: np.ndarray, w: np.ndarray) -> np.ndarray:
    """V diag(w) V^T for each stacked eigenbasis V and spectrum w."""
    return sym_upper((V * w[:, None, :]) @ V.swapaxes(-1, -2))


def _rotate_hessians(H: np.ndarray, vartheta: float) -> np.ndarray:
    """Batched rotate_hessian on Hessians of shape (N, n, n)."""
    c, s = math.cos(vartheta), math.sin(vartheta)
    w, V = np.linalg.eigh(H)
    if (np.abs(c + s * w) < 1e-12).any():
        raise SingularRotation("cos I + sin M is numerically singular")
    return _with_eigenvalues(V, np.tan(np.arctan(w) - vartheta))


def _unrotate_hessians(Ht: np.ndarray, vartheta: float) -> np.ndarray:
    """Batched unrotate_hessian on Hessians of shape (N, n, n)."""
    c, s = math.cos(vartheta), math.sin(vartheta)
    w, V = np.linalg.eigh(Ht)
    bad = np.flatnonzero(w[:, -1] >= c / s - 1e-12)
    if bad.size:
        raise StripViolation(
            f"lambda_max = {w[bad[0], -1]:.6g} >= cot(vartheta) = {c / s:.6g}")
    return _with_eigenvalues(V, (s + c * w) / (c - s * w))


def rotate_hessian(M: SymMat, vartheta: float) -> SymMat:
    """Eigenvalue map lambda_i -> tan(arctan(lambda_i) - vartheta),
    eigenvectors unchanged."""
    return SymMat(_rotate_hessians(M.m[None], vartheta)[0])


def unrotate_hessian(Mt: SymMat, vartheta: float) -> SymMat:
    """Inverse of rotate_hessian; requires lambda_max(Mt) < cot(vartheta)."""
    return SymMat(_unrotate_hessians(Mt.m[None], vartheta)[0])


def forward_point(x, gradient, vartheta: float):
    """(x, y) -> (c x + s y, -s x + c y) on one point of the gradient graph."""
    c, s = math.cos(vartheta), math.sin(vartheta)
    x = np.asarray(x, dtype=float)
    y = np.asarray(gradient, dtype=float)
    return c * x + s * y, -s * x + c * y


@np.errstate(all="ignore")
def _newton_invert(target, guess, fun, jac, what: str):
    """Damped Newton for fun(p) = target, row by row, with step-halving on
    the residual. Each row has its own convergence test and step length, so
    its iterates do not depend on the other rows; any row that stalls or
    runs out of iterations fails the call. Floating-point warnings are off:
    the line search rejects non-finite trial residuals."""
    p = np.array(guess, dtype=float)
    g = fun(p) - target
    nrm = np.sqrt(rowdot(g, g))
    tol = NEWTON_TOL * (1.0 + np.sqrt(rowdot(target, target)))
    rows = np.arange(len(p))
    for _ in range(NEWTON_MAX_ITER):
        rows = rows[~(nrm[rows] <= tol[rows])]
        if not rows.size:
            return p
        try:
            step = np.linalg.solve(jac(p[rows]), g[rows][..., None])[..., 0]
        except np.linalg.LinAlgError as e:
            raise InverseMapDiverged(f"{what}: singular Jacobian") from e
        t = 1.0
        todo = np.arange(rows.size)  # positions in `rows` still searching
        while todo.size:
            if t <= 2.0 ** -30:
                raise InverseMapDiverged(
                    f"{what}: line search stalled at |g|={nrm[rows[todo[0]]]:.3g}")
            k = rows[todo]
            p_new = p[k] - t * step[todo]
            g_new = fun(p_new) - target[k]
            n_new = np.sqrt(rowdot(g_new, g_new))
            ok = n_new < nrm[k]
            p[k[ok]], g[k[ok]], nrm[k[ok]] = p_new[ok], g_new[ok], n_new[ok]
            todo = todo[~ok]
            t *= 0.5
    raise InverseMapDiverged(f"{what}: no convergence in {NEWTON_MAX_ITER} iterations")


def _sampled_spectra(P: PotentialFn, seed: int, n_samples: int = 64) -> np.ndarray:
    """Hessian eigenvalues (ascending, one row per point) at random points
    on three shells of P's domain."""
    rng = np.random.default_rng(seed)
    radii = P.rho * np.array([1.05, 2.0, 8.0]) if P.rho > 0 else np.array([1.0, 4.0, 16.0])
    per_shell = n_samples // len(radii)
    D = rng.normal(size=(len(radii) * per_shell, P.dim))
    X = np.repeat(radii, per_shell)[:, None] * D / np.sqrt(rowdot(D, D))[:, None]
    return np.linalg.eigvalsh(P.hessians(X))


def _check_hessian_bound(P: PotentialFn, lower: float):
    """Sampled eigenvalue lower bound on a few shells of P's domain."""
    w = _sampled_spectra(P, 7)[:, 0]
    bad = np.flatnonzero(w <= lower)
    if bad.size:
        raise NotAdmissible(
            f"sampled Hessian eigenvalue {w[bad[0]]:.6g} <= required bound {lower:.6g}")


def _graph_preimage(P: PotentialFn, c: float, s: float, what: str, guess=None):
    """Inverse of x -> c x + s DP(x), row by row, by damped Newton started
    at guess(xt), or at xt itself."""
    def invert(Xt):
        return _newton_invert(
            Xt, Xt if guess is None else guess(Xt),
            lambda p: c * p + s * P.grads_fn(p),
            lambda p: c * np.eye(P.dim) + s * P.hessians_fn(p),
            what)
    return invert


def _predictor(jac: np.ndarray):
    """Starting guess J^-1 xt from a far-field Jacobian J of the graph map."""
    inv = np.linalg.inv(jac)
    return lambda Xt: matvecs(inv, Xt)


def _rotated(P: PotentialFn, c: float, s: float, hessian_map, guess,
             what: str) -> PotentialFn:
    """Potential of P's gradient graph moved by (x, y) -> (c x + s y, -s x + c y)."""
    invert = _graph_preimage(P, c, s, what, guess)

    def values(Xt):
        X = invert(Xt)
        G = P.grads_fn(X)
        return (0.5 * c * s * (rowdot(G, G) - rowdot(X, X)) - s * s * rowdot(G, X)
                + P.values_fn(X))

    def grads(Xt):
        X = invert(Xt)
        return -s * X + c * P.grads_fn(X)

    def hessians(Xt):
        return hessian_map(P.hessians_fn(invert(Xt)))

    # distance-increase gives |xt1 - xt2| >= sin(vartheta) |x1 - x2|; the
    # image of {|x| > rho} contains an exterior set of comparable radius.
    return PotentialFn(P.dim, P.rho * abs(s), values, grads, hessians)


def rotate_potential(P: PotentialFn, vartheta: float, *,
                     hessian_hint: SymMat | None = None,
                     check: bool = True) -> PotentialFn:
    """New potential of the rotated gradient graph.

    Evaluation at a rotated point xt inverts xt = c x + s DP(x) by damped
    Newton; the map is the gradient of the convex c|x|^2/2 + s P under the
    precondition D^2 P > (1 - cot vartheta) I.
    """
    c, s = math.cos(vartheta), math.sin(vartheta)
    if check:
        _check_hessian_bound(P, 1.0 - c / s)
    guess = None
    if hessian_hint is not None:
        guess = _predictor(c * np.eye(P.dim) + s * hessian_hint.m)
    return _rotated(P, c, s, lambda H: _rotate_hessians(H, vartheta), guess,
                    "rotate_potential point inversion")


def unrotate_potential(Pt: PotentialFn, vartheta: float, *,
                       hessian_hint: SymMat | None = None,
                       check: bool = True) -> PotentialFn:
    """Rotation by -vartheta: recover u from the rotated potential.

    Requires lambda_max(D^2 Pt) < cot(vartheta) on the evaluation set (the
    strip bound); the additive constant is fixed by the defining formula.
    """
    c, s = math.cos(vartheta), math.sin(vartheta)
    if check:
        lam = _sampled_spectra(Pt, 11)[:, -1]
        bad = np.flatnonzero(lam >= c / s - 1e-12)
        if bad.size:
            raise StripViolation(
                f"sampled lambda_max = {lam[bad[0]]:.6g} >= cot(vartheta) = {c / s:.6g}")
    guess = None
    if hessian_hint is not None:
        jac = c * np.eye(Pt.dim) - s * hessian_hint.m
        if np.min(np.linalg.eigvalsh(0.5 * (jac + jac.T))) <= 0:
            raise StripViolation("far-field Hessian hint violates the strip bound")
        guess = _predictor(jac)
    return _rotated(Pt, c, -s, lambda H: _unrotate_hessians(H, vartheta), guess,
                    "unrotate_potential point inversion")


def legendre(P: PotentialFn, *, mu: float | None = None,
             check: bool = True) -> PotentialFn:
    """Convex conjugate: ubar(y) = x.y - u(x) at x = (Du)^-1(y)."""
    if check:
        try:
            _check_hessian_bound(P, mu if mu is not None else 0.0)
        except NotAdmissible as e:
            raise NotConvex(str(e)) from e
    invert = _graph_preimage(P, 0.0, 1.0, "legendre point inversion")

    def values(Y):
        X = invert(Y)
        return rowdot(X, Y) - P.values_fn(X)

    def hessians(Y):
        return sym_upper(np.linalg.inv(P.hessians_fn(invert(Y))))

    return PotentialFn(P.dim, 0.0, values, invert, hessians)


def legendre_lewy(P: PotentialFn, spec: EquationSpec, *,
                  check: bool = True) -> PotentialFn:
    """Shifted Legendre transform for sigma_2 solutions.

    With K = sqrt(2/(n(n-1))) and w = u + K|x|^2/2, returns -legendre(w);
    the output Hessian is -(D^2 u + K I)^-1, pinched in (-I/delta, 0).
    """
    from .equations import sigma2_margin

    if spec.kind != "SIGMA2":
        raise BadParams("legendre_lewy applies to SIGMA2 specs")
    K = sigma2_margin(spec.dim)
    if check:
        try:
            _check_hessian_bound(P, spec.delta - K)
        except NotAdmissible as e:
            raise NotAdmissible(
                f"D^2 u > (delta - K) I fails on samples: {e}") from e
    # y = Dw(x) = K x + Du(x), with D^2 w > delta I
    invert = _graph_preimage(P, K, 1.0, "legendre_lewy point inversion",
                             lambda Y: Y / (1.0 + K))

    def values(Y):
        X = invert(Y)
        return P.values_fn(X) + 0.5 * K * rowdot(X, X) - rowdot(X, Y)

    def grads(Y):
        return -invert(Y)

    def hessians(Y):
        return sym_upper(-np.linalg.inv(K * np.eye(P.dim) + P.hessians_fn(invert(Y))))

    return PotentialFn(P.dim, 0.0, values, grads, hessians)
