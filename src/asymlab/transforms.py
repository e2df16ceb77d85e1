"""Changes of variables on the gradient graph: U(n) rotation, Legendre
transform, and the shifted (Legendre-Lewy) transform for sigma_2 solutions.

Each is one linear map of the gradient graph with scalar blocks,

    (x, Du) -> (a x + b Du, c x + d Du),

and `_graph_map` builds the potential of the image graph for any of them.
The rotation by angle vartheta is (a, b, c, d) = (cos, sin, -sin, cos);
every Hessian eigen-angle arctan(lambda_i) drops by vartheta.
"""

from __future__ import annotations

import math

import numpy as np

from .core import EquationSpec, PotentialFn, SymMat, rowdot, sym_upper
from .equations import eigvals, sigma2_margin, sym_2x2
from .errors import (BadParams, InverseMapDiverged, NotAdmissible, NotConvex,
                     SingularRotation, StripViolation)

NEWTON_TOL = 1e-12
NEWTON_MAX_ITER = 100


def _graph_hessians(H: np.ndarray, a: float, b: float, c: float, d: float,
                    check=None) -> np.ndarray:
    """(cI + dH)(aI + bH)^-1 for each stacked symmetric H (N, n, n); the two
    factors commute. `check(w)` sees H's ascending eigenvalues first.

    In 2D it is N adj(M) / det M with N = cI + dH and M = aI + bH,
    elementwise: as accurate as LAPACK's solve, with the upper entry in both
    off-diagonal slots and zeros stored as +0.0, as `sym_upper` stores them.
    An exactly zero det M raises LinAlgError, as LAPACK does in 3D."""
    if check is not None:
        check(eigvals(H))
    if H.shape[-1] == 3:
        eye = np.eye(3)
        return sym_upper(np.linalg.solve(a * eye + b * H, c * eye + d * H))
    h11, h12, h22 = H[..., 0, 0], H[..., 0, 1], H[..., 1, 1]
    n11, n12, n22 = c + d * h11, d * h12, c + d * h22
    m11, m12, m22 = a + b * h11, b * h12, a + b * h22
    det = m11 * m22 - m12 * m12
    if not det.all():
        raise np.linalg.LinAlgError("Singular matrix")
    S = sym_2x2((n11 * m22 - n12 * m12) / det, (n12 * m11 - n11 * m12) / det,
                (n22 * m11 - n12 * m12) / det)
    S += 0.0
    return S


def _rotation_check(c: float, s: float):
    def check(w):
        if (np.abs(c + s * w) < 1e-12).any():
            raise SingularRotation("cos I + sin M is numerically singular")
    return check


def _strip_check(c: float, s: float, what: str = "lambda_max"):
    def check(w):
        bad = np.flatnonzero(w[:, -1] >= c / s - 1e-12)
        if bad.size:
            raise StripViolation(
                f"{what} = {w[bad[0], -1]:.6g} >= cot(vartheta) = {c / s:.6g}")
    return check


def _rotation_angle(vartheta: float) -> tuple[float, float]:
    """(cos, sin) of a gradient-graph rotation angle, which must lie in (0, pi/2)."""
    if not 0 < vartheta < math.pi / 2:
        raise BadParams(f"vartheta must be in (0, pi/2), got {vartheta}")
    return math.cos(vartheta), math.sin(vartheta)


def rotate_hessian(M: SymMat, vartheta: float) -> SymMat:
    """Eigenvalue map lambda_i -> tan(arctan(lambda_i) - vartheta),
    eigenvectors unchanged."""
    c, s = math.cos(vartheta), math.sin(vartheta)
    return SymMat(_graph_hessians(M.m[None], c, s, -s, c, _rotation_check(c, s))[0])


def unrotate_hessian(Mt: SymMat, vartheta: float) -> SymMat:
    """Inverse of rotate_hessian; requires lambda_max(Mt) < cot(vartheta)."""
    c, s = math.cos(vartheta), math.sin(vartheta)
    return SymMat(_graph_hessians(Mt.m[None], c, -s, s, c, _strip_check(c, s))[0])


def _newton_step(J: np.ndarray, g: np.ndarray, what: str) -> np.ndarray:
    """J^-1 g for each stacked Jacobian J (N, n, n) and row g (N, n). In 2D
    it is Cramer's rule, forward stable for 2x2 systems, elementwise:
    J^-1 = adj(J) / det J is formed before it meets g, so that nothing
    leaves the range of floats for entries within about 1e+-150. An exactly
    zero det, or LAPACK's singular LU in 3D, is an InverseMapDiverged."""
    if J.shape[-1] == 3:
        try:
            return np.linalg.solve(J, g[..., None])[..., 0]
        except np.linalg.LinAlgError as e:
            raise InverseMapDiverged(f"{what}: singular Jacobian") from e
    j11, j12, j21, j22 = J[:, 0, 0], J[:, 0, 1], J[:, 1, 0], J[:, 1, 1]
    det = j11 * j22 - j12 * j21
    if not det.all():
        raise InverseMapDiverged(f"{what}: singular Jacobian")
    step = np.empty_like(g)
    step[:, 0] = j22 / det * g[:, 0] - j12 / det * g[:, 1]
    step[:, 1] = j11 / det * g[:, 1] - j21 / det * g[:, 0]
    return step


@np.errstate(all="ignore")
def _newton_invert(target, guess, fun, jac, what: str):
    """Damped Newton for fun(p) = target, row by row, with step-halving on
    the residual. Each row has its own convergence test and step length, so
    its iterates do not depend on the other rows; any row that stalls or
    runs out of iterations fails the call. Floating-point warnings are off:
    the line search rejects non-finite trial residuals.

    The live rows (original indices `rows`, ascending) are kept as compact
    arrays, gathered again only on an iteration where some row converges,
    whose solution goes into `out` then; the line search runs on the whole
    arrays until some row accepts a step. Updating `p` in place may write
    into `out` (they start as one array), but only rows not yet converged."""
    out = np.array(guess, dtype=float)
    g = fun(out) - target
    nrm = np.sqrt(rowdot(g, g))
    tol = NEWTON_TOL * (1.0 + np.sqrt(rowdot(target, target)))
    rows, p, tgt = np.arange(len(out)), out, target
    for _ in range(NEWTON_MAX_ITER):
        done = nrm <= tol
        if done.any():
            out[rows[done]] = p[done]
            live = ~done
            rows, p, g, nrm, tol, tgt = (a[live] for a in (rows, p, g, nrm, tol, tgt))
        if not rows.size:
            return out
        step = _newton_step(jac(p), g, what)
        # every row searches until the first trial some row accepts
        t = 1.0
        while True:
            if t <= 2.0 ** -30:
                raise InverseMapDiverged(f"{what}: line search stalled at |g|={nrm[0]:.3g}")
            p_new = p - t * step
            g_new = fun(p_new) - tgt
            n_new = np.sqrt(rowdot(g_new, g_new))
            ok = n_new < nrm
            t *= 0.5
            if ok.any():
                break
        if ok.all():
            p, g, nrm = p_new, g_new, n_new
            continue
        p[ok], g[ok], nrm[ok] = p_new[ok], g_new[ok], n_new[ok]
        todo = np.flatnonzero(~ok)  # positions still searching
        while todo.size:
            if t <= 2.0 ** -30:
                raise InverseMapDiverged(
                    f"{what}: line search stalled at |g|={nrm[todo[0]]:.3g}")
            p_new = p[todo] - t * step[todo]
            g_new = fun(p_new) - tgt[todo]
            n_new = np.sqrt(rowdot(g_new, g_new))
            ok = n_new < nrm[todo]
            k = todo[ok]
            p[k], g[k], nrm[k] = p_new[ok], g_new[ok], n_new[ok]
            todo = todo[~ok]
            t *= 0.5
    raise InverseMapDiverged(f"{what}: no convergence in {NEWTON_MAX_ITER} iterations")


def _sampled_spectra(P: PotentialFn, seed: int) -> np.ndarray:
    """Hessian eigenvalues (ascending, one row per point) at 21 random points
    on each of three shells of P's domain: radii 1, 4 and 16 when rho < 1,
    so that a domain radius near 0 (1e-12 for the radial builtins) is not
    sampled where roundoff swamps the Hessian."""
    rng = np.random.default_rng(seed)
    radii = P.rho * np.array([1.05, 2.0, 8.0]) if P.rho >= 1 else np.array([1.0, 4.0, 16.0])
    D = rng.normal(size=(3 * 21, P.dim))
    X = np.repeat(radii, 21)[:, None] * D / np.sqrt(rowdot(D, D))[:, None]
    return eigvals(P.hessians(X))


def _check_hessian_bound(P: PotentialFn, lower: float):
    """Sampled eigenvalue lower bound on a few shells of P's domain."""
    w = _sampled_spectra(P, 7)[:, 0]
    bad = np.flatnonzero(w <= lower)
    if bad.size:
        raise NotAdmissible(
            f"sampled Hessian eigenvalue {w[bad[0]]:.6g} <= required bound {lower:.6g}")


def _graph_preimage(P: PotentialFn, a: float, b: float, what: str, guess=None):
    """Inverse of x -> a x + b DP(x), row by row, by damped Newton started
    at guess(xt), or at xt itself."""
    def invert(Xt):
        return _newton_invert(
            Xt, Xt if guess is None else guess(Xt),
            lambda p: a * p + b * P.grads_fn(p),
            lambda p: a * np.eye(P.dim) + b * P.hessians_fn(p),
            what)
    return invert


def _graph_map(P: PotentialFn, a: float, b: float, c: float, d: float,
               rho: float, what: str, guess=None, check=None) -> PotentialFn:
    """Potential of P's gradient graph moved by (x, Du) -> (a x + b Du, c x + d Du).

    At xt = a x + b Du(x), with x found by `_graph_preimage`:
        value     det u + (ac/2)|x|^2 + (bd/2)|G|^2 + bc x.G,  det = ad - bc
        gradient  c x + d Du
        Hessian   (cI + dH)(aI + bH)^-1, after `check` on H's eigenvalues.
    The value takes G = (xt - a x)/b (b != 0 in every map) in place of Du(x):
    the form is then stationary in x, so an error in the inverted x moves it
    only at second order. The gradient keeps Du(x); taken from G it measured
    less accurate. The callbacks share the last preimage: points of the same
    shape and bytes (-0.0 and 0.0 can invert to different sign bits) reuse it.
    """
    new_preimage = _graph_preimage(P, a, b, what, guess)
    det = a * d - b * c
    last = [None, None]  # (shape, bytes) of the last points inverted, their preimage

    def invert(Xt):
        key = (Xt.shape, Xt.tobytes())
        if key != last[0]:
            last[:] = key, new_preimage(Xt)  # a raise stores nothing
        return last[1]

    def values(Xt):
        X = invert(Xt)
        G = (Xt - a * X) / b
        return (det * P.values_fn(X) + 0.5 * a * c * rowdot(X, X)
                + 0.5 * b * d * rowdot(G, G) + b * c * rowdot(X, G))

    def grads(Xt):
        X = invert(Xt)
        return c * X + d * P.grads_fn(X) if d else c * X

    def hessians(Xt):
        return _graph_hessians(P.hessians_fn(invert(Xt)), a, b, c, d, check)

    return PotentialFn(P.dim, rho, values, grads, hessians)


def rotate_potential(P: PotentialFn, vartheta: float) -> PotentialFn:
    """New potential of the rotated gradient graph.

    Evaluation at a rotated point xt inverts xt = c x + s DP(x) by damped
    Newton; the map is the gradient of the convex c|x|^2/2 + s P under the
    precondition D^2 P > (1 - cot vartheta) I.
    """
    c, s = _rotation_angle(vartheta)
    _check_hessian_bound(P, 1.0 - c / s)
    # distance-increase gives |xt1 - xt2| >= sin(vartheta) |x1 - x2|; the
    # image of {|x| > rho} contains an exterior set of comparable radius.
    return _graph_map(P, c, s, -s, c, P.rho * abs(s), "rotate_potential point inversion",
                      check=_rotation_check(c, s))


def unrotate_potential(Pt: PotentialFn, vartheta: float) -> PotentialFn:
    """Rotation by -vartheta: recover u from the rotated potential.

    Requires lambda_max(D^2 Pt) < cot(vartheta) on the evaluation set (the
    strip bound); the additive constant is fixed by the defining formula.
    """
    c, s = _rotation_angle(vartheta)
    _strip_check(c, s, "sampled lambda_max")(_sampled_spectra(Pt, 11))
    return _graph_map(Pt, c, -s, s, c, Pt.rho * abs(s), "unrotate_potential point inversion",
                      check=_strip_check(c, s))


def legendre(P: PotentialFn) -> PotentialFn:
    """Convex conjugate: ubar(y) = x.y - u(x) at x = (Du)^-1(y)."""
    try:
        _check_hessian_bound(P, 0.0)
    except NotAdmissible as e:
        raise NotConvex(str(e)) from e
    return _graph_map(P, 0.0, 1.0, 1.0, 0.0, 0.0, "legendre point inversion")


def legendre_lewy(P: PotentialFn, spec: EquationSpec) -> PotentialFn:
    """Shifted Legendre transform for sigma_2 solutions.

    With K = sqrt(2/(n(n-1))) and w = u + K|x|^2/2, returns -legendre(w);
    the output Hessian is -(D^2 u + K I)^-1, pinched in (-I/delta, 0).
    """
    if spec.kind != "SIGMA2":
        raise BadParams("legendre_lewy applies to SIGMA2 specs")
    K = sigma2_margin(spec.dim)
    try:
        _check_hessian_bound(P, spec.delta - K)
    except NotAdmissible as e:
        raise NotAdmissible(
            f"D^2 u > (delta - K) I fails on samples: {e}") from e
    # y = Dw(x) = K x + Du(x), with D^2 w > delta I
    return _graph_map(P, K, 1.0, -1.0, 0.0, 0.0, "legendre_lewy point inversion",
                      lambda Y: Y / (1.0 + K))
