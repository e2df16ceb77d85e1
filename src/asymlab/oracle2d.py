"""Manufactured exact exterior solutions.

The 2D family comes from a harmonic potential with Laurent gradient
h(z) = a1 z + a0 + a_{-1}/z + a_{-2}/z^2 + ... rotated back by -vartheta,
giving exact solutions of the special Lagrangian equation with phase
Theta = 2 vartheta.  Closed-form named solutions cover the remaining
operators and the critical-phase counterexamples.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field

import numpy as np

from .asymptotics import log_kernel, shell_points
from .core import AsymptoticProfile, EquationSpec, PotentialFn, SymMat, matvecs, rowdot
from .equations import eigvals, sym_2x2
from .errors import BadParams, InverseMapDiverged, StripViolation, UnknownName
from .transforms import (_graph_map, _graph_preimage, _rotation_angle, _strip_check,
                         unrotate_hessian)

TAIL_MAX_LEN = 7          # coefficients a_{-2} ... a_{-8}
TAIL_MAX_ABS = 10.0
A1_MARGIN = 0.05
RHO_CANDIDATES = (1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0)


@dataclass(frozen=True)
class LaurentCoeffs:
    """Expansion data of h(z); a_{-1} must be real so that Re(a_{-1} log z)
    is single-valued on an exterior domain. `h`, `h_prime` and `primitive`
    take a complex number or a complex array."""

    a1: complex = 0.0
    a0: complex = 0.0
    am1: float = 0.0
    tail: tuple = field(default_factory=tuple)

    def __post_init__(self):
        object.__setattr__(self, "a1", complex(self.a1))
        object.__setattr__(self, "a0", complex(self.a0))
        object.__setattr__(self, "am1", float(self.am1))
        object.__setattr__(self, "tail", tuple(complex(t) for t in self.tail))
        if not all(map(cmath.isfinite, (self.a1, self.a0, self.am1, *self.tail))):
            raise BadParams("Laurent coefficients must be finite")
        if len(self.tail) > TAIL_MAX_LEN:
            raise BadParams(f"tail capped at {TAIL_MAX_LEN} coefficients")
        if any(abs(t) > TAIL_MAX_ABS for t in self.tail):
            raise BadParams(f"tail coefficients capped at |a| <= {TAIL_MAX_ABS}")

    def h(self, z: complex) -> complex:
        out = self.a1 * z + self.a0 + self.am1 / z
        zk = z
        for t in self.tail:
            zk = zk * z
            out = out + t / zk
        return out

    def h_prime(self, z: complex) -> complex:
        out = self.a1 - self.am1 / z ** 2
        zk = z * z
        for k, t in enumerate(self.tail, start=2):
            zk = zk * z
            out = out - k * t / zk
        return out

    def primitive(self, z: complex) -> complex:
        """W(z) with W' = h, using the principal branch of log."""
        out = 0.5 * self.a1 * z ** 2 + self.a0 * z + self.am1 * np.log(z)
        zk = 1.0 + 0j
        for k, t in enumerate(self.tail, start=2):
            zk = zk * z
            out = out + t / ((1 - k) * zk)
        return out


def _complex(X: np.ndarray) -> np.ndarray:
    """Rows (x1, x2) as the complex numbers x1 + i x2."""
    return np.ascontiguousarray(X, dtype=float).view(np.complex128)[:, 0]


def harmonic_potential(coeffs: LaurentCoeffs) -> PotentialFn:
    """Harmonic u with complexified gradient h: Du = (Re h, -Im h)."""

    def values(X):
        return coeffs.primitive(_complex(X)).real

    def grads(X):
        hz = coeffs.h(_complex(X))
        return np.stack([hz.real, -hz.imag], axis=1)

    def hessians(X):
        hp = coeffs.h_prime(_complex(X))
        return sym_2x2(hp.real, -hp.imag, -hp.real)

    return PotentialFn(2, 1.0, values, grads, hessians)


def _far_hessian(coeffs: LaurentCoeffs) -> np.ndarray:
    """Hessian of the harmonic potential at infinity, the a1 term of h."""
    a1 = coeffs.a1
    return np.array([[a1.real, -a1.imag], [-a1.imag, -a1.real]])


def expected_profile(coeffs: LaurentCoeffs, vartheta: float) -> AsymptoticProfile:
    """Predicted expansion data of oracle_sle(coeffs, vartheta).

    The constant c has no closed formula in the Laurent data (it comes from
    term-by-term integration); it is reported as nan and only checked for
    fit stability, never against a prediction.
    """
    c, s = math.cos(vartheta), math.sin(vartheta)
    A = unrotate_hessian(SymMat(_far_hessian(coeffs)), vartheta).m
    bt = np.array([coeffs.a0.real, -coeffs.a0.imag])
    b = (c * np.eye(2) + s * A) @ bt
    L = log_kernel(EquationSpec("SLE", 2, theta=2 * vartheta), SymMat(A))
    return AsymptoticProfile(SymMat(A), b, math.nan, coeffs.am1, L, math.nan)


def _certify_rho(harm: PotentialFn, a: float, b: float, what: str, guess, bad) -> float:
    """Smallest radius in a geometric sweep whose shell of 256 points inverts
    under x -> a x + b D harm(x) to preimage Hessians H with no bad(H) row."""
    preimage = _graph_preimage(harm, a, b, what, guess)
    for rho in RHO_CANDIDATES:
        try:
            H = harm.hessians_fn(preimage(shell_points(rho, 256, 2)))
        except InverseMapDiverged:
            continue
        if not bad(H).any():
            return rho
    raise StripViolation("no radius in the sweep certifies the inverse map")


def oracle_sle(coeffs: LaurentCoeffs, vartheta: float) -> PotentialFn:
    """Exact exterior solution of the SLE with Theta = 2*vartheta.

    The harmonic potential's gradient graph rotated by -vartheta; the domain
    radius is the smallest certified one from a geometric sweep.
    """
    c, s = _rotation_angle(vartheta)
    if abs(coeffs.a1) >= c / s - A1_MARGIN:
        raise StripViolation(f"|a1| = {abs(coeffs.a1):.6g} >= cot(vartheta) - {A1_MARGIN}")
    ht = harmonic_potential(coeffs)
    what = "unrotate_potential point inversion"
    # Newton starts at J^-1 xt, J the far-field Jacobian of xt = c x - s Du(x)
    inv = np.linalg.inv(c * np.eye(2) - s * _far_hessian(coeffs))
    guess = lambda Xt: matvecs(inv, Xt)
    rho = _certify_rho(ht, c, -s, what, guess, lambda H: eigvals(H)[:, -1] >= c / s - 1e-6)
    return _graph_map(ht, c, -s, s, c, rho, what, guess, _strip_check(c, s))


# ---------------------------------------------------------------------------
# named closed-form solutions
# ---------------------------------------------------------------------------

def _sin_exp() -> PotentialFn:
    # harmonic, solves the 2D SLE at the critical phase Theta = 0, with
    # unbounded Hessian along x2: the negative control for quadratic fitting
    def values(X):
        return np.sin(X[:, 0]) * np.exp(X[:, 1])

    def grads(X):
        e = np.exp(X[:, 1])
        return np.stack([np.cos(X[:, 0]) * e, np.sin(X[:, 0]) * e], axis=1)

    def hessians(X):
        e = np.exp(X[:, 1])
        si, co = np.sin(X[:, 0]), np.cos(X[:, 0])
        return sym_2x2(-si * e, co * e, si * e)

    return PotentialFn(2, 0.0, values, grads, hessians)


def _warren3d() -> PotentialFn:
    # (x1^2 + x2^2) e^{x3} - e^{x3} + e^{-x3}/4, solves sigma_2 = 1
    def values(X):
        ep, em = np.exp(X[:, 2]), np.exp(-X[:, 2])
        return (X[:, 0] ** 2 + X[:, 1] ** 2) * ep - ep + em / 4

    def grads(X):
        ep, em = np.exp(X[:, 2]), np.exp(-X[:, 2])
        r2 = X[:, 0] ** 2 + X[:, 1] ** 2
        return np.stack([2 * X[:, 0] * ep, 2 * X[:, 1] * ep, r2 * ep - ep - em / 4], axis=1)

    def hessians(X):
        ep, em = np.exp(X[:, 2]), np.exp(-X[:, 2])
        r2 = X[:, 0] ** 2 + X[:, 1] ** 2
        h13, h23, zero = 2 * X[:, 0] * ep, 2 * X[:, 1] * ep, np.zeros(len(X))
        return np.stack([2 * ep, zero, h13, zero, 2 * ep, h23, h13, h23,
                         r2 * ep - ep + em / 4], axis=1).reshape(-1, 3, 3)

    return PotentialFn(3, 0.0, values, grads, hessians)


def _radial(dim: int, f, df, d2f) -> PotentialFn:
    """u(x) = f(|x|): gradient f' x/r, Hessian f'' xh xh' + (f'/r)(I - xh xh')."""
    def values(X):
        return f(np.sqrt(rowdot(X, X)))

    def grads(X):
        r = np.sqrt(rowdot(X, X))
        return (df(r) / r)[:, None] * X

    def hessians(X):
        r = np.sqrt(rowdot(X, X))
        xh = X / r[:, None]
        proj = xh[:, :, None] * xh[:, None, :]
        return (d2f(r)[:, None, None] * proj
                + (df(r) / r)[:, None, None] * (np.eye(dim) - proj))

    return PotentialFn(dim, 1e-12, values, grads, hessians)


def _log_radial(dim: int) -> PotentialFn:
    # v = log|x| solves (delta_ij + (n-2) x_i x_j |x|^-2) v_ij = 0
    if not isinstance(dim, int) or dim not in (2, 3):
        raise BadParams(f"log-radial dim must be the integer 2 or 3, got {dim!r}")
    return _radial(dim, np.log, lambda r: 1.0 / r, lambda r: -1.0 / (r * r))


def _ma_radial(c: float) -> PotentialFn:
    # u'(r) = sqrt(r^2 + c) gives det D^2 u = u'' u'/r = 1 in the plane
    if c <= 0:
        raise BadParams("ma-radial needs c > 0")

    def values(r):
        s = np.sqrt(r * r + c)
        return 0.5 * (r * s + c * np.log(r + s))

    return _radial(2, values, lambda r: np.sqrt(r * r + c), lambda r: r / np.sqrt(r * r + c))


def _quadratic(params: dict) -> PotentialFn:
    if "A" not in params:
        raise BadParams("quadratic requires A")
    A = np.asarray(params["A"], dtype=float)
    b = np.asarray(params.get("b", np.zeros(len(A))), dtype=float)
    c = float(params.get("c", 0.0))
    dim = len(A)  # TypeError, so BadParams, for a scalar A
    if A.shape != (dim, dim) or b.shape != (dim,):
        raise BadParams("quadratic needs square A and matching b")
    M = SymMat(A).m

    return PotentialFn(
        dim, 0.0,
        lambda X: 0.5 * rowdot(matvecs(M, X), X) + rowdot(X, b) + c,
        lambda X: matvecs(M, X) + b,
        lambda X: np.broadcast_to(M, (len(X), dim, dim)).copy())


def _ihh_oracle(params: dict) -> PotentialFn:
    """Exact IHH solution by inverting the Legendre transform.

    The dual ubar(y) = |y|^2/4 + (harmonic part from the Laurent data in
    params) satisfies Laplacian(ubar) = 1 with 0 < D^2 ubar < I, which is
    equivalent to the inverse harmonic Hessian equation for u.  Its log
    coefficient a_{-1} surfaces in u with the opposite sign: d = -a_{-1}.
    In terms of the harmonic part, u is its gradient graph moved by
    (y, Dh) -> (y/2 + Dh, y).
    """
    coeffs = _coeffs_from_params(params)
    if abs(coeffs.a1) >= 0.45:
        raise BadParams("ihh-oracle needs |a1| < 0.45 to keep D^2 dual in (0, I)")
    harm = harmonic_potential(coeffs)
    what, guess = "ihh-oracle inversion", lambda X: 2.0 * X

    def leaves_0_I(H):  # the dual Hessian 0.5 I + H outside (0, I)
        w = eigvals(0.5 * np.eye(2) + H)
        return (w[:, 0] <= 1e-9) | (w[:, -1] >= 1.0 - 1e-9)

    rho = _certify_rho(harm, 0.5, 1.0, what, guess, leaves_0_I)
    return _graph_map(harm, 0.5, 1.0, 1.0, 0.0, rho, what, guess)


def ihh_expected_d(coeffs: LaurentCoeffs) -> float:
    return -coeffs.am1


# name -> (parameter names it accepts, constructor taking the parameter dict);
# README.md tabulates the defaults and domain radii
_BUILTINS = {
    "sin-exp": ((), lambda p: _sin_exp()),
    "warren3d": ((), lambda p: _warren3d()),
    "log-radial": (("dim",), lambda p: _log_radial(p.get("dim", 3))),
    "ma-radial": (("c",), lambda p: _ma_radial(float(p.get("c", 1.0)))),
    "quadratic": (("A", "b", "c"), _quadratic),
    "ihh-oracle": (("a1", "a0", "am1", "tail"), _ihh_oracle),
}


def builtin(name: str, params: dict | None = None) -> PotentialFn:
    """Closed-form oracle by name, one of `_BUILTINS`."""
    params = dict(params or {})
    try:
        bad = sorted(k for k, v in params.items() if not _finite(v))
        if bad:
            raise BadParams(f"non-finite parameters {bad} for {name!r}")
        if name not in _BUILTINS:
            raise UnknownName(f"no builtin solution named {name!r}")
        allowed, make = _BUILTINS[name]
        extra = set(params) - set(allowed)
        if extra:
            raise BadParams(f"unknown parameters {sorted(extra)}")
        return make(params)
    except (TypeError, ValueError) as e:
        raise BadParams(f"bad parameters for {name!r}: {e}") from e


def _finite(v) -> bool:
    """Every number in v, a number or a nested list of them, is finite."""
    if isinstance(v, (list, tuple)):
        return all(map(_finite, v))
    return cmath.isfinite(complex(v))


def _coeffs_from_params(params: dict) -> LaurentCoeffs:
    def as_complex(v):
        if isinstance(v, (list, tuple)):
            return complex(v[0], v[1])
        return complex(v)

    return LaurentCoeffs(
        a1=as_complex(params.get("a1", 0.0)),
        a0=as_complex(params.get("a0", 0.0)),
        am1=float(params.get("am1", 0.0)),
        tail=tuple(as_complex(t) for t in params.get("tail", ())))
