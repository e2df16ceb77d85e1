"""Manufactured exact exterior solutions.

The 2D family comes from a harmonic potential with Laurent gradient
h(z) = a1 z + a0 + a_{-1}/z + a_{-2}/z^2 + ... rotated back by -vartheta,
giving exact solutions of the special Lagrangian equation with phase
Theta = 2 vartheta.  Closed-form named solutions cover the remaining
operators and the critical-phase counterexamples.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .core import AsymptoticProfile, PotentialFn, SymMat, matvecs, rowdot, sym_upper
from .errors import BadParams, InverseMapDiverged, StripViolation, UnknownName
from .transforms import _graph_preimage, _predictor, unrotate_potential

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


def _hessians_2d(h11, h12, h22) -> np.ndarray:
    return np.stack([h11, h12, h12, h22], axis=1).reshape(-1, 2, 2)


def harmonic_potential(coeffs: LaurentCoeffs) -> PotentialFn:
    """Harmonic u with complexified gradient h: Du = (Re h, -Im h)."""

    def values(X):
        return coeffs.primitive(_complex(X)).real

    def grads(X):
        hz = coeffs.h(_complex(X))
        return np.stack([hz.real, -hz.imag], axis=1)

    def hessians(X):
        hp = coeffs.h_prime(_complex(X))
        return _hessians_2d(hp.real, -hp.imag, -hp.real)

    return PotentialFn(2, 1.0, values, grads, hessians)


def harmonic_representation_value(coeffs: LaurentCoeffs, vartheta: float,
                                  z: complex) -> float:
    """Closed-form value of the unrotated potential at the rotated point z:
    (1/2) s c (|z|^2 - |h|^2) + Re(W - s^2 z h).  Alternate route to
    unrotate_potential for cross-checks."""
    c, s = math.cos(vartheta), math.sin(vartheta)
    hz = coeffs.h(z)
    W = coeffs.primitive(z)
    return 0.5 * s * c * (abs(z) ** 2 - abs(hz) ** 2) + (W - s * s * z * hz).real


def expected_profile(coeffs: LaurentCoeffs, vartheta: float) -> AsymptoticProfile:
    """Predicted expansion data of oracle_sle(coeffs, vartheta).

    The constant c has no closed formula in the Laurent data (it comes from
    term-by-term integration); it is reported as nan and only checked for
    fit stability, never against a prediction.
    """
    c, s = math.cos(vartheta), math.sin(vartheta)
    a1, a0 = coeffs.a1, coeffs.a0
    At = np.array([[a1.real, -a1.imag], [-a1.imag, -a1.real]])
    if abs(a1) >= c / s - 1e-12:
        raise StripViolation(f"|a1| = {abs(a1):.6g} >= cot(vartheta)")
    A = (s * np.eye(2) + c * At) @ np.linalg.inv(c * np.eye(2) - s * At)
    A = 0.5 * (A + A.T)
    bt = np.array([a0.real, -a0.imag])
    b = (c * np.eye(2) + s * A) @ bt
    L = np.eye(2) + A @ A
    return AsymptoticProfile(SymMat(A), b, math.nan, coeffs.am1,
                             SymMat(0.5 * (L + L.T)), math.nan)


def _certify_rho(probe, n_points: int = 256) -> float:
    """Smallest radius in a geometric sweep whose full shell passes `probe`,
    which takes the shell's points as one (n_points, 2) batch."""
    th = np.arange(n_points) * (2 * math.pi / n_points)
    ring = np.stack([np.cos(th), np.sin(th)], axis=1)
    for rho in RHO_CANDIDATES:
        try:
            probe(rho * ring)
        except (StripViolation, InverseMapDiverged):
            continue
        return rho
    raise StripViolation("no radius in the sweep certifies the inverse map")


def oracle_sle(coeffs: LaurentCoeffs, vartheta: float) -> PotentialFn:
    """Exact exterior solution of the SLE with Theta = 2*vartheta.

    Built as unrotate_potential of the harmonic potential; the returned
    domain radius is the smallest certified one from a geometric sweep.
    """
    c, s = math.cos(vartheta), math.sin(vartheta)
    cot = c / s
    if abs(coeffs.a1) >= cot - A1_MARGIN:
        raise StripViolation(
            f"|a1| = {abs(coeffs.a1):.6g} >= cot(vartheta) - {A1_MARGIN}")
    ht = harmonic_potential(coeffs)
    a1 = coeffs.a1
    At = SymMat(np.array([[a1.real, -a1.imag], [-a1.imag, -a1.real]]))
    u = unrotate_potential(ht, vartheta, hessian_hint=At, check=False)

    strip_tol = cot - 1e-6
    preimage = _graph_preimage(ht, c, -s, "oracle validation inversion",
                               _predictor(c * np.eye(2) - s * At.m))

    def probe(X):
        Ht = ht.hessians_fn(preimage(X))
        if (np.linalg.eigvalsh(Ht)[:, -1] >= strip_tol).any():
            raise StripViolation("validation shell hits the strip bound")

    rho = _certify_rho(probe)
    return PotentialFn(2, rho, u.values_fn, u.grads_fn, u.hessians_fn)


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
        return _hessians_2d(-si * e, co * e, si * e)

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


def _log_radial(dim: int) -> PotentialFn:
    # v = log|x| solves (delta_ij + (n-2) x_i x_j |x|^-2) v_ij = 0
    def values(X):
        return np.log(np.sqrt(rowdot(X, X)))

    def grads(X):
        return X / rowdot(X, X)[:, None]

    def hessians(X):
        r2 = rowdot(X, X)[:, None, None]
        return np.eye(dim) / r2 - 2.0 * (X[:, :, None] * X[:, None, :]) / r2 ** 2

    return PotentialFn(dim, 1e-12, values, grads, hessians)


def _ma_radial(c_param: float) -> PotentialFn:
    # u'(r) = sqrt(r^2 + c) gives det D^2 u = u'' u'/r = 1 in the plane
    if c_param <= 0:
        raise BadParams("ma-radial needs c > 0")

    def parts(X):
        r = np.sqrt(rowdot(X, X))
        return r, np.sqrt(r * r + c_param)

    def values(X):
        r, s = parts(X)
        return 0.5 * (r * s + c_param * np.log(r + s))

    def grads(X):
        r, s = parts(X)
        return (s / r)[:, None] * X

    def hessians(X):
        r, s = parts(X)
        xh = X / r[:, None]
        proj = xh[:, :, None] * xh[:, None, :]
        return ((r / s)[:, None, None] * proj
                + (s / r)[:, None, None] * (np.eye(2) - proj))

    return PotentialFn(2, 1e-12, values, grads, hessians)


def _quadratic(A, b, c) -> PotentialFn:
    A = np.asarray(A, dtype=float)
    b = np.asarray(b, dtype=float)
    dim = A.shape[0]
    if A.shape != (dim, dim) or b.shape != (dim,):
        raise BadParams("quadratic needs square A and matching b")
    M = SymMat(A).m

    return PotentialFn(
        dim, 0.0,
        lambda X: 0.5 * rowdot(matvecs(M, X), X) + rowdot(X, b) + c,
        lambda X: matvecs(M, X) + b,
        lambda X: np.broadcast_to(M, (len(X), dim, dim)).copy())


def _ihh_oracle(coeffs: LaurentCoeffs) -> PotentialFn:
    """Exact IHH solution by inverting the Legendre transform.

    The dual ubar(y) = |y|^2/4 + (harmonic part from coeffs) satisfies
    Laplacian(ubar) = 1 with 0 < D^2 ubar < I, which is equivalent to the
    inverse harmonic Hessian equation for u.  Its log coefficient a_{-1}
    surfaces in u with the opposite sign: d = -a_{-1}.
    """
    harm = harmonic_potential(coeffs)
    # x = D ubar(y) = y/2 + D harm(y)
    invert = _graph_preimage(harm, 0.5, 1.0, "ihh-oracle inversion", lambda X: 2.0 * X)

    def dual_hessians(Y):
        return 0.5 * np.eye(2) + harm.hessians_fn(Y)

    def probe(X):
        w = np.linalg.eigvalsh(dual_hessians(invert(X)))
        if (w[:, 0] <= 1e-9).any() or (w[:, -1] >= 1.0 - 1e-9).any():
            raise StripViolation("dual Hessian leaves (0, I) on validation shell")

    def values(X):
        Y = invert(X)
        return rowdot(X, Y) - (0.25 * rowdot(Y, Y) + harm.values_fn(Y))

    def hessians(X):
        return sym_upper(np.linalg.inv(dual_hessians(invert(X))))

    return PotentialFn(2, _certify_rho(probe), values, invert, hessians)


def ihh_expected_d(coeffs: LaurentCoeffs) -> float:
    return -coeffs.am1


def builtin(name: str, params: dict | None = None) -> PotentialFn:
    """Closed-form oracle by name.

    Names: sin-exp, warren3d, log-radial (dim), ma-radial (c), quadratic
    (A, b, c), ihh-oracle (a1, a0, am1, tail for the dual potential).
    """
    params = dict(params or {})
    try:
        if name == "sin-exp":
            _expect_keys(params, ())
            return _sin_exp()
        if name == "warren3d":
            _expect_keys(params, ())
            return _warren3d()
        if name == "log-radial":
            _expect_keys(params, ("dim",))
            return _log_radial(int(params.get("dim", 3)))
        if name == "ma-radial":
            _expect_keys(params, ("c",))
            return _ma_radial(float(params.get("c", 1.0)))
        if name == "quadratic":
            _expect_keys(params, ("A", "b", "c"))
            if "A" not in params:
                raise BadParams("quadratic requires A")
            A = np.asarray(params["A"], dtype=float)
            return _quadratic(A, params.get("b", np.zeros(A.shape[0])),
                              float(params.get("c", 0.0)))
        if name == "ihh-oracle":
            _expect_keys(params, ("a1", "a0", "am1", "tail"))
            coeffs = _coeffs_from_params(params)
            if abs(coeffs.a1) >= 0.45:
                raise BadParams("ihh-oracle needs |a1| < 0.45 to keep D^2 dual in (0, I)")
            return _ihh_oracle(coeffs)
    except (TypeError, ValueError) as e:
        raise BadParams(f"bad parameters for {name!r}: {e}") from e
    raise UnknownName(f"no builtin solution named {name!r}")


def _expect_keys(params: dict, allowed):
    extra = set(params) - set(allowed)
    if extra:
        raise BadParams(f"unknown parameters {sorted(extra)}")


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
