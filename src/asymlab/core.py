"""Foundational numerical types: symmetric matrices, potentials, grids, profiles."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Literal

import numpy as np

from .errors import BadParams, NotAdmissible, WrongDimension


_LOWER = {n: np.tril_indices(n, -1) for n in (2, 3)}


def sym_upper(H: np.ndarray) -> np.ndarray:
    """Exactly symmetric copy of H (..., n, n), n = 2 or 3: the upper triangle
    wins, and a zero entry is stored as +0.0."""
    S = H + 0.0
    i, j = _LOWER[S.shape[-1]]
    S[..., i, j] = S[..., j, i]
    return S


def _column_sum(P: np.ndarray) -> np.ndarray:
    """P.sum(axis=-1) for a few columns, bit for bit (-0.0 included): numpy
    adds fewer than 8 terms one by one from +0.0, and so does this, without
    the cost of a reduction."""
    s = P[..., 0] + 0.0
    for k in range(1, P.shape[-1]):
        s += P[..., k]
    return s


def rowdot(A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """Dot product of each row of A with the matching row of B (or with B)."""
    return _column_sum(A * B)


def matvecs(M: np.ndarray, X: np.ndarray) -> np.ndarray:
    """M @ x for every row x of X, elementwise rather than through BLAS,
    whose result for one row can depend on how many rows there are."""
    return _column_sum(X[:, None, :] * M)


@dataclass(frozen=True)
class SymMat:
    """An n x n symmetric matrix (n = 2 or 3), stored via its upper triangle."""

    m: np.ndarray

    def __post_init__(self):
        a = np.asarray(self.m, dtype=float)
        if a.ndim != 2 or a.shape[0] != a.shape[1] or a.shape[0] not in (2, 3):
            raise WrongDimension(f"expected 2x2 or 3x3 matrix, got shape {a.shape}")
        sym = sym_upper(a)
        object.__setattr__(self, "m", sym)
        self.m.setflags(write=False)

    @property
    def dim(self) -> int:
        return self.m.shape[0]

    @staticmethod
    def identity(dim: int) -> "SymMat":
        return SymMat(np.eye(dim))

    @staticmethod
    def diag(*entries: float) -> "SymMat":
        return SymMat(np.diag(np.asarray(entries, dtype=float)))


@dataclass(frozen=True)
class EquationSpec:
    """Which operator: SLE (needs theta), MA, SIGMA2 (needs delta, dim >= 3), IHH."""

    kind: Literal["SLE", "MA", "SIGMA2", "IHH"]
    dim: int
    theta: float | None = None
    delta: float | None = None

    def __post_init__(self):
        if self.kind not in ("SLE", "MA", "SIGMA2", "IHH"):
            raise BadParams(f"unknown equation kind {self.kind!r}")
        if self.dim not in (2, 3):
            raise WrongDimension(f"dim must be 2 or 3, got {self.dim}")
        if self.kind == "SLE":
            if self.theta is None:
                raise BadParams("SLE spec requires theta")
            if not abs(self.theta) < self.dim * math.pi / 2:
                raise BadParams(f"|theta| must be < dim*pi/2, got {self.theta}")
        elif self.theta is not None:
            raise BadParams(f"theta only applies to SLE, not {self.kind}")
        if self.kind == "SIGMA2":
            if self.delta is None or self.delta <= 0:
                raise BadParams("SIGMA2 spec requires delta > 0")
            if not self.delta < math.inf:  # nan too
                raise BadParams(f"SIGMA2 spec requires a finite delta, got {self.delta}")
            if self.dim < 3:
                raise WrongDimension("SIGMA2 requires dim >= 3")
        elif self.delta is not None:
            raise BadParams(f"delta only applies to SIGMA2, not {self.kind}")

    @property
    def supercritical(self) -> bool:
        if self.kind != "SLE":
            return False
        return abs(self.theta) > (self.dim - 2) * math.pi / 2


@dataclass(frozen=True)
class PotentialFn:
    """A scalar potential u on {|x| > rho}, evaluated in batches.

    The callbacks map points X (N, dim) to values (N,), gradients (N, dim)
    and exactly symmetric Hessians (N, dim, dim); row k of each result
    depends on row k of X alone, bit for bit. They are the unchecked path.
    `values/grads/hessians` are the checked one: BadParams for a point that
    is not finite or lies inside rho (points on |x| = rho round to just
    below it: the slack), NotAdmissible for a result that is not finite,
    each naming the first such row; `value/grad/hess` evaluate one point
    (dim,) as a one-row batch.
    """

    dim: int
    rho: float
    values_fn: Callable[[np.ndarray], np.ndarray]
    grads_fn: Callable[[np.ndarray], np.ndarray]
    hessians_fn: Callable[[np.ndarray], np.ndarray]

    def _checked(self, fn, X, quantity: str) -> np.ndarray:
        X = np.asarray(X, dtype=float)
        if X.ndim != 2 or X.shape[1] != self.dim:
            raise WrongDimension(f"expected points of shape (N, {self.dim}), got {X.shape}")
        if not np.isfinite(X).all():
            raise BadParams("evaluation points must be finite")
        inside = np.flatnonzero(rowdot(X, X) < (self.rho * (1 - 1e-12)) ** 2)
        if inside.size:
            raise BadParams(f"point {X[inside[0]].tolist()} lies inside the "
                            f"solution's domain radius rho = {self.rho}")
        out = fn(X)
        if not np.isfinite(out).all():  # the whole array first: the rows only on failure
            k = np.flatnonzero(~np.isfinite(out.reshape(len(X), -1)).all(axis=1))[0]
            raise NotAdmissible(f"{quantity} {out[k].tolist()} at point {X[k].tolist()} "
                                "is not finite")
        return out

    def values(self, X) -> np.ndarray:
        return self._checked(self.values_fn, X, "value")

    def grads(self, X) -> np.ndarray:
        return self._checked(self.grads_fn, X, "gradient")

    def hessians(self, X) -> np.ndarray:
        return self._checked(self.hessians_fn, X, "Hessian")

    def value(self, x) -> float:
        return float(self.values(np.reshape(x, (1, -1)))[0])

    def grad(self, x) -> np.ndarray:
        return self.grads(np.reshape(x, (1, -1)))[0]

    def hess(self, x) -> SymMat:
        return SymMat(self.hessians(np.reshape(x, (1, -1)))[0])


def shell_points(radius: float, n: int, dim: int) -> np.ndarray:
    """The one sample pattern on a sphere of given radius: in 2D, n
    equiangular points from angle 0; in 3D, an n-point Fibonacci spiral."""
    if dim == 2:
        th = np.arange(n) * (2 * math.pi / n)
        return radius * np.stack([np.cos(th), np.sin(th)], axis=1)
    golden = math.pi * (3.0 - math.sqrt(5.0))
    k = np.arange(n)
    zc = 1.0 - (2.0 * k + 1.0) / n
    rc = np.sqrt(np.clip(1.0 - zc * zc, 0.0, None))
    phi = k * golden
    return radius * np.stack([rc * np.cos(phi), rc * np.sin(phi), zc], axis=1)


@dataclass(frozen=True)
class AsymptoticProfile:
    """Fitted expansion u ~ x'Ax/2 + b'x + c + (d/2) log(x'Lx)."""

    A: SymMat
    b: np.ndarray
    c: float
    d: float
    L: SymMat
    decay_slope: float

    def to_dict(self) -> dict:
        return {
            "A": self.A.m.tolist(),
            "b": np.asarray(self.b).tolist(),
            "c": self.c,
            "d": self.d,
            "L": self.L.m.tolist(),
            # an exact fit's -inf slope (a zero remainder) is null: JSON has no infinity
            "decaySlope": self.decay_slope if math.isfinite(self.decay_slope) else None,
        }


@dataclass(frozen=True)
class AnnulusGrid:
    """Polar annulus grid; theta periodic, r spacing uniform or logarithmic."""

    r_inner: float
    r_outer: float
    n_r: int
    n_theta: int
    spacing: Literal["uniform", "logarithmic"] = "logarithmic"

    def __post_init__(self):
        if not (0 < self.r_inner < self.r_outer < math.inf):
            raise BadParams("need finite radii 0 < r_inner < r_outer, got "
                            f"{self.r_inner!r}, {self.r_outer!r}")
        if self.n_r < 4:
            raise BadParams("n_r must be >= 4")
        if self.n_theta < 8 or self.n_theta % 2:
            raise BadParams("n_theta must be even and >= 8")
        if self.spacing not in ("uniform", "logarithmic"):
            raise BadParams(f"unknown spacing {self.spacing!r}")

    @property
    def r(self) -> np.ndarray:
        if self.spacing == "uniform":
            return np.linspace(self.r_inner, self.r_outer, self.n_r)
        return np.geomspace(self.r_inner, self.r_outer, self.n_r)

    @property
    def theta(self) -> np.ndarray:
        return np.arange(self.n_theta) * (2 * math.pi / self.n_theta)

    @property
    def h_t(self) -> float:
        """Spacing of the radial coordinate actually differenced
        (r for uniform, log r for logarithmic)."""
        if self.spacing == "uniform":
            return (self.r_outer - self.r_inner) / (self.n_r - 1)
        return math.log(self.r_outer / self.r_inner) / (self.n_r - 1)

    @property
    def h_theta(self) -> float:
        return 2 * math.pi / self.n_theta

    def nodes_xy(self) -> tuple[np.ndarray, np.ndarray]:
        """Cartesian coordinates of all nodes, each of shape (n_r, n_theta)."""
        r = self.r[:, None]
        th = self.theta[None, :]
        return r * np.cos(th), r * np.sin(th)

    def refine(self) -> "AnnulusGrid":
        """Halve both mesh widths (node count: n -> 2(n-1)+1 radially, 2n in theta)."""
        return AnnulusGrid(self.r_inner, self.r_outer, 2 * (self.n_r - 1) + 1,
                           2 * self.n_theta, self.spacing)


@dataclass
class AnnulusField:
    """Grid function; rows 0 and -1 of `values` are the Dirichlet data."""

    grid: AnnulusGrid
    values: np.ndarray

    def __post_init__(self):
        self.values = np.array(self.values, dtype=float)
        if self.values.shape != (self.grid.n_r, self.grid.n_theta):
            raise BadParams(
                f"values shape {self.values.shape} != grid shape "
                f"({self.grid.n_r}, {self.grid.n_theta})")

    @staticmethod
    def from_potential(grid: AnnulusGrid, P: PotentialFn) -> "AnnulusField":
        x, y = grid.nodes_xy()
        vals = P.values(np.stack([x.ravel(), y.ravel()], axis=1))
        return AnnulusField(grid, vals.reshape(x.shape))

