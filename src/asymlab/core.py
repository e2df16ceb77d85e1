"""Foundational numerical types: symmetric matrices, potentials, grids, profiles."""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Literal

import numpy as np

from .errors import BadParams, WrongDimension


_LOWER = {n: np.tril_indices(n, -1) for n in (2, 3)}


def sym_upper(H: np.ndarray) -> np.ndarray:
    """Exactly symmetric copy of H (..., n, n), n = 2 or 3: the upper triangle
    wins, and a zero entry is stored as +0.0."""
    S = H + 0.0
    i, j = _LOWER[S.shape[-1]]
    S[..., i, j] = S[..., j, i]
    return S


def rowdot(A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """Dot product of each row of A with the matching row of B (or with B)."""
    return (A * B).sum(axis=1)


def matvecs(M: np.ndarray, X: np.ndarray) -> np.ndarray:
    """M @ x for every row x of X, elementwise rather than through BLAS,
    whose result for one row can depend on how many rows there are."""
    return (X[:, None, :] * M).sum(axis=-1)


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
    def zero(dim: int) -> "SymMat":
        return SymMat(np.zeros((dim, dim)))

    @staticmethod
    def diag(*entries: float) -> "SymMat":
        return SymMat(np.diag(np.asarray(entries, dtype=float)))

    def __array__(self, dtype=None):
        return np.asarray(self.m, dtype=dtype)


def eig_sym(M: SymMat) -> tuple[np.ndarray, np.ndarray]:
    """Eigendecomposition of a symmetric matrix.

    Returns (eigenvalues ascending, eigenvectors as columns), so that
    M = V @ diag(w) @ V.T.
    """
    w, V = np.linalg.eigh(M.m)
    return w, V


def phase(M: SymMat) -> float:
    """Sum of arctan of the eigenvalues, the Lagrangian angle of M."""
    w = np.linalg.eigvalsh(M.m)
    return float(np.sum(np.arctan(w)))


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
    depends on row k of X alone, bit for bit. `values/grads/hessians` check
    X first; `value/grad/hess` evaluate one point (dim,) as a one-row batch.
    """

    dim: int
    rho: float
    values_fn: Callable[[np.ndarray], np.ndarray]
    grads_fn: Callable[[np.ndarray], np.ndarray]
    hessians_fn: Callable[[np.ndarray], np.ndarray]

    def _points(self, X) -> np.ndarray:
        X = np.asarray(X, dtype=float)
        if X.ndim != 2 or X.shape[1] != self.dim:
            raise WrongDimension(f"expected points of shape (N, {self.dim}), got {X.shape}")
        if not np.isfinite(X).all():
            raise BadParams("evaluation points must be finite")
        return X

    def values(self, X) -> np.ndarray:
        return self.values_fn(self._points(X))

    def grads(self, X) -> np.ndarray:
        return self.grads_fn(self._points(X))

    def hessians(self, X) -> np.ndarray:
        return self.hessians_fn(self._points(X))

    def value(self, x) -> float:
        return float(self.values(np.reshape(x, (1, -1)))[0])

    def grad(self, x) -> np.ndarray:
        return self.grads(np.reshape(x, (1, -1)))[0]

    def hess(self, x) -> SymMat:
        return SymMat(self.hessians(np.reshape(x, (1, -1)))[0])


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
            "decaySlope": self.decay_slope,
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
        if not (0 < self.r_inner < self.r_outer):
            raise BadParams("need 0 < r_inner < r_outer")
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
    """Grid function with Dirichlet rows pinned to the stored boundary arrays."""

    grid: AnnulusGrid
    values: np.ndarray
    inner_bc: np.ndarray = field(default=None)
    outer_bc: np.ndarray = field(default=None)

    def __post_init__(self):
        self.values = np.array(self.values, dtype=float)
        if self.values.shape != (self.grid.n_r, self.grid.n_theta):
            raise BadParams(
                f"values shape {self.values.shape} != grid shape "
                f"({self.grid.n_r}, {self.grid.n_theta})")
        if self.inner_bc is None:
            self.inner_bc = self.values[0].copy()
        if self.outer_bc is None:
            self.outer_bc = self.values[-1].copy()
        self.inner_bc = np.asarray(self.inner_bc, dtype=float)
        self.outer_bc = np.asarray(self.outer_bc, dtype=float)
        self.values[0] = self.inner_bc
        self.values[-1] = self.outer_bc

    @staticmethod
    def from_potential(grid: AnnulusGrid, P: PotentialFn) -> "AnnulusField":
        x, y = grid.nodes_xy()
        vals = P.values(np.stack([x.ravel(), y.ravel()], axis=1))
        return AnnulusField(grid, vals.reshape(x.shape))


def finite_difference_gradient(P: PotentialFn, x, h: float = 1e-5) -> np.ndarray:
    """Centered difference of the value; consistency check for grads_fn."""
    x = np.asarray(x, dtype=float)
    E = h * np.eye(P.dim)
    v = P.values(np.concatenate([x + E, x - E]))
    return (v[:P.dim] - v[P.dim:]) / (2 * h)


def finite_difference_hessian(P: PotentialFn, x, h: float = 1e-5) -> np.ndarray:
    """Centered difference of the gradient; consistency check for hessians_fn."""
    x = np.asarray(x, dtype=float)
    E = h * np.eye(P.dim)
    G = P.grads(np.concatenate([x + E, x - E]))
    H = ((G[:P.dim] - G[P.dim:]) / (2 * h)).T
    return 0.5 * (H + H.T)
