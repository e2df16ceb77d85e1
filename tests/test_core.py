import dataclasses
import math

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from asymlab import (
    AnnulusField,
    AnnulusGrid,
    BadParams,
    EquationSpec,
    LaurentCoeffs,
    NotAdmissible,
    SymMat,
    WrongDimension,
    oracle_sle,
    phase,
)
from asymlab.core import matvecs, rowdot
from asymlab.equations import eigvals
from asymlab.oracle2d import builtin

from conftest import random_symmetric


class TestSymMat:
    def test_symmetrizes_storage(self):
        # upper triangle wins
        M = SymMat([[1.0, 2.0], [0.0, 3.0]])
        assert M.m[0, 1] == M.m[1, 0] == 2.0

    def test_constructors(self):
        assert np.array_equal(SymMat.identity(3).m, np.eye(3))
        assert np.array_equal(SymMat.diag(1.0, 2.0).m, np.diag([1.0, 2.0]))

    def test_rejects_bad_dim(self):
        with pytest.raises(WrongDimension):
            SymMat(np.eye(4))
        with pytest.raises(WrongDimension):
            SymMat(np.eye(1))


class TestEig:
    """`equations.eigvals`, closed form for 2x2 and LAPACK for 3x3."""

    def test_matches_numpy(self, rng):
        for _ in range(50):
            M = random_symmetric(rng, int(rng.integers(2, 4)))
            vals = eigvals(M.m[None])[0]
            assert np.allclose(vals, np.linalg.eigvalsh(M.m), atol=1e-12)

    def test_ordering_ascending(self, rng):
        for dim in (2, 3):
            H = np.stack([random_symmetric(rng, dim).m for _ in range(20)])
            assert np.all(np.diff(eigvals(H), axis=-1) >= 0)

    def test_ordering_stable_under_small_perturbation(self, rng):
        # with a spectral gap >= 0.1, a perturbation well below the gap
        # cannot swap the sorted eigenvalue branches
        for base in (SymMat.diag(-1.0, 0.3, 2.0), SymMat.diag(-1.0, 0.3)):
            vals0 = eigvals(base.m[None])[0]
            for _ in range(100):
                E = random_symmetric(rng, base.dim, scale=0.01)
                vals = eigvals((base.m + E.m)[None])[0]
                assert np.all(np.abs(vals - vals0) < 0.05)


signed = st.one_of(st.sampled_from([0.0, -0.0]), st.floats(-1e150, 1e150))


class TestRowSums:
    """`rowdot` and `matvecs` add their few columns one by one; bit for bit,
    signed zeros included, that is what the `.sum` forms give."""

    @given(dim=st.sampled_from([2, 3]), n=st.integers(0, 12), data=st.data())
    @settings(max_examples=150, deadline=None)
    def test_equal_the_sum_forms(self, dim, n, data):
        A, B = (data.draw(hnp.arrays(np.float64, (n, dim), elements=signed)) for _ in "AB")
        b = data.draw(hnp.arrays(np.float64, (dim,), elements=signed))  # as in flux_identity
        M = data.draw(hnp.arrays(np.float64, (dim, dim), elements=signed))
        assert rowdot(A, B).tobytes() == (A * B).sum(axis=1).tobytes()
        assert rowdot(A, b).tobytes() == (A * b).sum(axis=1).tobytes()
        assert matvecs(M, A).tobytes() == (A[:, None, :] * M).sum(axis=-1).tobytes()

    @pytest.mark.parametrize("dim", [2, 3])
    def test_equal_the_sum_forms_on_random_mantissas(self, rng, dim):
        A, B = rng.normal(size=(2, 1000, dim)) * 10.0 ** rng.integers(-3, 4, (2, 1000, dim))
        M = rng.normal(size=(dim, dim))
        assert rowdot(A, B).tobytes() == (A * B).sum(axis=1).tobytes()
        assert rowdot(A, B[0]).tobytes() == (A * B[0]).sum(axis=1).tobytes()
        assert matvecs(M, A).tobytes() == (A[:, None, :] * M).sum(axis=-1).tobytes()

    def test_negative_zero_products_sum_to_positive_zero(self):
        A = np.array([[-0.0, -0.0, -0.0], [-1.0, 1.0, -0.0]])
        assert np.signbit((A * A[:1]).sum(axis=1)).tolist() == [False, False]
        assert rowdot(A, A[:1]).tobytes() == (A * A[:1]).sum(axis=1).tobytes()
        assert rowdot(A[:, :2], A[0, :2]).tobytes() == np.zeros(2).tobytes()


class TestPhase:
    def test_identity_2d(self):
        assert phase(SymMat.identity(2)) == pytest.approx(math.pi / 2)

    def test_known_diag(self):
        M = SymMat.diag(1.0, -1.0)
        assert phase(M) == pytest.approx(0.0, abs=1e-15)

    @given(st.integers(0, 10_000))
    @settings(max_examples=60, deadline=None)
    def test_orthogonal_similarity_invariance(self, seed):
        r = np.random.default_rng(seed)
        M = random_symmetric(r, 2 + seed % 2)
        Q, _ = np.linalg.qr(r.normal(size=(M.dim, M.dim)))
        assert phase(SymMat(Q @ M.m @ Q.T)) == pytest.approx(phase(M), abs=1e-12)


class TestEquationSpec:
    def test_sle_needs_theta(self):
        with pytest.raises(BadParams):
            EquationSpec("SLE", 2)

    def test_supercritical_flag(self):
        assert EquationSpec("SLE", 2, theta=0.1).supercritical
        assert not EquationSpec("SLE", 3, theta=0.5).supercritical
        assert EquationSpec("SLE", 3, theta=math.pi / 2 + 0.2).supercritical
        assert not EquationSpec("MA", 2).supercritical

    @pytest.mark.parametrize("kind, dim, params, error, match", [
        ("MA", 4, {}, WrongDimension, "dim must be 2 or 3, got 4"),
        ("SLE", 2, {"theta": math.pi}, BadParams, r"\|theta\| must be < dim\*pi/2"),
        ("MA", 2, {"theta": 0.1}, BadParams, "theta only applies to SLE"),
        ("MA", 2, {"delta": 0.1}, BadParams, "delta only applies to SIGMA2"),
    ], ids=["MA4", "SLE-theta-pi", "MA-theta", "MA-delta"])
    def test_refusals(self, kind, dim, params, error, match):
        with pytest.raises(error, match=match):
            EquationSpec(kind, dim, **params)

    def test_unknown_kind(self):
        with pytest.raises(BadParams):
            EquationSpec("HEAT", 2)

    def test_sigma2_delta_range(self):
        from asymlab.equations import sigma2_margin

        K = sigma2_margin(3)
        EquationSpec("SIGMA2", 3, delta=K / 2)
        with pytest.raises(BadParams):
            EquationSpec("SIGMA2", 3, delta=-0.1)
        with pytest.raises(WrongDimension):
            EquationSpec("SIGMA2", 2, delta=K / 2)

    @pytest.mark.parametrize("delta", [math.nan, math.inf])
    def test_sigma2_delta_must_be_finite(self, delta):
        # nan <= 0 is False, so `delta > 0` alone let nan through
        with pytest.raises(BadParams, match="finite delta"):
            EquationSpec("SIGMA2", 3, delta=delta)


class TestAnnulusGrid:
    def test_radii_endpoints(self):
        g = AnnulusGrid(1.0, 8.0, 9, 32)
        assert g.r[0] == pytest.approx(1.0)
        assert g.r[-1] == pytest.approx(8.0)

    def test_uniform_vs_log_spacing(self):
        gu = AnnulusGrid(1.0, 8.0, 9, 32, "uniform")
        gl = AnnulusGrid(1.0, 8.0, 9, 32, "logarithmic")
        assert np.allclose(np.diff(gu.r), np.diff(gu.r)[0])
        assert np.allclose(np.diff(np.log(gl.r)), np.diff(np.log(gl.r))[0])

    def test_refine_halves_h(self):
        g = AnnulusGrid(1.0, 8.0, 9, 32)
        f = g.refine()
        assert f.n_r == 17 and f.n_theta == 64
        assert f.r[0] == g.r[0] and f.r[-1] == g.r[-1]

    def test_bad_params(self):
        with pytest.raises(BadParams):
            AnnulusGrid(2.0, 1.0, 9, 32)
        with pytest.raises(BadParams):
            AnnulusGrid(1.0, 8.0, 9, 32, "chebyshev")
        with pytest.raises(BadParams, match="n_theta must be even"):
            AnnulusGrid(1.0, 8.0, 9, 17)

    @pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
    @pytest.mark.parametrize("which", ["inner", "outer"])
    def test_non_finite_radii(self, bad, which):
        radii = (bad, 8.0) if which == "inner" else (1.0, bad)
        with pytest.raises(BadParams, match="finite radii"):
            AnnulusGrid(*radii, 9, 32)

    def test_nodes_xy_shapes(self):
        g = AnnulusGrid(1.0, 4.0, 5, 12)
        x, y = g.nodes_xy()
        assert x.shape == y.shape == (5, 12)
        assert np.allclose(np.hypot(x[0], y[0]), 1.0)

    @given(r_inner=st.floats(1e-6, 1e6), ratio=st.floats(1.0, 1e6, exclude_min=True),
           n_r=st.integers(4, 200), half_n_theta=st.integers(4, 300),
           spacing=st.sampled_from(["uniform", "logarithmic"]))
    @settings(max_examples=150, deadline=None)
    def test_nodes_are_the_refined_nodes_subsampled(self, r_inner, ratio, n_r,
                                                    half_n_theta, spacing):
        """Bit for bit, which lets a study evaluate its oracle on the last
        grid alone and the solver take coarse data from the last grid's."""
        r_outer = r_inner * ratio
        assume(r_outer > r_inner)
        g = AnnulusGrid(r_inner, r_outer, n_r, 2 * half_n_theta, spacing)
        for coarse, fine in zip(g.nodes_xy(), g.refine().nodes_xy()):
            assert coarse.tobytes() == fine[::2, ::2].tobytes()


class TestAnnulusField:
    def test_values_shape_is_the_grid_shape(self):
        with pytest.raises(BadParams, match=r"values shape \(9, 15\) != grid shape \(9, 16\)"):
            AnnulusField(AnnulusGrid(1.0, 8.0, 9, 16), np.zeros((9, 15)))

    def test_boundary_rows_pinned(self):
        g = AnnulusGrid(1.0, 4.0, 5, 12)
        P = builtin("quadratic", {"A": [[1.0, 0.0], [0.0, 1.0]], "b": [0.0, 0.0], "c": 0.0})
        fld = AnnulusField.from_potential(g, P)
        assert np.allclose(fld.values[0], 0.5)   # |x|^2/2 on r=1
        assert np.allclose(fld.values[-1], 8.0)  # on r=4


def finite_difference_gradient(P, x, h: float = 1e-5) -> np.ndarray:
    """Centered difference of the value; consistency check for grads_fn."""
    x = np.asarray(x, dtype=float)
    E = h * np.eye(P.dim)
    v = P.values(np.concatenate([x + E, x - E]))
    return (v[:P.dim] - v[P.dim:]) / (2 * h)


def finite_difference_hessian(P, x, h: float = 1e-5) -> np.ndarray:
    """Centered difference of the gradient; consistency check for hessians_fn."""
    x = np.asarray(x, dtype=float)
    E = h * np.eye(P.dim)
    G = P.grads(np.concatenate([x + E, x - E]))
    H = ((G[:P.dim] - G[P.dim:]) / (2 * h)).T
    return 0.5 * (H + H.T)


@pytest.mark.parametrize("name,params", [
    ("sin-exp", None),
    ("warren3d", None),
    ("log-radial", {"dim": 3}),
    ("ma-radial", {"c": 1.0}),
    ("ihh-oracle", {"am1": 0.4}),
])
def test_builtin_finite_difference_consistency(name, params, rng):
    """Analytic gradient/Hessian of every built-in agree with central
    differences: 1e-6 relative for the gradient, 1e-5 for the Hessian."""
    P = builtin(name, params)
    lo = max(P.rho * 1.2, 0.5)
    for _ in range(12):
        x = rng.uniform(-1, 1, size=P.dim)
        x *= (lo + rng.uniform(0, 1.0)) / np.linalg.norm(x)
        g = P.grad(x)
        scale = 1.0 + np.abs(g).max()
        assert np.abs(g - finite_difference_gradient(P, x)).max() / scale < 1e-6
        H = P.hess(x).m
        scale = 1.0 + np.abs(H).max()
        assert np.abs(H - finite_difference_hessian(P, x)).max() / scale < 1e-5


# every builtin, and an SLE oracle, by name; and the quantity each checked method names
GUARDED = {
    "sin-exp": builtin("sin-exp"),
    "warren3d": builtin("warren3d"),
    "log-radial": builtin("log-radial", {"dim": 3}),
    "ma-radial": builtin("ma-radial", {"c": 1.0}),
    "quadratic": builtin("quadratic", {"A": [[1.0, 0.2], [0.2, 0.5]], "b": [0.1, -0.3]}),
    "ihh-oracle": builtin("ihh-oracle", {"a1": 0.3, "am1": 0.4}),  # rho = 2
    "oracle-sle": oracle_sle(LaurentCoeffs(a1=0.2 + 0.1j, a0=0.3, am1=0.5, tail=(0.25,)),
                             math.pi / 4),  # rho = 1
}
QUANTITY = {"values": "value", "grads": "gradient", "hessians": "Hessian"}


def _poisoned(fn, x_bad, entry: int, v: float):
    """fn with entry `entry` (mod the row size) of the row at x_bad set to v."""
    def poisoned(X):
        out = np.array(fn(X), dtype=float)
        rows = out.reshape(len(X), -1)
        rows[(X == x_bad).all(axis=1), entry % rows.shape[1]] = v
        return out
    return poisoned


def _outcome(call):
    try:
        return call()
    except (BadParams, NotAdmissible) as e:
        return type(e), str(e)


class TestCheckedEvaluation:
    """`values`, `grads` and `hessians` refuse a point inside rho as BadParams
    and a result that is not finite as NotAdmissible, each naming its row;
    otherwise they return the callback's result itself."""

    @given(name=st.sampled_from(sorted(GUARDED)), method=st.sampled_from(sorted(QUANTITY)),
           n=st.integers(1, 12), seed=st.integers(0, 2 ** 32 - 1),
           bad=st.sampled_from([None, "inside", math.nan, math.inf, -math.inf]),
           where=st.integers(0, 12), entry=st.integers(0, 8))
    @settings(max_examples=200, deadline=None)
    def test_a_batch_fails_as_its_bad_row_alone(self, name, method, n, seed, bad, where,
                                               entry):
        P = GUARDED[name]
        assume(bad != "inside" or P.rho > 0)
        rng = np.random.default_rng(seed)
        D = rng.normal(size=(n + 1, P.dim))
        lo = 1.01 * max(P.rho, 0.5)
        r = lo * np.exp(rng.uniform(0.0, math.log(20.0), size=n + 1))
        if bad == "inside":
            r[-1] = P.rho * rng.uniform(0.0, 0.999)
        X = r[:, None] * D / np.sqrt(rowdot(D, D))[:, None]
        x_bad, X = X[-1], np.insert(X[:-1], min(where, n), X[-1], axis=0)
        fn = f"{method}_fn"
        if bad is None:
            X = np.delete(X, min(where, n), axis=0)
            assert getattr(P, method)(X).tobytes() == getattr(P, fn)(X).tobytes()
            return
        if bad != "inside":
            P = dataclasses.replace(P, **{fn: _poisoned(getattr(P, fn), x_bad, entry, bad)})
        else:
            P = dataclasses.replace(P, **{fn: lambda X: pytest.fail("evaluated inside rho")})
        error, message = _outcome(lambda: getattr(P, method)(X))
        assert (error, message) == _outcome(lambda: getattr(P, method)(x_bad[None]))
        if bad == "inside":
            assert error is BadParams
            assert message == (f"point {x_bad.tolist()} lies inside the solution's domain "
                               f"radius rho = {P.rho}")
        else:
            assert error is NotAdmissible
            assert message.startswith(QUANTITY[method] + " ")
            assert message.endswith(f" at point {x_bad.tolist()} is not finite")

    def test_a_point_on_rho_is_evaluated(self):
        """A point on |x| = rho, which can round to just inside it, is evaluated."""
        P = GUARDED["ihh-oracle"]
        th = np.linspace(0.0, 2 * math.pi, 64, endpoint=False)
        X = P.rho * np.stack([np.cos(th), np.sin(th)], axis=1)
        assert (rowdot(X, X) < P.rho ** 2).any()
        assert P.values(X).tobytes() == P.values_fn(X).tobytes()
