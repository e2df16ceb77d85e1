import json
import math
from importlib import resources

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from asymlab import (
    EquationSpec,
    LaurentCoeffs,
    SymMat,
    expected_profile,
    harmonic_potential,
    oracle_sle,
    transforms,
)
from asymlab.asymptotics import shell_points
from asymlab.equations import residual
from asymlab.errors import BadParams, StripViolation, UnknownName
from asymlab.oracle2d import _BUILTINS, builtin, ihh_expected_d

from conftest import exterior_points


class TestLaurentCoeffs:
    def test_h_and_derivative(self):
        co = LaurentCoeffs(a1=1 + 2j, a0=0.5, am1=0.3, tail=(0.1j,))
        z = 2.0 + 1.0j
        assert co.h(z) == pytest.approx((1 + 2j) * z + 0.5 + 0.3 / z + 0.1j / z ** 2)
        eps = 1e-7
        fd = (co.h(z + eps) - co.h(z - eps)) / (2 * eps)
        assert co.h_prime(z) == pytest.approx(fd, abs=1e-6)

    def test_primitive_differentiates_to_h(self):
        co = LaurentCoeffs(a1=0.4 - 0.2j, a0=1.0j, am1=-0.7, tail=(0.2, 0.3j))
        z = -1.5 + 2.5j
        eps = 1e-6
        fd = (co.primitive(z + eps) - co.primitive(z - eps)) / (2 * eps)
        assert fd == pytest.approx(co.h(z), abs=1e-5)

    def test_am1_coerced_real(self):
        assert isinstance(LaurentCoeffs(am1=2).am1, float)

    @pytest.mark.parametrize("field,bad", [("a1", complex(0.1, math.nan)), ("a0", math.inf),
                                           ("am1", math.nan), ("tail", (0.1, -math.inf))])
    def test_non_finite_rejected(self, field, bad):
        with pytest.raises(BadParams, match="finite"):
            LaurentCoeffs(**{field: bad})

    def test_tail_caps(self):
        with pytest.raises(BadParams):
            LaurentCoeffs(tail=(1.0,) * 8)
        with pytest.raises(BadParams):
            LaurentCoeffs(tail=(11.0,))


class TestHarmonicPotential:
    @given(st.integers(0, 10_000))
    @settings(max_examples=50, deadline=None)
    def test_harmonic_and_consistent(self, seed):
        r = np.random.default_rng(seed)
        co = LaurentCoeffs(a1=complex(*r.uniform(-1, 1, 2)),
                           a0=complex(*r.uniform(-1, 1, 2)),
                           am1=r.uniform(-1, 1),
                           tail=tuple(complex(*r.uniform(-1, 1, 2)) for _ in range(2)))
        P = harmonic_potential(co)
        x = r.uniform(1.5, 5.0) * _unit(r)
        H = P.hess(x).m
        assert abs(H[0, 0] + H[1, 1]) < 1e-12          # harmonic
        # gradient really is (Re h, -Im h) and Hessian its Jacobian
        eps = 1e-6
        for k in range(2):
            e = np.zeros(2)
            e[k] = eps
            fd = (P.grad(x + e) - P.grad(x - e)) / (2 * eps)
            assert np.abs(fd - H[:, k]).max() < 1e-5
            fv = (P.value(x + e) - P.value(x - e)) / (2 * eps)
            assert abs(fv - P.grad(x)[k]) < 1e-5


class TestOracleSLE:
    def test_residual_at_exterior_points(self, rng):
        co = LaurentCoeffs(a1=0.2 + 0.1j, a0=0.3, am1=0.5, tail=(0.25,))
        vt = math.pi / 4
        P = oracle_sle(co, vt)
        spec = EquationSpec("SLE", 2, theta=2 * vt)
        pts = exterior_points(rng, P.rho, 10_000)
        worst = max(abs(residual(spec, P.hess(x))) for x in pts[:400])
        assert worst < 1e-9

    def test_reduces_to_quadratic(self):
        # am1 = 0, tail = () leaves only the quadratic + linear part
        co = LaurentCoeffs(a1=0.3 - 0.2j, a0=0.4 + 0.1j)
        vt = math.pi / 4
        P = oracle_sle(co, vt)
        prof = expected_profile(co, vt)
        th = 0.77
        x = 100.0 * np.array([math.cos(th), math.sin(th)])
        Q = 0.5 * x @ prof.A.m @ x + prof.b @ x
        assert abs(P.value(x) - Q - (P.value(np.array([100.0, 0.0]))
                                     - 0.5 * prof.A.m[0, 0] * 1e4
                                     - prof.b[0] * 100.0)) < 1e-9

    def test_strip_precondition(self):
        vt = 3 * math.pi / 8   # cot = 0.414
        with pytest.raises(StripViolation):
            oracle_sle(LaurentCoeffs(a1=0.45), vt)

    def test_expected_profile_kernel(self):
        co = LaurentCoeffs(a1=0.2, am1=0.5)
        prof = expected_profile(co, math.pi / 4)
        assert np.allclose(prof.L.m, np.eye(2) + prof.A.m @ prof.A.m)
        assert prof.d == 0.5

    def test_certified_rho_positive(self):
        P = oracle_sle(LaurentCoeffs(a1=0.2, am1=0.5, tail=(0.25,)), math.pi / 4)
        assert P.rho >= 1.0


class TestBuiltins:
    @pytest.mark.parametrize("name,params", [
        ("quadratic", {"A": [[1.0, 0.0], [0.0, 1.0]], "c": math.inf}),
        ("quadratic", {"A": [[1.0, math.nan], [0.0, 1.0]]}),
        ("ma-radial", {"c": math.nan}),
        ("log-radial", {"dim": math.inf}),
        ("ihh-oracle", {"tail": [[0.1, math.nan]]}),
    ])
    def test_non_finite_params_rejected(self, name, params):
        with pytest.raises(BadParams, match="non-finite"):
            builtin(name, params)

    def test_unknown_name(self):
        with pytest.raises(UnknownName):
            builtin("does-not-exist")

    def test_names_match_schema(self):
        with resources.files("asymlab.schemas").joinpath("oracle.json").open() as f:
            schema = json.load(f)
        names = schema["allOf"][1]["then"]["properties"]["name"]["enum"]
        assert sorted(_BUILTINS) == sorted(names)

    @pytest.mark.parametrize("name", sorted(set(_BUILTINS) - {"quadratic"}))
    def test_builds_with_defaults(self, name):
        P = builtin(name)
        x = np.full(P.dim, 3.0)
        assert np.isfinite(P.value(x)) and np.isfinite(P.hess(x).m).all()

    @pytest.mark.parametrize("params, match", [
        ({"b": [0.0, 0.0]}, "requires A"),
        ({"A": 5.0}, "bad parameters"),
        ({"A": 5.0, "b": [0.0]}, "bad parameters"),
        ({"A": [1.0, 2.0]}, "square A"),
    ])
    def test_quadratic_needs_square_A(self, params, match):
        with pytest.raises(BadParams, match=match):
            builtin("quadratic", params)

    @pytest.mark.parametrize("a1", [0.45, [0.0, -0.45]])
    def test_ihh_oracle_needs_a1_below_0_45(self, a1):
        with pytest.raises(BadParams, match=r"\|a1\| < 0\.45"):
            builtin("ihh-oracle", {"a1": a1})

    def test_unknown_params_rejected(self):
        with pytest.raises(BadParams):
            builtin("ma-radial", {"c": 1.0, "shape": 3})

    def test_sin_exp_solves_critical_sle(self, rng):
        P = builtin("sin-exp")
        spec = EquationSpec("SLE", 2, theta=0.0)
        for _ in range(200):
            x = rng.uniform(-2.5, 2.5, size=2)
            assert abs(residual(spec, P.hess(x))) < 1e-10

    def test_warren3d_solves_sigma2(self, rng):
        P = builtin("warren3d")
        spec = EquationSpec("SIGMA2", 3, delta=0.1)
        for _ in range(200):
            x = rng.uniform(-2.0, 2.0, size=3)
            assert abs(residual(spec, P.hess(x))) < 1e-10

    def test_log_radial_nondivergence(self, rng):
        """(delta_ij + (n-2) x_i x_j |x|^-2) v_ij = 0 for v = log|x|."""
        for dim in (2, 3):
            P = builtin("log-radial", {"dim": dim})
            for _ in range(100):
                x = rng.uniform(1.0, 20.0) * _unit_n(rng, dim)
                M = np.eye(dim) + (dim - 2) * np.outer(x, x) / (x @ x)
                assert abs(np.sum(M * P.hess(x).m)) < 1e-11

    def test_log_radial_example_point(self):
        P = builtin("log-radial", {"dim": 3})
        x = np.array([1.0, 2.0, 2.0])
        M = np.eye(3) + np.outer(x, x) / 9.0
        assert abs(np.sum(M * P.hess(x).m)) < 1e-11

    def test_ma_radial_solves_ma(self, rng):
        P = builtin("ma-radial", {"c": 1.0})
        spec = EquationSpec("MA", 2)
        for _ in range(200):
            x = rng.uniform(0.5, 50.0) * _unit(rng)
            assert abs(residual(spec, P.hess(x))) < 1e-9

    def test_ma_radial_log_coefficient_bounded(self):
        """u(r) - r^2/2 - (c/2) log r converges (d = c/2 in the radial
        normalization log x'D^2Q x = 2 log r)."""
        P = builtin("ma-radial", {"c": 1.0})
        vals = []
        for r in (1e2, 1e3, 1e4):
            x = np.array([r, 0.0])
            vals.append(P.value(x) - r * r / 2.0 - 0.5 * math.log(r))
        d1 = abs(vals[1] - vals[0])
        d2 = abs(vals[2] - vals[1])
        assert d2 < d1 < 1e-3

    def test_quadratic_exact(self):
        P = builtin("quadratic", {"A": [[1.0, 0.2], [0.2, 2.0]], "b": [1.0, -1.0], "c": 3.0})
        x = np.array([2.0, -3.0])
        A = np.array([[1.0, 0.2], [0.2, 2.0]])
        assert P.value(x) == pytest.approx(0.5 * x @ A @ x + np.array([1.0, -1.0]) @ x + 3.0)
        assert np.allclose(P.hess(x).m, A)


class TestIHHOracle:
    def test_residual(self, rng):
        P = builtin("ihh-oracle", {"am1": 0.4})
        spec = EquationSpec("IHH", 2)
        pts = exterior_points(rng, P.rho, 200)
        for x in pts:
            assert abs(residual(spec, P.hess(x))) < 1e-9

    def test_expected_d_sign(self):
        # first-order perturbation of the conjugate flips the sign of a_{-1}
        assert ihh_expected_d(LaurentCoeffs(am1=0.4)) == pytest.approx(-0.4)


def _unit(rng):
    v = rng.normal(size=2)
    return v / np.linalg.norm(v)


def _unit_n(rng, dim):
    v = rng.normal(size=dim)
    return v / np.linalg.norm(v)


def test_oracle_inversion_takes_few_newton_steps(monkeypatch):
    """One _newton_step call per iteration of the batched inversion: on 3 x
    4096 points of the rings of radius 1, 2 and 4 it takes 4. A wrong
    Jacobian only costs time (one Cramer numerator with its sign flipped
    takes 11), so this bound is what catches one."""
    P = oracle_sle(LaurentCoeffs(a1=0.1, am1=0.5), math.pi / 4)
    assert P.rho == 1.0
    steps = []
    real = transforms._newton_step

    def counting(J, g, what):
        steps.append(len(g))
        return real(J, g, what)

    monkeypatch.setattr(transforms, "_newton_step", counting)
    P.values(np.concatenate([shell_points(r, 4096, 2) for r in (1.0, 2.0, 4.0)]))
    assert 1 <= len(steps) <= 5
