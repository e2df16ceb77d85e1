import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from asymlab import (
    EquationSpec,
    LaurentCoeffs,
    RotationParams,
    SymMat,
    forward_point,
    harmonic_potential,
    legendre,
    legendre_lewy,
    phase,
    rotate_hessian,
    rotate_potential,
    unrotate_hessian,
    unrotate_potential,
)
from asymlab.equations import sigma2_margin
from asymlab.errors import BadParams, NotConvex, StripViolation
from asymlab.oracle2d import builtin, harmonic_representation_value

from conftest import random_symmetric


class TestRotationParams:
    def test_range_checked(self):
        with pytest.raises(BadParams):
            RotationParams(0.0)
        with pytest.raises(BadParams):
            RotationParams(math.pi / 2)

    def test_from_spec(self):
        spec = EquationSpec("SLE", 2, theta=math.pi / 2)
        assert RotationParams.from_spec(spec).vartheta == pytest.approx(math.pi / 4)
        spec3 = EquationSpec("SLE", 3, theta=math.pi / 2 + 0.3)
        assert RotationParams.from_spec(spec3).vartheta == pytest.approx(0.1)

    def test_from_spec_rejects_negative_phase(self):
        # Theta < -(n-2)pi/2 is supercritical but on the mirrored branch;
        # the caller is expected to apply u -> -u first
        with pytest.raises(BadParams):
            RotationParams.from_spec(EquationSpec("SLE", 3, theta=-math.pi / 2 - 0.3))


class TestHessianRotation:
    def test_diagonal_example(self):
        M = SymMat.diag(math.tan(math.pi / 3), math.tan(math.pi / 6))
        out = rotate_hessian(M, math.pi / 6)
        assert np.allclose(out.m, np.diag([math.tan(math.pi / 6), 0.0]), atol=1e-14)

    def test_zero_matrix(self):
        out = rotate_hessian(SymMat.zero(3), math.pi / 6)
        assert np.allclose(out.m, -math.tan(math.pi / 6) * np.eye(3), atol=1e-15)

    def test_identity_by_quarter_turn(self):
        out = rotate_hessian(SymMat.identity(2), math.pi / 4)
        assert np.allclose(out.m, 0.0, atol=1e-15)

    @given(st.integers(0, 10_000))
    @settings(max_examples=150, deadline=None)
    def test_round_trip_and_phase_additivity(self, seed):
        r = np.random.default_rng(seed)
        vt = r.uniform(0.1, 1.4)
        M = random_symmetric(r, 2 + seed % 2, scale=2.0)
        lo = -1.0 / math.tan(vt) + 0.05
        if np.linalg.eigvalsh(M.m).min() <= lo:
            return
        Mt = rotate_hessian(M, vt)
        assert phase(Mt) == pytest.approx(phase(M) - M.dim * vt, abs=1e-10)
        back = unrotate_hessian(Mt, vt)
        assert np.allclose(back.m, M.m, atol=1e-9)

    def test_strip_violation_on_unrotate(self):
        # unrotation needs lambda_max < cot(vartheta)
        vt = math.pi / 4
        with pytest.raises(StripViolation):
            unrotate_hessian(SymMat.diag(1.5, 0.0), vt)


class TestConformality:
    """(cI + sA)^2 = cos^2((t1-t2)/2) (I + A^2) with t_i = arctan lambda_i(A),
    for 2x2 A with phase(A) = 2*vartheta."""

    @given(st.integers(0, 10_000))
    @settings(max_examples=150, deadline=None)
    def test_identity(self, seed):
        r = np.random.default_rng(seed)
        t1 = r.uniform(-1.4, 1.4)
        t2 = r.uniform(-1.4, 1.4)
        vt = (t1 + t2) / 2.0
        if not 0.05 < vt < math.pi / 2 - 0.05:
            return
        Q, _ = np.linalg.qr(r.normal(size=(2, 2)))
        A = SymMat(Q @ np.diag([math.tan(t1), math.tan(t2)]) @ Q.T)
        c, s = math.cos(vt), math.sin(vt)
        lhs = (c * np.eye(2) + s * A.m) @ (c * np.eye(2) + s * A.m)
        rhs = math.cos((t1 - t2) / 2.0) ** 2 * (np.eye(2) + A.m @ A.m)
        assert np.abs(lhs - rhs).max() < 1e-10


class TestForwardPoint:
    def test_formula(self):
        vt = math.pi / 6
        x = np.array([2.0, -1.0])
        g = np.array([0.5, 3.0])
        xt, yt = forward_point(x, g, vt)
        assert np.allclose(xt, math.cos(vt) * x + math.sin(vt) * g)
        assert np.allclose(yt, -math.sin(vt) * x + math.cos(vt) * g)

    def test_distance_increase(self, rng):
        """|xt(x1) - xt(x2)| >= sin(vartheta) |x1 - x2| when the potential's
        phase matches 2*vartheta (so the rotated Hessian stays in the
        two-sided strip |lambda| <= cot(vartheta))."""
        vt = 0.6
        t1, t2 = 0.9, 2 * vt - 0.9
        R = np.array([[math.cos(0.4), -math.sin(0.4)], [math.sin(0.4), math.cos(0.4)]])
        A = R @ np.diag([math.tan(t1), math.tan(t2)]) @ R.T
        P = builtin("quadratic", {"A": A.tolist(), "b": [0.1, 0.0], "c": 0.0})
        for _ in range(500):
            x1, x2 = rng.uniform(-5, 5, size=(2, 2))
            d_in = np.linalg.norm(x1 - x2)
            d_out = np.linalg.norm(
                forward_point(x1, P.grad(x1), vt)[0] - forward_point(x2, P.grad(x2), vt)[0])
            assert d_out >= math.sin(vt) * d_in - 1e-12


class TestPotentialRotation:
    def _quad(self):
        return builtin("quadratic", {"A": [[1.2, 0.4], [0.4, 0.7]], "b": [0.3, -0.2], "c": 1.5})

    def test_quadratic_round_trip(self, rng):
        vt = 0.5
        P = self._quad()
        Pt = rotate_potential(P, vt)
        back = unrotate_potential(Pt, vt)
        for _ in range(40):
            x = rng.uniform(1.0, 6.0) * _unit(rng)
            assert back.value(x) == pytest.approx(P.value(x), abs=1e-9)
            assert np.allclose(back.grad(x), P.grad(x), atol=1e-9)
            assert np.allclose(back.hess(x).m, P.hess(x).m, atol=1e-9)

    def test_laurent_round_trip_on_shells(self, rng):
        vt = math.pi / 4
        P = harmonic_potential(LaurentCoeffs(a1=0.2, am1=0.2, tail=(0.1,)))
        Pt = unrotate_potential(P, vt)
        back = rotate_potential(Pt, vt)
        for r in (3.0, 10.0, 30.0):
            for _ in range(10):
                x = r * _unit(rng)
                assert back.value(x) == pytest.approx(P.value(x), abs=1e-9)
                assert np.allclose(back.grad(x), P.grad(x), atol=1e-9)
                assert np.allclose(back.hess(x).m, P.hess(x).m, atol=1e-9)

    def test_rotated_hessian_in_strip(self, rng):
        vt = 0.7
        P = self._quad()
        Pt = rotate_potential(P, vt)
        bound = 1.0 / math.tan(vt)
        for _ in range(50):
            x = rng.uniform(2.0, 20.0) * _unit(rng)
            assert np.linalg.eigvalsh(Pt.hess(x).m).max() < bound

    def test_harmonic_representation_two_routes(self, rng):
        """unrotate_potential of a Laurent harmonic potential agrees with the
        closed-form representation up to one additive constant."""
        coeffs = LaurentCoeffs(a1=0.1 + 0.05j, a0=0.2, am1=0.3, tail=(0.15, -0.05))
        vt = math.pi / 4
        c, s = math.cos(vt), math.sin(vt)
        Ph = harmonic_potential(coeffs)
        u = unrotate_potential(Ph, vt)
        diffs = []
        for r in (4.0, 8.0, 16.0, 32.0):
            for _ in range(8):
                xt = r * _unit(rng)
                x = c * xt - s * Ph.grad(xt)   # physical preimage of xt
                z = complex(xt[0], xt[1])
                diffs.append(u.value(x) - harmonic_representation_value(coeffs, vt, z))
        assert np.ptp(diffs) < 1e-8


class TestLegendre:
    def test_involution_on_quadratic(self, rng):
        P = builtin("quadratic", {"A": [[2.0, 0.5], [0.5, 1.0]], "b": [0.0, 1.0], "c": 0.3})
        PP = legendre(legendre(P))
        for _ in range(25):
            x = rng.uniform(-4, 4, size=2)
            assert PP.value(x) == pytest.approx(P.value(x), abs=1e-9)
            assert np.allclose(PP.grad(x), P.grad(x), atol=1e-9)

    def test_hessian_reciprocity(self, rng):
        # the sampled convexity check probes shells near rho ~ 0 where the
        # radial eigenvalue r/sqrt(r^2+c) vanishes; skip it and test the
        # reciprocity itself on honest exterior radii
        P = builtin("ma-radial", {"c": 1.0})
        Pb = legendre(P, check=False)
        for _ in range(25):
            x = rng.uniform(2.0, 10.0) * _unit(rng)
            ev_u = np.linalg.eigvalsh(P.hess(x).m)
            ev_b = np.linalg.eigvalsh(Pb.hess(P.grad(x)).m)
            assert np.allclose(np.sort(1.0 / ev_u), ev_b, atol=1e-9)

    def test_rejects_nonconvex(self):
        P = builtin("quadratic", {"A": [[1.0, 0.0], [0.0, -1.0]], "b": [0.0, 0.0], "c": 0.0})
        with pytest.raises(NotConvex):
            legendre(P)


class TestLegendreLewy:
    def test_scalar_quadratic_case(self):
        # D^2 u = lam*I gives D^2 ut = -(lam+K)^-1 I
        K = sigma2_margin(3)
        lam = 1.0
        P = builtin("quadratic", {"A": (lam * np.eye(3)).tolist(),
                                  "b": [0.0, 0.0, 0.0], "c": 0.0})
        spec = EquationSpec("SIGMA2", 3, delta=K / 2)
        Pt = legendre_lewy(P, spec)
        y = np.array([0.7, -0.3, 1.1])
        assert np.allclose(Pt.hess(y).m, -np.eye(3) / (lam + K), atol=1e-9)

    def test_requires_sigma2_spec(self):
        P = builtin("warren3d")
        with pytest.raises(BadParams):
            legendre_lewy(P, EquationSpec("MA", 3))

    def test_rejects_inadmissible_input(self):
        # eigenvalues of the warren3d solution's Hessian are unbounded below
        # along the x3 axis, so it is not a legendre_lewy candidate
        K = sigma2_margin(3)
        from asymlab.errors import NotAdmissible

        with pytest.raises(NotAdmissible):
            legendre_lewy(builtin("warren3d"), EquationSpec("SIGMA2", 3, delta=K / 2))

    def test_pinched_hessian(self, rng):
        K = sigma2_margin(3)
        spec = EquationSpec("SIGMA2", 3, delta=K / 2)
        Pt = legendre_lewy(perturbed_quadratic(), spec)
        for _ in range(100):
            y = rng.uniform(-3.0, 3.0, size=3)
            ev = np.linalg.eigvalsh(Pt.hess(y).m)
            assert ev.max() < 0.0
            assert ev.min() > -1.0 / spec.delta


def _unit(rng):
    v = rng.normal(size=2)
    return v / np.linalg.norm(v)


def perturbed_quadratic(eps=0.02):
    """Non-quadratic 3D potential with Hessian spectrum pinned near
    diag(1.5, 0.4, -0.25): admissible for SIGMA2 at delta = K/2."""
    from asymlab import PotentialFn

    A = np.diag([1.5, 0.4, -0.25])
    # A is diagonal, so A x is the elementwise product with its diagonal
    a = np.diag(A)

    def values(X):
        return 0.5 * np.sum(X * (a * X), axis=1) + eps * np.cos(X[:, 0]) * np.sin(X[:, 1])

    def grads(X):
        bump = np.zeros_like(X)
        bump[:, 0] = -np.sin(X[:, 0]) * np.sin(X[:, 1])
        bump[:, 1] = np.cos(X[:, 0]) * np.cos(X[:, 1])
        return a * X + eps * bump

    def hessians(X):
        H = np.broadcast_to(A, (len(X), 3, 3)).copy()
        H[:, 0, 0] -= eps * np.cos(X[:, 0]) * np.sin(X[:, 1])
        H[:, 1, 1] -= eps * np.cos(X[:, 0]) * np.sin(X[:, 1])
        H[:, 0, 1] = H[:, 1, 0] = -eps * np.sin(X[:, 0]) * np.cos(X[:, 1])
        return H

    return PotentialFn(3, 0.0, values, grads, hessians)
