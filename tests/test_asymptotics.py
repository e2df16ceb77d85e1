import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from asymlab import (
    BoundaryCurve,
    EquationSpec,
    LaurentCoeffs,
    ShellSpec,
    SymMat,
    boundary_d,
    decay_exponent,
    expected_profile,
    fit_profile,
    flux_identity,
    hessian_limit,
    oracle_sle,
)
from asymlab.asymptotics import EXACT_SLOPE, MAX_QUAD_ORDER, log_kernel, shell_points
from asymlab.core import matvecs
from asymlab.errors import (BadParams, IllConditioned, NoDecay, NonPositiveValue,
                            NotAdmissible, SingularHessian, WrongDimension)
from asymlab.oracle2d import builtin

SLE2 = EquationSpec("SLE", 2, theta=math.pi / 2)
MA2 = EquationSpec("MA", 2)
IHH2 = EquationSpec("IHH", 2)


def expansion_residual_samples(P, prof, radii, pin_radius=1e4, n=64):
    """Per-shell max of |u - Q - Gamma - c| with (A, b, d) taken from the
    expansion data and the constant pinned at a radius where the O(1/r)
    tail is negligible."""
    A, b, d, L = prof.A.m, prof.b, prof.d, prof.L.m

    def resid(x):
        return P.value(x) - 0.5 * x @ A @ x - b @ x - 0.5 * d * math.log(x @ L @ x)

    c = float(np.mean([resid(x) for x in shell_points(pin_radius, n, 2)]))
    return [(r, max(abs(resid(x) - c) for x in shell_points(r, n, 2)))
            for r in radii]


class TestShellSpec:
    def test_radii_must_increase(self):
        with pytest.raises(BadParams):
            ShellSpec((10.0, 5.0))
        with pytest.raises(BadParams):
            ShellSpec((10.0,))

    def test_min_points(self):
        with pytest.raises(BadParams):
            ShellSpec((1.0, 2.0), points_per_shell=8)

    @pytest.mark.parametrize("radii", [(0.0, 1.0), (-1.0, 2.0), (50.0, math.inf),
                                       (50.0, math.nan), (math.nan, 50.0)])
    def test_radii_finite_and_positive(self, radii):
        with pytest.raises(BadParams):
            ShellSpec(radii)


class TestShellPoints:
    @pytest.mark.parametrize("dim", [2, 3])
    def test_on_sphere(self, dim):
        pts = shell_points(7.0, 64, dim)
        assert pts.shape == (64, dim)
        assert np.allclose(np.linalg.norm(pts, axis=1), 7.0)

    def test_deterministic(self):
        a = shell_points(3.0, 48, 2)
        b = shell_points(3.0, 48, 2)
        assert np.array_equal(a, b)


class TestHessianLimit:
    def test_exact_on_quadratic(self):
        A = [[1.3, 0.4], [0.4, 0.8]]
        P = builtin("quadratic", {"A": A, "b": [0.5, 0.0], "c": 2.0})
        got, slope = hessian_limit(P, ShellSpec((10.0, 20.0, 40.0)))
        assert np.allclose(got.m, A, atol=1e-12)
        assert slope == -math.inf  # exact-decay sentinel

    def test_slope_on_oracle(self):
        P = oracle_sle(LaurentCoeffs(a1=0.2, am1=0.5, tail=(0.25,)), math.pi / 4)
        shells = ShellSpec(tuple(np.geomspace(50, 400, 5)))
        got, slope = hessian_limit(P, shells)
        prof = expected_profile(LaurentCoeffs(a1=0.2, am1=0.5, tail=(0.25,)), math.pi / 4)
        assert np.abs(got.m - prof.A.m).max() < 1e-4
        assert -2.15 < slope < -1.85

    def test_no_decay_raises(self):
        P = builtin("sin-exp")
        with pytest.raises(NoDecay):
            hessian_limit(P, ShellSpec((4.0, 8.0, 16.0)))

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_overflowed_hessian_is_named(self):
        """At r = 1e300 ma-radial's Hessian overflows to nan: the error names
        it and its point, not the log kernel L it would spoil."""
        P = builtin("ma-radial")
        with pytest.raises(NotAdmissible, match=r"Hessian \[\[nan, nan\], \[nan, nan\]\] "
                           r"at point \[1e\+300, 0\.0\] is not finite"):
            hessian_limit(P, ShellSpec((1e300, 2e300)))
        assert hessian_limit(P, ShellSpec((1e150, 2e150)))[0].m[0, 0] == 1.0


class TestDecayExponent:
    @given(st.floats(-3.0, -0.5), st.floats(0.1, 10.0))
    @settings(max_examples=50, deadline=None)
    def test_recovers_power_law(self, p, c):
        r = np.geomspace(10, 100, 6)
        assert decay_exponent(list(zip(r, c * r ** p))) == pytest.approx(p, abs=1e-9)


    @pytest.mark.parametrize("samples, error", [
        ([(1.0, 1.0), (2.0, 0.5)], BadParams),
        ([(1.0, 1.0), (2.0, 0.0), (3.0, 0.1)], NonPositiveValue),
    ], ids=["two-radii", "zero-value"])
    def test_refusals(self, samples, error):
        with pytest.raises(error):
            decay_exponent(samples)


class TestLogKernel:
    def test_per_equation(self):
        A = SymMat([[1.5, 0.0], [0.0, 2.0 / 3.0]])
        assert np.allclose(log_kernel(SLE2, A).m, np.eye(2) + A.m @ A.m)
        assert np.allclose(log_kernel(MA2, A).m, A.m)
        assert np.allclose(log_kernel(IHH2, A).m, A.m @ A.m)

    def test_sigma2_has_no_log_term(self):
        A = SymMat([[1.5, 0.0], [0.0, 2.0 / 3.0]])
        with pytest.raises(BadParams, match="log_kernel"):
            log_kernel(EquationSpec("SIGMA2", 3, delta=0.1), A)
        with pytest.raises(BadParams, match="SIGMA2"):
            flux_identity(EquationSpec("SIGMA2", 3, delta=0.1), A, 0.5, 2.0)


class TestFitProfile:
    def test_exact_on_quadratic(self):
        P = builtin("quadratic", {"A": [[1.1, -0.3], [-0.3, 0.9]], "b": [0.7, 0.2], "c": -1.4})
        prof = fit_profile(P, MA2, ShellSpec((10.0, 20.0, 40.0)))
        assert np.allclose(prof.A.m, [[1.1, -0.3], [-0.3, 0.9]], atol=1e-9)
        assert np.allclose(prof.b, [0.7, 0.2], atol=1e-8)
        assert prof.c == pytest.approx(-1.4, abs=1e-7)
        assert abs(prof.d) < 1e-8

    def test_oracle_d_and_decay(self):
        co = LaurentCoeffs(a1=0.2, am1=0.5, tail=(0.25,))
        P = oracle_sle(co, math.pi / 4)
        prof = fit_profile(P, SLE2, ShellSpec(tuple(np.geomspace(50, 400, 6))))
        assert prof.d == pytest.approx(0.5, abs=2e-3)
        # the internal per-shell misfit decays too, though more slowly than
        # the true O(1/r) tail: the shell-mean estimate of A carries an
        # O(R^-2) bias that leaks into the linear fit
        assert prof.decay_slope < -0.4

    def test_expansion_residual_slope(self):
        """u - Q - Gamma = O(1/r) against the exact expansion data."""
        co = LaurentCoeffs(a1=0.2, am1=0.5, tail=(0.25,))
        P = oracle_sle(co, math.pi / 4)
        samples = expansion_residual_samples(P, expected_profile(co, math.pi / 4),
                                             np.geomspace(50, 400, 6))
        assert decay_exponent(samples) == pytest.approx(-1.0, abs=0.15)

    @pytest.mark.parametrize("name, params, spec", [
        ("log-radial", {"dim": 3}, MA2),  # it returned d = 0.0
        ("ma-radial", {}, EquationSpec("SLE", 3, theta=math.pi)),  # d = 0.5
        ("ma-radial", {}, EquationSpec("SIGMA2", 3, delta=0.5)),  # BadParams, no 2D log_kernel
    ], ids=["3D-solution", "3D-SLE", "SIGMA2"])
    def test_equation_of_another_dimension_is_wrong_dimension(self, name, params, spec):
        """The equation must have the solution's dimension, as in `boundary_d`
        and the solver; the solution is not evaluated."""
        P = builtin(name, params)
        with pytest.raises(WrongDimension, match=f"^the equation is {spec.dim}D but the "
                                                 f"solution is {P.dim}D$"):
            fit_profile(dataclasses.replace(P, hessians_fn=None, values_fn=None), spec,
                        ShellSpec((50.0, 100.0, 200.0)))

    def test_singular_log_kernel_is_not_admissible(self):
        # D^2 log r averages to 0 over a circle, so the MA kernel L = A is
        # singular and the log column is not finite (the SVD used to fail)
        with pytest.raises(NotAdmissible, match="not positive definite: eigenvalues"):
            fit_profile(builtin("log-radial", {"dim": 2}), MA2, ShellSpec((50.0, 100.0, 200.0)))

    def test_shells_a_relative_1e_9_apart_are_ill_conditioned(self):
        P = builtin("quadratic", {"A": [[1.0, 0.0], [0.0, 1.0]]})
        with pytest.raises(IllConditioned, match="exceeds 1e12"):
            fit_profile(P, MA2, ShellSpec((1e6, 1e6 * (1 + 1e-9))))

    def test_profile_to_dict_keys(self):
        P = builtin("quadratic", {"A": [[1.0, 0.0], [0.0, 1.0]], "b": [0.0, 0.0], "c": 0.0})
        prof = fit_profile(P, MA2, ShellSpec((10.0, 20.0)))
        assert set(prof.to_dict()) == {"A", "b", "c", "d", "L", "decaySlope"}

    def test_exact_fit_slope_is_null_in_the_dict(self):
        """An exact quadratic's remainder is zero, so its slope is -inf in
        memory and null in the dict that is written as JSON."""
        P = builtin("quadratic", {"A": [[1.0, 0.0], [0.0, 1.0]], "b": [0.0, 0.0], "c": 0.0})
        prof = fit_profile(P, MA2, ShellSpec((10.0, 20.0)))
        assert prof.decay_slope == EXACT_SLOPE == -math.inf
        assert prof.to_dict()["decaySlope"] is None

    def test_gradient_expansion_slope(self):
        """|Du - (Ax + b) - d L x / (x'Lx)| decays like r^-2."""
        co = LaurentCoeffs(a1=0.2, am1=0.5, tail=(0.25,))
        P = oracle_sle(co, math.pi / 4)
        prof = expected_profile(co, math.pi / 4)
        L = np.eye(2) + prof.A.m @ prof.A.m
        samples = []
        for r in np.geomspace(50, 400, 6):
            worst = 0.0
            for x in shell_points(r, 64, 2):
                err = P.grad(x) - prof.A.m @ x - prof.b - prof.d * (L @ x) / (x @ L @ x)
                worst = max(worst, np.linalg.norm(err))
            samples.append((r, worst))
        assert decay_exponent(samples) == pytest.approx(-2.0, abs=0.15)


class TestBoundaryD:
    def test_ma_radial_exact(self):
        P = builtin("ma-radial", {"c": 1.0})
        d = boundary_d(MA2, P, BoundaryCurve.circle(3.0))
        assert d == pytest.approx(0.5, abs=1e-9)

    def test_radius_independence(self):
        """The integrand minus area term is divergence-free off the hole:
        homotopic curves give the same d."""
        co = LaurentCoeffs(a1=0.2, am1=0.5, tail=(0.25,))
        P = oracle_sle(co, math.pi / 4)
        prof = expected_profile(co, math.pi / 4)
        r0 = max(2.0, P.rho * 1.2)
        d_circle = boundary_d(SLE2, P, BoundaryCurve.circle(r0))
        d_ellipse = boundary_d(SLE2, P, BoundaryCurve.ellipse_of_kernel(prof.L, 3.0 * r0))
        assert abs(d_circle - d_ellipse) < 1e-6
        assert d_circle == pytest.approx(0.5, abs=1e-4)

    def test_ihh_oracle(self):
        P = builtin("ihh-oracle", {"am1": 0.4})
        d = boundary_d(IHH2, P, BoundaryCurve.circle(max(2.0, P.rho * 1.2)))
        assert d == pytest.approx(-0.4, abs=1e-6)

    @pytest.mark.parametrize("spec", [MA2, IHH2, EquationSpec("SLE", 2, theta=0.9 * math.pi)])
    def test_inadmissible_hessian_is_not_admissible(self, spec):
        """log|x| has Hessian eigenvalues -1/r^2 and 1/r^2: not convex (MA),
        not above 1 (IHH), and of phase 0, at distance 0.9 pi > pi/2 from
        Theta = 0.9 pi, outside that SLE branch; no d is reported for it."""
        with pytest.raises(NotAdmissible, match="curve node"):
            boundary_d(spec, builtin("log-radial", {"dim": 2}), BoundaryCurve.circle(2.0))

    def test_ihh_singular_hessian_at_a_node_is_named(self):
        """The admissibility test reads F(D^2u), as the solver's does, so a
        singular Hessian on the curve is named by IHH's residual, before the
        test that would call it not admissible."""
        P = builtin("quadratic", {"A": [[1.0, 0.0], [0.0, 0.0]]})
        with pytest.raises(SingularHessian, match="nonzero eigenvalues"):
            boundary_d(IHH2, P, BoundaryCurve.circle(2.0))

    def test_3d_equation_is_wrong_dimension(self):
        with pytest.raises(WrongDimension, match="boundary_d is 2D only"):
            boundary_d(EquationSpec("MA", 3), builtin("ma-radial"), BoundaryCurve.circle(2.0))
        with pytest.raises(WrongDimension, match="flux identity is 2D only"):
            flux_identity(EquationSpec("MA", 3), SymMat.identity(3), 0.5, 2.0)

    def test_curve_inside_the_domain_radius_is_bad_params(self):
        """An SLE oracle of rho = 2: a circle of radius 1.5 is refused before
        the potential is evaluated; one on |x| = rho is integrated."""
        P = oracle_sle(LaurentCoeffs(a1=-0.8, am1=-0.4, tail=(0.2, -0.1)), math.pi / 8)
        assert P.rho == 2.0
        spec = EquationSpec("SLE", 2, theta=math.pi / 4)

        def fail(X):
            raise AssertionError("evaluated")

        unevaluated = dataclasses.replace(P, values_fn=fail, grads_fn=fail, hessians_fn=fail)
        with pytest.raises(BadParams, match=r"^point \[1\.5, 0\.0\] lies inside the "
                                            r"solution's domain radius rho = 2\.0"):
            boundary_d(spec, unevaluated, BoundaryCurve.circle(1.5))
        assert boundary_d(spec, P, BoundaryCurve.circle(P.rho)) == pytest.approx(-0.4, abs=1e-6)

    def test_critical_phase_laplace_has_zero_d(self):
        """2D SLE at Theta = 0 is Laplace's equation; it is not supercritical,
        so the solver refuses it, but its harmonic solutions lie on the phase
        branch and carry no log term."""
        spec = EquationSpec("SLE", 2, theta=0.0)
        assert not spec.supercritical
        d = boundary_d(spec, builtin("sin-exp"), BoundaryCurve.circle(2.0))
        assert d == pytest.approx(0.0, abs=1e-9)


class TestFluxIdentity:
    @pytest.mark.parametrize("spec,A", [
        (SLE2, SymMat([[1.5, 0.0], [0.0, 2.0 / 3.0]])),
        (MA2, SymMat([[2.0, 0.3], [0.3, 0.7]])),
    ])
    def test_r_independent_2pi_d(self, spec, A):
        if spec.kind == "MA":
            # normalize det = 1 so A solves the equation
            A = SymMat(A.m / math.sqrt(np.linalg.det(A.m)))
        d = 0.37
        for R in (1.0, 6.0):
            assert flux_identity(spec, A, d, R) == pytest.approx(2 * math.pi * d, abs=1e-6)

    def test_ihh(self):
        A = SymMat([[2.0, 0.0], [0.0, 2.0]])   # mu1 + mu2 = mu1 mu2
        for R in (1.0, 4.0):
            assert flux_identity(IHH2, A, -0.4, R) == pytest.approx(-0.8 * math.pi, abs=1e-6)


class TestBoundaryCurve:
    @pytest.mark.parametrize("order", [-4, 0, 15])
    def test_order_below_16(self, order):
        with pytest.raises(BadParams, match="order"):
            BoundaryCurve.circle(2.0, order=order)

    def test_order_above_the_maximum(self, monkeypatch):
        """Refused before any node is allocated; the maximum itself is not."""
        monkeypatch.setattr(BoundaryCurve, "quad_nodes", lambda self: pytest.fail("allocated"))
        assert BoundaryCurve.circle(2.0, order=MAX_QUAD_ORDER).order == MAX_QUAD_ORDER
        for order in (MAX_QUAD_ORDER + 1, 10 ** 11):
            with pytest.raises(BadParams, match=f"in \\[16, {MAX_QUAD_ORDER}\\], got {order}"):
                BoundaryCurve.circle(2.0, order=order)

    @pytest.mark.parametrize("radius", [0.0, -2.0, math.inf, math.nan])
    def test_circle_radius_finite_and_positive(self, radius):
        with pytest.raises(BadParams, match="radius"):
            BoundaryCurve.circle(radius)

    def test_kernel_not_positive_definite(self):
        with pytest.raises(BadParams, match="kernel must be positive definite"):
            BoundaryCurve.ellipse_of_kernel(SymMat.diag(1.0, -1.0), 2.0)

    # the closed forms a circle and a kernel ellipse were built from before
    # BoundaryCurve became one (R, S, center) ellipse: the reference below
    @staticmethod
    def _circle_closed_form(radius, center, t):
        cx, cy = center
        return (np.stack([cx + radius * np.cos(t), cy + radius * np.sin(t)], axis=1),
                np.stack([-radius * np.sin(t), radius * np.cos(t)], axis=1))

    @staticmethod
    def _ellipse_closed_form(L, R, t):
        w, V = np.linalg.eigh(L.m)
        S = V @ np.diag(1.0 / np.sqrt(w)) @ V.T
        return (R * matvecs(S, np.stack([np.cos(t), np.sin(t)], axis=1)),
                R * matvecs(S, np.stack([-np.sin(t), np.cos(t)], axis=1)))

    @given(st.floats(0.01, 1e3), st.floats(0.0, 0.99), st.floats(0.0, 2 * math.pi),
           st.integers(16, 2048))
    @settings(max_examples=60, deadline=None)
    def test_circle_nodes_are_the_closed_form(self, radius, off, angle, order):
        """Equal to the last bit, up to the sign of a zero (the tangent's
        first entry at t = 0 is +0.0 where the closed form has -0.0)."""
        center = (off * radius * math.cos(angle), off * radius * math.sin(angle))
        g, dg, h = BoundaryCurve.circle(radius, center, order).quad_nodes()
        t = np.arange(order) * (2 * math.pi / order)
        ref_g, ref_dg = self._circle_closed_form(radius, center, t)
        assert np.array_equal(g, ref_g) and np.array_equal(dg, ref_dg)
        assert h == 2 * math.pi / order

    @given(st.floats(0.05, 20.0), st.floats(0.05, 20.0), st.floats(0.0, math.pi),
           st.floats(0.01, 1e3), st.integers(16, 2048))
    @settings(max_examples=60, deadline=None)
    def test_kernel_ellipse_nodes_are_the_closed_form(self, w0, w1, phi, R, order):
        c, s = math.cos(phi), math.sin(phi)
        V = np.array([[c, -s], [s, c]])
        L = SymMat(V @ np.diag([w0, w1]) @ V.T)
        g, dg, _ = BoundaryCurve.ellipse_of_kernel(L, R, order).quad_nodes()
        ref_g, ref_dg = self._ellipse_closed_form(L, R, np.arange(order) * (2 * math.pi / order))
        assert np.array_equal(g, ref_g) and np.array_equal(dg, ref_dg)

    @pytest.mark.parametrize("radius, center", [
        (2.0, (10.0, 0.0)), (2.0, (2.0, 0.0)), (2.0, (0.0, -2.5)), (2.0, (math.nan, 0.0))])
    def test_circle_off_the_origin_is_bad_params(self, radius, center):
        """The formula for d needs a curve around the hole: a circle whose
        disk misses the origin, or has it on its edge, is refused before any
        node is allocated; so is a nan center."""
        with pytest.raises(BadParams, match="does not enclose the origin"):
            BoundaryCurve.circle(radius, center)
        with pytest.raises(BadParams, match="does not enclose the origin"):
            dataclasses.replace(BoundaryCurve.circle(radius), center=center)

    def test_kernel_ellipse_off_the_origin_is_bad_params(self):
        """The ellipse x'Lx = R^2 about (0, 2.5) with L = diag(4, 1/4) holds
        the origin (L = I would not), and about (2.5, 0) does not; a nan R
        is refused too."""
        L = SymMat.diag(4.0, 0.25)
        curve = BoundaryCurve.ellipse_of_kernel(L, 2.0)
        assert dataclasses.replace(curve, center=(0.0, 2.5)).center == (0.0, 2.5)
        with pytest.raises(BadParams, match="does not enclose the origin"):
            dataclasses.replace(curve, center=(2.5, 0.0))
        with pytest.raises(BadParams, match="does not enclose the origin"):
            BoundaryCurve.ellipse_of_kernel(L, math.nan)

    def test_boundary_d_on_a_curve_off_the_hole_is_refused(self):
        """A circle of radius 2 about (10, 0) misses the hole, where the
        formula would return a roundoff-sized d as a measurement; an
        off-centre circle around it gives the same d as a centred one."""
        P = builtin("ma-radial", {"c": 1.0})
        with pytest.raises(BadParams, match="does not enclose the origin"):
            boundary_d(MA2, P, BoundaryCurve.circle(2.0, center=(10.0, 0.0)))
        d = boundary_d(MA2, P, BoundaryCurve.circle(3.0, center=(0.5, -0.25)))
        assert d == pytest.approx(0.5, abs=1e-9)

    # u = |x|^2 / 2 solves MA exactly (d = 0), and its flux u_1 (u_22, -u_12).nu
    # = x1 nu1 integrates to the enclosed area: d is 0 only if boundary_d's
    # area term is that area
    UNIT_QUADRATIC = {"A": [[1.0, 0.0], [0.0, 1.0]], "b": [0.0, 0.0], "c": 0.0}

    def test_circle_area(self):
        P = builtin("quadratic", self.UNIT_QUADRATIC)
        assert boundary_d(MA2, P, BoundaryCurve.circle(2.0)) == pytest.approx(0.0, abs=1e-9)

    def test_ellipse_of_kernel_area(self):
        P = builtin("quadratic", self.UNIT_QUADRATIC)
        curve = BoundaryCurve.ellipse_of_kernel(SymMat([[2.0, 0.5], [0.5, 1.0]]), 3.0)
        assert boundary_d(MA2, P, curve) == pytest.approx(0.0, abs=1e-9)

    def test_curve_off_the_plane_is_wrong_dimension(self):
        """A 3x3 S, from a 3D kernel, or a center of three numbers is refused
        before the enclosure check reads them."""
        for make in (lambda: BoundaryCurve(1.0, np.eye(3)),
                     lambda: BoundaryCurve.ellipse_of_kernel(SymMat.identity(3), 10.0),
                     lambda: BoundaryCurve.circle(2.0, center=(0.0, 0.0, 0.0))):
            with pytest.raises(WrongDimension, match="a boundary curve is 2D"):
                make()
