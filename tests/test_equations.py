import math

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from asymlab import EquationSpec, SymMat, phase
from asymlab.equations import (
    OPERATORS,
    eigvals_2x2,
    residual,
    residual_many,
    sigma2_margin,
)
from asymlab.errors import SingularHessian

from conftest import random_admissible, random_symmetric

SPECS = [
    EquationSpec("SLE", 2, theta=math.pi / 2),
    EquationSpec("SLE", 3, theta=1.1 * math.pi / 2),
    EquationSpec("MA", 2),
    EquationSpec("MA", 3),
    EquationSpec("SIGMA2", 3, delta=sigma2_margin(3) / 2),
    EquationSpec("IHH", 2),
    EquationSpec("IHH", 3),
]


def admissible(spec, M: SymMat) -> bool:
    """The table's admissible set at one matrix, as a one-row batch."""
    return bool(OPERATORS[spec.kind].admissible(spec, M.m[None])[0])


def test_sigma2_margin_value():
    assert sigma2_margin(3) == pytest.approx(math.sqrt(1.0 / 3.0))
    assert sigma2_margin(2) == pytest.approx(1.0)


class TestResidual:
    def test_sle_identity(self):
        spec = EquationSpec("SLE", 2, theta=math.pi / 2)
        assert residual(spec, SymMat.identity(2)) == pytest.approx(0.0, abs=1e-15)

    def test_ma_identity(self):
        assert residual(EquationSpec("MA", 2), SymMat.identity(2)) == 0.0
        assert residual(EquationSpec("MA", 3), SymMat.diag(2.0, 1.0, 0.5)) == pytest.approx(0.0)

    def test_sigma2_known(self):
        # sigma_2(diag(a,b,c)) = ab + bc + ca
        spec = EquationSpec("SIGMA2", 3, delta=0.1)
        M = SymMat.diag(1.0, 1.0, 0.0)
        assert residual(spec, M) == pytest.approx(0.0, abs=1e-14)

    def test_ihh_known(self):
        spec = EquationSpec("IHH", 2)
        M = SymMat.diag(2.0, 2.0)
        assert residual(spec, M) == pytest.approx(0.0, abs=1e-15)

    def test_ihh_singular_raises(self):
        spec = EquationSpec("IHH", 2)
        with pytest.raises(SingularHessian):
            residual(spec, SymMat.diag(1.0, 0.0))

    def test_residual_many_matches_scalar(self, rng):
        for spec in (s for s in SPECS if s.dim == 2):
            mats = [random_admissible(rng, spec) for _ in range(10)]
            expect = [residual(spec, M) for M in mats]
            H = np.stack([M.m for M in mats])
            assert np.allclose(residual_many(spec, H), expect, atol=1e-12)


@given(st.sampled_from(["SLE", "MA", "IHH"]), st.floats(1.1, 5.0), st.floats(-5.0, 5.0),
       st.floats(0.0, math.pi), st.floats(0.1, 1.0))
@settings(max_examples=200, deadline=None)
def test_div_form_vanishes_exactly_on_solutions(kind, lam, mu, angle, t):
    """The table's weights give lw tr + cw det - aw = 0 on 2x2 matrices that
    solve the operator (eigenvalues (mu, lam) at Theta = their phase for SLE,
    (1/lam, lam) for MA, (lam/(lam - 1), lam) for IHH), and not on M + tI,
    whose eigenvalues all grow and so leave the solution set."""
    w = {"SLE": (mu, lam), "MA": (1.0 / lam, lam), "IHH": (lam / (lam - 1.0), lam)}[kind]
    c, s = math.cos(angle), math.sin(angle)
    Q = np.array([[c, -s], [s, c]])
    M = SymMat(Q @ np.diag(w) @ Q.T)
    spec = EquationSpec(kind, 2, theta=phase(M) if kind == "SLE" else None)
    assert abs(residual(spec, M)) < 1e-12
    lw, cw, aw = OPERATORS[kind].div_form(spec)

    def form(H):
        return lw * np.trace(H) + cw * np.linalg.det(H) - aw

    scale = abs(lw * np.trace(M.m)) + abs(cw * np.linalg.det(M.m)) + abs(aw)
    assert abs(form(M.m)) <= 1e-12 * scale
    assert abs(form(M.m + t * np.eye(2))) > 1e-6 * scale


def test_sigma2_has_no_2d_rows():
    assert OPERATORS["SIGMA2"].log_kernel is None
    assert OPERATORS["SIGMA2"].div_form is None


class TestAdmissibility:
    def test_sle_follows_supercritical_flag(self):
        M = SymMat.diag(5.0, -0.1)
        assert admissible(EquationSpec("SLE", 2, theta=phase(M)), M)
        sub = EquationSpec("SLE", 3, theta=0.3)
        assert not admissible(sub, SymMat.diag(1.0, 1.0, -1.5))

    def test_sle_phase_window(self):
        """Supercritical SLE admits M only with phase(M) in
        (Theta - pi/2, Theta + pi/2), the solver's branch window."""
        spec = EquationSpec("SLE", 2, theta=math.pi / 2)
        assert admissible(spec, SymMat.diag(0.5, 2.0))
        assert not admissible(spec, SymMat.diag(-5.0, -5.0))
        assert not admissible(spec, SymMat.diag(-3.0, 3.0))  # phase 0, on the edge

    def test_sle_branch_ignores_supercritical_flag(self):
        """At the critical phase Theta = 0 in 2D no Hessian is admissible to
        the solver, but a harmonic one is on the solution branch."""
        spec = EquationSpec("SLE", 2, theta=0.0)
        H = SymMat.diag(-3.0, 3.0).m[None]
        assert not OPERATORS["SLE"].admissible(spec, H)[0]
        assert OPERATORS["SLE"].in_branch(spec, H)[0]
        assert not OPERATORS["SLE"].in_branch(spec, SymMat.diag(5.0, 5.0).m[None])[0]

    def test_ma_positive_definite(self):
        spec = EquationSpec("MA", 2)
        assert admissible(spec, SymMat.diag(0.5, 2.0))
        assert not admissible(spec, SymMat.diag(-0.5, 2.0))

    def test_ihh_above_identity(self):
        spec = EquationSpec("IHH", 2)
        assert admissible(spec, SymMat.diag(1.5, 3.0))
        assert not admissible(spec, SymMat.diag(0.9, 3.0))

    def test_sigma2_margin_cone(self):
        K = sigma2_margin(3)
        spec = EquationSpec("SIGMA2", 3, delta=K / 2)
        assert admissible(spec, SymMat.diag(1.0, 1.0, -0.2))
        assert not admissible(spec, SymMat.diag(1.0, 1.0, -K))


class TestLinearization:
    """dF/dM from the table; IHH's is negative definite, so its sign is -1."""

    @staticmethod
    def _sign(spec):
        return -1.0 if spec.kind == "IHH" else 1.0

    @pytest.mark.parametrize("spec", SPECS, ids=lambda s: f"{s.kind}{s.dim}")
    def test_ellipticity(self, spec, rng):
        """Eigenvalues of sign * dF/dM are strictly positive on 1000 random
        admissible matrices."""
        for _ in range(1000):
            M = random_admissible(rng, spec)
            lin = self._sign(spec) * OPERATORS[spec.kind].gradient(spec, M.m)
            assert np.linalg.eigvalsh(lin).min() > 0.0

    @pytest.mark.parametrize("spec", SPECS, ids=lambda s: f"{s.kind}{s.dim}")
    def test_directional_derivative_sign(self, spec, rng):
        """residual(M + tE) - residual(M) ~ t <dF/dM, E>, Richardson-checked
        at t in {1e-4, 5e-5}; fixes the sign convention of each gradient."""
        for _ in range(20):
            M = random_admissible(rng, spec)
            E = random_symmetric(rng, spec.dim)
            pred = np.sum(OPERATORS[spec.kind].gradient(spec, M.m) * E.m)
            errs = []
            for t in (1e-4, 5e-5):
                got = (residual(spec, SymMat(M.m + t * E.m)) - residual(spec, M)) / t
                errs.append(abs(got - pred))
            scale = 1.0 + abs(pred)
            # halving t should (roughly) halve the first-order error
            assert errs[1] < 0.75 * errs[0] + 1e-9 * scale
            assert errs[0] < 2e-3 * scale


@given(st.floats(-5, 5), st.floats(-5, 5), st.floats(-5, 5))
@settings(max_examples=200, deadline=None)
def test_eigvals_2x2_matches_lapack(a, b, c):
    lo, hi = eigvals_2x2(np.array([a]), np.array([b]), np.array([c]))
    ref = np.linalg.eigvalsh(np.array([[a, b], [b, c]]))
    assert abs(lo[0] - ref[0]) < 1e-10 and abs(hi[0] - ref[1]) < 1e-10


@given(st.floats(-5, 5), st.floats(-5, 5), st.floats(-5, 5), st.floats(0.1, 3.0))
@settings(max_examples=200, deadline=None)
def test_sle_admissible_matches_solver_window(a, b, c, theta):
    """The closed-form 2x2 phase in the table picks the same window
    |phase - Theta| < pi/2 as the LAPACK phase."""
    spec = EquationSpec("SLE", 2, theta=theta)
    M = SymMat(np.array([[a, b], [b, c]]))
    assume(abs(abs(phase(M) - theta) - math.pi / 2) > 1e-9)
    assert admissible(spec, M) == (abs(phase(M) - theta) < math.pi / 2)
