import math

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from asymlab import EquationSpec, SymMat, phase
from hypothesis.extra.numpy import arrays

from asymlab.equations import (
    OPERATORS,
    _phase,
    eigvals,
    eigvals_2x2,
    residual,
    residual_many,
    sigma2_margin,
)
from asymlab.errors import SingularHessian, WrongDimension

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
SPECS_2D = [s for s in SPECS if s.dim == 2]


def admissible(spec, M: SymMat) -> bool:
    """The table's admissible set at one matrix, as a one-row batch."""
    op, H = OPERATORS[spec.kind], M.m[None]
    return bool(op.admissible(spec, H, op.residual(spec, H))[0])


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
        for spec in SPECS_2D:
            mats = [random_admissible(rng, spec) for _ in range(10)]
            expect = [residual(spec, M) for M in mats]
            H = np.stack([M.m for M in mats])
            assert np.allclose(residual_many(spec, H), expect, atol=1e-12)


@given(st.sampled_from(["SLE", "MA", "IHH"]), st.floats(1.1, 5.0), st.floats(-5.0, 5.0),
       st.floats(0.0, math.pi), st.floats(0.1, 1.0))
@settings(max_examples=200, deadline=None)
@example("SLE", 2.00001, -2.0, 1.0, 0.1)  # tr = 1e-5 from terms of size 2
def test_div_form_vanishes_exactly_on_solutions(kind, lam, mu, angle, t):
    """The table's weights give lw tr + cw det - aw = 0 on 2x2 matrices that
    solve the operator (eigenvalues (mu, lam) at Theta = their phase for SLE,
    (1/lam, lam) for MA, (lam/(lam - 1), lam) for IHH), and not on M + tI,
    whose eigenvalues all grow and so leave the solution set.  The roundoff
    bound scales with the magnitudes of the terms, not of tr and det, which
    can cancel."""
    w = {"SLE": (mu, lam), "MA": (1.0 / lam, lam), "IHH": (lam / (lam - 1.0), lam)}[kind]
    c, s = math.cos(angle), math.sin(angle)
    Q = np.array([[c, -s], [s, c]])
    M = SymMat(Q @ np.diag(w) @ Q.T)
    spec = EquationSpec(kind, 2, theta=phase(M) if kind == "SLE" else None)
    assert abs(residual(spec, M)) < 1e-12
    lw, cw, aw = OPERATORS[kind].div_form(spec)

    def form(H):
        return lw * np.trace(H) + cw * np.linalg.det(H) - aw

    scale = abs(lw) * (abs(w[0]) + abs(w[1])) + abs(cw * w[0] * w[1]) + abs(aw)
    assert abs(form(M.m)) <= 1e-12 * scale
    assert abs(form(M.m + t * np.eye(2))) > 1e-6 * scale


def test_sigma2_has_no_2d_rows():
    assert OPERATORS["SIGMA2"].gradient is None
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
        assert not admissible(spec, SymMat.diag(-3.0, 3.0))
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
    """dF/dM from the table, 2D only as the solver that reads it; IHH's is
    negative definite, so its sign is -1."""

    @staticmethod
    def _sign(spec):
        return -1.0 if spec.kind == "IHH" else 1.0

    @pytest.mark.parametrize("spec", [s for s in SPECS if s.dim == 3 and s.kind != "SIGMA2"],
                             ids=lambda s: f"{s.kind}{s.dim}")
    def test_3d_batch_is_wrong_dimension(self, spec, rng):
        """A 3x3 batch is refused, not read through its top-left 2x2 block."""
        H = np.stack([random_admissible(rng, spec).m for _ in range(4)])
        with pytest.raises(WrongDimension, match="dF/dM is 2D only, got 3x3"):
            OPERATORS[spec.kind].gradient(spec, H)

    @pytest.mark.parametrize("spec", SPECS_2D, ids=lambda s: f"{s.kind}{s.dim}")
    def test_ellipticity(self, spec, rng):
        """Eigenvalues of sign * dF/dM are strictly positive on 1000 random
        admissible matrices."""
        for _ in range(1000):
            M = random_admissible(rng, spec)
            lin = self._sign(spec) * OPERATORS[spec.kind].gradient(spec, M.m)
            assert np.linalg.eigvalsh(lin).min() > 0.0

    @pytest.mark.parametrize("spec", SPECS_2D, ids=lambda s: f"{s.kind}{s.dim}")
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


# symmetric stacks with signed zeros and entries large enough that the
# eigenvalues overflow to +-inf, where arctan is +-pi/2
_ENTRIES = st.one_of(st.sampled_from([0.0, -0.0, 1e300, -1e300]),
                     st.floats(-1e300, 1e300), st.floats(-10.0, 10.0))


@st.composite
def _symmetric_stacks(draw, dim):
    H = draw(arrays(np.float64, (draw(st.integers(1, 12)), dim, dim), elements=_ENTRIES))
    return np.triu(H) + np.swapaxes(np.triu(H, 1), -1, -2)


def _stacked_phase(H):
    return np.sum(np.arctan(eigvals(H)), axis=-1)


def _stacked_sle_admissible(spec, H):
    """SLE admissibility from the phase of the stacked eigenvalues."""
    return spec.supercritical & (np.abs(_stacked_phase(H) - spec.theta) < math.pi / 2)


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
class TestStackFreeRows:
    """The rows read eigvals_2x2's two planes or LAPACK's columns; SLE
    admissibility comes from the residual.  All keep the stacked results'
    bytes."""

    @given(_symmetric_stacks(2))
    @settings(max_examples=150, deadline=None)
    def test_2d_phase_and_least_eigenvalue_are_the_stacked_ones(self, H):
        assert _phase(H).tobytes() == _stacked_phase(H).tobytes()
        for kind, floor in (("MA", 0.0), ("IHH", 1.0)):
            got = OPERATORS[kind].admissible(EquationSpec(kind, 2), H, None)
            assert got.tobytes() == (eigvals(H)[..., 0] > floor).tobytes()

    @given(_symmetric_stacks(3))
    @settings(max_examples=50, deadline=None)
    def test_3d_rows_are_lapack(self, H):
        w = np.linalg.eigvalsh(H)
        assert eigvals(H).tobytes() == w.tobytes()
        assert _phase(H).tobytes() == np.sum(np.arctan(w), axis=-1).tobytes()
        assert OPERATORS["MA"].admissible(EquationSpec("MA", 3), H, None).tobytes() == (
            (w[..., 0] > 0.0).tobytes())

    @given(_symmetric_stacks(2), _symmetric_stacks(3), st.floats(-3.1, 3.1))
    @settings(max_examples=150, deadline=None)
    def test_sle_admissibility_from_the_residual(self, H2, H3, theta):
        """On a supercritical (2D, theta != 0), the critical (2D, theta = 0)
        and a subcritical spec (3D, |theta| < pi/2), admissibility from the
        residual is the window on the stacked phase."""
        op = OPERATORS["SLE"]
        for spec, H in ((EquationSpec("SLE", 2, theta=theta), H2),
                        (EquationSpec("SLE", 2, theta=0.0), H2),
                        (EquationSpec("SLE", 3, theta=theta / 2.0), H3)):
            got = op.admissible(spec, H, op.residual(spec, H))
            assert got.tobytes() == _stacked_sle_admissible(spec, H).tobytes()

    def test_sle_window_edges(self):
        """Phases within a few ulps of Theta +- pi/2, some exactly on the
        edge, where the open window |res| < pi/2 excludes them: admissibility
        from the residual is the window on the stacked phase."""
        op = OPERATORS["SLE"]
        H = np.random.default_rng(5).normal(size=(40, 2, 2))
        H = H + np.swapaxes(H, -1, -2)
        on_edge = 0
        for ph in _phase(H):
            for edge in (math.pi / 2, -math.pi / 2):
                theta = ph - edge
                if not 0 < abs(theta) < math.pi:
                    continue
                for _ in range(8):
                    theta = np.nextafter(theta, math.inf)
                for _ in range(16):
                    spec = EquationSpec("SLE", 2, theta=float(theta))
                    res = op.residual(spec, H)
                    got = op.admissible(spec, H, res)
                    assert got.tobytes() == _stacked_sle_admissible(spec, H).tobytes()
                    on_edge += int(np.sum(np.abs(res) == math.pi / 2))
                    theta = np.nextafter(theta, -math.inf)
        assert on_edge > 0
