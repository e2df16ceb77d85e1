import cmath
import dataclasses
import json
import math
import tracemalloc
import types

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from asymlab import (
    AnnulusField,
    AnnulusGrid,
    EquationSpec,
    LaurentCoeffs,
    oracle_sle,
    solve_annulus,
)
from asymlab import solver
from asymlab.equations import OPERATORS
from asymlab.errors import (BadParams, DidNotConverge, InadmissibleIterate, NotAdmissible,
                            SingularJacobian, WrongDimension)
from asymlab.oracle2d import builtin
from asymlab.solver import _prolong, boundary_data_from, convergence_study

MA2 = EquationSpec("MA", 2)
SLE2 = EquationSpec("SLE", 2, theta=math.pi / 2)
IHH2 = EquationSpec("IHH", 2)


def _grid_hessians(fld):
    """Cartesian Hessians at the interior nodes, (n_r - 2, n_theta, 2, 2)."""
    return solver._hessians(fld.grid, fld.values, solver._hessian_coefficients(fld.grid))


def _direct(spec, P, grid, start=None):
    """The damped-Newton solve on `grid` alone from `start` or, if it is None,
    from the affine blend of the boundary data: no coarse levels and no
    factors handed down."""
    return solver._solve_level(spec, grid, boundary_data_from(P, grid), start, [], False)


def _exact_error(rep, grid, P):
    x, y = grid.nodes_xy()
    exact = np.vectorize(lambda a, b: P.value((a, b)))(x, y)
    return np.abs(rep.field.values - exact).max()


class TestGridHessian:
    def test_matches_analytic_interior(self):
        grid = AnnulusGrid(1.0, 8.0, 65, 128, "uniform")
        P = builtin("ma-radial", {"c": 1.0})
        fld = AnnulusField.from_potential(grid, P)
        x, y = grid.nodes_xy()
        H = _grid_hessians(fld)
        for i, j in ((10, 7), (32, 50), (60, 100)):
            exact = P.hess((x[i, j], y[i, j])).m
            assert np.abs(H[i - 1, j] - exact).max() < 5e-3


class TestBoundaryData:
    def test_matches_potential_on_rings(self):
        grid = AnnulusGrid(1.0, 4.0, 9, 32)
        P = builtin("ma-radial", {"c": 1.0})
        inner, outer = boundary_data_from(P, grid)
        x, y = grid.nodes_xy()
        assert np.allclose(inner, [P.value(p) for p in zip(x[0], y[0])])
        assert np.allclose(outer, [P.value(p) for p in zip(x[-1], y[-1])])

    def test_study_samples_the_last_grid_only(self, monkeypatch):
        """Every level of a study takes the last grid's rings at every
        other node (every fourth, ...), so they are sampled once."""
        grids = [AnnulusGrid(1.0, 8.0, 33, 64, "uniform")]
        grids.append(grids[0].refine())
        P = builtin("ma-radial", {"c": 1.0})
        sampled = []
        sample = solver.boundary_data_from
        monkeypatch.setattr(solver, "boundary_data_from",
                            lambda P, grid: sampled.append(grid) or sample(P, grid))
        calls = _spy_levels(monkeypatch)
        convergence_study(MA2, P, grids)
        assert sampled == [grids[-1]]
        for grid, _, report in calls:
            inner, outer = sample(P, grid)
            assert np.array_equal(report.field.values[0], inner)
            assert np.array_equal(report.field.values[-1], outer)


class TestDirichletRows:
    def test_solution_keeps_boundary_data_exactly(self):
        grid = AnnulusGrid(1.0, 4.0, 9, 16)
        P = builtin("ma-radial", {"c": 1.0})
        inner, outer = boundary_data_from(P, grid)
        # a warm start with other boundary rows is overwritten by the data
        warm = AnnulusField(grid, AnnulusField.from_potential(grid, P).values + 1e-3)
        for rep in (solve_annulus(MA2, P, grid), _direct(MA2, P, grid, warm)):
            values = rep.field.values
            assert np.array_equal(values[0], inner)
            assert np.array_equal(values[-1], outer)


class TestSolveMA:
    def test_recovers_radial_solution(self):
        grid = AnnulusGrid(1.0, 8.0, 65, 128, "uniform")
        P = builtin("ma-radial", {"c": 1.0})
        rep = solve_annulus(MA2, P, grid)
        assert rep.converged
        assert rep.final_residual_inf < 1e-10
        assert _exact_error(rep, grid, P) < 1e-4

    def test_residual_history_monotone(self):
        grid = AnnulusGrid(1.0, 8.0, 33, 64, "uniform")
        P = builtin("ma-radial", {"c": 1.0})
        rep = solve_annulus(MA2, P, grid)
        hist = rep.residual_history
        assert all(b < a for a, b in zip(hist, hist[1:]))

    def test_final_iterate_admissible_everywhere(self):
        grid = AnnulusGrid(1.0, 8.0, 33, 64, "uniform")
        P = builtin("ma-radial", {"c": 1.0})
        rep = solve_annulus(MA2, P, grid)
        H = _grid_hessians(rep.field)
        for i in range(1, grid.n_r - 1):
            for j in range(0, grid.n_theta, 7):
                assert np.linalg.eigvalsh(H[i - 1, j]).min() > 0

    def test_rejects_concave_data(self):
        grid = AnnulusGrid(1.0, 8.0, 17, 32, "uniform")
        P = builtin("quadratic", {"A": [[-1.0, 0.0], [0.0, -1.0]], "b": [0.0, 0.0], "c": 0.0})
        with pytest.raises(NotAdmissible):
            solve_annulus(MA2, P, grid)

    def test_concave_data_on_a_grid_that_coarsens(self, monkeypatch):
        """The coarse level fails first; the grid's own cold start then
        raises the same NotAdmissible a grid that does not coarsen raises."""
        grid = AnnulusGrid(1.0, 8.0, 33, 64, "uniform")
        P = builtin("quadratic", {"A": [[-1.0, 0.0], [0.0, -1.0]], "b": [0.0, 0.0], "c": 0.0})
        calls = _spy_levels(monkeypatch)
        with pytest.raises(NotAdmissible, match="initial iterate is inadmissible"):
            solve_annulus(MA2, P, grid)
        assert [(g.n_r, start, rep) for g, start, rep in calls] == [(17, None, None),
                                                                  (33, None, None)]

    def test_report_to_dict(self):
        grid = AnnulusGrid(1.0, 4.0, 17, 32, "uniform")
        P = builtin("ma-radial", {"c": 1.0})
        rep = solve_annulus(MA2, P, grid)
        d = rep.to_dict()
        assert d["converged"] is True
        assert d["iterations"] == rep.iterations


class TestSolveSLE:
    def test_recovers_oracle(self):
        grid = AnnulusGrid(1.0, 8.0, 65, 128, "uniform")
        P = oracle_sle(LaurentCoeffs(a1=0.1, am1=0.5), math.pi / 4)
        rep = solve_annulus(SLE2, P, grid)
        assert rep.converged
        assert _exact_error(rep, grid, P) < 2e-3

    def test_phase_branch_everywhere_supercritical(self):
        grid = AnnulusGrid(1.0, 8.0, 33, 64, "uniform")
        P = oracle_sle(LaurentCoeffs(a1=0.1, am1=0.5), math.pi / 4)
        rep = solve_annulus(SLE2, P, grid)
        H = _grid_hessians(rep.field)
        for i in range(1, grid.n_r - 1):
            ph = np.sum(np.arctan(np.linalg.eigvalsh(H[i - 1, 11])))
            assert abs(ph - math.pi / 2) < math.pi / 2


class TestPerturbationStability:
    def test_one_step_from_oracle_interpolant_is_small(self, monkeypatch):
        """The exact solution sampled on the grid is a near-zero of the
        discrete system: one Newton step moves it by O(h^2) only."""
        monkeypatch.setattr(solver, "NEWTON_MAX_ITER", 1)
        monkeypatch.setattr(solver, "NEWTON_TOL", 1e-30)
        P = builtin("ma-radial", {"c": 1.0})
        moves = []
        for n_r, n_t in ((17, 32), (33, 64)):
            grid = AnnulusGrid(1.0, 8.0, n_r, n_t, "uniform")
            start = AnnulusField.from_potential(grid, P)
            try:
                rep = _direct(MA2, P, grid, start)
            except DidNotConverge as e:
                rep = e.report
            moves.append(np.abs(rep.field.values - start.values).max())
        assert moves[0] < 0.1
        assert moves[1] < 0.35 * moves[0]   # ~ h^2


class TestConvergenceStudy:
    def test_second_order_on_ma(self):
        grids = [AnnulusGrid(1.0, 8.0, 9, 16, "uniform"),
                 AnnulusGrid(1.0, 8.0, 17, 32, "uniform"),
                 AnnulusGrid(1.0, 8.0, 33, 64, "uniform")]
        rows = convergence_study(MA2, builtin("ma-radial", {"c": 1.0}), grids)
        assert math.isnan(rows[0]["ratio"])
        for row in rows[1:]:
            assert 3.0 <= row["ratio"] <= 5.0
        assert [r["h"] for r in rows] == sorted((r["h"] for r in rows), reverse=True)

    @given(spacing=st.sampled_from(["uniform", "logarithmic"]), s=st.floats(-1.0, 1.0))
    @settings(max_examples=8, deadline=None)
    def test_rows_are_bitwise_per_grid_evaluations(self, spacing, s):
        """The study evaluates the oracle once, on the last grid; its rows are
        bitwise the ones from evaluating it on every grid of the study."""
        spec, P, r_in = _oracle_case("SLE", s)
        grids = [AnnulusGrid(r_in, 8.0, 9, 16, spacing)]
        for _ in range(2):
            grids.append(grids[-1].refine())
        reports = []
        with pytest.MonkeyPatch.context() as mp:
            nested = solver._nested
            mp.setattr(solver, "_nested", lambda *a: reports.extend(nested(*a)) or reports)
            rows = convergence_study(spec, P, grids)
        want, prev = [], None
        for grid, report in zip(grids, reports):
            exact = AnnulusField.from_potential(grid, P).values
            err = float(np.max(np.abs(report.field.values - exact)))
            want.append({"h": grid.h_t, "maxError": err,
                         "ratio": prev / err if prev is not None and err > 1e-13 else math.nan,
                         "iterations": report.iterations})
            prev = err
        assert repr(rows) == repr(want)


class TestNewtonRecord:
    def test_one_deterministic_entry_per_iteration(self):
        grid = AnnulusGrid(1.0, 8.0, 33, 64, "uniform")
        P = builtin("ma-radial", {"c": 1.0})
        reps = [solve_annulus(MA2, P, grid) for _ in range(2)]
        steps = reps[0].steps
        assert len(steps) == reps[0].iterations
        assert sum(s["halvings"] for s in steps) == reps[0].damping_events
        for s in steps:
            assert s["t"] == 2.0 ** -s["halvings"]
            assert s["nnzLU"] > 0
        assert reps[0].to_dict()["steps"] == steps
        assert json.dumps(reps[0].to_dict()) == json.dumps(reps[1].to_dict())

    def test_failure_report_counts_come_from_its_steps(self, monkeypatch):
        """The report that DidNotConverge carries, which scripts/solver_sweep.py
        reads, gives the counts of its own steps and residual history."""
        monkeypatch.setattr(solver, "NEWTON_MAX_ITER", 3)
        with pytest.raises(DidNotConverge) as failure:
            _direct(MA2, builtin("ma-radial", {"c": 1.0}), AnnulusGrid(1.0, 8.0, 33, 64, "uniform"))
        rep = failure.value.report
        assert rep.iterations == len(rep.steps) == len(rep.residual_history) - 1 == 3
        assert rep.damping_events == sum(s["halvings"] for s in rep.steps) > 0
        assert rep.final_residual_inf == rep.residual_history[-1] > solver.NEWTON_TOL
        assert rep.converged is False
        d = rep.to_dict()
        assert (d["iterations"], d["dampingEvents"], d["finalResidualInf"], d["converged"]) == (
            rep.iterations, rep.damping_events, rep.final_residual_inf, False)

    def test_chord_and_factored_steps(self):
        """The first step factors; a chord step is a full step on the held
        factors after one trial; a later factored step counts its rejected
        chord trial besides its line-search trials."""
        grid = AnnulusGrid(1.0, 8.0, 33, 64, "uniform")
        rep = _direct(MA2, builtin("ma-radial", {"c": 1.0}), grid)
        assert rep.steps[0]["factored"]
        assert not all(s["factored"] for s in rep.steps)
        nnz = None
        for k, s in enumerate(rep.steps):
            if s["factored"]:
                nnz = s["nnzLU"]
                assert s["trials"] == s["halvings"] + 1 + (k > 0)
            else:
                assert (s["t"], s["halvings"], s["trials"]) == (1.0, 0, 1)
                assert s["nnzLU"] == nnz
                assert rep.residual_history[k + 1] <= solver.CHORD_CONTRACTION * rep.residual_history[k]

    def test_fill_below_default_ordering(self):
        """The recorded LU fill comes from the minimum-degree ordering of
        J^T + J, which fills less than SuperLU's default COLAMD."""
        grid = AnnulusGrid(1.0, 8.0, 33, 64, "uniform")
        P = builtin("ma-radial", {"c": 1.0})
        rep = _direct(MA2, P, grid)
        inner, outer = boundary_data_from(P, grid)
        C = solver._hessian_coefficients(grid)
        H = solver._hessians(grid, solver._blend_initial(grid, inner, outer), C)
        J = solver._assemble_jacobian(
            grid, solver._stencil_weights(C, OPERATORS["MA"].gradient(MA2, H)),
            *solver._csr_pattern(grid))
        assert rep.steps[0]["nnzLU"] < solver.spla.splu(J.tocsc()).nnz


class TestFailureNames:
    @pytest.mark.parametrize("ring", [0, 1])
    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_boundary_data_is_bad_params(self, ring, bad):
        """A potential that is non-finite at one node of one ring."""
        grid = AnnulusGrid(1.0, 8.0, 9, 16, "uniform")
        P = builtin("ma-radial", {"c": 1.0})
        x, y = grid.nodes_xy()
        node = (x[-ring, 3], y[-ring, 3])
        hits = []

        def values(X):
            v = P.values_fn(X)
            hit = (X[:, 0] == node[0]) & (X[:, 1] == node[1])
            hits.append(int(hit.sum()))
            v[hit] = bad
            return v

        with pytest.raises(BadParams, match="boundary data must be finite"):
            solve_annulus(MA2, dataclasses.replace(P, values_fn=values), grid)
        assert hits == [1]

    @pytest.mark.parametrize("grids", [
        [],
        [AnnulusGrid(1.0, 8.0, 9, 16, "uniform"), AnnulusGrid(1.0, 8.0, 17, 32, "logarithmic")],
        [AnnulusGrid(1.0, 8.0, 9, 16, "uniform"), AnnulusGrid(1.0, 8.0, 33, 64, "uniform")],
    ], ids=["empty", "other-spacing", "skips-a-level"])
    def test_study_needs_nested_grids(self, grids):
        with pytest.raises(BadParams, match="each the refinement of the one before"):
            convergence_study(MA2, builtin("ma-radial", {"c": 1.0}), grids)

    @pytest.mark.parametrize("spec, P, r_inner", [
        (SLE2, oracle_sle(LaurentCoeffs(a1=0.1, am1=0.5), math.pi / 4), 0.5),  # rho = 1
        (IHH2, builtin("ihh-oracle", {"a1": 0.3, "am1": 0.4}), 1.0),  # rho = 2
    ], ids=["SLE", "IHH"])
    def test_inner_ring_inside_the_hole_is_bad_params(self, spec, P, r_inner):
        """An inner radius below the oracle's certified domain radius is
        refused before any ring is sampled; one equal to it solves
        (criterion 8 and TestSolveSLE have r_inner == rho == 1)."""
        P = dataclasses.replace(P, values_fn=None)  # sampling would fail
        with pytest.raises(BadParams, match=f"rho = {P.rho}"):
            solve_annulus(spec, P, AnnulusGrid(r_inner, 8.0, 17, 32, "uniform"))

    def test_inner_ring_on_rho_to_roundoff_solves(self):
        """The refusal has `PotentialFn.outside_rho`'s slack, as `boundary_d`
        and the fit have: an inner radius 1e-13 under this IHH oracle's
        rho = 1 solves."""
        P = builtin("ihh-oracle", {"am1": 0.4})
        assert P.rho == 1.0
        rep = solve_annulus(IHH2, P, AnnulusGrid(1.0 - 1e-13, 8.0, 17, 32))
        assert rep.converged

    def test_critical_sle_is_refused_before_sampling(self):
        """2D SLE at Theta = 0 is Laplace's equation, outside the paper's
        supercritical range |Theta| > (n - 2) pi/2: the solver refuses the
        equation by name, with its Theta, before it samples the boundary
        data (once, where it failed every level's start node by node)."""
        def fail(X):
            raise AssertionError("evaluated")

        P = dataclasses.replace(builtin("sin-exp"), values_fn=fail, grads_fn=fail,
                                hessians_fn=fail)
        spec = EquationSpec("SLE", 2, theta=0.0)
        with pytest.raises(NotAdmissible, match=r"Theta = 0\.0 is not supercritical"):
            solve_annulus(spec, P, AnnulusGrid(1.0, 8.0, 17, 32))
        with pytest.raises(NotAdmissible, match="supercritical"):
            convergence_study(spec, P, [AnnulusGrid(1.0, 8.0, 17, 32, "uniform"),
                                        AnnulusGrid(1.0, 8.0, 33, 64, "uniform")])

    def test_three_dimensional_potential_is_wrong_dimension(self):
        grid = AnnulusGrid(1.0, 2.0, 9, 16)
        with pytest.raises(WrongDimension, match="annulus solver is 2D only"):
            solve_annulus(MA2, builtin("warren3d"), grid)

    def test_singular_jacobian(self, monkeypatch):
        grid = AnnulusGrid(1.0, 8.0, 9, 16, "uniform")
        n = (grid.n_r - 2) * grid.n_theta
        monkeypatch.setattr(solver, "_assemble_jacobian",
                            lambda *a: sp.csc_matrix((n, n)))
        with pytest.raises(SingularJacobian):
            solve_annulus(MA2, builtin("ma-radial", {"c": 1.0}), grid)

    def test_non_finite_step(self, monkeypatch):
        class NanLU:
            nnz = 1

            def solve(self, b):
                return np.full_like(b, math.nan)

        monkeypatch.setattr(solver.spla, "splu", lambda *a, **k: NanLU())
        grid = AnnulusGrid(1.0, 8.0, 9, 16, "uniform")
        with pytest.raises(SingularJacobian):
            solve_annulus(MA2, builtin("ma-radial", {"c": 1.0}), grid)


def _on_nodes(grid, f):
    return f(*np.meshgrid(grid.r, grid.theta, indexing="ij"))


class TestProlong:
    @pytest.mark.parametrize("spacing", ["uniform", "logarithmic"])
    @pytest.mark.parametrize("f", [lambda r, th: np.exp(np.sin(th)) + 0 * r,
                                   lambda r, th: np.sin(r) + 0 * th],
                             ids=["theta", "r"])
    def test_fourth_order(self, f, spacing):
        """Error on the refined grid falls about 16x per halving, the
        Dirichlet-adjacent one-sided rows included; coarse nodes are kept."""
        errs = []
        for n_r in (17, 33, 65):
            grid = AnnulusGrid(1.0, 4.0, n_r, 2 * (n_r - 1), spacing)
            U = _on_nodes(grid, f)
            fine = _prolong(U)
            assert np.array_equal(fine[::2, ::2], U)
            errs.append(np.abs(fine - _on_nodes(grid.refine(), f)).max())
        for a, b in zip(errs, errs[1:]):
            assert 13.0 <= a / b <= 20.0


def _spy_levels(mp):
    """Record [grid, start, report or None] of every level `_nested` solves."""
    calls = []
    inner_solve = solver._solve_level

    def spy(spec, grid, rings, start, handoff, keep):
        call = [grid, start, None]
        calls.append(call)
        call[2] = inner_solve(spec, grid, rings, start, handoff, keep)
        return call[2]

    mp.setattr(solver, "_solve_level", spy)
    return calls


def _oracle_case(kind, s):
    """(spec, oracle, inner radius) of one family, its data moved by s in [-1, 1]."""
    if kind == "MA":
        return MA2, builtin("ma-radial", {"c": 1.0 + 0.05 * s}), 1.0
    if kind == "SLE":
        return SLE2, oracle_sle(LaurentCoeffs(a1=0.1 * cmath.exp(1j * math.pi * s),
                                              am1=0.5 + 0.05 * s), math.pi / 4), 1.0
    return EquationSpec("IHH", 2), builtin("ihh-oracle", {"am1": 0.4 + 0.05 * s}), 2.0


class TestWarmStart:
    @given(kind=st.sampled_from(["MA", "SLE"]), s=st.floats(-1.0, 1.0))
    @settings(max_examples=10, deadline=None)
    def test_warm_and_cold_solves_agree(self, kind, s):
        coarse = AnnulusGrid(1.0, 8.0, 9, 16, "uniform")
        fine = coarse.refine()
        spec, P, _ = _oracle_case(kind, s)
        with pytest.MonkeyPatch.context() as mp:
            calls = _spy_levels(mp)
            convergence_study(spec, P, [coarse, fine])
        (_, start0, _), (_, start1, warm) = calls
        assert start0 is None and isinstance(start1, AnnulusField)
        cold = solve_annulus(spec, P, fine)
        assert warm.final_residual_inf <= 1e-10
        assert cold.final_residual_inf <= 1e-10
        assert np.abs(warm.field.values - cold.field.values).max() <= 1e-9

    def test_inadmissible_prolonged_start_falls_back(self, monkeypatch):
        """A prolonged start outside the MA cone is dropped for the affine
        blend, which gives the row a cold solve gives."""
        grids = [AnnulusGrid(1.0, 8.0, 9, 16, "uniform")]
        grids.append(grids[0].refine())
        P = builtin("ma-radial", {"c": 1.0})
        cold = convergence_study(MA2, P, grids[1:])
        monkeypatch.setattr(solver, "_prolong", lambda U: -_prolong(U))
        calls = _spy_levels(monkeypatch)
        rows = convergence_study(MA2, P, grids)
        _, (_, warm_start, warm), (_, cold_start, _) = calls
        assert isinstance(warm_start, AnnulusField) and warm is None  # NotAdmissible
        assert cold_start is None
        assert rows[1]["maxError"] == cold[0]["maxError"]
        assert rows[1]["iterations"] == cold[0]["iterations"]

    def test_few_fine_iterations_on_criterion_8_ma_grids(self):
        grids = [AnnulusGrid(1.0, 8.0, 33, 64, "uniform")]
        for _ in range(2):
            grids.append(grids[-1].refine())
        rows = convergence_study(MA2, builtin("ma-radial", {"c": 1.0}), grids)
        assert all(row["iterations"] <= 2 for row in rows[1:])

    def test_few_steps_on_the_pipeline_ihh_grid(self):
        """The logarithmic 33x64 IHH solve of `lab experiment`'s benchmark
        config cycles on the 17x32 factors in a few re-linearized steps."""
        rep = solve_annulus(IHH2, builtin("ihh-oracle", {"am1": 0.4}),
                            AnnulusGrid(1.0, 8.0, 33, 64, "logarithmic"))
        assert rep.final_residual_inf <= solver.NEWTON_TOL
        assert rep.iterations <= 5


class TestChordSteps:
    @given(kind=st.sampled_from(["MA", "SLE", "IHH"]),
           spacing=st.sampled_from(["uniform", "logarithmic"]), s=st.floats(-1.0, 1.0))
    @settings(max_examples=20, deadline=None)
    def test_chord_agrees_with_full_newton(self, kind, spacing, s):
        """Chord steps end where full Newton, which factors every iteration
        (a zero contraction factor rejects every chord trial), ends."""
        spec, P, r_in = _oracle_case(kind, s)
        grid = AnnulusGrid(r_in, 8.0, 17, 32, spacing)
        chord = solve_annulus(spec, P, grid)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(solver, "CHORD_CONTRACTION", 0.0)
            full = solve_annulus(spec, P, grid)
        assert not all(step["factored"] for step in chord.steps)
        assert all(step["factored"] for step in full.steps)
        assert chord.final_residual_inf <= solver.NEWTON_TOL
        assert full.final_residual_inf <= solver.NEWTON_TOL
        assert np.abs(chord.field.values - full.field.values).max() <= 1e-9

    def test_at_most_one_factorization_alive(self, monkeypatch):
        """The held factors are dropped before each new factorization and
        when the solve returns; in a nested solve and in a three-grid study
        the last grid holds only the factors the level before it leaves,
        and none outlive the solve."""
        alive, seen, solving = _track_factorizations(monkeypatch)
        calls = _spy_levels(monkeypatch)
        grid = AnnulusGrid(1.0, 8.0, 33, 64, "uniform")
        P = builtin("ma-radial", {"c": 1.0})
        rep = _direct(MA2, P, grid)
        assert seen == [0] * sum(step["factored"] for step in rep.steps)
        assert len(seen) >= 2 and not alive
        for solve in (lambda: solve_annulus(MA2, P, grid),
                      lambda: convergence_study(MA2, P, [grid, grid.refine(),
                                                         grid.refine().refine()])):
            seen.clear()
            calls.clear()
            solving.clear()
            solve()
            assert seen == [0] * sum(step["factored"] for *_, rep in calls for step in rep.steps)
            assert any(step["krylov"] for step in calls[-1][2].steps)
            assert max(solving) == 1 and not alive

    def test_one_factorization_per_refined_criterion_8_ma_grid(self, monkeypatch):
        """Only the first level solved, the 17x32 coarsening, factors; the
        three grids factor nothing and solve by cycles down to its factors."""
        grids = [AnnulusGrid(1.0, 8.0, 33, 64, "uniform")]
        for _ in range(2):
            grids.append(grids[-1].refine())
        calls = _spy_levels(monkeypatch)
        convergence_study(MA2, builtin("ma-radial", {"c": 1.0}), grids)
        assert [grid for grid, *_ in calls] == [AnnulusGrid(1.0, 8.0, 17, 32, "uniform"), *grids]
        (*_, first), *cycled = calls
        assert sum(step["factored"] for step in first.steps) == 2
        for *_, report in cycled:
            assert sum(step["factored"] for step in report.steps) == 0
            assert report.steps[0]["krylov"] > 0
            assert {step["nnzLU"] for step in report.steps} == {first.steps[-1]["nnzLU"]}


class TestNewtonKrylovSteps:
    """A level that cycles re-linearizes every Newton step: it takes no
    chord trial, so each step is one GMRES solve on the Jacobian at its
    iterate, evaluated once plus once per halving."""

    @staticmethod
    def _assert_no_chord_trial(cycled):
        assert cycled
        for *_, report in cycled:
            for step in report.steps:
                assert step["krylov"] > 0 and not step["factored"]
                assert step["trials"] == 1 + step["halvings"]

    def test_criterion_8_ma_grids(self, monkeypatch):
        grids = [AnnulusGrid(1.0, 8.0, 33, 64, "uniform")]
        for _ in range(2):
            grids.append(grids[-1].refine())
        calls = _spy_levels(monkeypatch)
        convergence_study(MA2, builtin("ma-radial", {"c": 1.0}), grids)
        self._assert_no_chord_trial(calls[1:])  # 33x64 on the 17x32 factors, then V-cycles

    @pytest.mark.parametrize("kind,spacing", [("MA", "uniform"), ("SLE", "uniform"),
                                              ("IHH", "logarithmic")])
    def test_v_cycle_levels(self, monkeypatch, kind, spacing):
        """Only 9x16, the first level, factors: 17x32 cycles on its factors
        and 33x64 on V-cycles through 17x32."""
        spec, P, r_in = _oracle_case(kind, 0.0)
        grids = [AnnulusGrid(r_in, 8.0, 9, 16, spacing)]
        for _ in range(2):
            grids.append(grids[-1].refine())
        calls = _spy_levels(monkeypatch)
        convergence_study(spec, P, grids)
        self._assert_no_chord_trial(calls[1:])


def _track_factorizations(mp):
    """Wrap every LU factorization: (ids of the live ones, the number alive
    at each factorization, the number alive at each back-solve)."""
    alive, seen, solving = set(), [], []
    splu = solver.spla.splu

    class Tracked:
        def __init__(self, lu):
            self.lu, self.nnz = lu, lu.nnz
            alive.add(id(self))

        def solve(self, b):
            solving.append(len(alive))
            return self.lu.solve(b)

        def __del__(self):
            alive.discard(id(self))

    def tracked_splu(*args, **kw):
        seen.append(len(alive))
        return Tracked(splu(*args, **kw))

    mp.setattr(solver.spla, "splu", tracked_splu)
    return alive, seen, solving


def _refined_solve(spec, P, coarse):
    """(prolonged start, report) of the last grid of a study on `coarse`
    and its refinement, solved on the factors `coarse` leaves, and whether
    a factorization outlived the study."""
    with pytest.MonkeyPatch.context() as mp:
        alive, _, _ = _track_factorizations(mp)
        calls = _spy_levels(mp)
        convergence_study(spec, P, [coarse, coarse.refine()])
        _, start, report = calls[-1]
        return start, report, bool(alive)


class TestTwoGrid:
    @given(kind=st.sampled_from(["MA", "SLE", "IHH"]),
           spacing=st.sampled_from(["uniform", "logarithmic"]),
           base=st.sampled_from([(9, 16), (17, 32)]), s=st.floats(-1.0, 1.0))
    @settings(max_examples=24, deadline=None)
    def test_krylov_agrees_with_direct(self, kind, spacing, base, s):
        """The refined grid solved by GMRES on the coarse grid's factors, with
        no factorization of its own, ends where its direct solve ends."""
        spec, P, r_in = _oracle_case(kind, s)
        start, krylov, leaked = _refined_solve(spec, P, AnnulusGrid(r_in, 8.0, *base, spacing))
        direct = _direct(spec, P, start.grid, start)
        assert krylov.steps[0]["krylov"] > 0
        assert not any(step["factored"] for step in krylov.steps) and not leaked
        assert krylov.final_residual_inf <= solver.NEWTON_TOL
        assert direct.final_residual_inf <= solver.NEWTON_TOL
        assert np.abs(krylov.field.values - direct.field.values).max() <= 1e-9

    @given(kind=st.sampled_from(["MA", "SLE", "IHH"]),
           spacing=st.sampled_from(["uniform", "logarithmic"]), s=st.floats(-1.0, 1.0))
    @settings(max_examples=12, deadline=None)
    def test_v_cycle_agrees_with_direct(self, kind, spacing, s):
        """Only 9x16, the first level, factors: 17x32 cycles on its factors
        and 33x64 on three-level V-cycles; 33x64 ends where its direct solve
        ends, and no factors outlive the study."""
        spec, P, r_in = _oracle_case(kind, s)
        grids = [AnnulusGrid(r_in, 8.0, 9, 16, spacing)]
        for _ in range(2):
            grids.append(grids[-1].refine())
        with pytest.MonkeyPatch.context() as mp:
            alive, seen, _ = _track_factorizations(mp)
            calls = _spy_levels(mp)
            convergence_study(spec, P, grids)
        (*_, base), *cycled = calls
        assert len(seen) == sum(step["factored"] for step in base.steps) and not alive
        for *_, report in cycled:
            assert not any(step["factored"] for step in report.steps)
            assert {step["nnzLU"] for step in report.steps} == {base.steps[-1]["nnzLU"]}
        _, start, vcycle = calls[-1]
        direct = _direct(spec, P, grids[-1], start)
        assert vcycle.steps[0]["krylov"] > 0
        assert vcycle.final_residual_inf <= solver.NEWTON_TOL
        assert direct.final_residual_inf <= solver.NEWTON_TOL
        assert np.abs(vcycle.field.values - direct.field.values).max() <= 1e-9

    def test_missed_forcing_falls_back_to_direct(self, monkeypatch):
        """With a one-iteration GMRES cap the first Newton system of a
        nested solve misses its forcing term: the coarse factors are
        dropped before the Jacobian is factored, and the solve is the
        direct one from the same start."""
        monkeypatch.setattr(solver, "KRYLOV_MAX_ITER", 1)
        alive, seen, _ = _track_factorizations(monkeypatch)
        calls = _spy_levels(monkeypatch)
        P = builtin("ma-radial", {"c": 1.0})
        grid = AnnulusGrid(1.0, 8.0, 33, 64, "uniform")
        rep = solve_annulus(MA2, P, grid)
        (_, _, coarse), (_, start, last) = calls
        assert last is rep
        assert rep.steps[0]["factored"] and rep.steps[0]["krylov"] == 1
        assert all(step["krylov"] == 0 for step in rep.steps[1:])
        assert seen == [0] * sum(step["factored"] for step in coarse.steps + rep.steps)
        assert not alive
        direct = _direct(MA2, P, grid, start)
        assert np.array_equal(rep.field.values, direct.field.values)
        assert rep.residual_history == direct.residual_history

    def test_fallen_back_level_hands_its_own_factors_on(self, monkeypatch):
        """With the first GMRES solve of a study missing its forcing term,
        17x32 falls back to the direct path and hands its own factors on:
        33x64 cycles down to them alone, factors nothing and ends where its
        direct solve ends."""
        gmres, missed = solver._gmres, []

        def miss_once(*args):
            if missed:
                return gmres(*args)
            missed.append(True)
            return None, solver.KRYLOV_MAX_ITER

        monkeypatch.setattr(solver, "_gmres", miss_once)
        alive, seen, _ = _track_factorizations(monkeypatch)
        calls = _spy_levels(monkeypatch)
        grids = [AnnulusGrid(1.0, 8.0, 9, 16, "uniform")]
        for _ in range(2):
            grids.append(grids[-1].refine())
        convergence_study(MA2, builtin("ma-radial", {"c": 1.0}), grids)
        _, (_, _, fallen), (_, start, last) = calls
        assert fallen.steps[0]["factored"]
        assert fallen.steps[0]["krylov"] == solver.KRYLOV_MAX_ITER
        assert not any(step["factored"] for step in last.steps)
        assert {step["nnzLU"] for step in last.steps} == {fallen.steps[-1]["nnzLU"]}
        assert seen == [0] * len(seen) and not alive
        direct = _direct(MA2, builtin("ma-radial", {"c": 1.0}), grids[-1], start)
        assert np.abs(last.field.values - direct.field.values).max() <= 1e-9

    @pytest.mark.parametrize("shape", [(17, 32), (65, 128), (129, 256)])
    def test_transfers_match_kron(self, shape):
        """The matrix-free transfers are kron(P_r, P_theta), with each factor
        `_prolong` of unit vectors and a correction zero on the Dirichlet
        rows, and kron(FW_r, FW_theta) of (1/4, 1/2, 1/4) full weighting."""
        grid = AnnulusGrid(1.0, 4.0, *shape)
        m, n = (grid.n_r + 1) // 2, grid.n_theta // 2
        P = sp.kron(_prolong(np.eye(m))[:, ::2][1:-1, 1:-1], _prolong(np.eye(n))[::2].T)
        R = sp.kron(_full_weighting(2 * np.arange(m - 2) + 1, 2 * m - 3),
                    _full_weighting(2 * np.arange(n), 2 * n))
        two_grid = solver._Cycle(grid, None)
        rng = np.random.default_rng(3)  # entries in [-1, 1]: the bound is a few ulps
        e = rng.uniform(-1.0, 1.0, P.shape[1])
        r = rng.uniform(-1.0, 1.0, R.shape[1])
        assert np.abs(two_grid.prolong(e) - P @ e).max() <= 1e-15
        assert np.abs(two_grid.restrict(r) - R @ r).max() <= 1e-15


def _full_weighting(centers, n):
    """Rows of weights (1/4, 1/2, 1/4) at the n nodes centers - 1, centers,
    centers + 1 (indices mod n)."""
    cols = (centers[:, None] + np.arange(-1, 2)) % n
    return sp.csr_matrix((np.tile([0.25, 0.5, 0.25], len(centers)),
                          (np.repeat(np.arange(len(centers)), 3), cols.ravel())),
                         shape=(len(centers), n))


def _rolled_prolong(U):
    """`_prolong` written with np.roll: the reference for its bytes."""
    n_r, n_t = U.shape
    V = np.empty((n_r, 2 * n_t))
    V[:, ::2] = U
    V[:, 1::2] = (9.0 * (U + np.roll(U, -1, axis=1))
                  - np.roll(U, 1, axis=1) - np.roll(U, -2, axis=1)) / 16.0
    W = np.empty((2 * n_r - 1, 2 * n_t))
    W[::2] = V
    mid = W[1::2]
    mid[1:-1] = (9.0 * (V[1:-2] + V[2:-1]) - V[:-3] - V[3:]) / 16.0
    mid[0] = (5.0 * V[0] + 15.0 * V[1] - 5.0 * V[2] + V[3]) / 16.0
    mid[-1] = (V[-4] - 5.0 * V[-3] + 15.0 * V[-2] + 5.0 * V[-1]) / 16.0
    return W


def _rolled_restrict(cycle, r):
    """`_Cycle.restrict` written with np.roll."""
    r = r.reshape(-1, 2 * cycle.n)
    odd = r[:, 1::2]
    r = 0.5 * r[:, ::2] + 0.25 * (np.roll(odd, 1, axis=1) + odd)
    return (0.5 * r[1::2] + 0.25 * (r[:-1:2] + r[2::2])).ravel()


def _out_of_place_solve(cycle, b):
    """`_Cycle.solve` with a new array per operation: sweeps at the weight
    vectors in order, the coarse correction, then sweeps in reverse order."""
    J, w = cycle.J, cycle.w
    x = w[0] * b
    for wk in w[1:]:
        x += wk * (b - J @ x)
    x += cycle.prolong(cycle.coarse.solve(cycle.restrict(b - J @ x)))
    for wk in w[::-1]:
        x += wk * (b - J @ x)
    return x


def _lstsq_gmres(A, M, b, rtol):
    """`_gmres` testing convergence by lstsq's y at every iteration, the form
    the Givens rotations replace: the reference for its iterations and bytes."""
    beta = np.linalg.norm(b)
    V, Z = [b / beta], []
    H = np.zeros((solver.KRYLOV_MAX_ITER + 1, solver.KRYLOV_MAX_ITER))
    g = np.zeros(solver.KRYLOV_MAX_ITER + 1)
    g[0] = beta
    for k in range(solver.KRYLOV_MAX_ITER):
        Z.append(M(V[k]))
        w = A @ Z[k]
        for i, v in enumerate(V):
            H[i, k] = v @ w
            w -= H[i, k] * v
        H[k + 1, k] = np.linalg.norm(w)
        if not np.isfinite(H[:k + 2, k]).all():
            return None, k + 1
        Hk, gk = H[:k + 2, :k + 1], g[:k + 2]
        y = np.linalg.lstsq(Hk, gk, rcond=None)[0]
        if np.linalg.norm(gk - Hk @ y) <= rtol * beta:
            return sum(yi * z for yi, z in zip(y, Z)), k + 1
        V.append(w / H[k + 1, k])
    return None, solver.KRYLOV_MAX_ITER


def _back_substitution_gmres(A, M, b, rtol):
    """GMRES on whole arrays: at every iteration the Hessenberg matrix H is
    reduced to a triangle from scratch by Givens rotations of its rows, each
    pivot set to its rotation's hypot, beta e_1 rotated alike, and y solved
    by back substitution column by column: the reference for `_gmres`'s
    iterations and bytes."""
    beta = np.linalg.norm(b)
    V, Z = [b / beta], []
    H = np.zeros((solver.KRYLOV_MAX_ITER + 1, solver.KRYLOV_MAX_ITER))
    for k in range(solver.KRYLOV_MAX_ITER):
        Z.append(M(V[k]))
        w = A @ Z[k]
        for i, v in enumerate(V):
            H[i, k] = v @ w
            w -= H[i, k] * v
        H[k + 1, k] = np.linalg.norm(w)
        if not np.isfinite(H[:k + 2, k]).all():
            return None, k + 1
        R, g = H[:k + 2, :k + 1].copy(), np.zeros(k + 2)
        g[0] = beta
        for i in range(k + 1):
            r = np.hypot(R[i, i], R[i + 1, i])
            c, s = R[i, i] / r, R[i + 1, i] / r
            R[i], R[i + 1] = c * R[i] + s * R[i + 1], c * R[i + 1] - s * R[i]
            R[i, i], R[i + 1, i] = r, 0.0
            g[i], g[i + 1] = c * g[i], -s * g[i]
        if abs(g[k + 1]) <= rtol * beta:
            y = g[:k + 1]
            for i in range(k, -1, -1):
                y[i] /= R[i, i]
                y[:i] -= R[:i, i] * y[i]
            return sum(yi * z for yi, z in zip(y, Z)), k + 1
        V.append(w / H[k + 1, k])
    return None, solver.KRYLOV_MAX_ITER


# signed zeros, and entries large enough to test the order of the operations
# yet far from overflow
_ENTRIES = st.one_of(st.sampled_from([0.0, -0.0, 1e300, -1e300]),
                     st.floats(-1e300, 1e300), st.floats(-1.0, 1.0))


class TestBitwiseKernels:
    """The roll-free transfers, the in-place smoother and the in-place CSR
    pattern keep the bytes of the forms they replace, on shapes down to the
    smallest coarse grid."""

    @given(st.integers(4, 12), st.integers(2, 24), st.data())
    @settings(max_examples=80, deadline=None)
    def test_prolong_is_the_rolled_one(self, n_r, n_t, data):
        U = data.draw(arrays(np.float64, (n_r, n_t), elements=_ENTRIES))
        assert _prolong(U).tobytes() == _rolled_prolong(U).tobytes()

    @given(st.integers(4, 12), st.integers(4, 24), st.data())
    @settings(max_examples=80, deadline=None)
    def test_restrict_is_the_rolled_one(self, m, n, data):
        cycle = solver._Cycle(AnnulusGrid(1.0, 8.0, 2 * m - 1, 2 * n), None)
        r = data.draw(arrays(np.float64, (2 * m - 3) * 2 * n, elements=_ENTRIES))
        assert cycle.restrict(r).tobytes() == _rolled_restrict(cycle, r).tobytes()

    @given(st.integers(4, 10), st.integers(4, 24), st.sampled_from(["uniform", "logarithmic"]),
           st.integers(0, 2 ** 32 - 1), st.data())
    @settings(max_examples=60, deadline=None)
    def test_in_place_solve_is_the_out_of_place_one(self, m, n, spacing, seed, data):
        """One cycle on an elliptic Jacobian (G = I + noise), its coarse
        solve a fixed linear map, from right-hand sides with signed zeros
        and large entries."""
        grid = AnnulusGrid(1.0, 8.0, 2 * m - 1, 2 * n, spacing)
        rng = np.random.default_rng(seed)
        G = np.eye(2) + 0.1 * rng.normal(size=(grid.n_r - 2, grid.n_theta, 2, 2))
        J = solver._assemble_jacobian(
            grid, solver._stencil_weights(solver._hessian_coefficients(grid), G),
            *solver._csr_pattern(grid))
        cycle = solver._Cycle(grid, types.SimpleNamespace(solve=lambda b: -0.5 * b))
        cycle.J, cycle.w = J, tuple(omega / J.diagonal() for omega in solver.JACOBI_WEIGHTS)
        b = data.draw(arrays(np.float64, J.shape[0], elements=_ENTRIES))
        assert cycle.solve(b).tobytes() == _out_of_place_solve(cycle, b).tobytes()

    @given(st.integers(4, 129), st.integers(4, 128))
    @settings(max_examples=60, deadline=None)
    def test_csr_pattern_is_the_concatenated_one(self, n_r, half_n_theta):
        """The row pointers and column indices written in place are those of
        the broadcast-and-concatenate form, dtype included, from the
        smallest grid to 129x256."""
        grid = AnnulusGrid(1.0, 8.0, n_r, 2 * half_n_theta)
        for got, want in zip(solver._csr_pattern(grid), _concatenated_csr_pattern(grid)):
            assert got.dtype == want.dtype == np.int32
            assert got.tobytes() == want.tobytes()


def _concatenated_csr_pattern(grid):
    """`_csr_pattern` from one (n_r - 2, n_theta, 3, 3) array of every row's
    columns, concatenated without the missing neighbor rows, and the row
    pointers by a closed form: the reference for its bytes."""
    nI, nT = grid.n_r - 2, grid.n_theta
    col = np.sort((np.arange(nT, dtype=np.int32)[:, None] + np.arange(-1, 2, dtype=np.int32)) % nT)
    ind = (np.arange(nI, dtype=np.int32)[:, None, None, None] * nT
           + (np.arange(-1, 2, dtype=np.int32)[:, None] * nT + col[:, None, :]))
    indices = np.concatenate([ind[0, :, 1:], ind[1:-1], ind[-1, :, :2]], axis=None)
    node = np.arange(nI * nT + 1, dtype=np.int32)
    indptr = 9 * node - 3 * np.minimum(node, nT) - 3 * np.maximum(node - (nI - 1) * nT, 0)
    return indices, indptr


def test_csr_pattern_working_set():
    """`_csr_pattern` at 129x256 peaks within 64 KiB of its two outputs
    (1.29 MB): no (n_r - 2, n_theta, 3, 3) array beside the indices, which
    the concatenated form made and copied."""
    grid = AnnulusGrid(1.0, 8.0, 129, 256, "uniform")
    tracemalloc.start()
    try:
        indices, indptr = solver._csr_pattern(grid)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= indices.nbytes + indptr.nbytes + 64 * 1024


# x from the triangle and x from lstsq solve one (k + 2) x (k + 1) least-squares
# problem, each backward stably, so they differ by a modest multiple of eps
# kappa(H) relative (Higham, "Accuracy and Stability of Numerical Algorithms",
# 2002, ch. 20).  kappa(H) <= kappa(A) here: H = V_{k+1}^T A M V_k with M = I / 2
# and V orthonormal.  The largest multiple of eps kappa(A) seen in 3198 random
# draws that converged was 12.
LSTSQ_ROUNDOFF = 64 * np.finfo(float).eps


@given(n=st.integers(2, 60), shift=st.floats(0.0, 4.0), rtol=st.floats(1e-10, 0.5),
       seed=st.integers(0, 2 ** 32 - 1))
@settings(max_examples=80, deadline=None)
def test_givens_residual_is_the_lstsq_one(n, shift, rtol, seed):
    """GMRES stops where lstsq's least-squares residual first meets rtol, or
    misses rtol where that form does, on nonsymmetric systems from well
    conditioned (a large shift of the identity) to ones that run
    KRYLOV_MAX_ITER iterations.  Its x is lstsq's to LSTSQ_ROUNDOFF kappa(A)
    relative, and the back-substitution reference's bit for bit."""
    rng = np.random.default_rng(seed)
    A = sp.csr_matrix(rng.normal(size=(n, n)) / math.sqrt(n) + shift * np.eye(n))
    b = rng.normal(size=n)
    x, its = solver._gmres(A, lambda v: 0.5 * v, b, rtol)
    want, want_its = _lstsq_gmres(A, lambda v: 0.5 * v, b, rtol)
    assert its == want_its
    assert (x is None) == (want is None)
    if x is not None:
        bound = LSTSQ_ROUNDOFF * np.linalg.cond(A.toarray()) * np.linalg.norm(want)
        assert np.linalg.norm(x - want) <= bound
    ref, ref_its = _back_substitution_gmres(A, lambda v: 0.5 * v, b, rtol)
    assert its == ref_its
    assert (x is None and ref is None) or x.tobytes() == ref.tobytes()


def test_solution_sum_keeps_the_signed_zero_of_sum():
    """`_gmres` sums its solution in place from 0.0 + y[0] Z[0], which makes
    a -0.0 +0.0 as sum() from 0 does: A M = I solves in one iteration, and
    b's -0.0 makes y[0] Z[0] -0.0 there."""
    A, b = sp.csr_matrix(2.0 * np.eye(4)), np.array([1.0, -0.0, 2.0, 3.0])
    x, its = solver._gmres(A, lambda v: 0.5 * v, b, 1e-8)
    want, _ = _back_substitution_gmres(A, lambda v: 0.5 * v, b, 1e-8)
    assert its == 1 and x.tobytes() == want.tobytes()
    assert x[1] == 0.0 and not np.signbit(x[1])


def test_nested_study_needs_no_lstsq(monkeypatch):
    """GMRES finds y by back substitution on its own triangle, so a study
    whose levels above the first run GMRES never calls np.linalg.lstsq."""
    def refuse(*args, **kwargs):
        raise AssertionError("np.linalg.lstsq called")

    monkeypatch.setattr(np.linalg, "lstsq", refuse)
    grid = AnnulusGrid(1.0, 8.0, 33, 64, "uniform")
    reports = solver._nested(MA2, builtin("ma-radial", {"c": 1.0}), [grid, grid.refine()])
    assert all(rep.converged for rep in reports)
    assert sum(step["krylov"] for rep in reports for step in rep.steps) > 0


@pytest.mark.filterwarnings("error::scipy.sparse.SparseEfficiencyWarning")
@pytest.mark.parametrize("krylov_max_iter", [solver.KRYLOV_MAX_ITER, 1])
def test_no_sparse_format_conversion(monkeypatch, krylov_max_iter):
    """A nested solve hands SuperLU CSC and the two-grid path CSR, so no
    sparse format is converted behind a warning: on the coarse level, which
    factors, and on the grid, by GMRES or, with a one-iteration cap, by the
    direct fallback."""
    monkeypatch.setattr(solver, "KRYLOV_MAX_ITER", krylov_max_iter)
    calls = _spy_levels(monkeypatch)
    rep = solve_annulus(MA2, builtin("ma-radial", {"c": 1.0}), AnnulusGrid(1.0, 8.0, 33, 64))
    assert any(step["factored"] for step in calls[0][2].steps)
    assert rep.steps[0]["krylov"] > 0
    assert rep.steps[0]["factored"] == (krylov_max_iter == 1)


class TestNested:
    @pytest.mark.parametrize("shape, spacing, chain", [
        ((65, 128), "uniform", [(17, 32), (33, 64), (65, 128)]),
        ((33, 64), "uniform", [(17, 32), (33, 64)]),
        ((33, 64), "logarithmic", [(17, 32), (33, 64)]),
        ((17, 32), "uniform", [(17, 32)]),  # the coarse n_theta would be 16
        ((34, 64), "uniform", [(34, 64)]),  # even n_r
        ((33, 66), "uniform", [(33, 66)]),  # n_theta = 2 mod 4
        ((5, 128), "uniform", [(5, 128)]),  # the coarse n_r would be 3
    ])
    def test_coarsening_chain(self, monkeypatch, shape, spacing, chain):
        """A solve with no start solves exactly its coarsenings first, the
        coarsest from the blend and each later level from the one before it
        prolonged, on the grid's own data at every other node."""
        grid = AnnulusGrid(1.0, 8.0, *shape, spacing)
        P = builtin("ma-radial", {"c": 1.0})
        calls = _spy_levels(monkeypatch)
        rep = solve_annulus(MA2, P, grid)
        assert [(g.n_r, g.n_theta) for g, *_ in calls] == chain
        assert all((g.r_inner, g.r_outer, g.spacing) == (1.0, 8.0, spacing) for g, *_ in calls)
        assert calls[0][1] is None and calls[-1][2] is rep
        inner, outer = boundary_data_from(P, grid)
        for (coarse, _, report), (fine, start, _) in zip(calls, calls[1:]):
            assert coarse.refine() == fine
            assert np.array_equal(start.values, _prolong(report.field.values))
            stride = grid.n_theta // coarse.n_theta
            assert np.array_equal(report.field.values[0], inner[::stride])
            assert np.array_equal(report.field.values[-1], outer[::stride])

    @pytest.mark.parametrize("error", [NotAdmissible, InadmissibleIterate,
                                       SingularJacobian, DidNotConverge])
    @pytest.mark.parametrize("level", [0, 1, 2])
    def test_failed_level_leaves_the_direct_solve(self, monkeypatch, error, level):
        """A numerical failure on a coarsening of a 65x128 grid (level 0, or
        level 1, which holds its cycle for the grid), or on the grid's own
        prolonged start (level 2), drops that level and its factors: the
        grid is solved as a grid that does not coarsen is, from the blend
        and with no factors handed down, bit for bit."""
        grid = AnnulusGrid(1.0, 8.0, 65, 128, "uniform")
        P = builtin("ma-radial", {"c": 1.0})
        failing = [*solver._coarsenings(grid), grid][level]
        direct = _direct(MA2, P, grid)
        alive, seen, _ = _track_factorizations(monkeypatch)
        inner_solve = solver._solve_level

        def fail(spec, g, rings, start, handoff, keep):
            if g != failing or start is None and level == 2:
                return inner_solve(spec, g, rings, start, handoff, keep)
            if error is not DidNotConverge:
                raise error("injected")
            with pytest.MonkeyPatch.context() as mp:  # a real one, after a first step
                mp.setattr(solver, "NEWTON_MAX_ITER", 1)
                return inner_solve(spec, g, rings, start, handoff, keep)

        monkeypatch.setattr(solver, "_solve_level", fail)
        calls = _spy_levels(monkeypatch)
        rep = solve_annulus(MA2, P, grid)
        assert [g.n_r for g, *_ in calls] == [17, 33, 65][:level + 1] + [65]
        assert calls[level][2] is None and calls[-1][1] is None
        assert set(seen) == {0} and not alive
        assert np.array_equal(rep.field.values, direct.field.values)
        assert rep.residual_history == direct.residual_history
        assert rep.steps == direct.steps

    @given(kind=st.sampled_from(["MA", "SLE", "IHH"]),
           spacing=st.sampled_from(["uniform", "logarithmic"]),
           base=st.sampled_from([(9, 16), (17, 32)]), refinements=st.integers(1, 2),
           s=st.floats(-1.0, 1.0))
    @settings(max_examples=16, deadline=None)
    def test_only_the_first_level_factors(self, kind, spacing, base, refinements, s):
        """In a study, the first level solved factors and hands its factors
        up: every SuperLU factorization is one of its factored steps, every
        later level cycles down to its last factors, and none outlive the
        study."""
        spec, P, r_in = _oracle_case(kind, s)
        grids = [AnnulusGrid(r_in, 8.0, *base, spacing)]
        for _ in range(refinements):
            grids.append(grids[-1].refine())
        with pytest.MonkeyPatch.context() as mp:
            alive, seen, _ = _track_factorizations(mp)
            calls = _spy_levels(mp)
            convergence_study(spec, P, grids)
        (*_, first), *cycled = calls
        assert len(seen) == sum(step["factored"] for step in first.steps) >= 1
        assert not alive
        for *_, report in cycled:
            assert report.steps[0]["krylov"] > 0
            assert not any(step["factored"] for step in report.steps)
            assert {step["nnzLU"] for step in report.steps} == {first.steps[-1]["nnzLU"]}

    def test_failed_coarsening_in_a_study(self, monkeypatch):
        """A failed coarsening of a study's first grid drops it: the first
        grid is solved from the blend, as a grid that does not coarsen is,
        and the next from the first one prolonged."""
        grids = [AnnulusGrid(1.0, 8.0, 33, 64, "uniform")]
        grids.append(grids[0].refine())
        P = builtin("ma-radial", {"c": 1.0})
        direct = _direct(MA2, P, grids[0])
        inner_solve = solver._solve_level

        def fail(spec, g, rings, start, handoff, keep):
            if g == solver._coarsenings(grids[0])[0]:
                raise SingularJacobian("injected")
            return inner_solve(spec, g, rings, start, handoff, keep)

        monkeypatch.setattr(solver, "_solve_level", fail)
        calls = _spy_levels(monkeypatch)
        rows = convergence_study(MA2, P, grids)
        assert [(g.n_r, start is None, rep is None) for g, start, rep in calls] == [
            (17, True, True), (33, True, False), (65, False, False)]
        assert np.array_equal(calls[1][2].field.values, direct.field.values)
        assert np.array_equal(calls[2][1].values, _prolong(calls[1][2].field.values))
        assert [row["iterations"] for row in rows] == [rep.iterations for *_, rep in calls[1:]]


def _coo_jacobian(grid, C, G):
    """The Jacobian as COO triplets, one block per stencil offset, converted
    to CSC: the reference the CSR assembly must reproduce bit for bit."""
    nI, nT = grid.n_r - 2, grid.n_theta
    W = solver._stencil_weights(C, G)
    node = np.arange(nI * nT, dtype=np.int32).reshape(nI, nT)
    data, rows, cols = [], [], []
    for (di, dj), st in solver._STENCILS.items():
        lo, hi = max(-di, 0), nI - max(di, 0)  # the rows whose neighbor is unknown
        data.append(np.tensordot(st, W, axes=1)[lo:hi])
        rows.append(node[lo:hi])
        cols.append(np.roll(node, -dj, axis=1)[lo + di:hi + di])
    J = sp.coo_matrix(
        (np.concatenate(data, axis=None),
         (np.concatenate(rows, axis=None), np.concatenate(cols, axis=None))),
        shape=(nI * nT, nI * nT))
    return J.tocsc()


def _dense_coefficients(grid):
    """The polar chain rule as one dense table C (5, n_r - 2, n_theta, 2, 2),
    C[k]_ab = R[k] T[k, e(ab)], the form the two factors replace."""
    T, R = solver._hessian_coefficients(grid)
    C = T[:, [0, 1, 1, 2], None, :] * R[:, None, :, None]
    return np.moveaxis(C, 1, -1).reshape(5, grid.n_r - 2, grid.n_theta, 2, 2)


def _rolled_stencil_sums(grid, U):
    """S U from one rolled copy of U per stencil offset."""
    S = np.zeros((5, grid.n_r - 2, grid.n_theta))
    for (di, dj), st in solver._STENCILS.items():
        V = np.roll(U[1 + di:grid.n_r - 1 + di], -dj, axis=1)
        for k in np.flatnonzero(st):
            S[k] += st[k] * V
    return S


class TestAssembly:
    @given(n_r=st.integers(4, 40), half_n_theta=st.integers(4, 32),
           spacing=st.sampled_from(["uniform", "logarithmic"]),
           seed=st.integers(0, 2 ** 32 - 1))
    @settings(max_examples=60, deadline=None)
    def test_csr_assembly_is_the_coo_one(self, n_r, half_n_theta, spacing, seed):
        """The CSR Jacobian has sorted column indices and, as CSC, the
        reference's indptr, indices and data, dtypes and bytes; the stencil
        sums from the theta-padded copy are the rolled ones, bit for bit."""
        grid = AnnulusGrid(1.0, 8.0, n_r, 2 * half_n_theta, spacing)
        rng = np.random.default_rng(seed)
        C = solver._hessian_coefficients(grid)
        G = rng.normal(size=(n_r - 2, grid.n_theta, 2, 2))
        J = solver._assemble_jacobian(grid, solver._stencil_weights(C, G),
                                      *solver._csr_pattern(grid))
        assert J.format == "csr"
        steps = np.diff(J.indices)
        steps[J.indptr[1:-1] - 1] = 1  # from the last entry of a row to the next row's first
        assert (steps > 0).all()
        ref = _coo_jacobian(grid, C, G)
        for name in ("indptr", "indices", "data"):
            got, want = getattr(J.tocsc(), name), getattr(ref, name)
            assert got.dtype == want.dtype
            assert got.tobytes() == want.tobytes()
        U = rng.normal(size=(n_r, grid.n_theta))
        zero = rng.integers(3, size=U.shape)  # signed zeros, for the sums' +0.0 start
        U[zero == 1], U[zero == 2] = 0.0, -0.0
        assert solver._stencil_sums(grid, U).tobytes() == _rolled_stencil_sums(grid, U).tobytes()

    # each form sums at most five products of rounded factors (the factored W
    # rounds G12 + G21 first), so each lies within 6 eps sum |C_k S_k| (or
    # sum |C_ab G_ab|) of the exact value and they differ by at most twice
    # that.  The largest ratio seen in 600 random draws of grid, radii, U and
    # G was 2.9 eps.
    ROUNDOFF = 12 * np.finfo(float).eps

    @given(n_r=st.integers(4, 40), half_n_theta=st.integers(4, 32),
           spacing=st.sampled_from(["uniform", "logarithmic"]),
           ratio=st.floats(1.1, 100.0), seed=st.integers(0, 2 ** 32 - 1))
    @settings(max_examples=60, deadline=None)
    def test_factored_chain_rule_is_the_dense_table(self, n_r, half_n_theta, spacing, ratio,
                                                     seed):
        """H from the factors T and R, and the stencil weights W, agree with
        the dense table's to roundoff, entry by entry: |H - H_C| <= ROUNDOFF
        sum_k |C_k| |S_k U| and |W - W_C| <= ROUNDOFF sum_ab |C_ab| |G_ab|."""
        grid = AnnulusGrid(1.0, ratio, n_r, 2 * half_n_theta, spacing)
        rng = np.random.default_rng(seed)
        U = rng.normal(size=(n_r, grid.n_theta))
        G = rng.normal(size=(n_r - 2, grid.n_theta, 2, 2))
        C, S = _dense_coefficients(grid), solver._stencil_sums(grid, U)
        factors = solver._hessian_coefficients(grid)
        H_C = np.einsum("k...ab,k...->...ab", C, S)
        bound = self.ROUNDOFF * np.einsum("k...ab,k...->...ab", np.abs(C), np.abs(S))
        assert (np.abs(solver._hessians(grid, U, factors) - H_C) <= bound).all()
        W_C = np.einsum("k...ab,...ab->k...", C, G)
        bound = self.ROUNDOFF * np.einsum("k...ab,...ab->k...", np.abs(C), np.abs(G))
        assert (np.abs(solver._stencil_weights(factors, G) - W_C) <= bound).all()

    @given(m=st.integers(4, 12), n=st.integers(4, 16),
           spacing=st.sampled_from(["uniform", "logarithmic"]),
           seed=st.integers(0, 2 ** 32 - 1))
    @settings(max_examples=40, deadline=None)
    def test_jacobi_weights_are_the_assembled_diagonal(self, m, n, spacing, seed):
        """`_Cycle.step` reads the diagonal at its fixed place in the CSR
        data: its weight vectors are omega / J.diagonal() for each omega of
        JACOBI_WEIGHTS, in order, bit for bit on every row, the first and
        last interior rows and the theta-wrap columns included.  A random G
        makes a row's entries all differ, so a wrong place shows."""
        grid = AnnulusGrid(1.0, 8.0, 2 * m - 1, 2 * n, spacing)
        rng = np.random.default_rng(seed)
        G = np.eye(2) + 0.1 * rng.normal(size=(grid.n_r - 2, grid.n_theta, 2, 2))
        J = solver._assemble_jacobian(
            grid, solver._stencil_weights(solver._hessian_coefficients(grid), G),
            *solver._csr_pattern(grid))
        cycle = solver._Cycle(grid, types.SimpleNamespace(solve=lambda b: -0.5 * b))
        cycle.step(J, rng.normal(size=J.shape[0]), 1)
        assert cycle.J is J
        assert len(cycle.w) == len(solver.JACOBI_WEIGHTS)
        for w, omega in zip(cycle.w, solver.JACOBI_WEIGHTS):
            assert w.tobytes() == (omega / J.diagonal()).tobytes()


# (spec, oracle, inner radius) of the exact fields whose Jacobians the smoother
# is checked on; the last IHH case has rho = 2 and a spectrum off the real axis
_SPECTRUM_CASES = {
    "ma-c0.01": (MA2, lambda: builtin("ma-radial", {"c": 0.01}), 1.0),
    "ma-c10": (MA2, lambda: builtin("ma-radial", {"c": 10.0}), 1.0),
    "ihh-am1": (IHH2, lambda: builtin("ihh-oracle", {"am1": 0.4}), 1.0),
    "ihh-rho2": (IHH2, lambda: builtin("ihh-oracle", {"a1": 0.44, "am1": 0.4}), 3.0),
    "sle": (SLE2, lambda: oracle_sle(LaurentCoeffs(a1=0.1, am1=0.5), math.pi / 4), 1.0),
}


@pytest.mark.parametrize("ratio", [8, 64])
@pytest.mark.parametrize("spacing", ["uniform", "logarithmic"])
@pytest.mark.parametrize("case", list(_SPECTRUM_CASES))
def test_jacobi_weights_cover_the_spectrum(case, spacing, ratio):
    """The two sweeps of a cycle multiply an eigencomponent of D^-1 J by
    (1 - w0 lam)(1 - w1 lam).  On 17x32 Jacobians at exact fields every
    eigenvalue has 0 < Re lam < 2, so that factor stays under 1 in modulus,
    and where Re lam >= 1/2 it is at most 0.23: the Chebyshev bound 9/41 =
    0.2195 on [1/2, 2], 0.2219 measured on the rho = 2 IHH case, whose |Im
    lam| reaches 0.27.  Two sweeps at one weight 0.7 leave 0.4225 there."""
    spec, oracle, r_in = _SPECTRUM_CASES[case]
    grid = AnnulusGrid(r_in, ratio * r_in, 17, 32, spacing)
    C = solver._hessian_coefficients(grid)
    G = OPERATORS[spec.kind].gradient(
        spec, solver._hessians(grid, AnnulusField.from_potential(grid, oracle()).values, C))
    J = solver._assemble_jacobian(grid, solver._stencil_weights(C, G),
                                  *solver._csr_pattern(grid)).toarray()
    lam = np.linalg.eigvals(J / np.diag(J)[:, None])
    w0, w1 = solver.JACOBI_WEIGHTS
    factor = np.abs((1 - w0 * lam) * (1 - w1 * lam))
    assert (lam.real > 0).all() and (lam.real < 2).all()
    assert (factor < 1).all()
    assert factor[lam.real >= 0.5].max() <= 0.23


def test_criterion_8_gmres_iterations(monkeypatch):
    """The work of the uniform criterion-8 studies, pinned exactly: 20 GMRES
    iterations over every level of the MA study and 51 over the SLE study.
    Sweeps at the one weight 0.7 took 26 and 63."""
    gmres, iterations = solver._gmres, []

    def counting_gmres(*args):
        x, its = gmres(*args)
        iterations.append(its)
        return x, its

    monkeypatch.setattr(solver, "_gmres", counting_gmres)
    grids = [AnnulusGrid(1.0, 8.0, 33, 64, "uniform")]
    grids += [grids[0].refine(), grids[0].refine().refine()]
    totals = []
    for spec, P in ((MA2, builtin("ma-radial", {"c": 1.0})),
                    (SLE2, oracle_sle(LaurentCoeffs(a1=0.1, am1=0.5), math.pi / 4))):
        iterations.clear()
        convergence_study(spec, P, grids)
        totals.append(sum(iterations))
    assert totals == [20, 51]


def test_criterion_8_matvecs_and_back_solves(monkeypatch):
    """The linear algebra of the uniform criterion-8 studies, pinned exactly:
    184 CSR matvecs and 27 LU back-solves over every level of the MA study,
    455 and 61 over the SLE study (GMRES's products and the cycles' sweeps;
    the chord steps, the coarse solves and each factorization's own solve)."""
    counts = {"matvec": 0, "back-solve": 0}
    matmul, splu = sp.csr_matrix.__matmul__, solver.spla.splu

    def counting_matmul(J, x):
        counts["matvec"] += 1
        return matmul(J, x)

    class CountingLU:
        def __init__(self, lu):
            self.lu, self.nnz = lu, lu.nnz

        def solve(self, b):
            counts["back-solve"] += 1
            return self.lu.solve(b)

    monkeypatch.setattr(sp.csr_matrix, "__matmul__", counting_matmul)
    monkeypatch.setattr(solver.spla, "splu", lambda *a, **k: CountingLU(splu(*a, **k)))
    grids = [AnnulusGrid(1.0, 8.0, 33, 64, "uniform")]
    grids += [grids[0].refine(), grids[0].refine().refine()]
    totals = []
    for spec, P in ((MA2, builtin("ma-radial", {"c": 1.0})),
                    (SLE2, oracle_sle(LaurentCoeffs(a1=0.1, am1=0.5), math.pi / 4))):
        counts.update({"matvec": 0, "back-solve": 0})
        convergence_study(spec, P, grids)
        totals.append(dict(counts))
    assert totals == [{"matvec": 184, "back-solve": 27}, {"matvec": 455, "back-solve": 61}]


def test_criterion_8_ma_study_working_set():
    """The traced peak of the criterion-8 MA study stays under 10 MiB (9.2
    MiB measured): no dense chain-rule table (5.2 MB at 129x256), no
    assembly temporaries beside the CSR data, at most one Jacobian alive
    per level, and through GMRES neither the iterate's Hessians, nor the
    prolonged start beside its copy, nor the last step, nor out-of-place
    basis or sum temporaries.  The form with the first three read 18.4
    MiB, and with the last four 10.9 MiB."""
    grids = [AnnulusGrid(1.0, 8.0, 33, 64, "uniform")]
    grids += [grids[0].refine(), grids[0].refine().refine()]
    P = builtin("ma-radial", {"c": 1.0})
    tracemalloc.start()
    try:
        convergence_study(MA2, P, grids)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 10 * 2 ** 20


class TestEvaluations:
    def test_each_trial_iterate_evaluated_once(self, monkeypatch):
        """Hessians (and with them the residual) are evaluated once for the
        start and once per trial, chord or line search; assembly reuses the
        accepted one."""
        calls = []
        hessians = solver._hessians

        def counted(*args):
            calls.append(1)
            return hessians(*args)

        monkeypatch.setattr(solver, "_hessians", counted)
        grid = AnnulusGrid(1.0, 8.0, 33, 64, "uniform")
        rep = _direct(MA2, builtin("ma-radial", {"c": 1.0}), grid)
        assert rep.damping_events > 0
        assert len(calls) == 1 + sum(s["trials"] for s in rep.steps)


class _Captured(Exception):
    pass


def _discrete_system(monkeypatch, spec, P, fld):
    """(F(U), J(U)) of the discrete system started at fld, with P's boundary
    data, as the damped-Newton solve hands them to the sparse LU step (a zero
    tolerance makes it take that step)."""
    out = []

    def capture(lin, J, rhs, it):
        out.append((rhs.copy(), J))
        raise _Captured

    with monkeypatch.context() as mp:
        mp.setattr(solver._Direct, "step", capture)
        mp.setattr(solver, "NEWTON_TOL", 0.0)
        with pytest.raises(_Captured):
            _direct(spec, P, fld.grid, fld)
    return out[0]


@pytest.mark.parametrize("spacing", ["uniform", "logarithmic"])
@pytest.mark.parametrize("kind", ["MA", "SLE", "IHH"])
def test_jacobian_matches_residual_difference(monkeypatch, kind, spacing):
    """J v equals the centered difference (F(U + eps v) - F(U - eps v))/(2 eps)
    of the discrete residual, for a random interior direction v."""
    spec, P, r_in = {
        "MA": (MA2, builtin("ma-radial", {"c": 1.0}), 1.0),
        "SLE": (SLE2, oracle_sle(LaurentCoeffs(a1=0.1, am1=0.5), math.pi / 4), 1.0),
        "IHH": (EquationSpec("IHH", 2), builtin("ihh-oracle", {"am1": 0.4}), 2.0),
    }[kind]
    grid = AnnulusGrid(r_in, 8.0, 17, 32, spacing)
    U = AnnulusField.from_potential(grid, P).values
    v = np.zeros_like(U)
    v[1:-1] = np.random.default_rng(7).normal(size=(grid.n_r - 2, grid.n_theta))
    eps = 1e-6
    _, J = _discrete_system(monkeypatch, spec, P, AnnulusField(grid, U))
    Fp, _ = _discrete_system(monkeypatch, spec, P, AnnulusField(grid, U + eps * v))
    Fm, _ = _discrete_system(monkeypatch, spec, P, AnnulusField(grid, U - eps * v))
    Jv = J @ v[1:-1].ravel()
    assert np.abs(Jv - (Fp - Fm) / (2 * eps)).max() <= 1e-6 * np.abs(Jv).max()
