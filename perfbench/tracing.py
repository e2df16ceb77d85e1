"""Spans around asymlab's public entry points, and the per-layer metrics
derived from them.

The tracer replaces public module attributes (never an underscore name) by
wrappers that record a span: name, start, end, parent span, pass id. The
oracle constructors return a new `PotentialFn` whose callbacks are wrapped
the same way, so the per-point inversion inside them is timed with them.
Internal calls between private functions stay invisible; their time shows
up as the self time of the public caller.

Spans are kept in memory and reduced when the run ends.
"""

from __future__ import annotations

import dataclasses
import functools
import statistics
import sys
from time import perf_counter

from asymlab import asymptotics, oracle2d, solver

# (module, attribute, span name); convergence_study reaches solve_annulus,
# boundary_data_from and fit_profile reaches hessian_limit through module
# globals, so their nested calls are traced as well
TARGETS = [
    (oracle2d, "oracle_sle", "oracle2d.build"),
    (oracle2d, "builtin", "oracle2d.build"),
    (solver, "convergence_study", "solver.convergence_study"),
    (solver, "solve_annulus", "solver.solve_annulus"),
    (solver, "boundary_data_from", "solver.boundary_data_from"),
    (asymptotics, "fit_profile", "asymptotics.fit_profile"),
    (asymptotics, "hessian_limit", "asymptotics.hessian_limit"),
    (asymptotics, "boundary_d", "asymptotics.boundary_d"),
]

NAME, START, END, PARENT, PASS, INFO = range(6)


class Tracer:
    """Records spans while `active`; pass 0 is the workload's set-up."""

    def __init__(self):
        self.spans = []
        self.active = False
        self.pass_id = 0
        self._stack = []
        self._undo = []

    def wrap(self, name, fn, after=None):
        """`fn` inside a span; `after(span, result)` may annotate the span
        and returns what the caller gets."""
        @functools.wraps(fn)
        def wrapped(*args, **kwargs):
            if not self.active:
                out = fn(*args, **kwargs)
                return after(None, out) if after else out
            span = [name, perf_counter(), 0.0,
                    self._stack[-1] if self._stack else -1, self.pass_id, None]
            self._stack.append(len(self.spans))
            self.spans.append(span)
            try:
                out = fn(*args, **kwargs)
            finally:
                span[END] = perf_counter()
                self._stack.pop()
            return after(span, out) if after else out
        return wrapped

    def _potential(self, span, P):
        """The oracle as a new PotentialFn with every callback traced."""
        return dataclasses.replace(P, **{
            f.name: self.wrap("oracle2d." + f.name.removesuffix("_fn"), getattr(P, f.name))
            for f in dataclasses.fields(P) if callable(getattr(P, f.name))})

    @staticmethod
    def _solve_info(span, report):
        if span is not None:
            grid = report.field.grid
            span[INFO] = {"iterations": report.iterations,
                          "damping": report.damping_events,
                          "unknowns": (grid.n_r - 2) * grid.n_theta}
        return report

    def install(self):
        targets = list(TARGETS)
        if "asymlab.cli" in sys.modules:
            targets.append((sys.modules["asymlab.cli"], "main", "cli.main"))
        for module, attr, name in targets:
            fn = getattr(module, attr)
            after = {"oracle2d.build": self._potential,
                     "solver.solve_annulus": self._solve_info}.get(name)
            self._undo.append((module, attr, fn))
            setattr(module, attr, self.wrap(name, fn, after))

    def uninstall(self):
        while self._undo:
            module, attr, fn = self._undo.pop()
            setattr(module, attr, fn)


def layer_metrics(tracer: Tracer, passes, import_s: float) -> dict:
    """Per-layer metrics: the median over traced passes of each per-pass
    figure. `passes` holds (pass id, wall seconds, traced, PassResult)."""
    by_pass = {}
    for i, s in enumerate(tracer.spans):
        by_pass.setdefault(s[PASS], []).append(i)
    spans = tracer.spans
    child_time = [0.0] * len(spans)
    for s in spans:
        if s[PARENT] >= 0:
            child_time[s[PARENT]] += s[END] - s[START]

    def per_pass(ids, wall, result):
        def dur(i):
            return spans[i][END] - spans[i][START]

        def named(prefix):
            return [i for i in ids if spans[i][NAME].startswith(prefix)]

        def total(prefix):
            return sum(dur(i) for i in named(prefix))

        def self_time(prefix):
            return sum(dur(i) - child_time[i] for i in named(prefix))

        evals = named(("oracle2d.value", "oracle2d.grad", "oracle2d.hess"))
        eval_s = sum(dur(i) for i in evals)
        solves = [spans[i] for i in named("solver.solve_annulus")]
        finest = max(solves, key=lambda s: s[INFO]["unknowns"], default=None)
        return {
            "oracle2d.eval_s": eval_s,
            "oracle2d.value_calls": len(named("oracle2d.value")),
            "oracle2d.grad_calls": len(named("oracle2d.grad")),
            "oracle2d.hess_calls": len(named("oracle2d.hess")),
            "oracle2d.us_per_eval": 1e6 * eval_s / len(evals) if evals else 0.0,
            "oracle2d.build_s": total("oracle2d.build"),
            "solver.solve_s": total("solver.solve_annulus"),
            "solver.newton_iters": sum(s[INFO]["iterations"] for s in solves),
            "solver.damping_events": sum(s[INFO]["damping"] for s in solves),
            "solver.unknowns": sum(s[INFO]["unknowns"] for s in solves),
            "solver.s_per_iter_finest": ((finest[END] - finest[START])
                                         / max(finest[INFO]["iterations"], 1)
                                         if finest else 0.0),
            "solver.study_self_s": self_time("solver.convergence_study"),
            "asymptotics.fit_s": total("asymptotics.fit_profile"),
            "asymptotics.hessian_limit_s": total("asymptotics.hessian_limit"),
            "asymptotics.boundary_s": total("asymptotics.boundary_d"),
            "asymptotics.self_s": self_time("asymptotics."),
            "cli.self_s": self_time("cli.main"),
            "cli.bytes_written": result.bytes_written,
            "trace.uncovered_s": wall - sum(dur(i) for i in ids if spans[i][PARENT] < 0),
        }

    traced = [per_pass(by_pass.get(pid, []), wall, res)
              for pid, wall, was_traced, res in passes if was_traced]
    out = {k: statistics.median(p[k] for p in traced) for k in traced[0]}
    # oracles built once in set-up are paid once per run: add that build
    out["oracle2d.build_s"] += sum(spans[i][END] - spans[i][START]
                                   for i in by_pass.get(0, [])
                                   if spans[i][NAME] == "oracle2d.build")
    out["cli.import_s"] = import_s
    out["trace.overhead_s"] = (
        statistics.median(w for _, w, t, _ in passes if t)
        - statistics.median(w for _, w, t, _ in passes if not t))
    return out
