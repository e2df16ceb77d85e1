import dataclasses
import json
import math
import os
import subprocess
import sys

import jsonschema
import numpy as np
import pytest

from asymlab import asymptotics, cli, errors, oracle2d, solver
from asymlab.core import AnnulusField, AnnulusGrid

LAB = [sys.executable, "-m", "asymlab.cli"]
SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


def _strict_json(text):
    """json.loads that refuses the NaN, Infinity and -Infinity tokens, which
    are not JSON."""
    def refuse(token):
        raise ValueError(f"{token} is not JSON")

    return json.loads(text, parse_constant=refuse)


def run(args, env_extra=None, cwd=None):
    env = os.environ.copy()
    env.pop("LAB_OUTPUT_DIR", None)
    # the CLI runs from this checkout's src/, installed or not
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
    if env_extra:
        env.update(env_extra)
    return subprocess.run(LAB + args, capture_output=True, text=True, env=env, cwd=cwd)


class TestResidualCommand:
    def test_sin_exp(self):
        r = run(["residual", "--solution", "builtin:sin-exp",
                 "--equation", "sle", "--theta", "0", "--points", "200"])
        assert r.returncode == 0
        assert "max |residual|" in r.stdout

    def test_unknown_builtin_is_config_error(self):
        r = run(["residual", "--solution", "builtin:nope",
                 "--equation", "ma"])
        # the shipped schema's name enum rejects this before construction
        assert r.returncode == 2
        err = json.loads(r.stderr)
        assert err["error"]["kind"] in ("UnknownName", "ConfigError")

    def test_bad_params_is_config_error(self):
        r = run(["residual", "--solution", "builtin:ma-radial",
                 "--params", '{"c": 1.0, "bogus": 2}', "--equation", "ma"])
        assert r.returncode == 2
        assert json.loads(r.stderr)["error"]["kind"] == "BadParams"


    def test_non_finite_params_are_config_error(self):
        r = run(["residual", "--solution", "builtin:ma-radial",
                 "--params", '{"c": NaN}', "--equation", "ma"])
        assert r.returncode == 2
        assert json.loads(r.stderr)["error"]["kind"] == "BadParams"

    @pytest.mark.parametrize("points", ["0", "-3"])
    def test_empty_sample_is_config_error(self, points):
        r = run(["residual", "--solution", "builtin:ma-radial",
                 "--equation", "ma", "--points", points])
        assert r.returncode == 2
        assert json.loads(r.stderr)["error"]["kind"] == "BadParams"


class TestFitCommand:
    def test_profile_to_stdout(self):
        r = run(["fit", "--solution", "builtin:ma-radial", "--params", '{"c": 1.0}',
                 "--equation", "ma", "--shells", "50,100,200"])
        assert r.returncode == 0
        prof = json.loads(r.stdout)
        assert abs(prof["d"] - 0.5) < 1e-3

    def test_non_finite_params_are_config_error(self):
        r = run(["fit", "--solution", "builtin:quadratic", "--params",
                 '{"A": [[1.0, 0.0], [0.0, 1.0]], "c": NaN}', "--equation", "ma"])
        assert r.returncode == 2
        assert json.loads(r.stderr)["error"]["kind"] == "BadParams"

    def test_no_decay_is_numerical_error(self):
        r = run(["fit", "--solution", "builtin:sin-exp",
                 "--equation", "sle", "--theta", "0", "--shells", "4,8,16"])
        assert r.returncode == 1
        assert json.loads(r.stderr)["error"]["kind"] == "NoDecay"

    def test_singular_log_kernel_is_not_admissible(self):
        r = run(["fit", "--solution", "builtin:log-radial", "--params", '{"dim": 2}',
                 "--equation", "ma"])
        assert r.returncode == 1
        err = json.loads(r.stderr)["error"]
        assert err["kind"] == "NotAdmissible"
        assert "log kernel L is not positive definite" in err["message"]

    def test_exact_quadratic_profile_is_strict_json(self):
        """An exact quadratic's remainder is zero and its decay slope -inf,
        which the profile writes as null: stdout has no bare -Infinity."""
        r = run(["fit", "--solution", "builtin:quadratic", "--params",
                 '{"A": [[1, 0], [0, 1]], "b": [0, 0], "c": 0}', "--equation", "ma"])
        assert r.returncode == 0, r.stderr
        assert _strict_json(r.stdout)["decaySlope"] is None


class TestBoundaryDCommand:
    def test_ma_radial(self):
        r = run(["boundary-d", "--solution", "builtin:ma-radial",
                 "--params", '{"c": 1.0}', "--equation", "ma", "--radius", "3"])
        assert r.returncode == 0
        assert abs(float(r.stdout.split("=")[1]) - 0.5) < 1e-9

    def test_non_finite_points_are_config_error(self):
        r = run(["boundary-d", "--solution", "builtin:ma-radial",
                 "--equation", "ma", "--radius", "nan"])
        assert r.returncode == 2
        assert json.loads(r.stderr)["error"]["kind"] == "BadParams"

    def test_non_solution_is_not_admissible(self):
        """det D^2 log|x| < 0: log|x| solves no MA equation, so no d is printed."""
        r = run(["boundary-d", "--solution", "builtin:log-radial", "--params", '{"dim": 2}',
                 "--equation", "ma", "--radius", "2"])
        assert r.returncode == 1
        assert r.stderr.count("\n") == 1
        err = json.loads(r.stderr)["error"]
        assert err["kind"] == "NotAdmissible" and "[2.0, 0.0]" in err["message"]
        assert r.stdout == ""

    def test_critical_phase_laplace_solution(self):
        """sin(x1) exp(x2) solves 2D SLE at Theta = 0 and has no log term."""
        r = run(["boundary-d", "--solution", "builtin:sin-exp", "--equation", "sle",
                 "--theta", "0", "--radius", "2"])
        assert r.returncode == 0
        assert abs(float(r.stdout.split("=")[1])) < 1e-9


class TestOracleSpecFile:
    def test_sle_oracle_from_json(self, tmp_path):
        cfg = {"kind": "sle", "vartheta": math.pi / 4,
               "a1": [0.2, 0.0], "am1": 0.5}
        path = tmp_path / "oracle.json"
        path.write_text(json.dumps(cfg))
        r = run(["residual", "--solution", str(path),
                 "--equation", "sle", "--theta", str(math.pi / 2), "--points", "100"])
        assert r.returncode == 0

    def test_schema_rejects_unknown_keys(self, tmp_path):
        cfg = {"kind": "sle", "vartheta": 0.5, "a1": [0.2, 0.0],
               "extra": True}
        path = tmp_path / "oracle.json"
        path.write_text(json.dumps(cfg))
        r = run(["residual", "--solution", str(path), "--equation", "ma"])
        assert r.returncode == 2


class TestEquationParameters:
    """A missing theta or delta is named by EquationSpec's own message,
    which names no command-line flag, from a config and from flags alike."""

    def test_sle_without_theta_in_config(self, tmp_path):
        cfg = {"equation": {"kind": "sle", "dim": 2},
               "solution": {"kind": "builtin", "name": "sin-exp"},
               "shells": {"radii": [4.0, 8.0]}, "outputs": str(tmp_path)}
        cfg_path = tmp_path / "exp.json"
        cfg_path.write_text(json.dumps(cfg))
        r = run(["experiment", "--config", str(cfg_path)])
        assert r.returncode == 2
        assert json.loads(r.stderr)["error"] == {"kind": "ConfigError",
                                                 "message": "SLE spec requires theta"}

    @pytest.mark.parametrize("delta", ["nan", "inf"])
    def test_non_finite_delta(self, delta):
        r = run(["residual", "--solution", "builtin:warren3d", "--equation", "sigma2",
                 "--delta", delta])
        assert r.returncode == 2
        assert json.loads(r.stderr)["error"] == {
            "kind": "ConfigError", "message": f"SIGMA2 spec requires a finite delta, got {delta}"}

    @pytest.mark.parametrize("solution, equation, message", [
        ("builtin:sin-exp", "sle", "SLE spec requires theta"),
        ("builtin:warren3d", "sigma2", "SIGMA2 spec requires delta > 0"),
    ])
    def test_missing_flag(self, solution, equation, message):
        r = run(["fit", "--solution", solution, "--equation", equation])
        assert r.returncode == 2
        assert json.loads(r.stderr)["error"] == {"kind": "ConfigError", "message": message}


class TestExperiment:
    def _config(self, outputs):
        return {
            "equation": {"kind": "ma", "dim": 2},
            "solution": {"kind": "builtin", "name": "ma-radial", "params": {"c": 1.0}},
            "shells": {"radii": [50.0, 100.0, 200.0], "pointsPerShell": 64},
            "curve": {"type": "circle", "radius": 3.0},
            "expectedD": 0.5,
            "outputs": outputs,
        }

    def test_end_to_end_and_deterministic(self, tmp_path):
        cfg_path = tmp_path / "exp.json"
        out = tmp_path / "out"
        cfg_path.write_text(json.dumps(self._config(str(out))))

        r1 = run(["experiment", "--config", str(cfg_path)])
        assert r1.returncode == 0, r1.stderr
        summary = json.loads((out / "summary.json").read_text())
        assert summary["pass"] is True
        assert all(summary["checks"].values())
        header = (out / "samples.csv").read_text().splitlines()[0]
        assert header == "x1,x2,u,du1,du2,h11,h12,h22"

        blobs = {p.name: p.read_bytes() for p in out.iterdir()}
        r2 = run(["experiment", "--config", str(cfg_path)])
        assert r2.returncode == 0
        for p in out.iterdir():
            assert p.read_bytes() == blobs[p.name], f"{p.name} not reproducible"

    @pytest.mark.parametrize("equation, solution, extra", [
        ({"kind": "sle", "dim": 2, "theta": math.pi / 2},
         {"kind": "sle", "vartheta": math.pi / 4, "a1": [0.1, 0.05], "am1": 0.5}, {}),
        ({"kind": "ihh", "dim": 2},
         {"kind": "builtin", "name": "ihh-oracle", "params": {"am1": 0.4}},
         {"solver": {"grid": {"rInner": 1.0, "rOuter": 8.0, "nR": 17, "nTheta": 32}}}),
    ], ids=["SLE", "IHH"])
    def test_each_point_set_is_inverted_once(self, monkeypatch, tmp_path, equation,
                                             solution, extra):
        """Once the oracle is built (its domain-radius probes invert by
        themselves), `lab experiment` inverts the 96 shell points, the 64
        curve nodes and the solve's 64 ring nodes once each: samples.csv
        reuses the fit's shell preimages, which the curve and the rings
        have replaced in the potential's one-slot memo by the time it is
        written."""
        from asymlab import transforms

        sizes = []
        invert, build = transforms._newton_invert, cli.solution_from_spec

        def built(spec):
            P = build(spec)
            sizes.clear()
            return P

        monkeypatch.setattr(transforms, "_newton_invert",
                            lambda *a: sizes.append(len(a[0])) or invert(*a))
        monkeypatch.setattr(cli, "solution_from_spec", built)
        monkeypatch.delenv("LAB_OUTPUT_DIR", raising=False)
        cfg = _experiment_config(tmp_path / "out", equation=equation, solution=solution,
                                 curve={"type": "circle", "radius": 2.0, "order": 64}, **extra)
        cfg_path = tmp_path / "exp.json"
        cfg_path.write_text(json.dumps(cfg))
        assert cli.main(["experiment", "--config", str(cfg_path)]) == 0
        assert sizes == [96, 64] + [64] * ("solver" in extra)
        assert (tmp_path / "out" / "samples.csv").exists()

    def test_exact_quadratic_summary_is_strict_json(self, tmp_path):
        """The summary of an exact quadratic, its null decay slope and its
        solve report included, parses with no non-finite token."""
        cfg = {"equation": {"kind": "ma", "dim": 2},
               "solution": {"kind": "builtin", "name": "quadratic",
                            "params": {"A": [[1, 0], [0, 1]], "b": [0, 0], "c": 0}},
               "shells": {"radii": [50.0, 100.0, 200.0]},
               "solver": {"grid": {"rInner": 1.0, "rOuter": 8.0, "nR": 17, "nTheta": 32}},
               "outputs": str(tmp_path / "out")}
        (tmp_path / "exp.json").write_text(json.dumps(cfg))
        r = run(["experiment", "--config", str(tmp_path / "exp.json")])
        assert r.returncode == 0, r.stderr
        summary = _strict_json((tmp_path / "out" / "summary.json").read_text())
        assert summary["profile"]["decaySlope"] is None
        assert summary["pass"] is True and summary["checks"] == {"solve_converged": True}

    def test_schema_rejects_unknown_key(self, tmp_path):
        cfg = self._config(str(tmp_path / "out"))
        cfg["typo"] = 1
        cfg_path = tmp_path / "exp.json"
        cfg_path.write_text(json.dumps(cfg))
        r = run(["experiment", "--config", str(cfg_path)])
        assert r.returncode == 2

    def test_env_var_overrides_output_dir(self, tmp_path):
        cfg_path = tmp_path / "exp.json"
        cfg_path.write_text(json.dumps(self._config(str(tmp_path / "ignored"))))
        override = tmp_path / "redirected"
        r = run(["experiment", "--config", str(cfg_path)],
                env_extra={"LAB_OUTPUT_DIR": str(override)})
        assert r.returncode == 0
        assert (override / "summary.json").exists()
        assert not (tmp_path / "ignored").exists()

    def test_dimension_mismatch_is_wrong_dimension(self, tmp_path):
        cfg = self._config(str(tmp_path / "out"))
        cfg["equation"]["dim"] = 3
        cfg_path = tmp_path / "exp.json"
        cfg_path.write_text(json.dumps(cfg))
        r = run(["experiment", "--config", str(cfg_path)])
        assert r.returncode == 1
        assert json.loads(r.stderr)["error"]["kind"] == "WrongDimension"

    def test_singular_log_kernel_is_not_admissible(self, tmp_path):
        cfg = self._config(str(tmp_path / "out"))
        cfg["solution"] = {"kind": "builtin", "name": "log-radial", "params": {"dim": 2}}
        cfg_path = tmp_path / "exp.json"
        cfg_path.write_text(json.dumps(cfg))
        r = run(["experiment", "--config", str(cfg_path)])
        assert r.returncode == 1
        assert json.loads(r.stderr)["error"]["kind"] == "NotAdmissible"
        assert not (tmp_path / "out" / "summary.json").exists()

    def test_a_seed_is_config_error(self, tmp_path, capsys, monkeypatch):
        """Every shell has one sample pattern, so a config has no seed to set:
        the key is the schema's ConfigError naming it, and nothing is written."""
        monkeypatch.delenv("LAB_OUTPUT_DIR", raising=False)
        cfg_path = tmp_path / "exp.json"
        cfg_path.write_text(json.dumps(dict(self._config(str(tmp_path / "out")), seed=3)))
        rc = cli.main(["experiment", "--config", str(cfg_path)])
        captured = capsys.readouterr()
        assert rc == 2 and captured.out == "" and captured.err.count("\n") == 1
        err = json.loads(captured.err)["error"]
        assert err["kind"] == "ConfigError" and "'seed'" in err["message"]
        assert list(tmp_path.iterdir()) == [cfg_path]


class TestSolveCommand:
    def test_solve_writes_field_and_report(self, tmp_path):
        r = run(["solve", "--solution", "builtin:ma-radial", "--params", '{"c": 1.0}',
                 "--equation", "ma", "--grid", "1,8,17,32", "--spacing", "uniform",
                 "--outputs", str(tmp_path)])
        assert r.returncode == 0, r.stderr
        report = json.loads((tmp_path / "report.json").read_text())
        assert report["converged"] is True
        header = (tmp_path / "field.csv").read_text().splitlines()[0]
        assert header == "i,j,r,theta,x1,x2,u"

    def test_default_grid_takes_the_two_grid_path(self, tmp_path):
        """The default grid coarsens, so its first Newton step is a GMRES
        solve on the coarse level's factors and no step factors."""
        r = run(["solve", "--solution", "builtin:ma-radial", "--equation", "ma",
                 "--outputs", str(tmp_path)])
        assert r.returncode == 0, r.stderr
        steps = json.loads((tmp_path / "report.json").read_text())["steps"]
        assert steps[0]["krylov"] > 0
        assert not any(step["factored"] for step in steps)

    @pytest.mark.parametrize("equation", [["ma"], ["sigma2", "--delta", "0.1"]])
    def test_three_dimensional_solution_is_wrong_dimension(self, tmp_path, equation):
        r = run(["solve", "--solution", "builtin:warren3d", "--equation", *equation,
                 "--grid", "1,2,9,16", "--outputs", str(tmp_path)])
        assert r.returncode == 1
        assert json.loads(r.stderr)["error"] == {"kind": "WrongDimension",
                                                 "message": "annulus solver is 2D only"}

    def test_critical_sle_is_refused_once(self, tmp_path):
        """2D SLE at Theta = 0 is not supercritical: one JSON line naming
        Theta, exit 1, and no field written."""
        r = run(["solve", "--solution", "builtin:sin-exp", "--equation", "sle",
                 "--theta", "0", "--grid", "1,8,17,32", "--outputs", str(tmp_path)])
        assert r.returncode == 1
        assert r.stderr.count("\n") == 1
        err = json.loads(r.stderr)["error"]
        assert err["kind"] == "NotAdmissible"
        assert "Theta = 0.0 is not supercritical" in err["message"]
        assert not (tmp_path / "field.csv").exists()

    def test_inner_ring_inside_the_hole_is_bad_params(self, tmp_path):
        """This IHH oracle's certified domain radius is 2, the grid's inner one 1."""
        r = run(["solve", "--solution", "builtin:ihh-oracle", "--params",
                 '{"a1": 0.3, "am1": 0.4}', "--equation", "ihh", "--grid", "1,8,17,32",
                 "--outputs", str(tmp_path)])
        assert r.returncode == 2
        err = json.loads(r.stderr)["error"]
        assert err["kind"] == "BadParams" and "rho = 2.0" in err["message"]

    def test_non_finite_boundary_data_is_config_error(self, tmp_path):
        r = run(["solve", "--solution", "builtin:quadratic", "--params",
                 '{"A": [[1, 0], [0, 1]], "b": [0, 0], "c": NaN}',
                 "--equation", "ma", "--grid", "1,8,17,32", "--spacing", "uniform",
                 "--outputs", str(tmp_path)])
        assert r.returncode == 2
        assert json.loads(r.stderr)["error"]["kind"] == "BadParams"

    @pytest.mark.parametrize("grid", ["1,inf,9,16", "1,nan,9,16", "inf,8,9,16"])
    def test_non_finite_radii_are_config_error(self, tmp_path, grid):
        r = run(["solve", "--solution", "builtin:ma-radial", "--equation", "ma",
                 "--grid", grid, "--outputs", str(tmp_path)])
        assert r.returncode == 2
        err = json.loads(r.stderr)["error"]  # one JSON line: no numpy warning first
        assert err["kind"] == "BadParams" and "finite radii" in err["message"]


class TestMalformedArguments:
    """Bad comma lists, quadrature orders and shell radii are named config
    errors: exit 2 and one JSON line on stderr, with no traceback or numpy
    or LAPACK message before it."""

    @pytest.mark.parametrize("args, kind", [
        (["solve", "--equation", "ma", "--grid", "1,8,9"], "ConfigError"),
        (["solve", "--equation", "ma", "--grid", "1,8,9.5,16"], "ConfigError"),
        (["fit", "--equation", "ma", "--shells", "50,abc"], "ConfigError"),
        (["oracle", "--radii", "10,x"], "ConfigError"),
        (["boundary-d", "--equation", "ma", "--order", "0"], "BadParams"),
        (["boundary-d", "--equation", "ma", "--order", "-4"], "BadParams"),
        (["boundary-d", "--equation", "ma", "--radius", "0"], "BadParams"),
        (["boundary-d", "--equation", "ma", "--radius", "-2"], "BadParams"),
        (["boundary-d", "--equation", "ma", "--radius", "inf"], "BadParams"),
        (["fit", "--equation", "ma", "--shells", "0,1"], "BadParams"),
        (["fit", "--equation", "ma", "--shells", "50,inf"], "BadParams"),
    ], ids=lambda v: " ".join(v[-2:]) if isinstance(v, list) else v)
    def test_named_config_error(self, tmp_path, args, kind):
        outputs = [] if args[0] == "boundary-d" else ["--outputs", str(tmp_path)]
        r = run(args + ["--solution", "builtin:ma-radial", *outputs])
        assert r.returncode == 2
        assert r.stderr.count("\n") == 1
        assert json.loads(r.stderr)["error"]["kind"] == kind
        assert r.stdout == ""

    @pytest.mark.parametrize("args", [
        ["residual", "--equation", "ma", "--points", "1000000000000000"],
        ["fit", "--equation", "ma", "--points-per-shell", "1000000000000000"],
    ], ids=["residual", "fit"])
    def test_refused_allocation_is_bad_params(self, tmp_path, args):
        """A size that numpy refuses to allocate (7 PiB, refused at once) is
        BadParams carrying numpy's message, not a MemoryError traceback."""
        outputs = [] if args[0] == "residual" else ["--outputs", str(tmp_path)]
        r = run(args + ["--solution", "builtin:ma-radial", *outputs])
        assert r.returncode == 2
        assert r.stderr.count("\n") == 1
        err = json.loads(r.stderr)["error"]
        assert err["kind"] == "BadParams" and err["message"].startswith("Unable to allocate")
        assert r.stdout == ""

    @pytest.mark.parametrize("args, content", [
        ([cmd, flag, "{path}", *rest], content)
        for cmd, flag, rest in [("experiment", "--config", []),
                                ("solve", "--solution", ["--equation", "ma"])]
        for content in [None, "directory", b"\xff\xfe{}", b'{"kind": ']
    ] + [(["residual", "--solution", "builtin:ma-radial", "--equation", "ma",
           "--params", "{c: 1}"], None)],
        ids=[f"{flag}-{case}" for flag in ("config", "solution")
             for case in ("missing", "directory", "not-utf8", "not-json")] + ["params"])
    def test_unreadable_input_is_config_error(self, tmp_path, args, content):
        """A config or solution file that is missing, a directory, not UTF-8
        or not JSON, and --params that are not JSON, are a ConfigError
        naming the input, with no traceback."""
        path = tmp_path / "input.json"
        if content == "directory":
            path.mkdir()
        elif content is not None:
            path.write_bytes(content)
        r = run([str(path) if a == "{path}" else a for a in args], cwd=tmp_path)
        assert r.returncode == 2
        assert r.stderr.count("\n") == 1
        err = json.loads(r.stderr)["error"]
        assert err["kind"] == "ConfigError"
        assert (str(path) if "{path}" in args else "--params") in err["message"]
        assert r.stdout == ""


# ---------------------------------------------------------------------------
# in-process: output files, the cached validators and config lookups
# ---------------------------------------------------------------------------

def _experiment_config(outputs, **extra):
    return {"equation": {"kind": "ma", "dim": 2},
            "solution": {"kind": "builtin", "name": "ma-radial", "params": {"c": 1.0}},
            "shells": {"radii": [50.0, 100.0, 200.0], "pointsPerShell": 32},
            "outputs": str(outputs), **extra}


def _main(args, capsys):
    """cli.main in this process: (exit code, error JSON or None)."""
    rc = cli.main(args)
    err = capsys.readouterr().err
    return rc, (json.loads(err)["error"] if err else None)


def _never_evaluated(monkeypatch):
    """Make `cli.parse_solution` return its potential with callbacks that
    fail if called."""
    def fail(X):
        raise AssertionError("the potential was evaluated")

    parse = cli.parse_solution
    monkeypatch.setattr(cli, "parse_solution", lambda *a: dataclasses.replace(
        parse(*a), values_fn=fail, grads_fn=fail, hessians_fn=fail))


@pytest.fixture
def fresh_validators(monkeypatch):
    """An empty validator cache, so the next _validate builds its validator,
    and outputs where the config says."""
    monkeypatch.delenv("LAB_OUTPUT_DIR", raising=False)
    monkeypatch.setattr(cli, "_VALIDATORS", {})


class TestOutputFiles:
    @pytest.fixture(scope="class")
    def out(self, tmp_path_factory):
        out = tmp_path_factory.mktemp("experiment")
        cfg = _experiment_config(out, solver={"grid": {
            "rInner": 1.0, "rOuter": 8.0, "nR": 9, "nTheta": 16}})
        cfg_path = out / "exp.json"
        cfg_path.write_text(json.dumps(cfg))
        env = os.environ.pop("LAB_OUTPUT_DIR", None)
        try:
            assert cli.main(["experiment", "--config", str(cfg_path)]) == 0
        finally:
            if env is not None:
                os.environ["LAB_OUTPUT_DIR"] = env
        return out

    @staticmethod
    def _rows(path):
        header, *lines = path.read_text().splitlines()
        return header.split(","), [line.split(",") for line in lines]

    @pytest.mark.parametrize("name", ["field.csv", "samples.csv"])
    def test_every_field_is_a_float(self, out, name):
        header, rows = self._rows(out / name)
        assert rows
        for row in rows:
            assert len(row) == len(header)
            for token in row:
                float(token)

    def test_field_rows_are_polar_nodes(self, out):
        header, rows = self._rows(out / "field.csv")
        assert header == ["i", "j", "r", "theta", "x1", "x2", "u"]
        assert len(rows) == 9 * 16
        for k, row in enumerate(rows):
            i, j = int(row[0]), int(row[1])
            r, theta, x1, x2 = map(float, row[2:6])
            assert (i, j) == divmod(k, 16)
            assert x1 == r * math.cos(theta) and x2 == r * math.sin(theta)


def _per_node_field_csv(fld, path):
    """The writer `cli._write_field_csv` replaced, kept as the reference for
    its bytes: every string of a row is formatted at every node."""
    theta = fld.grid.theta.tolist()
    trig = [(t, math.cos(t), math.sin(t)) for t in theta]
    with open(path, "w") as f:
        f.write("i,j,r,theta,x1,x2,u\n")
        for i, (r, row) in enumerate(zip(fld.grid.r.tolist(), fld.values.tolist())):
            f.write("".join(f"{i},{j},{r!r},{t!r},{r * c!r},{r * s!r},{u!r}\n"
                            for j, ((t, c, s), u) in enumerate(zip(trig, row))))


class TestFieldCsvBytes:
    # values on both sides of repr's switch to exponent notation, and -0.0
    SPECIAL = [1e-5, -1e-5, 1.0001e-4, 1e16, -1e16, 9999999999999998.0, -0.0, 0.0]

    @pytest.mark.parametrize("grid", [
        AnnulusGrid(1.0, 8.0, 17, 32, "uniform"),
        # radii from 1e-6 to 1e17 put r itself on both sides of the switch
        AnnulusGrid(1e-6, 1e17, 33, 64, "logarithmic"),
    ], ids=["uniform-17x32", "logarithmic-33x64"])
    def test_same_bytes_as_the_per_node_writer(self, tmp_path, grid):
        values = np.random.default_rng(5).normal(size=(grid.n_r, grid.n_theta))
        values *= 10.0 ** np.random.default_rng(6).integers(-8, 18, size=values.shape)
        values.flat[:len(self.SPECIAL)] = self.SPECIAL
        values[-1, -len(self.SPECIAL):] = self.SPECIAL
        fld = AnnulusField(grid, values)
        _per_node_field_csv(fld, tmp_path / "want.csv")
        cli._write_field_csv(fld, tmp_path / "got.csv")
        want = (tmp_path / "want.csv").read_bytes()
        assert b"e-05" in want and b"e+16" in want and b",-0.0\n" in want
        assert (tmp_path / "got.csv").read_bytes() == want


class TestValidatorCache:
    def test_invalid_config_same_error_every_call(self, tmp_path, capsys,
                                                  fresh_validators):
        cfg = _experiment_config(tmp_path / "out")
        cfg["shells"]["pointsPerShell"] = 8
        cfg_path = tmp_path / "exp.json"
        cfg_path.write_text(json.dumps(cfg))
        with pytest.raises(jsonschema.ValidationError) as ref:
            jsonschema.validate(cfg, cli._load_schema("experiment.json"))

        errors = [_main(["experiment", "--config", str(cfg_path)], capsys)
                  for _ in range(2)]
        assert set(cli._VALIDATORS) == {"experiment.json"}
        expected = {"kind": "ConfigError",
                    "message": f"config does not match experiment.json: {ref.value.message}"}
        assert errors == [(2, expected), (2, expected)]

    def test_malformed_schema_raises_at_first_use(self, monkeypatch, fresh_validators):
        monkeypatch.setattr(cli, "_load_schema", lambda name: {"type": 12})
        for _ in range(2):
            with pytest.raises(jsonschema.SchemaError):
                cli._validate({"kind": "builtin"}, "oracle.json")
        assert cli._VALIDATORS == {}


class TestConfigLookups:
    """The CLI indexes every key the shipped schemas require, so a config
    lacking one is the schema's ConfigError, before any lookup."""

    @pytest.mark.parametrize("spec,key", [({}, "kind"), ({"kind": "builtin"}, "name"),
                                          ({"kind": "sle"}, "vartheta")])
    def test_solution_spec_key(self, monkeypatch, fresh_validators, spec, key):
        monkeypatch.setattr(oracle2d, "builtin", lambda *a: pytest.fail("built"))
        monkeypatch.setattr(oracle2d, "oracle_sle", lambda *a: pytest.fail("built"))
        with pytest.raises(cli.ConfigError, match="does not match oracle.json"):
            cli.solution_from_spec(spec)

    @pytest.mark.parametrize("key", ["rInner", "rOuter", "nR", "nTheta"])
    def test_grid_key_missing(self, tmp_path, capsys, fresh_validators, key):
        grid = {"rInner": 1.0, "rOuter": 8.0, "nR": 9, "nTheta": 16}
        del grid[key]
        cfg_path = tmp_path / "exp.json"
        cfg_path.write_text(json.dumps(_experiment_config(tmp_path / "out",
                                                          solver={"grid": grid})))
        rc, err = _main(["experiment", "--config", str(cfg_path)], capsys)
        assert rc == 2
        assert err == {"kind": "ConfigError", "message": "config does not match "
                       f"experiment.json: {key!r} is a required property"}


class TestRefusedWhereTheyEnter:
    """Inputs that are not what they claim are named errors with their exit
    code, before anything is built from them."""

    @pytest.mark.parametrize("params", ["[1]", "3", '"c"', "null", "[]"])
    def test_params_not_an_object(self, capsys, fresh_validators, params):
        rc, err = _main(["residual", "--solution", "builtin:ma-radial", "--params", params,
                         "--equation", "ma"], capsys)
        assert rc == 2
        assert err == {"kind": "ConfigError",
                       "message": f"params must be a JSON object, got {params}"}

    @pytest.mark.parametrize("spec, what", [
        ([1], "solution spec"), ("sle", "solution spec"),
        ({"kind": "builtin", "name": "ma-radial", "params": [1]}, "params")])
    def test_solution_spec_not_an_object(self, tmp_path, capsys, fresh_validators, spec, what):
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(spec))
        rc, err = _main(["residual", "--solution", str(path), "--equation", "ma"], capsys)
        assert rc == 2
        given = json.dumps(spec if what == "solution spec" else spec["params"])
        assert err == {"kind": "ConfigError",
                       "message": f"{what} must be a JSON object, got {given}"}

    @pytest.mark.parametrize("dim", [2.5, "2", 4, 0, True])
    @pytest.mark.parametrize("command", [["oracle"], ["residual", "--equation", "ma"]])
    def test_log_radial_dim_is_the_integer_2_or_3(self, tmp_path, capsys, fresh_validators,
                                                 command, dim):
        outputs = ["--outputs", str(tmp_path)] if command == ["oracle"] else []
        rc, err = _main(command + ["--solution", "builtin:log-radial", "--params",
                                   json.dumps({"dim": dim}), *outputs], capsys)
        assert rc == 2
        assert err == {"kind": "BadParams",
                       "message": f"log-radial dim must be the integer 2 or 3, got {dim!r}"}

    def test_huge_quadrature_order(self, tmp_path, capsys, monkeypatch, fresh_validators):
        """--order and experiment.json's curve.order past MAX_QUAD_ORDER are
        BadParams before a quadrature node is allocated."""
        monkeypatch.setattr(asymptotics.BoundaryCurve, "quad_nodes",
                            lambda self: pytest.fail("allocated"))
        message = (f"quadrature order must be in [16, {asymptotics.MAX_QUAD_ORDER}], "
                   "got 100000000000")
        rc, err = _main(["boundary-d", "--solution", "builtin:ma-radial", "--equation", "ma",
                         "--radius", "2", "--order", "100000000000"], capsys)
        assert (rc, err) == (2, {"kind": "BadParams", "message": message})
        cfg_path = tmp_path / "exp.json"
        cfg_path.write_text(json.dumps(_experiment_config(tmp_path / "out", curve={
            "type": "circle", "radius": 2.0, "order": 100000000000})))
        rc, err = _main(["experiment", "--config", str(cfg_path)], capsys)
        assert (rc, err) == (2, {"kind": "BadParams", "message": message})

    def test_curve_off_the_hole_writes_no_summary(self, tmp_path, capsys, fresh_validators):
        """A circle that misses the origin is refused as BadParams and no
        summary is written, where it used to report a roundoff-sized
        dBoundary and FAIL with exit 1."""
        cfg_path = tmp_path / "exp.json"
        cfg_path.write_text(json.dumps(_experiment_config(tmp_path / "out", curve={
            "type": "circle", "radius": 2, "center": [10, 0]})))
        rc, err = _main(["experiment", "--config", str(cfg_path)], capsys)
        assert (rc, err["kind"]) == (2, "BadParams")
        assert "does not enclose the origin" in err["message"]
        assert not (tmp_path / "out" / "summary.json").exists()

    def test_kernel_ellipse_center_moves_the_nodes(self, tmp_path, capsys, monkeypatch,
                                                  fresh_validators):
        """A kernel ellipse's `center` is applied, as a circle's is: its nodes
        are the centred ellipse's, shifted, and d is unchanged."""
        curves = []
        boundary_d = asymptotics.boundary_d
        monkeypatch.setattr(asymptotics, "boundary_d", lambda spec, P, curve: (
            curves.append(curve) or boundary_d(spec, P, curve)))
        d = []
        for n, center in enumerate([[0.0, 0.0], [1.5, -2.0]]):
            cfg_path = tmp_path / f"exp{n}.json"
            cfg_path.write_text(json.dumps(_experiment_config(tmp_path / f"out{n}", curve={
                "type": "kernel-ellipse", "radius": 10.0, "center": center, "order": 64})))
            assert _main(["experiment", "--config", str(cfg_path)], capsys) == (0, None)
            d.append(json.loads((tmp_path / f"out{n}" / "summary.json").read_text())["dBoundary"])
        (g0, dg0, _), (g1, dg1, _) = (c.quad_nodes() for c in curves)
        assert curves[1].center == (1.5, -2.0)
        assert np.array_equal(g1, g0 + [1.5, -2.0]) and np.array_equal(dg1, dg0)
        assert d[1] == pytest.approx(d[0], abs=1e-9) and d[0] == pytest.approx(0.5, abs=1e-9)

    def test_3d_kernel_ellipse_is_wrong_dimension(self, tmp_path, capsys, fresh_validators):
        """A 3D solution's kernel is 3x3, and its ellipse no boundary curve:
        WrongDimension with no summary, where numpy's ValueError escaped."""
        cfg = {"equation": {"kind": "ma", "dim": 3},
               "solution": {"kind": "builtin", "name": "log-radial"},
               "shells": {"radii": [50, 100, 200]},
               "curve": {"type": "kernel-ellipse", "radius": 10.0},
               "outputs": str(tmp_path / "out")}
        cfg_path = tmp_path / "exp.json"
        cfg_path.write_text(json.dumps(cfg))
        rc, err = _main(["experiment", "--config", str(cfg_path)], capsys)
        assert (rc, err["kind"]) == (1, "WrongDimension")
        assert "a boundary curve is 2D" in err["message"]
        assert not (tmp_path / "out" / "summary.json").exists()

    @pytest.mark.parametrize("spec", [
        {"kind": "builtin"}, {"kind": "sle"}, {"kind": "builtin", "name": "nope"},
        {"kind": "builtin", "name": "ma-radial", "extra": 1}, {"kind": "sle", "vartheta": -1},
        {"kind": "sle", "vartheta": 0.5, "extra": True}])
    def test_solution_spec_error_is_its_kinds_branch(self, tmp_path, capsys, fresh_validators,
                                                     spec):
        """A spec that breaks oracle.json is named by jsonschema's message on
        the branch its kind selects, not by the other branch's kind."""
        schema = cli._load_schema("oracle.json")
        branch = next(b["then"] for b in schema["allOf"]
                      if b["if"]["properties"]["kind"]["const"] == spec["kind"])
        with pytest.raises(jsonschema.ValidationError) as ref:
            jsonschema.validate(spec, {**branch, "$defs": schema["$defs"]})
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(spec))
        rc, err = _main(["residual", "--solution", str(path), "--equation", "ma"], capsys)
        assert (rc, err) == (2, {"kind": "ConfigError", "message":
                                 f"config does not match oracle.json: {ref.value.message}"})
        if len(spec) == 1:
            assert ref.value.message.endswith("is a required property")

    @pytest.mark.parametrize("spec, message", [
        ({}, "'kind' is a required property"),
        ({"kind": "nope"}, "'nope' is not one of ['sle', 'builtin']"),
        ({"kind": None, "name": "ma-radial"}, "None is not one of ['sle', 'builtin']")])
    def test_solution_spec_without_a_known_kind(self, tmp_path, capsys, fresh_validators,
                                                spec, message):
        """A spec with no kind, or one that selects no branch, is named by
        jsonschema's message on `kind`, not by a branch's."""
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(spec))
        rc, err = _main(["residual", "--solution", str(path), "--equation", "ma"], capsys)
        assert (rc, err) == (2, {"kind": "ConfigError", "message":
                                 f"config does not match oracle.json: {message}"})

    def test_overflowed_shell_is_one_line_on_stderr(self):
        """numpy's overflow warnings do not precede the JSON error line."""
        r = run(["fit", "--solution", "builtin:ma-radial", "--equation", "ma",
                 "--shells", "1e300,2e300"])
        assert r.returncode == 1
        assert r.stderr.count("\n") == 1
        assert json.loads(r.stderr)["error"]["kind"] == "NotAdmissible"

    def test_boundary_circle_inside_rho(self, tmp_path, capsys, fresh_validators):
        path = tmp_path / "sle.json"
        path.write_text(json.dumps({"kind": "sle", "vartheta": math.pi / 8, "a1": -0.8,
                                    "am1": -0.4, "tail": [0.2, -0.1]}))
        rc, err = _main(["boundary-d", "--solution", str(path), "--equation", "sle",
                         "--theta", str(math.pi / 4), "--radius", "1.5"], capsys)
        assert rc == 2 and err["kind"] == "BadParams"
        assert "inside the solution's domain radius rho = 2.0" in err["message"]

    def test_fit_shell_inside_rho(self, capsys, monkeypatch, fresh_validators):
        """`lab fit` of the ihh-oracle with am1 = 0.4 (rho = 1) on shells 0.5,
        1 and 2 refuses the shell inside rho before the potential is
        evaluated; it was InverseMapDiverged (exit 1)."""
        _never_evaluated(monkeypatch)
        rc, err = _main(["fit", "--solution", "builtin:ihh-oracle", "--params", '{"am1": 0.4}',
                         "--equation", "ihh", "--shells", "0.5,1,2"], capsys)
        assert rc == 2
        assert err == {"kind": "BadParams", "message": "point [0.5, 0.0] lies inside "
                                                       "the solution's domain radius rho = 1.0"}

    def test_oracle_shell_inside_rho(self, tmp_path, capsys, monkeypatch, fresh_validators):
        """`lab oracle` of that oracle on radii 0.3, 0.5 and 1 refuses the
        first before any sample is evaluated or written (it was
        InverseMapDiverged, exit 1); a shell on |x| = rho is sampled."""
        args = ["oracle", "--solution", "builtin:ihh-oracle", "--params", '{"am1": 0.4}',
                "--outputs", str(tmp_path), "--radii"]
        with monkeypatch.context() as mp:
            _never_evaluated(mp)
            rc, err = _main(args + ["0.3,0.5,1"], capsys)
        assert rc == 2
        assert err == {"kind": "BadParams", "message": "point [0.3, 0.0] lies inside "
                                                       "the solution's domain radius rho = 1.0"}
        assert not (tmp_path / "samples.csv").exists()
        assert _main(args + ["1,2"], capsys) == (0, None)
        assert (tmp_path / "samples.csv").exists()

    @pytest.mark.parametrize("expected_d", [math.nan, math.inf], ids=["NaN", "Infinity"])
    def test_non_finite_expected_d(self, tmp_path, capsys, monkeypatch, fresh_validators,
                                   expected_d):
        """json.load reads NaN and Infinity; an expectedD of either is refused
        before the fit, so no summary.json holds a token that is not JSON (it
        was a numerical FAIL, exit 1)."""
        monkeypatch.setattr(asymptotics, "fit_profile", lambda *a, **k: pytest.fail("fitted"))
        cfg_path = tmp_path / "exp.json"
        cfg_path.write_text(json.dumps(_experiment_config(tmp_path / "out",
                                                          expectedD=expected_d)))
        rc, err = _main(["experiment", "--config", str(cfg_path)], capsys)
        assert (rc, err) == (2, {"kind": "BadParams",
                                 "message": f"expectedD must be finite, got {expected_d}"})
        assert not (tmp_path / "out" / "summary.json").exists()

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_overflowed_shell_hessian(self, capsys):
        rc, err = _main(["fit", "--solution", "builtin:ma-radial", "--equation", "ma",
                         "--shells", "1e300,2e300"], capsys)
        assert rc == 1
        assert err["kind"] == "NotAdmissible"
        assert err["message"] == ("Hessian [[nan, nan], [nan, nan]] at point [1e+300, 0.0] "
                                  "is not finite")


class TestOutputPaths:
    COMMANDS = {
        "solve": ["solve", "--solution", "builtin:ma-radial", "--equation", "ma",
                  "--grid", "1,8,9,16"],
        "oracle": ["oracle", "--solution", "builtin:ma-radial"],
        "fit": ["fit", "--solution", "builtin:ma-radial", "--equation", "ma"],
        "experiment": ["experiment", "--config"],
    }

    @pytest.mark.parametrize("case", ["directory-as-output-file", "file-as-output-dir"])
    @pytest.mark.parametrize("command", sorted(COMMANDS))
    def test_bad_output_path_is_config_error(self, tmp_path, capsys, monkeypatch,
                                             fresh_validators, command, case):
        """An output file that is a directory, or a LAB_OUTPUT_DIR that is a
        file, is a ConfigError naming it (exit 2, one JSON line on stderr,
        nothing on stdout), raised before anything is fitted or solved."""
        calls = []
        monkeypatch.setattr(solver, "solve_annulus", lambda *a: calls.append("solve"))
        monkeypatch.setattr(asymptotics, "fit_profile", lambda *a, **k: calls.append("fit"))
        out = tmp_path / "out"
        args = list(self.COMMANDS[command])
        if command == "experiment":
            cfg_path = tmp_path / "exp.json"
            cfg_path.write_text(json.dumps(_experiment_config(out, solver={"grid": {
                "rInner": 1.0, "rOuter": 8.0, "nR": 9, "nTheta": 16}})))
            args.append(str(cfg_path))
            bad = out / "summary.json"
        else:
            bad = tmp_path
            args += ["--outputs", str(out), "--out",
                     str(bad) if case == "directory-as-output-file" else "result"]
        if case == "directory-as-output-file":
            bad.mkdir(parents=True, exist_ok=True)
        else:
            bad = tmp_path / "a-file"
            bad.write_text("")
            monkeypatch.setenv("LAB_OUTPUT_DIR", str(bad))

        rc = cli.main(args)
        captured = capsys.readouterr()
        assert rc == 2
        assert captured.out == ""
        assert captured.err.count("\n") == 1
        err = json.loads(captured.err)["error"]
        assert err["kind"] == "ConfigError" and str(bad) in err["message"]
        assert calls == []


@pytest.mark.parametrize("option", [
    ["solve", "--seed", "1"], ["boundary-d", "--seed", "1"],
    ["residual", "--seed", "1"], ["fit", "--seed", "1"], ["oracle", "--seed", "1"],
    ["residual", "--outputs", "D"], ["boundary-d", "--outputs", "D"],
] + [[command, "--dim", "2"] for command in ("residual", "fit", "boundary-d", "solve")],
    ids=" ".join)
def test_an_option_the_handler_does_not_read_is_a_usage_error(tmp_path, capsys, monkeypatch,
                                                              option):
    """Each subcommand declares only the options its handler reads, the
    equation takes the solution's dimension, so --dim is no option, and every
    shell has one sample pattern, so --seed is none either: any other is
    argparse's usage error of that subcommand, exit 2, before anything is
    run or written."""
    monkeypatch.chdir(tmp_path)
    monkeypatch.delenv("LAB_OUTPUT_DIR", raising=False)
    command, *rest = option
    grid = ["--grid", "1,8,9,16"] if command == "solve" else []
    equation = [] if command == "oracle" else ["--equation", "ma"]
    rc = cli.main([command, "--solution", "builtin:ma-radial", *equation, *grid, *rest])
    captured = capsys.readouterr()
    assert rc == 2 and captured.out == ""
    assert captured.err.startswith(f"usage: lab {command} ")
    assert captured.err.endswith(
        f"\nlab {command}: error: unrecognized arguments: {' '.join(rest)}\n")
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("cls", [c for c in vars(errors).values()
                                 if isinstance(c, type) and issubclass(c, errors.LabError)],
                         ids=lambda c: c.__name__)
def test_error_json_kind_is_the_class_name(capsys, cls):
    e = cls("message", None) if cls is errors.DidNotConverge else cls("message")
    assert e.kind == cls.__name__
    cli._emit_error(e)
    assert json.loads(capsys.readouterr().err) == {"error": {"kind": cls.__name__,
                                                             "message": "message"}}
