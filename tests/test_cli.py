import json
import math
import os
import subprocess
import sys

import jsonschema
import pytest

from asymlab import cli

LAB = [sys.executable, "-m", "asymlab.cli"]
SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


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

    @pytest.mark.parametrize("solution,dim", [("builtin:ma-radial", "3"),
                                              ("builtin:warren3d", "2")])
    def test_dimension_mismatch_is_wrong_dimension(self, solution, dim):
        r = run(["residual", "--solution", solution, "--equation", "ma",
                 "--dim", dim, "--points", "10"])
        assert r.returncode == 1
        assert json.loads(r.stderr)["error"]["kind"] == "WrongDimension"
        assert "max |residual|" not in r.stdout


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

    def test_dimension_mismatch_is_wrong_dimension(self):
        r = run(["fit", "--solution", "builtin:ma-radial", "--params", '{"c": 1.0}',
                 "--equation", "ma", "--dim", "3"])
        assert r.returncode == 1
        assert json.loads(r.stderr)["error"]["kind"] == "WrongDimension"
        assert r.stdout == ""


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
            "seed": 3,
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

    def test_three_dimensional_solution_is_wrong_dimension(self, tmp_path):
        r = run(["solve", "--solution", "builtin:warren3d", "--equation", "ma",
                 "--grid", "1,2,9,16", "--outputs", str(tmp_path)])
        assert r.returncode == 1
        assert json.loads(r.stderr)["error"] == {"kind": "WrongDimension",
                                                 "message": "annulus solver is 2D only"}

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
        r = run(args + ["--solution", "builtin:ma-radial", "--outputs", str(tmp_path)])
        assert r.returncode == 2
        assert r.stderr.count("\n") == 1
        assert json.loads(r.stderr)["error"]["kind"] == kind
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
    @pytest.mark.parametrize("spec,key", [({}, "kind"), ({"kind": "builtin"}, "name"),
                                          ({"kind": "sle"}, "vartheta")])
    def test_solution_spec_key(self, monkeypatch, fresh_validators, spec, key):
        monkeypatch.setattr(cli, "_load_schema", lambda name: {})
        with pytest.raises(cli.ConfigError, match=repr(key)):
            cli.solution_from_spec(spec)

    def test_grid_key_missing_past_schema(self, tmp_path, capsys, monkeypatch,
                                          fresh_validators):
        real = cli._load_schema

        def schema_without_nr(name):
            schema = real(name)
            if name == "experiment.json":
                grid = schema["properties"]["solver"]["properties"]["grid"]
                grid["required"].remove("nR")
            return schema

        monkeypatch.setattr(cli, "_load_schema", schema_without_nr)
        cfg = _experiment_config(tmp_path / "out", solver={"grid": {
            "rInner": 1.0, "rOuter": 8.0, "nTheta": 16}})
        cfg_path = tmp_path / "exp.json"
        cfg_path.write_text(json.dumps(cfg))
        rc, err = _main(["experiment", "--config", str(cfg_path)], capsys)
        assert rc == 2
        assert err == {"kind": "ConfigError", "message": "solver grid lacks 'nR'"}
