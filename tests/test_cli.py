import json
import math
import os
import subprocess
import sys

import pytest

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


class TestFitCommand:
    def test_profile_to_stdout(self):
        r = run(["fit", "--solution", "builtin:ma-radial", "--params", '{"c": 1.0}',
                 "--equation", "ma", "--shells", "50,100,200"])
        assert r.returncode == 0
        prof = json.loads(r.stdout)
        assert abs(prof["d"] - 0.5) < 1e-3

    def test_no_decay_is_numerical_error(self):
        r = run(["fit", "--solution", "builtin:sin-exp",
                 "--equation", "sle", "--theta", "0", "--shells", "4,8,16"])
        assert r.returncode == 1
        assert json.loads(r.stderr)["error"]["kind"] == "NoDecay"


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
