"""Command-line front end: residual sweeps, oracle dumps, fits, boundary
integrals, annulus solves, and full experiment pipelines."""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from importlib import resources

import numpy as np

from . import asymptotics, oracle2d, solver
from .core import AnnulusGrid, EquationSpec, PotentialFn, SymMat
from .equations import residual_many
from .errors import BadParams, ConfigError, LabError, WrongDimension

EXIT_OK = 0
EXIT_NUMERICAL = 1
EXIT_CONFIG = 2


def _load_schema(name: str) -> dict:
    with resources.files("asymlab.schemas").joinpath(name).open() as f:
        return json.load(f)


# one validator per shipped schema, built (and its schema checked) on first use
_VALIDATORS: dict = {}


def _validate(instance: dict, schema_name: str):
    """Same errors as `jsonschema.validate`, without re-checking the schema
    against its meta-schema on every call."""
    import jsonschema  # here, so that `import asymlab.cli` does not pay for it

    validator = _VALIDATORS.get(schema_name)
    if validator is None:
        schema = _load_schema(schema_name)
        cls = jsonschema.validators.validator_for(schema)
        cls.check_schema(schema)
        validator = _VALIDATORS[schema_name] = cls(schema)
    error = jsonschema.exceptions.best_match(validator.iter_errors(instance))
    if error is not None:
        raise ConfigError(f"config does not match {schema_name}: {error.message}") from error


def _comma_list(text: str, flag: str, types: tuple | None = None) -> list:
    """The fields of a command-line comma list: one per entry of `types`,
    each converted by it, or any number of floats. Anything else is a
    ConfigError."""
    fields = text.split(",")
    types = types or (float,) * len(fields)
    if len(fields) != len(types):
        raise ConfigError(f"{flag} takes {len(types)} comma-separated fields, got {text!r}")
    try:
        return [t(v) for t, v in zip(types, fields)]
    except ValueError as e:
        raise ConfigError(f"{flag} {text!r}: {e}") from None


def parse_equation(kind: str, dim: int, theta=None, delta=None) -> EquationSpec:
    try:
        return EquationSpec(kind.upper(), dim, theta=theta, delta=delta)
    except LabError as e:
        raise ConfigError(str(e)) from e


def _equation_for(args, P: PotentialFn) -> EquationSpec:
    """The equation of the command line, in the solution's dimension."""
    spec = parse_equation(args.equation, args.dim or P.dim, args.theta, args.delta)
    _check_dim(spec, P)
    return spec


def _check_dim(spec: EquationSpec, P: PotentialFn):
    if spec.dim != P.dim:
        raise WrongDimension(f"the equation is {spec.dim}D but the solution is {P.dim}D")


def _check_object(value, what: str):
    """Checked before the schema, whose oneOf would name a wrong branch."""
    if not isinstance(value, dict):
        given = json.dumps(value, default=repr)[:80]
        raise ConfigError(f"{what} must be a JSON object, got {given}")


def solution_from_spec(spec: dict) -> PotentialFn:
    _check_object(spec, "solution spec")
    _check_object(spec.get("params", {}), "params")
    _validate(spec, "oracle.json")
    if spec["kind"] == "sle":
        return oracle2d.oracle_sle(oracle2d._coeffs_from_params(spec), float(spec["vartheta"]))
    return oracle2d.builtin(spec["name"], spec.get("params"))


def _read_json(path: str, what: str):
    """The JSON in the file `path`, or a ConfigError naming it as `what`."""
    try:
        with open(path, encoding="utf-8") as f:
            return json.load(f)
    except (OSError, UnicodeDecodeError, json.JSONDecodeError) as e:
        raise ConfigError(f"{what} {path}: {getattr(e, 'strerror', None) or e}") from None


def parse_solution(arg: str, params_json: str | None = None) -> PotentialFn:
    """Accepts 'builtin:NAME' or a path to an oracle spec JSON file."""
    if not arg.startswith("builtin:"):
        return solution_from_spec(_read_json(arg, "solution file"))
    spec = {"kind": "builtin", "name": arg[len("builtin:"):]}
    if params_json:
        try:
            spec["params"] = json.loads(params_json)
        except json.JSONDecodeError as e:
            raise ConfigError(f"--params is not JSON: {e}") from None
    return solution_from_spec(spec)


def _exterior_points(P: PotentialFn, n: int, seed: int):
    """Quasi-random exterior sample points, scrambled by the seed."""
    rng = np.random.default_rng(seed)
    lo = max(P.rho, 0.3) + 0.2
    hi = 4.0 * lo + 4.0
    radii = lo * (hi / lo) ** rng.random(n)
    dirs = rng.normal(size=(n, P.dim))
    dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
    return radii[:, None] * dirs


def _out_dir(path: str | None) -> str:
    d = os.environ.get("LAB_OUTPUT_DIR", path or ".")
    try:
        os.makedirs(d, exist_ok=True)
    except OSError as e:
        raise ConfigError(f"output directory {d}: {e.strerror or e}") from None
    return d


def _out_path(out_dir: str, name: str) -> str:
    """out_dir/name, refused up front when it names a directory."""
    path = os.path.join(out_dir, name)
    if os.path.isdir(path):
        raise ConfigError(f"output file {path}: Is a directory")
    return path


def _dump_json(obj, path: str | None):
    text = json.dumps(obj, indent=2, sort_keys=True)
    if path:
        with open(path, "w") as f:
            f.write(text + "\n")
    else:
        print(text)


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def cmd_residual(args) -> int:
    if args.points < 1:
        raise BadParams(f"--points must be at least 1, got {args.points}")
    if args.seed < 0:
        raise BadParams(f"--seed must be non-negative, got {args.seed}")
    P = parse_solution(args.solution, args.params)
    spec = _equation_for(args, P)
    pts = _exterior_points(P, args.points, args.seed)
    res = residual_many(spec, P.hessians(pts))
    worst = float(np.max(np.abs(res)))
    print(f"max |residual| = {worst:.6e} over {args.points} points")
    return EXIT_OK


def cmd_oracle(args) -> int:
    P = parse_solution(args.solution, args.params)
    shells = asymptotics.ShellSpec(_comma_list(args.radii, "--radii"), args.points_per_shell)
    out = _out_path(_out_dir(args.outputs), args.out)
    _write_samples_csv(P, shells, out, args.seed)
    print(f"wrote {out} (rho = {P.rho})")
    return EXIT_OK


def _write_samples_csv(P: PotentialFn, shells, path: str, seed: int):
    if P.dim == 2:
        header = "x1,x2,u,du1,du2,h11,h12,h22"
        entries = [(0, 0), (0, 1), (1, 1)]
    else:
        header = "x1,x2,x3,u,du1,du2,du3,h11,h12,h22,h13,h23,h33"
        entries = [(0, 0), (0, 1), (1, 1), (0, 2), (1, 2), (2, 2)]
    X = shells.points(P.dim, seed=seed)
    H = P.hessians(X)
    table = np.column_stack([X, P.values(X), P.grads(X)]
                            + [H[:, i, j] for i, j in entries])
    lines = [header] + [",".join(map(repr, row)) for row in table.tolist()]
    with open(path, "w") as f:
        f.write("\n".join(lines) + "\n")


def cmd_fit(args) -> int:
    P = parse_solution(args.solution, args.params)
    spec = _equation_for(args, P)
    shells = asymptotics.ShellSpec(_comma_list(args.shells, "--shells"), args.points_per_shell)
    out = _out_path(_out_dir(args.outputs), args.out) if args.out else None
    _dump_json(asymptotics.fit_profile(P, spec, shells, seed=args.seed).to_dict(), out)
    return EXIT_OK


def _curve_from_config(cfg: dict, kernel: SymMat):
    order = int(cfg.get("order", asymptotics.DEFAULT_QUAD_ORDER))
    if cfg["type"] == "circle":
        return asymptotics.BoundaryCurve.circle(
            float(cfg.get("radius", 1.0)), tuple(cfg.get("center", (0.0, 0.0))), order)
    return asymptotics.BoundaryCurve.ellipse_of_kernel(
        kernel, float(cfg.get("radius", 10.0)), order)


def cmd_boundary_d(args) -> int:
    P = parse_solution(args.solution, args.params)
    spec = _equation_for(args, P)
    curve = asymptotics.BoundaryCurve.circle(args.radius, order=args.order)
    d = asymptotics.boundary_d(spec, P, curve)
    print(f"d = {d:.12g}")
    return EXIT_OK


def cmd_solve(args) -> int:
    P = parse_solution(args.solution, args.params)
    spec = _equation_for(args, P)
    r_in, r_out, n_r, n_t = _comma_list(args.grid, "--grid", (float, float, int, int))
    grid = AnnulusGrid(r_in, r_out, n_r, n_t, args.spacing)
    out_dir = _out_dir(args.outputs)
    field_path, report_path = (_out_path(out_dir, n) for n in (args.out, args.report))
    report = solver.solve_annulus(spec, P, grid)
    _write_field_csv(report.field, field_path)
    _dump_json(report.to_dict(), report_path)
    print(f"converged in {report.iterations} iterations, "
          f"|r|_inf = {report.final_residual_inf:.3e}")
    return EXIT_OK


def _write_field_csv(fld, path: str):
    """One row per node, plain decimal floats; x1 and x2 are the products of
    the written r with math.cos and math.sin of the written theta. One write
    per ring of nodes: joining the whole file first costs ~2 MB of peak RSS
    on a 65x128 grid for no speed. `repr` dominates, so j and theta are
    formatted once per column, i and r once per ring."""
    cols = [(f"{j},", f",{t!r},", math.cos(t), math.sin(t))
            for j, t in enumerate(fld.grid.theta.tolist())]
    with open(path, "w") as f:
        f.write("i,j,r,theta,x1,x2,u\n")
        for i, (r, row) in enumerate(zip(fld.grid.r.tolist(), fld.values.tolist())):
            i_, r_ = f"{i},", repr(r)
            f.write("".join(f"{i_}{j}{r_}{t}{r * c!r},{r * s!r},{u!r}\n"
                            for (j, t, c, s), u in zip(cols, row)))


def cmd_experiment(args) -> int:
    cfg = _read_json(args.config, "config")
    _validate(cfg, "experiment.json")
    eq = cfg["equation"]
    spec = parse_equation(eq["kind"], eq["dim"], eq.get("theta"), eq.get("delta"))
    P = solution_from_spec(cfg["solution"])
    _check_dim(spec, P)
    seed = int(cfg.get("seed", 0))
    shells = asymptotics.ShellSpec(tuple(cfg["shells"]["radii"]),
                                   int(cfg["shells"].get("pointsPerShell", 64)))
    out_dir = _out_dir(cfg.get("outputs"))
    field_path, samples_path, summary_path = (
        _out_path(out_dir, n) for n in ("field.csv", "samples.csv", "summary.json"))

    summary = {"seed": seed, "checks": {}}
    profile = asymptotics.fit_profile(P, spec, shells, seed=seed)
    summary["profile"] = profile.to_dict()

    expected_d = cfg.get("expectedD")
    if expected_d is not None:
        summary["expectedD"] = expected_d
        summary["checks"]["fit_vs_expected"] = bool(
            abs(profile.d - expected_d) <= 2e-3)

    if "curve" in cfg:
        curve = _curve_from_config(cfg["curve"], profile.L)
        d_b = asymptotics.boundary_d(spec, P, curve)
        summary["dBoundary"] = d_b
        summary["checks"]["fit_vs_boundary"] = bool(abs(profile.d - d_b) <= 2e-3)
        if expected_d is not None:
            summary["checks"]["boundary_vs_expected"] = bool(
                abs(d_b - expected_d) <= 1e-4)

    if "solver" in cfg:
        g = cfg["solver"]["grid"]
        grid = AnnulusGrid(float(g["rInner"]), float(g["rOuter"]), int(g["nR"]),
                           int(g["nTheta"]), g.get("spacing", "logarithmic"))
        report = solver.solve_annulus(spec, P, grid)
        _write_field_csv(report.field, field_path)
        summary["solve"] = report.to_dict()
        summary["checks"]["solve_converged"] = report.converged

    _write_samples_csv(P, shells, samples_path, seed)
    summary["pass"] = all(summary["checks"].values())
    _dump_json(summary, summary_path)
    print(f"experiment {'PASS' if summary['pass'] else 'FAIL'}; "
          f"summary in {out_dir}/summary.json")
    return EXIT_OK if summary["pass"] else EXIT_NUMERICAL


# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="lab",
                                description="exterior-asymptotics laboratory")
    sub = p.add_subparsers(dest="command", required=True)

    def common(sp, equation=True):
        sp.add_argument("--solution", required=True,
                        help="'builtin:NAME' or path to an oracle spec JSON")
        sp.add_argument("--params", help="JSON params for a builtin solution")
        sp.add_argument("--seed", type=int, default=0)
        sp.add_argument("--outputs", help="output directory (LAB_OUTPUT_DIR overrides)")
        if equation:
            sp.add_argument("--equation", required=True,
                            choices=["sle", "ma", "sigma2", "ihh"])
            sp.add_argument("--theta", type=float)
            sp.add_argument("--delta", type=float)
            sp.add_argument("--dim", type=int)

    sp = sub.add_parser("residual", help="max |residual| over exterior samples")
    common(sp)
    sp.add_argument("--points", type=int, default=1000)
    sp.set_defaults(func=cmd_residual)

    sp = sub.add_parser("oracle", help="dump oracle samples to CSV")
    common(sp, equation=False)
    sp.add_argument("--radii", default="10,20,40")
    sp.add_argument("--points-per-shell", type=int, default=64)
    sp.add_argument("--out", default="samples.csv")
    sp.set_defaults(func=cmd_oracle)

    sp = sub.add_parser("fit", help="fit an asymptotic profile")
    common(sp)
    sp.add_argument("--shells", default="50,100,200")
    sp.add_argument("--points-per-shell", type=int, default=64)
    sp.add_argument("--out", help="profile JSON path (default: stdout)")
    sp.set_defaults(func=cmd_fit)

    sp = sub.add_parser("boundary-d", help="log coefficient via boundary integral")
    common(sp)
    sp.add_argument("--radius", type=float, default=1.0)
    sp.add_argument("--order", type=int, default=asymptotics.DEFAULT_QUAD_ORDER)
    sp.set_defaults(func=cmd_boundary_d)

    sp = sub.add_parser("solve", help="Newton solve on a polar annulus")
    common(sp)
    sp.add_argument("--grid", default="1,8,65,128",
                    help="rInner,rOuter,nR,nTheta")
    sp.add_argument("--spacing", choices=["uniform", "logarithmic"],
                    default="logarithmic")
    sp.add_argument("--out", default="field.csv")
    sp.add_argument("--report", default="report.json")
    sp.set_defaults(func=cmd_solve)

    sp = sub.add_parser("experiment", help="oracle -> fit -> boundary -> solve pipeline")
    sp.add_argument("--config", required=True)
    sp.set_defaults(func=cmd_experiment)
    return p


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return EXIT_CONFIG if e.code not in (0, None) else 0
    try:
        return args.func(args)
    except LabError as e:
        _emit_error(e)
        return exit_code(e)


def exit_code(e: LabError) -> int:
    """EXIT_CONFIG for bad input, EXIT_NUMERICAL for any other LabError."""
    return EXIT_CONFIG if isinstance(e, ConfigError) else EXIT_NUMERICAL


def run_script(ap: argparse.ArgumentParser, run) -> None:
    """Parse the command line with ap and call run(args); a LabError exits
    with its exit code after one `prog: error: message` line on stderr."""
    args = ap.parse_args()
    try:
        run(args)
    except LabError as e:
        ap.exit(exit_code(e), f"{ap.prog}: error: {e}\n")


def _emit_error(e: LabError):
    sys.stderr.write(json.dumps({"error": {"kind": e.kind, "message": str(e)}}) + "\n")


if __name__ == "__main__":
    sys.exit(main())
