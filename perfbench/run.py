#!/usr/bin/env python3
"""asymlab benchmark: three workloads through the library's public entry
points, each checked against the oracle's known answer.

    python3 perfbench/run.py --workload {solve-ma,solve-sle,pipeline} \
        --seed N --seconds S --trace {0,1}

Run from the root of a checkout; asymlab is imported from its `src/`.
Each run measures set-up in fresh interpreters, then runs passes in a
closed loop (one at a time, one process, BLAS/OpenMP pools pinned to one
thread) until S seconds have passed. The last line of standard output is
one JSON object: `correct`, `attempted`, `failed` (ops) and `metrics`.

The host's speed flips between two levels about 1.7x apart, so timings are
scaled to a fixed machine speed read from fixed reference work (see
reference.py): each set-up between two timings of it, each untraced pass
every 50 ms from a timer signal. setup_s and wall_s are such scaled
seconds; the raw medians are printed beside them. The run and its set-up
probes are pinned to one CPU, the one the reference work reads.

--trace 0 reports the end-to-end metrics:
  setup_s      median seconds from a fresh interpreter to the first pass
               (import, plus oracle construction for solve-*), 5 samples
  wall_s       median seconds per pass
  peak_rss_mb  peak resident memory of this process
  max_error    solve-*: max nodal error against the oracle on the finest
               grid; pipeline: worst |d_fit - d_expected| (d_fit_err)
--trace 1 alternates untraced and traced passes and reports per-layer
metrics from spans around the public calls into oracle2d, solver,
asymptotics and cli (see tracing.py), in raw seconds.

`--size small` runs the self-test's reduced inputs.
"""

from __future__ import annotations

import os

# the code is serial: pin every BLAS/OpenMP pool before numpy loads
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from importlib import metadata  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SETUP_SAMPLES = 5
PROBE_TIMEOUT_S = 60
DEFAULT_SEED = 0
# a seed not used while the benchmark was tuned; every check passes on it too
HELD_OUT_SEED = 20171709
# the workloads, and what a fresh process of each imports before its first pass
IMPORTS = {"solve-ma": "asymlab", "solve-sle": "asymlab", "pipeline": "asymlab.cli"}


def load_program(workload: str) -> float:
    """Import asymlab from this checkout; seconds the import took."""
    sys.path.insert(0, str(SRC))
    t0 = perf_counter()
    importlib.import_module(IMPORTS[workload])
    import_s = perf_counter() - t0
    import asymlab
    if SRC.resolve() not in Path(asymlab.__file__).resolve().parents:
        raise ImportError(f"asymlab was imported from {asymlab.__file__}, not {SRC}")
    return import_s


def probe(args) -> int:
    """Set-up in this fresh interpreter, then one line for the parent."""
    import_s = load_program(args.workload)
    import workloads
    workloads.make(args.workload, args.seed, args.size, args.workdir).setup()
    print(json.dumps({"import_s": import_s}), flush=True)
    return 0


def measure_setup(args, ref):
    """Median scaled and raw set-up seconds over fresh interpreters, and their
    median import seconds; each interpreter is timed from spawn to its ready
    line, and the reference work is timed before and after it."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--probe",
           "--workload", args.workload, "--seed", str(args.seed),
           "--size", args.size, "--workdir", args.workdir + "-probe"]
    setup, raw, imports = [], [], []
    ref_before = ref.seconds()
    for _ in range(SETUP_SAMPLES):
        t0 = perf_counter()
        proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True)
        try:
            line = proc.stdout.readline()
            raw.append(perf_counter() - t0)
            proc.stdout.read()
            proc.wait(timeout=PROBE_TIMEOUT_S)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
            proc.stdout.close()
        if proc.returncode != 0 or not line:
            raise RuntimeError(f"set-up probe exited with {proc.returncode}")
        imports.append(json.loads(line)["import_s"])
        ref_after = ref.seconds()
        setup.append(ref.scaled(raw[-1], ref_before, ref_after))
        ref_before = ref_after
    return (statistics.median(setup), statistics.median(raw),
            statistics.median(imports))


def machine() -> dict:
    return {
        "cpus": os.cpu_count(),
        "python": platform.python_version(),
        **{pkg: metadata.version(pkg) for pkg in ("numpy", "scipy", "jsonschema")},
        "threads": {v: os.environ[v] for v in THREAD_VARS},
        "platform": platform.platform(),
    }


LAYER_UNITS = [
    ("oracle2d.eval_s", "s"), ("oracle2d.value_calls", "count"),
    ("oracle2d.grad_calls", "count"), ("oracle2d.hess_calls", "count"),
    ("oracle2d.us_per_eval", "us"), ("oracle2d.build_s", "s"),
    ("solver.solve_s", "s"), ("solver.newton_iters", "count"),
    ("solver.damping_events", "count"), ("solver.unknowns", "count"),
    ("solver.s_per_iter_finest", "s"), ("solver.study_self_s", "s"),
    ("asymptotics.fit_s", "s"), ("asymptotics.hessian_limit_s", "s"),
    ("asymptotics.boundary_s", "s"), ("asymptotics.self_s", "s"),
    ("cli.import_s", "s"), ("cli.self_s", "s"), ("cli.bytes_written", "bytes"),
    ("trace.overhead_s", "s"), ("trace.uncovered_s", "s"),
]


def run_passes(workload, seconds: float, tracer, sampler):
    """Closed loop: one pass at a time until `seconds` have passed. With a
    tracer, passes alternate untraced and traced, at least one of each.
    Returns the passes and the scaled seconds of each untraced one; traced
    passes are not sampled, so no probe runs inside a span."""
    passes, scaled = [], []
    t_start = perf_counter()
    while True:
        pass_id = len(passes) + 1
        traced = tracer is not None and pass_id % 2 == 0
        if tracer is not None:
            tracer.pass_id, tracer.active = pass_id, traced
        if traced:
            t0 = perf_counter()
            result = workload.run_pass()
            wall = perf_counter() - t0
            tracer.active = False
        else:
            sampler.start()
            try:
                result = workload.run_pass()
            finally:
                sampler.stop()
            wall = sampler.raw
            scaled.append(sampler.scaled)
        passes.append((pass_id, wall, traced, result))
        for _, message in result.failures:
            print(f"pass {pass_id} FAILED: {message}", file=sys.stderr)
        enough = tracer is None or len(passes) >= 2
        if enough and perf_counter() - t_start >= seconds:
            return passes, scaled


def wall_summary(walls) -> str:
    """Median, and the highest percentile with ten samples beyond it."""
    n = len(walls)
    text = f"median of {n} passes, max {max(walls):.4g} s"
    if n >= 20:
        p = int(100 * (1 - 10 / n))
        text += f", p{p} {statistics.quantiles(walls, n=100)[p - 1]:.4g} s"
    else:
        text += "; no percentile above the median has 10 passes beyond it"
    return text


def run(args) -> dict:
    import_s = load_program(args.workload)
    import reference
    import tracing
    import workloads
    ref = reference.Reference()
    tracer = None
    if args.trace:
        tracer = tracing.Tracer()
        tracer.install()
        tracer.active = True
    try:
        setup_s, setup_raw_s, probe_import_s = measure_setup(args, ref)
        workload = workloads.make(args.workload, args.seed, args.size, args.workdir)
        workload.setup()
        if tracer is not None:
            tracer.active = False
        passes, scaled = run_passes(workload, args.seconds, tracer,
                                    reference.Sampler(ref))
    finally:
        if tracer is not None:
            tracer.uninstall()
    results = [p[3] for p in passes]
    attempted = sum(r.ops for r in results)
    failed = sum(r.failed for r in results)
    walls = [wall for _, wall, traced, _ in passes if not traced]
    end_to_end = {
        "setup_s": (setup_s, "s"),
        "wall_s": (statistics.median(scaled), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        "max_error": (max((r.error for r in results if r.failed == 0),
                          default=float("nan")), "1"),
    }
    notes = {
        "setup_s": f"scaled median of {SETUP_SAMPLES} fresh interpreters; raw "
                   f"{setup_raw_s:.4f} s; import {probe_import_s:.4f} s, in this "
                   f"process {import_s:.4f} s",
        "wall_s": f"scaled {wall_summary(scaled)}; raw median "
                  f"{statistics.median(walls):.4g} s",
        "max_error": "d_fit_err" if args.workload == "pipeline" else "finest-grid nodal error",
    }
    print(f"# machine {json.dumps(machine())}")
    print(f"# workload {args.workload} seed {args.seed} seconds {args.seconds} "
          f"trace {args.trace} size {args.size}")
    for name, (value, unit) in end_to_end.items():
        print(f"{name:28s} {value:.6g} {unit}" + (f"  ({notes[name]})" if name in notes else ""))
    print(f"{'ops_attempted':28s} {attempted} count\n{'ops_failed':28s} {failed} count")
    metrics = end_to_end
    if tracer is not None:
        cli_import_s = probe_import_s if args.workload == "pipeline" else 0.0
        layers = tracing.layer_metrics(tracer, passes, cli_import_s)
        metrics = {name: (layers[name], unit) for name, unit in LAYER_UNITS}
        for name, (value, unit) in metrics.items():
            print(f"{name:28s} {value:.6g} {unit}")
    return {"correct": failed == 0 and attempted > 0,
            "attempted": attempted, "failed": failed,
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=list(IMPORTS))
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--size", choices=["full", "small"], default="full")
    ap.add_argument("--probe", action="store_true", help=argparse.SUPPRESS)
    ap.add_argument("--workdir", help=argparse.SUPPRESS)
    return ap.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.probe:
        return probe(args)
    # one CPU for this process and the set-up probes it spawns (they inherit
    # it), so the reference work always reads the speed of the CPU that
    # runs the timed code
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    scratch = ROOT / ".perfbench_tmp" / str(os.getpid())
    args.workdir = str(scratch / "run")
    try:
        result = run(args)
    except ImportError as e:
        print(f"cannot load asymlab from {SRC}: {e}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
        with contextlib.suppress(OSError):
            scratch.parent.rmdir()
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
