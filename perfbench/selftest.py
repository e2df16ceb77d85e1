#!/usr/bin/env python3
"""Self-test of the benchmark, on reduced inputs (`--size small`).

    python3 perfbench/selftest.py

Checks that every workload, untraced and traced, passes its checks and
emits every metric BENCHMARK.json names, with its unit; and that a planted
wrong expectation (a shifted expected d in the pipeline, a shifted
h-halving ratio window in solve-*) is reported as a failed op, not a pass.
Exits 0 when all of this holds.
"""

from __future__ import annotations

import contextlib
import json
import math
import os
import shutil
import sys

import run

SEED = 0


def planted(make):
    """`workloads.make` whose workloads expect a wrong answer."""
    def make_planted(name, seed, size, workdir):
        w = make(name, seed, size, workdir)
        if name == "pipeline":
            w.d_shift = 0.01
        else:
            w.ratio_window = (5.0, 7.0)
        return w
    return make_planted


def main() -> int:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    expected = {0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
                1: {m["name"]: m["unit"] for m in spec["per_layer"]}}
    scratch = run.ROOT / ".perfbench_tmp" / f"selftest-{os.getpid()}"
    problems = []

    def bench(workload, trace):
        args = run.parse_args(["--workload", workload, "--seed", str(SEED),
                               "--seconds", "0", "--trace", str(trace), "--size", "small"])
        args.workdir = str(scratch / f"{workload}-{trace}")
        return run.run(args)

    try:
        for workload in run.IMPORTS:
            for trace in (0, 1):
                result = bench(workload, trace)
                units = {k: v["unit"] for k, v in result["metrics"].items()}
                if units != expected[trace]:
                    problems.append(f"{workload} trace {trace}: metrics {units}")
                if not all(math.isfinite(v["value"]) for v in result["metrics"].values()):
                    problems.append(f"{workload} trace {trace}: non-finite metric")
                if trace == 0 and not all(v["value"] for v in result["metrics"].values()):
                    problems.append(f"{workload}: an end-to-end metric reads 0")
                if not (result["correct"] and result["failed"] == 0 and result["attempted"] > 0):
                    problems.append(f"{workload} trace {trace}: {result}")

            import workloads
            make = workloads.make
            workloads.make = planted(make)
            try:
                result = bench(workload, 0)
            finally:
                workloads.make = make
            if result["correct"] or result["failed"] == 0:
                problems.append(f"{workload}: planted wrong expectation passed: {result}")
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
        with contextlib.suppress(OSError):
            scratch.parent.rmdir()

    for p in problems:
        print("SELFTEST FAIL:", p)
    print("selftest", "FAILED" if problems else "passed")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
