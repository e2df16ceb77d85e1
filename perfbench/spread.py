#!/usr/bin/env python3
"""Run the benchmark once per seed and report each metric's median and its
spread: the distance between the first and third quartiles of the values
(`statistics.quantiles(values, n=4)`) as a share of their median.

    python3 perfbench/spread.py --workload solve-ma --seeds 0-9 [--trace 0] \
        [--seconds 20] [--out spread.json]

Runs go one after another from the root of the checkout. Without
--seconds, BENCHMARK.json's run_seconds is used.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def seeds(text: str):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", default="0-9", help="inclusive range, e.g. 0-9")
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--seconds", type=int)
    ap.add_argument("--out", help="write the runs and the summary as JSON")
    args = ap.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = args.seconds or spec["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}

    runs = []
    for seed in seeds(args.seeds):
        cmd = [sys.executable, *spec["command"][1:], "--workload", args.workload,
               "--seed", str(seed), "--seconds", str(seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, check=True)
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        runs.append({"seed": seed, **result})
        print(f"seed {seed}: correct {result['correct']} attempted {result['attempted']} "
              f"failed {result['failed']} " + " ".join(
                  f"{k}={v['value']:.6g}" for k, v in result["metrics"].items()), flush=True)

    summary = {}
    for name in runs[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in runs]
        median = statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (median,) * 3
        spread = (q3 - q1) / median if median else float("nan")
        summary[name] = {"median": median, "q1": q1, "q3": q3, "spread": spread}
        bound = bounds.get(name)
        verdict = "" if bound is None else (
            f" bound {bound} -> {'ok' if spread < bound / 3 else 'TOO WIDE'}")
        print(f"{name:28s} median {median:.6g} spread {spread:.4f}{verdict}")
    if args.out:
        Path(args.out).write_text(json.dumps(
            {"workload": args.workload, "seconds": seconds, "trace": args.trace,
             "runs": runs, "summary": summary}, indent=1) + "\n")
    return 0 if all(r["correct"] for r in runs) else 1


if __name__ == "__main__":
    sys.exit(main())
