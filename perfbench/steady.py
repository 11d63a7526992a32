#!/usr/bin/env python3
"""Steadiness of the benchmark: run each workload with several seeds and
print, per end-to-end metric, the median, the quartiles and their spread
against the metric's bound in BENCHMARK.json.

Usage (from the repository root):

    python3 perfbench/steady.py --runs 10 --first-seed 1
    python3 perfbench/steady.py --workloads eval-mix,cli-cold --runs 5 --out steady.json

A metric is steady when the distance between its quartiles, as a share of
the median, is below a third of its bound.  setup_s is reported but exempt:
its bound only limits how far the median may move.  Runs go one at a time.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

import measure  # noqa: E402


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    start = time.perf_counter()
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    elapsed = time.perf_counter() - start
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} exited {proc.returncode}: {proc.stderr[-600:]}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    result["elapsed_s"] = elapsed
    return result


def summarize(results: list[dict], specs: dict) -> dict:
    out = {}
    for name, spec in specs.items():
        values = [r["metrics"][name]["value"] for r in results if name in r["metrics"]]
        if not values:
            continue
        q1, med, q3 = measure.quartiles(values)
        row = {"median": med, "q1": q1, "q3": q3, "n": len(values), "unit": spec["unit"], "values": values}
        if "bound" in spec:
            row["spread"] = measure.spread(values)
            row["bound"] = spec["bound"]
        out[name] = row
    return out


def main(argv=None) -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workloads", default=",".join(w["name"] for w in bench["workloads"]))
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=bench["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", help="also write the summary as JSON to this file")
    args = parser.parse_args(argv)
    measure.pin_threads(os.environ)
    key = "per_layer" if args.trace else "end_to_end"
    specs = {m["name"]: m for m in bench[key]}
    report = {"machine": measure.machine(), "runs": args.runs, "first_seed": args.first_seed,
              "seconds": args.seconds, "trace": args.trace, "workloads": {}}
    print(f"machine: {json.dumps(report['machine'], sort_keys=True)}")
    steady = True
    for workload in args.workloads.split(","):
        results = []
        for seed in range(args.first_seed, args.first_seed + args.runs):
            result = run_once(workload, seed, args.seconds, args.trace)
            print(f"  {workload} seed={seed} correct={result['correct']} failed={result['failed']}/"
                  f"{result['attempted']} in {result['elapsed_s']:.1f} s", flush=True)
            results.append(result)
        summary = summarize(results, specs)
        report["workloads"][workload] = {
            "metrics": summary,
            "correct": [r["correct"] for r in results],
            "failed": [r["failed"] for r in results],
            "attempted": [r["attempted"] for r in results],
            "elapsed_s": [r["elapsed_s"] for r in results],
        }
        print(f"{workload}: {len(results)} runs, seeds {args.first_seed}..{args.first_seed + args.runs - 1}")
        for name, row in summary.items():
            line = f"  {name:<36} median {row['median']:.6g} {row['unit']}  q1 {row['q1']:.6g}  q3 {row['q3']:.6g}"
            if "bound" in row:
                ratio = row["spread"] / row["bound"]
                verdict = "exempt" if name == "setup_s" else ("steady" if ratio < 1 / 3 else "TOO WIDE")
                steady &= verdict != "TOO WIDE"
                line += f"  spread {row['spread']:.4f} = {ratio:.2f} x bound {row['bound']}  {verdict}"
            print(line)
    if args.out:
        Path(args.out).write_text(json.dumps(report, indent=1))
    print("all end-to-end spreads below a third of their bounds" if steady else "some spreads are too wide")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
