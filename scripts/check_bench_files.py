#!/usr/bin/env python3
"""Check every BENCH_<n>.json at the repository root against BENCHMARK.json.

Each file must have a `claimed_gain` key (an object, or null when no gain is
claimed) and, for every workload and every end-to-end metric that
BENCHMARK.json declares, a finite parent and change median under
workloads.<workload>.metrics.<metric>.<parent|change>.median.

Usage (from the repository root): python3 scripts/check_bench_files.py
Exits 1 and lists what is missing when a file falls short, or when there is
no BENCH_<n>.json at all.
"""

from __future__ import annotations

import json
import math
import re
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def problems(path: Path, workloads: list[str], metrics: list[str]) -> list[str]:
    bench = json.loads(path.read_text())
    found = []
    gain = bench.get("claimed_gain", "missing")
    if not (gain is None or isinstance(gain, dict)):
        found.append(f"{path.name}: claimed_gain must be an object or null, got {gain!r}")
    for workload in workloads:
        for metric in metrics:
            for side in ("parent", "change"):
                try:
                    median = bench["workloads"][workload]["metrics"][metric][side]["median"]
                except (KeyError, TypeError):
                    median = None
                if isinstance(median, bool) or not isinstance(median, (int, float)) or not math.isfinite(median):
                    found.append(f"{path.name}: no finite {side} median of {metric} on {workload}")
    return found


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = [w["name"] for w in spec["workloads"]]
    metrics = [m["name"] for m in spec["end_to_end"]]
    files = sorted(
        (p for p in ROOT.glob("BENCH_*.json") if re.fullmatch(r"BENCH_\d+\.json", p.name)),
        key=lambda p: int(p.stem.split("_")[1]),
    )
    if not files:
        print("no BENCH_<n>.json at the repository root")
        return 1
    found = [line for path in files for line in problems(path, workloads, metrics)]
    for line in found:
        print(line)
    print(f"checked {', '.join(p.name for p in files)}: {len(found)} problems")
    return 1 if found else 0


if __name__ == "__main__":
    sys.exit(main())
