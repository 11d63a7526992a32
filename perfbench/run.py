#!/usr/bin/env python3
"""Benchmark of the shintani library and CLI: wall time to a certified tolerance.

Usage (from the repository root):

    python3 perfbench/run.py --workload eval-mix --seed 1 --seconds 10 --trace 0

Workloads: eval-mix, dist-cf, zero-scan (library calls from this process)
and cli-cold (one fresh CLI process per op).  The seed generates every input.
A run builds the configs, runs one untimed warm-up pass (for cli-cold: the
reference pass), then repeats timed passes over the op list in a closed loop
until --seconds have passed, and checks every op's output against its oracle
and against the bytes of the warm-up pass.

With --trace 0 the last line of stdout is a JSON object with the end-to-end
metrics; with --trace 1 half the time runs untraced and half traced, and the
metrics are the per-layer ones plus the tracing overhead.  The lines before
it are a readable report with units and sample counts.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".perfbench"

import layers  # noqa: E402
import measure  # noqa: E402
from measure import Outcome, Tally, failed  # noqa: E402

WORKLOADS = ("eval-mix", "dist-cf", "zero-scan", "cli-cold")
P90_MIN_OPS = 100  # op_s.p90 only where one pass has this many ops

# name -> unit; BENCHMARK.json lists the same metrics
END_TO_END = {
    "wall_s": "s",
    "op_s.p50": "s",
    "setup_s": "s",
    "certified_frac": "ratio",
    "peak_rss_mb": "MB",
}


class SetupError(Exception):
    """The checkout cannot run the benchmark (no library sources)."""


def library_sources() -> Path:
    src = ROOT / "src"
    if not (src / "shintani" / "__init__.py").is_file():
        raise SetupError(f"no library sources at {src / 'shintani'}")
    return src


def import_library() -> float:
    """Import shintani from this checkout's src/; returns the import time."""
    src = library_sources()
    sys.path.insert(0, str(src))
    start = time.perf_counter()
    import shintani
    import shintani.cli  # noqa: F401

    elapsed = time.perf_counter() - start
    if Path(shintani.__file__).resolve().parent != (src / "shintani").resolve():
        raise SetupError(f"shintani imported from {shintani.__file__}, not from {src}")
    return elapsed


def make_workload(name: str, seed: int):
    if name == "cli-cold":
        from cli_cold import CliCold

        return CliCold(seed, ROOT, WORK / f"cli-{seed}-{os.getpid()}")
    import library

    return library.WORKLOADS[name](seed)


# ---------------------------------------------------------------------------
# Passes
# ---------------------------------------------------------------------------

def run_pass(ops, calibration) -> tuple[float, list, dict]:
    """One closed-loop pass: each op starts when the previous one returns,
    apart from calibration samples taken between ops.  Returns the pass wall
    time without them, (seconds, result, error, midpoint) per op, and ctx."""
    ctx: dict = {}
    rows = []
    clock = time.perf_counter
    wall = 0.0
    for op in ops:
        calibration.maybe_sample()
        t0 = clock()
        try:
            result, error = op.run(ctx), None
        except Exception as exc:  # an op that raises counts as failed
            result, error = None, f"raised {type(exc).__name__}: {exc}"
        t1 = clock()
        wall += t1 - t0
        rows.append((t1 - t0, result, error, (t0 + t1) / 2))
        if op.key and error is None:
            ctx[op.key] = result
    return wall, rows, ctx


def judge(op, row, ctx, reference_digest) -> Outcome:
    from ops import digest

    result, error = row[1], row[2]
    if error is not None:
        return failed(error)
    try:
        outcome = op.check(result, ctx)
    except Exception as exc:  # a malformed output counts as failed
        return failed(f"check raised {type(exc).__name__}: {exc}")
    if reference_digest is not None and digest(result) != reference_digest:
        return failed("output differs bit for bit from the warm-up pass", outcome.certifiable)
    return outcome


class Timer:
    """Timed passes and what they produced."""

    def __init__(self, ops, reference_digests, calibration) -> None:
        self.ops = ops
        self.reference = reference_digests
        self.calibration = calibration
        self.tally = Tally()
        self.walls: list[float] = []
        self.op_times: list[float] = []
        self.pass_times: list[list[tuple[float, float]]] = []  # per pass: (seconds, midpoint) per op

    def passes(self, seconds: float, before=None, after=None) -> list[float]:
        walls = []
        start = time.perf_counter()
        while not walls or time.perf_counter() - start < seconds:
            self.calibration.maybe_sample()
            if before:
                before()
            wall, rows, ctx = run_pass(self.ops, self.calibration)
            if after:
                after()
            walls.append(wall)
            self.pass_times.append([(row[0], row[3]) for row in rows])
            for op, row, ref in zip(self.ops, rows, self.reference):
                self.op_times.append(row[0])
                self.tally.add(op.name, judge(op, row, ctx, ref), op.known_defect)
            del rows, ctx
        self.calibration.sample()
        self.walls.extend(walls)
        return walls


    def reference_seconds(self) -> tuple[float, list[float]]:
        """One pass in reference seconds, each op at its median over the timed
        passes, and every timed op time; each time is scaled by the
        calibration samples next to it."""
        factor = self.calibration.factor
        scaled = [[seconds * factor(mid) for seconds, mid in times] for times in self.pass_times]
        wall = sum(statistics.median(column) for column in zip(*scaled))
        return wall, [t for row in scaled for t in row]


def warm_up(ops, calibration) -> tuple[float, list]:
    from ops import digest

    wall, rows, _ = run_pass(ops, calibration)
    return wall, [None if row[2] else digest(row[1]) for row in rows]


def setup_probe(name: str, seed: int) -> float:
    """Import and config construction in a fresh process."""
    out = subprocess.run(
        [sys.executable, str(Path(__file__)), "--workload", name, "--seed", str(seed), "--setup-probe"],
        capture_output=True, text=True, timeout=120, cwd=ROOT,
    )
    if out.returncode != 0:
        raise SetupError(f"set-up probe failed: {out.stderr.strip()[-400:]}")
    return json.loads(out.stdout.strip().splitlines()[-1])["setup_s"]


# ---------------------------------------------------------------------------
# Runs
# ---------------------------------------------------------------------------

def run(name: str, seed: int, seconds: float, trace: bool) -> dict:
    library_workload = name != "cli-cold"
    if library_workload:
        import_s = import_library()
    else:
        library_sources()  # the CLI children import it; fail before any run
        import_s = 0.0
    wl = make_workload(name, seed)
    calibration = measure.Calibration(wl.calibration)
    calibration.sample()
    tracer = layers.Tracer() if trace else None
    if tracer and library_workload:
        tracer.install(layers.HOOKS)
    start = time.perf_counter()
    wl.configure()
    configs_s = time.perf_counter() - start
    setup_summary = None
    if tracer and library_workload:
        tracer.uninstall()
        setup_summary = tracer.summary()
        tracer.reset()
    ops = wl.ops()  # references are computed here, outside every timed region

    setup_samples = [import_s + configs_s]
    if library_workload and not trace:
        setup_samples += [setup_probe(name, seed) for _ in range(2)]
    warmup_s, reference = warm_up(ops, calibration)
    calibration.sample()
    setup_factor = calibration.factor()

    timer = Timer(ops, reference, calibration)
    report: dict = {"workload": name, "seed": seed, "trace": int(trace), "ops_per_pass": len(ops)}
    if not trace:
        timer.passes(seconds)
        report["setup"] = {
            "samples": setup_samples,
            "import_configs_s": statistics.median(setup_samples),
            "warmup_s": warmup_s,
        }
        report["setup_s"] = statistics.median(setup_samples) + warmup_s
        report["setup_factor"] = setup_factor
    else:
        untraced = timer.passes(seconds / 2)
        if library_workload:
            traced = timer.passes(seconds / 2, lambda: tracer.install(layers.HOOKS), tracer.uninstall)
            summary = tracer.summary()
            spec_s = setup_summary["time"].get("coefficients.spec", 0.0)
            span_sets = [tracer.spans]
        else:
            wl.traced = True
            traced = timer.passes(seconds / 2)
            wl.traced = False
            summary = layers.merge_summaries(s for s in wl.child_summaries if "missing" not in s)
            spec_s = summary["time"].get("coefficients.spec", 0.0) / len(traced)
            span_sets = [s.get("spans", []) for s in wl.child_summaries]
            if any("missing" in s for s in wl.child_summaries):
                timer.tally.add("cli trace summary", failed("a traced child wrote no summary"))
        overhead = statistics.median(traced) / statistics.median(untraced) - 1.0
        values = layers.layer_metrics(summary, len(traced), spec_s, overhead)
        factor = calibration.factor()
        scale = {"s": factor, "1/s": 1.0 / factor}
        report["layers"] = {
            name: v * scale.get(layers.LAYER_METRICS[name][0], 1.0) for name, v in values.items()
        }
        report["unmeasured"] = layers.unmeasured_metrics(summary["unmeasured"])
        report["traced_passes"] = len(traced)
        write_spans(name, seed, span_sets)
    if library_workload:
        report["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    else:
        report["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0
    report["timer"] = timer
    if not library_workload:
        shutil.rmtree(wl.workdir, ignore_errors=True)
    return report


def write_spans(name: str, seed: int, span_sets) -> None:
    WORK.mkdir(exist_ok=True)
    rows = []
    for process, spans in enumerate(span_sets):
        for span in spans:
            row = span if isinstance(span, list) else [span.name, span.start, span.end, span.parent]
            rows.append([process, *row])
    with open(WORK / f"spans-{name}-seed{seed}.json", "w") as fh:
        json.dump({"columns": ["process", "name", "start", "end", "parent"], "spans": rows}, fh)


def end_to_end(report: dict) -> tuple[dict, list[str]]:
    """Timings in reference seconds (see measure.Calibration), with the raw
    values and sample counts in the notes."""
    timer: Timer = report["timer"]
    tally = timer.tally
    wall, op_times = timer.reference_seconds()
    n_ops = len(op_times)
    setup = report["setup"]
    k_setup = report["setup_factor"]
    raw_wall, raw_p50 = statistics.median(timer.walls), statistics.median(timer.op_times)
    values = {
        "wall_s": (wall, f"each op at its median over {len(timer.walls)} timed passes "
                         f"(raw median pass {raw_wall:.4f} s)"),
        "op_s.p50": (statistics.median(op_times), f"median of {n_ops} ops (raw {raw_p50:.6f} s)"),
        "setup_s": (
            report["setup_s"] * k_setup,
            f"raw {report['setup_s']:.4f} s: import + configs, median of {len(setup['samples'])} "
            f"({setup['import_configs_s']:.4f} s), + warm-up pass ({setup['warmup_s']:.4f} s)",
        ),
        "certified_frac": (tally.certified_frac, f"{tally.certified} of {tally.certifiable} certifiable ops"),
        "peak_rss_mb": (report["peak_rss_mb"], "peak resident set of the workload's process(es)"),
    }
    extra = {}
    if report["ops_per_pass"] >= P90_MIN_OPS:
        p90 = measure.tail_percentile(op_times, 0.9)
        raw_p90 = measure.tail_percentile(timer.op_times, 0.9)
        extra["op_s.p90"] = (
            p90, f"of {n_ops} ops, {measure.beyond(n_ops, 0.9)} beyond (raw {raw_p90:.6f} s)", "s"
        )
    extra["failed_frac"] = (
        tally.failed_frac,
        f"{tally.failed} of {tally.attempted} ops ({tally.known_failed} known-defect)",
        "ratio",
    )
    cal = timer.calibration
    lines = [
        f"  calibration ({'+'.join(cal.parts)}): median {statistics.median(cal.samples):.5f} s over "
        f"{len(cal.samples)} samples, run factor {cal.factor():.4f} to reference seconds"
    ]
    lines += [f"  {name:<16} {v:.6g} {END_TO_END[name]:<6} {note}" for name, (v, note) in values.items()]
    lines += [f"  {name:<16} {v:.6g} {unit:<6} {note}" for name, (v, note, unit) in extra.items()]
    return {name: v for name, (v, _) in values.items()}, lines


def print_report(report: dict) -> dict:
    timer: Timer = report["timer"]
    tally = timer.tally
    m = measure.machine()
    print(f"perfbench {report['workload']} seed={report['seed']} trace={report['trace']} "
          f"ops/pass={report['ops_per_pass']} passes={len(timer.walls)}")
    print(f"  machine: {json.dumps(m, sort_keys=True)}")
    if report["trace"]:
        metrics = report["layers"]
        for k, v in metrics.items():
            flag = "  (unmeasured: hooked name missing)" if k in report["unmeasured"] else ""
            print(f"  {k:<36} {v:.6g} {layers.LAYER_METRICS[k][0]}{flag}")
        print(f"  per traced pass, {report['traced_passes']} traced passes")
        units = {k: layers.LAYER_METRICS[k][0] for k in metrics}
    else:
        metrics, lines = end_to_end(report)
        print("\n".join(lines))
        units = END_TO_END
    for op_name, detail in tally.failures.items():
        print(f"  FAILED {op_name}: {detail}")
    for op_name, detail in tally.uncertified.items():
        print(f"  uncertified {op_name}: {detail}")
    return {k: {"value": v, "unit": units[k]} for k, v in metrics.items()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    measure.pin_threads(os.environ)
    try:
        if args.setup_probe:
            import_s = import_library()
            wl = make_workload(args.workload, args.seed)
            start = time.perf_counter()
            wl.configure()
            print(json.dumps({"setup_s": import_s + time.perf_counter() - start}))
            return 0
        report = run(args.workload, args.seed, args.seconds, bool(args.trace))
    except SetupError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    except Exception:
        traceback.print_exc()
        return 1
    metrics = print_report(report)
    WORK.mkdir(exist_ok=True)
    timer = report["timer"]
    with open(WORK / f"times-{args.workload}-seed{args.seed}-trace{args.trace}.json", "w") as fh:
        json.dump({"pass_walls": timer.walls, "op_times": timer.pass_times,
                   "calibration": [timer.calibration.times, timer.calibration.samples],
                   "ops": [op.name for op in timer.ops]}, fh)
    tally = report["timer"].tally
    result = {
        "correct": tally.correct,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
