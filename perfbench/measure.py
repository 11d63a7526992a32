"""Statistics, outcome accounting and machine description for the benchmark.

Everything here is pure Python so the tests can check it without the
library: the percentile rule, quartile spreads, and how ops are counted as
failed, known-defect or certified.
"""

from __future__ import annotations

import math
import os
import platform
import statistics
import time
from dataclasses import dataclass, field


# ---------------------------------------------------------------------------
# Percentiles
# ---------------------------------------------------------------------------

MIN_BEYOND = 10  # a tail percentile is reported only with this many samples past it


def percentile(values, q: float) -> float:
    """Nearest-rank percentile: the smallest sample with at least a share q
    of all samples at or below it."""
    if not values:
        raise ValueError("percentile of no samples")
    if not 0.0 < q <= 1.0:
        raise ValueError(f"percentile share must be in (0, 1], got {q}")
    ordered = sorted(values)
    rank = math.ceil(q * len(ordered) - 1e-9)
    return ordered[max(rank, 1) - 1]


def beyond(n: int, q: float) -> int:
    """How many of n samples lie strictly past the nearest-rank q percentile."""
    return n - max(math.ceil(q * n - 1e-9), 1)


def tail_percentile(values, q: float = 0.9):
    """The q percentile, or None when fewer than MIN_BEYOND samples lie past it."""
    if beyond(len(values), q) < MIN_BEYOND:
        return None
    return percentile(values, q)


def quartiles(values) -> tuple[float, float, float]:
    """(q1, median, q3) as statistics.quantiles(values, n=4) gives them."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(values) -> float:
    """Distance between the quartiles as a share of the median."""
    q1, q2, q3 = quartiles(values)
    return (q3 - q1) / abs(q2) if q2 else math.inf


# ---------------------------------------------------------------------------
# Op outcomes
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Outcome:
    """What one op returned, judged against its oracle.

    ok: the output is correct (value within bound of the reference, right exit
    code, right certificate, identical bytes).  certifiable: the op returns a
    truncation bound against a tolerance it requested.  certified: that bound
    meets the requested tolerance.
    """

    ok: bool
    certifiable: bool = False
    certified: bool = False
    detail: str = ""


def failed(detail: str, certifiable: bool = False) -> Outcome:
    return Outcome(ok=False, certifiable=certifiable, certified=False, detail=detail)


@dataclass
class Tally:
    """Counts over the ops of the timed passes."""

    attempted: int = 0
    failed: int = 0
    known_failed: int = 0
    certifiable: int = 0
    certified: int = 0
    failures: dict = field(default_factory=dict)  # op name -> first detail
    uncertified: dict = field(default_factory=dict)  # op name -> first detail

    def add(self, name: str, outcome: Outcome, known_defect: str = "") -> None:
        self.attempted += 1
        if outcome.certifiable:
            self.certifiable += 1
            if outcome.certified:
                self.certified += 1
            else:
                self.uncertified.setdefault(name, outcome.detail)
        if not outcome.ok:
            self.failed += 1
            if known_defect:
                self.known_failed += 1
                self.failures.setdefault(name, f"known defect ({known_defect}): {outcome.detail}")
            else:
                self.failures.setdefault(name, outcome.detail)

    @property
    def failed_frac(self) -> float:
        return self.failed / self.attempted if self.attempted else 0.0

    @property
    def certified_frac(self) -> float:
        return self.certified / self.certifiable if self.certifiable else 1.0

    @property
    def correct(self) -> bool:
        """No op failed except those registered as known defects.

        Known-defect failures still count in ``failed`` and ``failed_frac``;
        they only keep a defect that exists at the parent commit from
        hiding a new one behind an always-false flag.
        """
        return self.failed == self.known_failed


# ---------------------------------------------------------------------------
# Machine speed
# ---------------------------------------------------------------------------

# Median time of each calibration kernel on the reference machine (2-core
# Intel Xeon VM, Python 3.11, numpy 2.4 with OpenBLAS on one thread).
CALIBRATION_REF_S = {"arrays": 0.007, "calls": 0.006}
CALIBRATION_INTERVAL_S = 0.5  # at most this much measured time between samples


class Calibration:
    """Fixed kernels, independent of the library, timed between ops.

    The host's speed drifts by up to 1.5x in phases lasting seconds to
    minutes, and no statistic over a 10-second run removes that.  Each op
    time is scaled by the ratio of the kernels' reference time to their time
    measured next to it, which expresses it in seconds at the reference
    speed.  Two kernels track different kinds of work: "arrays" (elementwise
    exp/log on float and complex arrays, reductions, math.fsum over a list
    made from an array, a Python loop) and "calls" (many small numpy calls,
    like the per-call overhead of cheap evaluations).  A workload names the
    ones that track it.
    """

    def __init__(self, parts=("arrays", "calls")) -> None:
        import numpy as np

        self.np = np
        self.parts = tuple(parts)
        self.ref = sum(CALIBRATION_REF_S[p] for p in self.parts)
        self.x = np.linspace(1.0, 2.0, 1 << 16)
        self.small = np.arange(1.0, 65.0)
        self.times: list[float] = []  # when each sample was taken
        self.samples: list[float] = []  # summed kernel time of each sample
        self.last = -math.inf

    def arrays(self) -> float:
        np = self.np
        acc = float(np.sum(np.exp(-2.5 * np.log(self.x))))
        acc += abs(complex(np.sum(np.exp(1j * self.x))))
        acc += math.fsum(np.cos(self.x).tolist())
        for i in range(20000):
            acc += i * 0.5
        return acc

    def calls(self) -> float:
        acc = 0.0
        for i in range(1400):
            acc += float(self.np.sum(self.small ** -2.0)) + complex(i, 1.0).real
        return acc

    def sample(self) -> None:
        clock = time.perf_counter
        total = 0.0
        for part in self.parts:
            start = clock()
            getattr(self, part)()
            total += clock() - start
        self.last = clock()
        self.times.append(self.last)
        self.samples.append(total)

    def maybe_sample(self) -> None:
        if time.perf_counter() - self.last >= CALIBRATION_INTERVAL_S:
            self.sample()

    def factor(self, at: float | None = None, near: int = 5) -> float:
        """Multiply a time measured at ``at`` (all samples when None) by this
        to get reference seconds: reference over the median of the samples
        nearest in time."""
        if at is None:
            chosen = self.samples
        else:
            order = sorted(range(len(self.times)), key=lambda i: abs(self.times[i] - at))
            chosen = [self.samples[i] for i in order[:near]]
        return self.ref / statistics.median(chosen)


# ---------------------------------------------------------------------------
# Machine description
# ---------------------------------------------------------------------------

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


def pin_threads(env) -> None:
    """Pin BLAS and OpenMP pools to one thread; numpy reads these at import."""
    for var in THREAD_VARS:
        env[var] = "1"


def machine() -> dict:
    info = {
        "nproc": os.cpu_count(),
        "cpu": _cpu_model(),
        "python": platform.python_version(),
        "threads": {var: os.environ.get(var) for var in THREAD_VARS},
    }
    try:
        import numpy as np

        info["numpy"] = np.__version__
        blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
        info["blas"] = f"{blas.get('name', '?')} {blas.get('version', '?')}"
    except Exception as exc:  # describing the machine must not stop a run
        info["numpy"] = f"unavailable: {exc}"
    return info


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"
