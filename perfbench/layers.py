"""Per-layer tracing from outside the library.

The traced run replaces module attributes of ``shintani`` with timing
pass-throughs.  Each pass-through opens a span (name, start, end, parent)
and may add to counters at the same boundary.  Names that other modules
bound with ``from ... import`` are replaced at each of those call sites too,
but only where the site still holds the same object.

A hooked name the library no longer has is reported as an unmeasured layer;
the run carries on without it.
"""

from __future__ import annotations

import importlib
import os
import time
from collections import Counter

_clock = time.perf_counter


class Span:
    __slots__ = ("name", "start", "end", "parent", "child_time", "child_names")

    def __init__(self, name: str, start: float, parent: int) -> None:
        self.name = name
        self.start = start
        self.end = start
        self.parent = parent
        self.child_time = 0.0
        self.child_names: set[str] = set()


class Tracer:
    """Spans and counters of one process, kept in memory."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.stack: list[int] = []
        self.counts: Counter = Counter()
        self.unmeasured: list[str] = []
        self._undo: list[tuple] = []

    # -- spans ---------------------------------------------------------------

    def open(self, name: str) -> Span:
        parent = self.stack[-1] if self.stack else -1
        span = Span(name, _clock(), parent)
        self.stack.append(len(self.spans))
        self.spans.append(span)
        return span

    def close(self, span: Span) -> None:
        span.end = _clock()
        self.stack.pop()
        if span.parent >= 0:
            parent = self.spans[span.parent]
            parent.child_time += span.end - span.start
            parent.child_names.add(span.name)

    def inside(self, name: str) -> bool:
        """True when a span of this name is open."""
        return any(self.spans[i].name == name for i in self.stack)

    def nearest(self, names) -> str | None:
        for i in reversed(self.stack):
            if self.spans[i].name in names:
                return self.spans[i].name
        return None

    # -- installation ----------------------------------------------------------

    def install(self, hooks) -> None:
        """Replace each hooked attribute; remember how to undo it."""
        for hook in hooks:
            if not hook.install(self):
                self.unmeasured.append(hook.layer)

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def replace(self, owner, attr: str, new) -> None:
        # a class keeps its own descriptor (staticmethod) so undo restores it as is
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        self._undo.append((owner, attr, original))
        setattr(owner, attr, new)

    # -- results ---------------------------------------------------------------

    def summary(self) -> dict:
        """Raw sums: outermost time and self time per span name, and counters."""
        return {
            "time": span_totals(self.spans),
            "self": self_times(self.spans),
            "counts": dict(self.counts),
            "unmeasured": sorted(set(self.unmeasured)),
        }

    def reset(self) -> None:
        self.spans.clear()
        self.stack.clear()
        self.counts.clear()


def span_totals(spans) -> dict[str, float]:
    """Time per name, counting a span only when no ancestor has its name."""
    out: dict[str, float] = {}
    for span in spans:
        parent, nested = span.parent, False
        while parent >= 0:
            if spans[parent].name == span.name:
                nested = True
                break
            parent = spans[parent].parent
        if not nested:
            out[span.name] = out.get(span.name, 0.0) + (span.end - span.start)
    return out


def self_times(spans) -> dict[str, float]:
    """Span duration minus the time its child spans cover, summed per name."""
    out: dict[str, float] = {}
    for span in spans:
        out[span.name] = out.get(span.name, 0.0) + (span.end - span.start - span.child_time)
    return out


# ---------------------------------------------------------------------------
# Hooks
# ---------------------------------------------------------------------------

class Hook:
    """One library name to wrap: ``module.attr`` (attr may be ``Class.method``),
    plus the other modules that bound the same object by name."""

    def __init__(self, layer: str, module: str, attr: str, make, also=(), kind: str = "function"):
        self.layer = layer
        self.module = module
        self.attr = attr
        self.make = make  # (tracer, original) -> replacement
        self.also = also
        self.kind = kind  # function, staticmethod or method

    def install(self, tracer: Tracer) -> bool:
        try:
            owner = importlib.import_module(self.module)
        except ImportError:
            return False
        path = self.attr.split(".")
        for part in path[:-1]:
            owner = getattr(owner, part, None)
            if owner is None:
                return False
        name = path[-1]
        original = getattr(owner, name, None)
        if original is None or getattr(original, "__perfbench_wrapped__", False):
            return original is not None
        wrapper = self.make(tracer, original)
        wrapper.__perfbench_wrapped__ = True
        if self.kind == "staticmethod":
            tracer.replace(owner, name, staticmethod(wrapper))
        else:
            tracer.replace(owner, name, wrapper)
        for other in self.also:
            try:
                site = importlib.import_module(other)
            except ImportError:
                continue
            if getattr(site, name, None) is original:
                tracer.replace(site, name, wrapper)
        return True


def _span(name: str, before=None, after=None):
    """Factory of a span wrapper; before/after may add counters."""

    def make(tracer: Tracer, fn):
        def wrapper(*args, **kwargs):
            if before is not None:
                before(tracer, args, kwargs)
            span = tracer.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.close(span)
            if after is not None:
                after(tracer, span, args, kwargs, result)
            return result

        return wrapper

    return make


def _count_calls(name: str):
    def make(tracer: Tracer, fn):
        def wrapper(*args, **kwargs):
            tracer.counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    return make


class _TimedBlocks:
    """Iterator whose every next() is a series.enumerate span."""

    def __init__(self, tracer: Tracer, blocks) -> None:
        self.tracer = tracer
        self.inner = iter(blocks)

    def __iter__(self):
        return self

    def __next__(self):
        span = self.tracer.open("series.enumerate")
        try:
            block = next(self.inner)
        finally:
            self.tracer.close(span)
        self.tracer.counts["series.points"] += int(block.shape[0])
        return block


def _blocks_hook(tracer: Tracer, fn):
    def wrapper(*args, **kwargs):
        return _TimedBlocks(tracer, fn(*args, **kwargs))

    return wrapper


def _powers_before(tracer, args, kwargs):
    forms = args[0] if args else kwargs["forms"]
    is_real = args[2] if len(args) > 2 else kwargs["is_real"]
    key = "series.powers.real_points" if is_real else "series.powers.complex_points"
    tracer.counts[key] += int(forms.shape[0])


def _theta_before(tracer, args, kwargs):
    if not tracer.inside("coefficients.theta"):
        points = args[1] if len(args) > 1 else kwargs["points"]
        tracer.counts["coefficients.theta.points"] += int(len(points))


def _exact_before(tracer, args, kwargs):
    values = args[0] if args else kwargs["values"]
    tracer.counts["summation.exact.values"] += int(len(values))


def _build_after(tracer, span, args, kwargs, result):
    tracer.counts["distributions.atoms"] += int(result.atom_count)


def _merge_after(tracer, span, args, kwargs, result):
    tracer.counts["distributions.merge.in"] += int(len(args[1]))
    tracer.counts["distributions.merge.kept"] += int(len(result[1]))


def _atom_cf_before(tracer, args, kwargs):
    dist = args[0] if args else kwargs["dist"]
    tracer.counts["distributions.atom_cf.atom_evals"] += int(dist.atom_count)


def _scan_after(tracer, span, args, kwargs, result):
    tracer.counts["zeros.confirmed"] += len(result.confirmed)


def _coeff_after(tracer, span, args, kwargs, result):
    tracer.counts["arithmetic.coeff_array.calls"] += 1
    if "arithmetic.sieve" in span.child_names:
        tracer.counts["arithmetic.coeff_array.misses"] += 1


def _emit_after(tracer, span, args, kwargs, result):
    path = args[2] if len(args) > 2 else kwargs["path"]
    tracer.counts["config_io.emit_csv.bytes"] += os.path.getsize(path)


def _zero_evals(tracer: Tracer, fn):
    """Counts evaluations made by the zeros module, by the refine or winding
    span they happen in."""

    def wrapper(*args, **kwargs):
        where = tracer.nearest(("zeros.refine", "zeros.winding"))
        if where is not None:
            tracer.counts[where + ".evals"] += 1
        return fn(*args, **kwargs)

    return wrapper


SPEC_CONSTRUCTORS = (
    "constant", "finite_support", "periodic", "geometric", "log_factor",
    "character_product", "product", "multiplicative_product", "poisson_powers",
)

S, CO, SU, D, Z, A, E, IO, CLI = (
    "shintani." + m
    for m in ("series", "coefficients", "summation", "distributions", "zeros",
              "arithmetic", "euler", "config_io", "cli")
)

HOOKS = [
    Hook("series.powers", S, "_form_powers", _span("series.powers", before=_powers_before), also=(D,)),
    Hook("series.enumerate", S, "_blocks_upto", _blocks_hook),
    Hook("series.sum", S, "_sum_terms", _span("series.sum")),
    Hook("series.shell_choice", S, "_choose_shell", _span("series.shell_choice")),
    Hook("series.tail_bound", S, "_tail_bound", _count_calls("series.tail_bound.calls"), also=(D,)),
    Hook("coefficients.theta", CO, "theta_values", _span("coefficients.theta", before=_theta_before)),
    *[
        Hook("coefficients.spec", CO, f"CoefficientSpec.{name}", _span("coefficients.spec"),
             kind="staticmethod")
        for name in SPEC_CONSTRUCTORS
    ],
    Hook("summation.accumulate", SU, "CompensatedSum.add_array", _span("summation.accumulate"),
         kind="method"),
    Hook("summation.exact", SU, "exact_complex_sum", _span("summation.exact", before=_exact_before),
         also=(D,)),
    Hook("summation.exact", SU, "exact_real_sum", _span("summation.exact", before=_exact_before),
         also=(D,)),
    Hook("distributions.build", D, "build_distribution",
         _span("distributions.build", after=_build_after), also=(Z,)),
    Hook("distributions.merge", D, "_merge_atoms", _span("distributions.merge", after=_merge_after)),
    Hook("distributions.atom_cf", D, "atom_cf", _span("distributions.atom_cf", before=_atom_cf_before)),
    Hook("distributions.sample", D, "sample", _span("distributions.sample")),
    Hook("distributions.moment", D, "moment", _span("distributions.moment")),
    Hook("distributions.empirical_cf", D, "empirical_cf", _span("distributions.empirical_cf")),
    Hook("zeros.scan", Z, "scan_cf_zeros", _span("zeros.scan", after=_scan_after)),
    Hook("zeros.refine", Z, "_refine_zero", _span("zeros.refine")),
    Hook("zeros.winding", Z, "_winding_rect", _span("zeros.winding")),
    Hook("zeros.evals", Z, "evaluate", _zero_evals),
    Hook("arithmetic.coeff_array", A, "coefficient_array",
         _span("arithmetic.coeff_array", after=_coeff_after), also=(CO,)),
    Hook("arithmetic.sieve", A, "sieve_primes", _span("arithmetic.sieve"), also=(E,)),
    Hook("euler.product", E, "evaluate_euler", _span("euler.product")),
    Hook("config_io.parse", IO, "parse_config", _span("config_io.parse"), also=(CLI,)),
    Hook("config_io.emit_csv", IO, "emit_csv", _span("config_io.emit_csv", after=_emit_after),
         also=(CLI,)),
    Hook("cli.run", CLI, "run_command", _span("cli.run")),
]


# ---------------------------------------------------------------------------
# Layer metrics
# ---------------------------------------------------------------------------

# metric name -> (unit, hook layers it needs)
LAYER_METRICS = {
    "series.powers.s": ("s", ("series.powers",)),
    "series.powers.real_points": ("count", ("series.powers",)),
    "series.powers.complex_points": ("count", ("series.powers",)),
    "series.enumerate.s": ("s", ("series.enumerate",)),
    "series.points": ("count", ("series.enumerate",)),
    "series.sum.self_s": ("s", ("series.sum",)),
    "series.points_per_s": ("1/s", ("series.sum", "series.enumerate")),
    "series.shell_choice.s": ("s", ("series.shell_choice",)),
    "series.tail_bound.calls": ("count", ("series.tail_bound",)),
    "coefficients.theta.s": ("s", ("coefficients.theta",)),
    "coefficients.theta.points": ("count", ("coefficients.theta",)),
    "coefficients.spec.s": ("s", ("coefficients.spec",)),
    "summation.accumulate.s": ("s", ("summation.accumulate",)),
    "summation.exact.s": ("s", ("summation.exact",)),
    "summation.exact.values": ("count", ("summation.exact",)),
    "distributions.build.s": ("s", ("distributions.build",)),
    "distributions.atoms": ("count", ("distributions.build",)),
    "distributions.merge.s": ("s", ("distributions.merge",)),
    "distributions.merge.kept_ratio": ("ratio", ("distributions.merge",)),
    "distributions.atom_cf.s": ("s", ("distributions.atom_cf",)),
    "distributions.atom_cf.atom_evals": ("count", ("distributions.atom_cf",)),
    "distributions.sample.s": ("s", ("distributions.sample",)),
    "distributions.moment.s": ("s", ("distributions.moment",)),
    "distributions.empirical_cf.s": ("s", ("distributions.empirical_cf",)),
    "zeros.scan.self_s": ("s", ("zeros.scan",)),
    "zeros.refine.s": ("s", ("zeros.refine",)),
    "zeros.refine.evals": ("count", ("zeros.refine", "zeros.evals")),
    "zeros.winding.s": ("s", ("zeros.winding",)),
    "zeros.winding.evals": ("count", ("zeros.winding", "zeros.evals")),
    "zeros.evals_per_confirmed": ("ratio", ("zeros.scan", "zeros.evals")),
    "arithmetic.coeff_array.s": ("s", ("arithmetic.coeff_array",)),
    "arithmetic.coeff_array.miss_ratio": ("ratio", ("arithmetic.coeff_array", "arithmetic.sieve")),
    "arithmetic.sieve.s": ("s", ("arithmetic.sieve",)),
    "euler.product.s": ("s", ("euler.product",)),
    "config_io.parse.s": ("s", ("config_io.parse",)),
    "config_io.emit_csv.s": ("s", ("config_io.emit_csv",)),
    "config_io.emit_csv.bytes": ("bytes", ("config_io.emit_csv",)),
    "cli.import_s": ("s", ()),
    "cli.run.self_s": ("s", ("cli.run",)),
    "trace.overhead_frac": ("ratio", ()),
}


def merge_summaries(summaries) -> dict:
    """Sum raw summaries of several processes (cli-cold children)."""
    out = {"time": Counter(), "self": Counter(), "counts": Counter(), "unmeasured": set()}
    for summary in summaries:
        for key in ("time", "self", "counts"):
            out[key].update(summary[key])
        out["unmeasured"].update(summary["unmeasured"])
    return {
        "time": dict(out["time"]),
        "self": dict(out["self"]),
        "counts": dict(out["counts"]),
        "unmeasured": sorted(out["unmeasured"]),
    }


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(summary: dict, passes: int, spec_s: float, overhead_frac: float) -> dict:
    """Per-layer metrics per traced pass.

    ``summary`` sums the traced passes; ``spec_s`` is the time spent in
    CoefficientSpec constructors while configs are built.  Ratios are taken
    over the sums.  A metric whose hook could not be installed reads 0 and is
    listed by ``unmeasured_metrics``.
    """
    t, own, c = summary["time"], summary["self"], summary["counts"]
    per = 1.0 / max(passes, 1)
    values = {
        "series.powers.s": t.get("series.powers", 0.0) * per,
        "series.powers.real_points": c.get("series.powers.real_points", 0) * per,
        "series.powers.complex_points": c.get("series.powers.complex_points", 0) * per,
        "series.enumerate.s": t.get("series.enumerate", 0.0) * per,
        "series.points": c.get("series.points", 0) * per,
        "series.sum.self_s": own.get("series.sum", 0.0) * per,
        "series.points_per_s": _ratio(c.get("series.points", 0), t.get("series.sum", 0.0)),
        "series.shell_choice.s": t.get("series.shell_choice", 0.0) * per,
        "series.tail_bound.calls": c.get("series.tail_bound.calls", 0) * per,
        "coefficients.theta.s": t.get("coefficients.theta", 0.0) * per,
        "coefficients.theta.points": c.get("coefficients.theta.points", 0) * per,
        "coefficients.spec.s": spec_s,
        "summation.accumulate.s": t.get("summation.accumulate", 0.0) * per,
        "summation.exact.s": t.get("summation.exact", 0.0) * per,
        "summation.exact.values": c.get("summation.exact.values", 0) * per,
        "distributions.build.s": t.get("distributions.build", 0.0) * per,
        "distributions.atoms": c.get("distributions.atoms", 0) * per,
        "distributions.merge.s": t.get("distributions.merge", 0.0) * per,
        "distributions.merge.kept_ratio": _ratio(
            c.get("distributions.merge.kept", 0), c.get("distributions.merge.in", 0)
        ),
        "distributions.atom_cf.s": t.get("distributions.atom_cf", 0.0) * per,
        "distributions.atom_cf.atom_evals": c.get("distributions.atom_cf.atom_evals", 0) * per,
        "distributions.sample.s": t.get("distributions.sample", 0.0) * per,
        "distributions.moment.s": t.get("distributions.moment", 0.0) * per,
        "distributions.empirical_cf.s": t.get("distributions.empirical_cf", 0.0) * per,
        "zeros.scan.self_s": own.get("zeros.scan", 0.0) * per,
        "zeros.refine.s": t.get("zeros.refine", 0.0) * per,
        "zeros.refine.evals": c.get("zeros.refine.evals", 0) * per,
        "zeros.winding.s": t.get("zeros.winding", 0.0) * per,
        "zeros.winding.evals": c.get("zeros.winding.evals", 0) * per,
        "zeros.evals_per_confirmed": _ratio(
            c.get("zeros.refine.evals", 0) + c.get("zeros.winding.evals", 0),
            c.get("zeros.confirmed", 0),
        ),
        "arithmetic.coeff_array.s": t.get("arithmetic.coeff_array", 0.0) * per,
        "arithmetic.coeff_array.miss_ratio": _ratio(
            c.get("arithmetic.coeff_array.misses", 0), c.get("arithmetic.coeff_array.calls", 0)
        ),
        "arithmetic.sieve.s": t.get("arithmetic.sieve", 0.0) * per,
        "euler.product.s": t.get("euler.product", 0.0) * per,
        "config_io.parse.s": t.get("config_io.parse", 0.0) * per,
        "config_io.emit_csv.s": t.get("config_io.emit_csv", 0.0) * per,
        "config_io.emit_csv.bytes": c.get("config_io.emit_csv.bytes", 0) * per,
        "cli.import_s": c.get("cli.import_s", 0.0) * per,
        "cli.run.self_s": own.get("cli.run", 0.0) * per,
        "trace.overhead_frac": overhead_frac,
    }
    return values


def unmeasured_metrics(unmeasured_layers) -> list[str]:
    missing = set(unmeasured_layers)
    return [name for name, (_, needs) in LAYER_METRICS.items() if missing.intersection(needs)]
