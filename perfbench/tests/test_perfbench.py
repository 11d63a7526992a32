"""Tests of the benchmark's own logic: the percentile rule, self-time
subtraction, failure and certified counting, oracles and the tracer.

Run from the repository root: python3 -m pytest perfbench/tests -q
"""

import json
import math
import random
import statistics
import sys
import types
from pathlib import Path

import numpy as np
import pytest

import layers
import measure
import ops
import run
from measure import Outcome, Tally

ROOT = Path(__file__).resolve().parents[2]


# -- percentile rule ---------------------------------------------------------

def test_nearest_rank_percentile():
    values = list(range(1, 101))
    random.Random(3).shuffle(values)
    assert measure.percentile(values, 0.5) == 50
    assert measure.percentile(values, 0.9) == 90
    assert measure.percentile([7.0], 0.9) == 7.0


def test_tail_percentile_needs_ten_samples_beyond():
    assert measure.beyond(100, 0.9) == 10
    assert measure.tail_percentile(list(range(100)), 0.9) == 89
    assert measure.beyond(99, 0.9) == 9
    assert measure.tail_percentile(list(range(99)), 0.9) is None


def test_quartiles_match_statistics():
    values = [3.0, 1.0, 4.0, 1.5, 5.0, 9.0, 2.6, 5.3, 5.8, 9.7]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    assert measure.quartiles(values) == (q1, q2, q3)
    assert measure.spread(values) == pytest.approx((q3 - q1) / q2)


# -- spans -------------------------------------------------------------------

def _fake_clock(monkeypatch, times):
    it = iter(times)
    monkeypatch.setattr(layers, "_clock", lambda: next(it))


def test_self_time_subtracts_children(monkeypatch):
    # sum [0, 10] holds powers [1, 4] and enumerate [5, 6]
    _fake_clock(monkeypatch, [0.0, 1.0, 4.0, 5.0, 6.0, 10.0])
    tr = layers.Tracer()
    outer = tr.open("series.sum")
    tr.close(tr.open("series.powers"))
    tr.close(tr.open("series.enumerate"))
    tr.close(outer)
    summary = tr.summary()
    assert summary["self"]["series.sum"] == pytest.approx(6.0)
    assert summary["time"]["series.sum"] == pytest.approx(10.0)
    assert summary["self"]["series.powers"] == pytest.approx(3.0)
    assert tr.spans[1].parent == 0


def test_nested_spans_of_one_name_count_once(monkeypatch):
    _fake_clock(monkeypatch, [0.0, 1.0, 3.0, 5.0])
    tr = layers.Tracer()
    outer = tr.open("coefficients.theta")
    tr.close(tr.open("coefficients.theta"))
    tr.close(outer)
    assert tr.summary()["time"]["coefficients.theta"] == pytest.approx(5.0)


# -- outcome accounting --------------------------------------------------------

def test_failure_and_certified_counting():
    tally = Tally()
    tally.add("a", Outcome(ok=True, certifiable=True, certified=True))
    tally.add("b", Outcome(ok=True, certifiable=True, certified=False, detail="bound > tol"))
    tally.add("c", Outcome(ok=True))
    tally.add("d", measure.failed("wrong value", certifiable=True))
    assert (tally.attempted, tally.failed, tally.certifiable, tally.certified) == (4, 1, 3, 1)
    assert tally.failed_frac == 0.25
    assert tally.certified_frac == pytest.approx(1 / 3)
    assert not tally.correct
    assert "b" in tally.uncertified and "d" in tally.failures


def test_known_defect_counts_as_failed_but_keeps_correct():
    tally = Tally()
    tally.add("p=0.444", measure.failed("certificate=True"), known_defect="off-axis zeros")
    tally.add("ok", Outcome(ok=True))
    assert tally.failed == 1 and tally.known_failed == 1
    assert tally.failed_frac == 0.5
    assert tally.correct
    tally.add("new", measure.failed("regression"))
    assert not tally.correct


@pytest.mark.parametrize(
    "value, bound, certified, ok, is_certified",
    [
        (1.0 + 5e-9, 1e-8, True, True, True),  # within bound, certified at tol
        (1.0 + 2e-8, 1e-8, True, False, False),  # outside its own bound
        (1.0 + 4e-8, 5e-8, False, True, False),  # honest uncertified at the cap
        (1.0 + 4e-8, 5e-8, True, False, False),  # certified above tol: wrong certificate
    ],
)
def test_check_eval(value, bound, certified, ok, is_certified):
    res = types.SimpleNamespace(value=value, tail_bound=bound, certified=certified)
    out = ops.check_eval(res, 1.0, 1e-8, 1.0)
    assert (out.ok, out.certifiable, out.certified) == (ok, True, is_certified)


def test_judge_flags_changed_bytes():
    op = ops.Op(name="x", run=None, check=lambda r, ctx: Outcome(ok=True))
    same = ops.digest(np.arange(4.0))
    assert run.judge(op, (0.1, np.arange(4.0), None), {}, same).ok
    changed = np.arange(4.0)
    changed[2] = np.nextafter(2.0, 3.0)
    assert not run.judge(op, (0.1, changed, None), {}, same).ok
    assert not run.judge(op, (0.1, None, "raised ValueError: x"), {}, same).ok


# -- oracles -------------------------------------------------------------------

def test_polynomial_zero_oracle():
    g = random.Random(11)
    for _ in range(20):
        (a0, a1, a3), rect, inside = ops.draw_poly_rect(g)
        zs = ops.poly_zeros(a0, a1, a3)
        for s in zs:
            x = 2.0 ** (-s)
            assert abs(a0 + a1 * x + a3 * x * x) <= 1e-9 * (1 + abs(a1 * x) + abs(a3 * x * x))
        assert all(ops.rect_boundary_distance(z, rect) >= ops.MARGIN for z in zs)
        assert inside == sum(rect[0] < z.real < rect[1] and rect[2] < z.imag < rect[3] for z in zs)


# -- tracer ----------------------------------------------------------------------

def _fake_modules(monkeypatch):
    home = types.ModuleType("pbfake_home")
    home.work = lambda x: x * 2
    site = types.ModuleType("pbfake_site")
    site.work = home.work
    other = types.ModuleType("pbfake_other")
    other.work = lambda x: x  # a different object of the same name
    for mod in (home, site, other):
        monkeypatch.setitem(sys.modules, mod.__name__, mod)
    return home, site, other


def test_hook_wraps_call_sites_and_restores(monkeypatch):
    home, site, other = _fake_modules(monkeypatch)
    original, other_work = home.work, other.work
    tr = layers.Tracer()
    tr.install([layers.Hook("fake", "pbfake_home", "work", layers._span("fake.work"),
                            also=("pbfake_site", "pbfake_other"))])
    assert home.work(2) == 4 and site.work(3) == 6
    assert other.work is other_work
    assert [s.name for s in tr.spans] == ["fake.work", "fake.work"]
    tr.uninstall()
    assert home.work is original and site.work is original


def test_missing_name_is_unmeasured_not_fatal(monkeypatch):
    _fake_modules(monkeypatch)
    tr = layers.Tracer()
    tr.install([
        layers.Hook("series.powers", "pbfake_home", "renamed_away", layers._span("series.powers")),
        layers.Hook("zeros.refine", "pbfake_missing_module", "x", layers._span("zeros.refine")),
    ])
    assert tr.unmeasured == ["series.powers", "zeros.refine"]
    missing = layers.unmeasured_metrics(tr.summary()["unmeasured"])
    assert "series.powers.s" in missing and "zeros.refine.evals" in missing
    values = layers.layer_metrics(tr.summary(), 1, 0.0, 0.0)
    assert set(values) == set(layers.LAYER_METRICS)


def test_traced_library_calls_are_bit_identical():
    from shintani import distributions, series, zeros

    riemann = series.make_special("riemann")
    poly = series.ShintaniConfig(
        d=1, m=1, r=1, lam=np.array([[1.0]]), u=np.array([1.0]), c=np.array([[1.0]]),
        theta=series.CoefficientSpec.finite_support({(0,): 1.0, (1,): -2.0}),
    )
    rect = zeros.SliceSpec(series.ComplexPoint([0.0], [0.0]), np.array([1.0 + 0j]), (0.0, 2.0, -1.0, 1.0))

    def calls():
        return [
            series.evaluate(riemann, 2.5 + 3j, tol=1e-8),
            distributions.build_distribution(series.make_special("euler_zagier", r=2, u=[0.0, 0.0]),
                                             [3.0, 2.0], delta=1e-3),
            zeros.count_zeros_rectangle(poly, rect),
        ]

    plain = [ops.digest(r) for r in calls()]
    tr = layers.Tracer()
    tr.install(layers.HOOKS)
    try:
        traced = [ops.digest(r) for r in calls()]
    finally:
        tr.uninstall()
    assert traced == plain
    assert tr.unmeasured == []  # every hooked name exists at this commit
    counts = tr.summary()["counts"]
    assert counts["series.points"] > 0 and counts["series.tail_bound.calls"] > 0
    assert counts["zeros.winding.evals"] > 0 and counts["distributions.merge.in"] > 0
    assert series._form_powers.__name__ == "_form_powers"  # originals restored


# -- the contract file ---------------------------------------------------------------

def test_benchmark_json_matches_the_code():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in bench["per_layer"]} == {
        k: unit for k, (unit, _) in layers.LAYER_METRICS.items()
    }
    assert [w["name"] for w in bench["workloads"]] == list(run.WORKLOADS)
    assert any(m["name"] == "setup_s" and m["bound"] == max(x["bound"] for x in bench["end_to_end"])
               for m in bench["end_to_end"])
    assert all(math.isfinite(m["bound"]) and 0 < m["bound"] <= 0.25 for m in bench["end_to_end"])
