"""Shell choice against the bisection it replaced.

`_choose_shell` solves for the first admissible shell by safeguarded
interpolation and sums a finite support's tails in one pass.  The reference
below is the per-shell search it replaced: bisection over [0, n_cap] for an
infinite support, one `_tail_bound` call per support degree otherwise.  The
shell, the certified flag and the tail bound must be bit-identical.
"""

from __future__ import annotations

import itertools
import math
from functools import lru_cache

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from shintani import series
from shintani.arithmetic import AlphaRule
from shintani.coefficients import CoefficientSpec
from shintani.series import (
    ShintaniConfig,
    _cap_from_budget,
    _choose_shell,
    _finite_support,
    _finite_tail,
    _geometric_start,
    _geometric_tail,
    _tail_bound,
    as_point,
    evaluate,
    make_special,
)


def _reference_choose_shell(config, sigma, tol, shell_cap):
    """(shell, certified, tail): a `_tail_bound` call per candidate shell."""
    theta = config.theta
    deg = theta.support_degree
    if deg is not None:
        pts = theta.support(config.r, 0, deg)
        degrees = [int(t) for t in pts.sum(axis=1)]
        shells = sorted(set(degrees))
        affordable = [n for n in shells if sum(t <= n for t in degrees) <= shell_cap]
        n_cap = affordable[-1] if affordable else 0
        for n in affordable or [n_cap]:
            tail = _tail_bound(config, sigma, n)
            if tail <= tol:
                return n, True, tail
        return n_cap, False, tail
    if theta.sparse:
        for _, n in itertools.islice(series._lattice_blocks(config), max(shell_cap, 1)):
            tail = _tail_bound(config, sigma, n)
            if tail <= tol:
                return n, True, tail
        return n, False, tail
    n_cap = _cap_from_budget(config.r, shell_cap)
    if _tail_bound(config, sigma, n_cap) > tol:
        return n_cap, False, _tail_bound(config, sigma, n_cap)
    lo, hi = 0, n_cap
    while lo < hi:
        mid = (lo + hi) // 2
        if _tail_bound(config, sigma, mid) <= tol:
            hi = mid
        else:
            lo = mid + 1
    return lo, True, _tail_bound(config, sigma, lo)


def _abs_form_powers(forms, sl):
    """prod_l forms[:, l]^(-sl[l]), one power per form in form order."""
    out = np.ones(forms.shape[0])
    for l, b in enumerate(sl):
        out *= forms[:, l] ** (-b)
    return out


def _reference_finite_tail(config, sigma, n_shell):
    """The per-degree finite tail: its own enumeration and matrix product."""
    deg = config.theta.support_degree
    if n_shell >= deg:
        return 0.0
    pts = config.theta.support(config.r, n_shell + 1, deg)
    if pts.size == 0:
        return 0.0
    vals = np.abs(np.asarray(config.theta.values(np.array(pts))))
    forms = np.array(pts) @ config.lam.T + config.form_offsets
    return float(np.sum(vals * _abs_form_powers(forms, config.c @ sigma)))


def _one_form(theta, u=1.0):
    return ShintaniConfig(d=1, m=1, r=1, lam=[[1.0]], u=[u], c=[[1.0]], theta=theta)


@lru_cache(maxsize=None)
def _multiplicative():
    rules = (AlphaRule.constant(1.0), AlphaRule.character(4, (0.0, 1.0, 0.0, -1.0)))
    return _one_form(CoefficientSpec.multiplicative_product([rules]))


def _family(name: str, draw) -> ShintaniConfig:
    if name == "riemann":
        return make_special("riemann")
    if name == "hurwitz":
        return make_special("hurwitz", u=draw(st.floats(0.05, 1.0)))
    if name == "periodic":
        table = draw(st.lists(st.floats(-2.0, 2.0), min_size=1, max_size=4))
        return _one_form(CoefficientSpec.periodic((len(table),), table))
    if name == "euler_zagier":
        return make_special("euler_zagier", r=2, u=(0.0, 0.0))
    if name == "barnes":
        lam = draw(st.lists(st.floats(0.5, 2.0), min_size=2, max_size=3))
        return make_special("barnes", r=len(lam), lam=lam, u=draw(st.floats(0.3, 2.0)))
    if name == "geometric":
        q = draw(st.floats(0.05, 0.999))
        return _one_form(CoefficientSpec.geometric((q,)), u=draw(st.floats(0.3, 2.0)))
    if name == "riemann_derivative":
        return make_special("riemann_derivative")
    if name == "multiplicative":
        if draw(st.booleans()):
            return _multiplicative()
        return _one_form(CoefficientSpec.multiplicative_product([[AlphaRule.constant(-1.0)]]))
    if name == "poisson_powers":
        base = draw(st.integers(2, 4))
        return _one_form(CoefficientSpec.poisson_powers(base, draw(st.floats(0.0, 1.0))))
    r = draw(st.integers(1, 2))
    entries = draw(st.dictionaries(
        st.tuples(*[st.integers(0, 6)] * r), st.floats(-2.0, 2.0).filter(bool),
        min_size=1, max_size=12,
    ))
    return ShintaniConfig(
        d=1, m=1, r=r, lam=[[1.0, 1.5][:r]], u=[1.0, 0.5][:r], c=[[1.0]],
        theta=CoefficientSpec.finite_support(entries),
    )


FAMILIES = (
    "riemann", "hurwitz", "periodic", "euler_zagier", "barnes", "geometric",
    "riemann_derivative", "multiplicative", "poisson_powers", "finite_support",
)


@st.composite
def cases(draw):
    config = _family(draw(st.sampled_from(FAMILIES)), draw)
    low = config.r / config.m
    if config.theta.is_entire:
        low = -3.0  # finite, sparse and geometric supports converge everywhere
    re = low + draw(st.floats(0.05, 4.0))
    im = draw(st.sampled_from([0.0, 0.0, 3.5, -20.0]))
    sigma = as_point([complex(re, im)] * config.d, config.d).re
    tol = 10.0 ** draw(st.floats(-14.0, -1.0))
    cap = draw(st.one_of(st.integers(0, 40), st.integers(0, 10**8)))
    return config, sigma, tol, cap


# the Poisson tail's powers overflow at sigma < 0 (its terms are then formed in logarithms)
@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(cases())
def test_matches_bisection_reference(case):
    config, sigma, tol, cap = case
    ((n, certified, tail),) = _choose_shell(config, sigma[None, :], tol, cap)
    ref_n, ref_certified, ref_tail = _reference_choose_shell(config, sigma, tol, cap)
    assert (n, certified, float(tail).hex()) == (ref_n, ref_certified, float(ref_tail).hex())
    assert float(tail).hex() == float(_tail_bound(config, sigma, n)).hex()


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_one_pass_finite_tails(data):
    config = _family("finite_support", data.draw)
    sigma = np.array([data.draw(st.floats(-3.0, 4.0))])
    _, degrees, vals, forms = _finite_support(config)
    terms = np.abs(vals) * _abs_form_powers(forms, config.c @ sigma)
    for n in range(-1, config.theta.support_degree + 2):
        one_pass = float(np.sum(terms[np.searchsorted(degrees, n, side="right"):]))
        assert one_pass == _finite_tail(config, sigma, n)
        if config.r == 1:  # a form is one product and one sum, whatever its row
            assert one_pass == _reference_finite_tail(config, sigma, n)


def test_one_table_keeps_scalar_power_bits():
    """sigma = 1, -1/2 and -2 on one form give the exponents -1, 1/2 and 2,
    where numpy's `**` with a scalar exponent rounds differently from a
    broadcast one: every tail of a many-row table keeps the bits of its own
    one-row table and of the per-form reference."""
    config = _one_form(CoefficientSpec.finite_support({(k,): 1.0 + k % 3 for k in range(200)}), u=0.37)
    sigmas = np.array([[x] for x in (1.0, -0.5, -2.0, 0.0, 0.5, 2.0, -1.0, 1.5, 3.0)])
    support = _finite_support(config)
    sl = np.array([config.c @ sigma for sigma in sigmas])
    kept = list(range(201))
    table = series._finite_tails(support, sl, kept)
    for i, sigma in enumerate(sigmas):
        row = series._finite_tails(support, sl[i : i + 1], kept)[0]
        assert [x.hex() for x in table[i]] == [x.hex() for x in row], sigma
        ref = [_reference_finite_tail(config, sigma, n - 1) for n in kept]
        assert [x.hex() for x in table[i].tolist()] == [x.hex() for x in ref], sigma


class TestShellCap:
    """The budget on a finite support caps the shell, it never raises it."""

    CONFIG = _one_form(CoefficientSpec.finite_support({(0,): 1.0, (1,): 1.0, (2,): 1.0}))

    def test_shells_never_fall_as_the_cap_grows(self):
        for tol in (1.0, 0.2, 0.1, 0.05, 1e-9):
            shells = [
                evaluate(self.CONFIG, 2.0, tol=tol, shell_cap=cap).shells_used for cap in range(6)
            ]
            assert shells == sorted(shells), (tol, shells)

    def test_cap_zero_sums_at_most_shell_zero(self):
        for tol in (1.0, 1e-9):
            res = evaluate(self.CONFIG, 2.0, tol=tol, shell_cap=0)
            assert res.shells_used == 0
            assert res.value == 1.0
        assert not evaluate(self.CONFIG, 2.0, tol=1e-9, shell_cap=0).certified

    def test_tol_one(self):
        # tail(0) = 1/4 + 1/9 <= 1, so every cap stops at shell 0
        shells = [evaluate(self.CONFIG, 2, tol=1.0, shell_cap=cap).shells_used for cap in range(4)]
        assert shells == [0] * 4

    def test_smaller_cap_picks_an_admissible_lower_shell(self):
        # tail(1) = 1/9 <= 0.2 < tail(0): cap 2 affords shell 1, cap 1 only shell 0
        assert evaluate(self.CONFIG, 2, tol=0.2, shell_cap=2).shells_used == 1
        res = evaluate(self.CONFIG, 2, tol=0.2, shell_cap=1)
        assert (res.shells_used, res.certified) == (0, False)


def test_sparse_support_stops_at_the_int64_range():
    # 4^31 - 1 is the last support point an int64 lattice row can hold
    config = _one_form(CoefficientSpec.poisson_powers(4))
    res = evaluate(config, -2.0, tol=0.1, shell_cap=40)
    assert (res.shells_used, res.certified) == (4**31 - 1, False)


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
def test_poisson_tail_is_never_nan():
    # at sigma < 0 the powers overflow to inf where the factorial weight
    # underflows to 0; such terms are formed in logarithms
    config = _one_form(CoefficientSpec.poisson_powers(4, 1.0))
    res = evaluate(config, -2.5, tol=0.1, shell_cap=0)
    assert not math.isnan(res.tail_bound) and not res.certified
    # the tail past shell 0 is sum_{k >= 1} 4^(3.5 k) / k! = e^128 - 1
    assert res.tail_bound == pytest.approx(math.expm1(128.0), rel=1e-9)
    # a support point past the float range gives no bound, not an error
    res = evaluate(config, -5.0, tol=0.1, shell_cap=0)
    assert res.tail_bound == math.inf and not res.certified


def test_riemann_probe_count():
    calls = []
    original = series._tail_bound

    def counting(*args, **kwargs):
        calls.append(args[2])
        return original(*args, **kwargs)

    series._tail_bound = counting
    try:
        res = evaluate(make_special("riemann"), 2.0, tol=1e-8, shell_cap=int(3e8))
    finally:
        series._tail_bound = original
    assert res.shells_used == 99_999_999 and res.certified
    assert len(calls) <= 5, calls


def _count_tail_calls(fn):
    calls = []
    original = series._tail_bound

    def counting(*args, **kwargs):
        calls.append(args[2])
        return original(*args, **kwargs)

    series._tail_bound = counting
    try:
        return fn(), calls
    finally:
        series._tail_bound = original


def test_geometric_first_probe():
    # at sigma = -2 the geometric route is inf below the shell where rho
    # drops under 1; the search starts there instead of bisecting down to it
    config = _one_form(CoefficientSpec.geometric((0.9,)))
    res, calls = _count_tail_calls(lambda: evaluate(config, -2.0, tol=1e-12, shell_cap=10**8))
    assert res.shells_used == 398 and res.certified
    assert len(calls) <= 12, calls


@pytest.mark.parametrize("q", [0.3, 0.9, 0.99])
@pytest.mark.parametrize("sigma", [-5.0, -2.0, -0.5, 0.5, 3.0])
def test_geometric_start_is_the_first_finite_shell(q, sigma):
    config = _one_form(CoefficientSpec.geometric((q,)), u=0.7)
    sig = np.array([sigma])
    start = _geometric_start(config, sig, 10**7)
    assert math.isfinite(_geometric_tail(config, sig, start))
    assert start == 0 or _geometric_tail(config, sig, start - 1) == math.inf
    assert _geometric_start(config, sig, start // 2) == start // 2  # clamped at hi


@given(st.integers(0, 200), st.integers(0, 200), st.integers(0, 300))
@settings(deadline=None)
def test_gallop_finds_the_linear_scans_first_shell(x0, width, threshold):
    # passes(n) = n >= threshold, a monotone predicate; with a threshold past hi no
    # shell passes.  The gallop probes x0, x0 + 1, x0 + 3, ... capped at hi
    hi = x0 + width
    probes = []

    def passes(n):
        probes.append(n)
        return n >= threshold

    n = series._gallop(passes, x0, hi)
    first = next((m for m in range(x0, hi + 1) if m >= threshold), hi + 1)  # the linear scan
    gallop = [x0]
    while gallop[-1] < hi:
        gallop.append(min(x0 + (1 << len(gallop)) - 1, hi))
    steps = [m for m in gallop if m < first][: len(probes)]
    steps += [m for m in gallop if m >= first][:1]  # up to the first passing probe
    assert probes[: len(steps)] == steps and len(set(probes)) == len(probes)
    assert n == first
    if first > hi:
        assert probes == gallop


@pytest.mark.parametrize("kind,params,s,tol,cap", [
    ("riemann", {}, 2.0, 1e-8, 3 * 10**8),
    ("hurwitz", {"u": 0.5}, 2 + 5j, 1e-10, 10**6),
    ("euler_zagier", {"r": 2, "u": (0.0, 0.0)}, (3.0, 2.0), 1e-8, 10**5),
    ("barnes", {"r": 2, "lam": (1.0, 2.0), "u": 1.0}, 4.0, 1e-6, 10**5),
])
def test_evaluate_fields_match_reference(kind, params, s, tol, cap):
    config = make_special(kind, **params)
    pt = as_point(s, config.d)
    res = evaluate(config, s, tol=tol, shell_cap=cap)
    n, certified, tail = _reference_choose_shell(config, pt.re, tol, cap)
    _, bound = series._partial_sum(config, pt, n, tail)
    assert (res.shells_used, res.certified, res.tail_bound) == (n, certified, bound)
    assert math.isfinite(res.tail_bound)
