"""`evaluate_many` against `evaluate` at each point.

Every field of evaluate_many(points)[i] must equal evaluate(points[i]) bit
for bit, on every coefficient family, at real and complex s, with repeated
points and points that share Re s.
"""

from __future__ import annotations

import math
import tracemalloc
from functools import lru_cache
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from shintani.arithmetic import AlphaRule, chi_minus_4
from shintani.coefficients import CoefficientSpec
from shintani.distributions import make_special_distribution
from shintani import series
from shintani.errors import ConfigError, RegionError
from shintani.series import (
    ComplexPoint,
    ShintaniConfig,
    differentiate,
    evaluate,
    evaluate_many,
    evaluate_partial,
    make_special,
)


def _one_form(theta, u=1.0):
    return ShintaniConfig(d=1, m=1, r=1, lam=[[1.0]], u=[u], c=[[1.0]], theta=theta)


@lru_cache(maxsize=None)
def _two_rules():
    # the envelope scan behind this product runs once per test session
    return _one_form(CoefficientSpec.multiplicative_product([(AlphaRule.constant(1.0), chi_minus_4())]))


def _finite_support(draw) -> ShintaniConfig:
    """A finite support with m, r and d up to 2 and real or complex values."""
    r, m, d = (draw(st.integers(1, 2)) for _ in range(3))
    positive = st.floats(0.3, 2.0)
    value = st.one_of(
        st.floats(-2.0, 2.0).filter(bool),
        st.complex_numbers(max_magnitude=2.0, allow_nan=False, allow_infinity=False).filter(bool),
    )
    entries = draw(st.dictionaries(
        st.tuples(*[st.integers(0, 5)] * r), value, min_size=1, max_size=10
    ))
    return ShintaniConfig(
        d=d, m=m, r=r,
        lam=[[draw(positive) for _ in range(r)] for _ in range(m)],
        u=[draw(positive) for _ in range(r)],
        c=[[draw(st.floats(0.5, 1.5)) for _ in range(d)] for _ in range(m)],
        theta=CoefficientSpec.finite_support(entries),
    )


def _family(name: str, draw) -> ShintaniConfig:
    if name == "finite_support":
        return _finite_support(draw)
    if name == "binomial":
        return make_special_distribution(
            "binomial", check=False, j=draw(st.integers(2, 3)), big_k=draw(st.integers(1, 3)),
            phi=draw(st.floats(0.2, 3.0)), sigma=-1.0,
        ).config
    if name == "poisson_powers":
        return _one_form(CoefficientSpec.poisson_powers(draw(st.integers(2, 4)), draw(st.floats(0.0, 1.0))))
    if name == "riemann":
        return make_special("riemann")
    if name == "hurwitz":
        return make_special("hurwitz", u=draw(st.floats(0.05, 1.0)))
    if name == "lerch_transcendent":
        q = draw(st.sampled_from([0.5, -0.7, 0.3 + 0.4j, 0.95]))
        return make_special("lerch_transcendent", u=draw(st.floats(0.3, 2.0)), q=q)
    if name == "riemann_derivative":
        return make_special("riemann_derivative")
    if name == "euler_zagier":
        return make_special("euler_zagier", r=2, u=(0.0, draw(st.sampled_from([0.0, 0.5]))))
    if name == "barnes":
        lam = draw(st.lists(st.floats(0.5, 2.0), min_size=2, max_size=3))
        return make_special("barnes", r=len(lam), lam=lam, u=draw(st.floats(0.3, 2.0)))
    if name == "multiplicative":
        return _two_rules()
    assert name == "periodic"
    table = draw(st.lists(st.floats(-2.0, 2.0), min_size=1, max_size=4))
    return _one_form(CoefficientSpec.periodic((len(table),), table))


FAMILIES = (
    "finite_support", "binomial", "poisson_powers", "riemann", "hurwitz",
    "lerch_transcendent", "riemann_derivative", "euler_zagier", "barnes",
    "multiplicative", "periodic",
)


@st.composite
def cases(draw):
    """A config and a list of points: a few values of Re s and of Im s
    (0 among them), combined so that points share Re s, and repeated."""
    config = _family(draw(st.sampled_from(FAMILIES)), draw)
    low = -2.5 if config.theta.is_entire else config.r / config.m
    res = draw(st.lists(st.floats(0.1, 3.0).map(lambda x: low + x), min_size=1, max_size=3))
    ims = draw(st.lists(st.sampled_from([0.0, 1.5, -4.0, 13.25]), min_size=1, max_size=3))
    pick = st.tuples(st.sampled_from(res), st.sampled_from(ims))
    points = [
        tuple(complex(*draw(pick)) for _ in range(config.d))
        for _ in range(draw(st.integers(1, 6)))
    ]
    points += draw(st.lists(st.sampled_from(points), max_size=3))  # repeats
    if config.d == 1 and draw(st.booleans()):
        points = [z for (z,) in points]  # scalars
    tol = 10.0 ** draw(st.floats(-9.0, 0.0))  # loose tolerances stop finite supports early
    cap = draw(st.one_of(st.integers(0, 40), st.integers(10**3, 2 * 10**4)))
    return config, points, tol, cap


def _bits(res) -> tuple:
    return (res.value.real.hex(), res.value.imag.hex(), res.tail_bound.hex(),
            res.shells_used, res.certified)


# the Poisson tail's powers overflow at sigma < 0 (its terms are then formed in logarithms)
@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
@settings(max_examples=120, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(cases())
def test_every_field_matches_evaluate(case):
    config, points, tol, cap = case
    many = evaluate_many(config, points, tol=tol, shell_cap=cap)
    assert len(many) == len(points)
    for s, res in zip(points, many):
        assert _bits(res) == _bits(evaluate(config, s, tol=tol, shell_cap=cap)), s


class TestInputs:
    CONFIG = _one_form(CoefficientSpec.finite_support({(0,): 1.0, (1,): -2.0, (3,): 0.5}))

    def test_point_forms_agree(self):
        zs = [0.5 + 1j, 2.0, -1.0 - 3j]
        ref = [_bits(r) for r in evaluate_many(self.CONFIG, zs)]
        for points in (
            np.array(zs),
            np.array(zs).reshape(-1, 1),
            [ComplexPoint([z.real], [z.imag]) for z in map(complex, zs)],
            [[z] for z in zs],
        ):
            assert [_bits(r) for r in evaluate_many(self.CONFIG, points)] == ref

    def test_shells_differ_by_re_s(self):
        # tails 2^(1-s) + 4^(-1-s) past shell 0 and 4^(-1-s) past shell 1:
        # at tol 0.1, Re s = 3 stops at shell 1 and Re s = 0.5 at shell 3
        zs = [3.0 + 1j, 0.5 - 2j, 3.0, 0.5, 3.0 - 7j]
        many = evaluate_many(self.CONFIG, zs, tol=0.1)
        assert [r.shells_used for r in many] == [1, 3, 1, 3, 1]
        assert [_bits(r) for r in many] == [_bits(evaluate(self.CONFIG, z, tol=0.1)) for z in zs]

    def test_empty(self):
        assert evaluate_many(self.CONFIG, []) == []
        assert evaluate_many(make_special("euler_zagier", r=2, u=(0.0, 0.0)), np.empty((0, 2))) == []

    @pytest.mark.parametrize("config, good, bad, error", [
        (CONFIG, 2.0, math.nan, ConfigError),
        (CONFIG, 2.0, complex(1.0, math.nan), ConfigError),
        (make_special("euler_zagier", r=2, u=(0.0, 0.0)), (3.0, 2.0), (3.0,), ConfigError),
        (make_special("riemann"), 2.0, 0.5 + 1j, RegionError),
    ])
    def test_bad_point_raises_what_evaluate_raises(self, config, good, bad, error):
        with pytest.raises(error) as single:
            evaluate(config, bad)
        with pytest.raises(error) as batch:
            evaluate_many(config, [good, bad, good])
        assert str(batch.value) == str(single.value)

    def test_infinite_imaginary_part_is_config_error(self):
        # the message once formed re + 1j * im, so inf * 0 raised a RuntimeWarning
        zeta = make_special("riemann")
        for call in (
            lambda: evaluate(zeta, complex(1.0, math.inf)),
            lambda: evaluate_many(zeta, [2.0, complex(2.0, -math.inf)]),
            lambda: ComplexPoint([2.0, 3.0], [0.0, math.inf]),
        ):
            with pytest.raises(ConfigError, match="finite"):
                call()

    def test_bad_tolerance(self):
        for tol in (0.0, -1.0, math.nan):
            with pytest.raises(ConfigError, match="tolerance"):
                evaluate_many(self.CONFIG, [2.0], tol=tol)

    def test_bare_scalar_is_config_error(self):
        with pytest.raises(ConfigError, match="sequence"):
            evaluate_many(self.CONFIG, 2.0)


class TestFiniteBatch:
    """Every point on a finite support, alone or among others, real or
    complex, is summed by one kernel, `_finite_sums`, which forms each entry
    the same way whatever else its slice holds."""

    @staticmethod
    def grid(r: int, top: int, ratio: float) -> dict:
        # every lattice point of degree <= top, |theta| = ratio^degree
        pts = [p for p in np.ndindex(*(top + 1,) * r) if sum(p) <= top]
        return {p: ratio ** sum(p) * (-1.0) ** p[0] for p in pts}

    def test_imaginary_exponents_of_every_dimension(self):
        # at d >= 2, <c_l, Im s> is a sum over d, formed entry by entry in
        # index order: a matrix product of all points at once would round
        # some of those sums differently
        rng = np.random.default_rng(5)
        for d, m in ((2, 1), (3, 1), (3, 2)):
            config = ShintaniConfig(
                d=d, m=m, r=1, lam=rng.uniform(0.5, 2.0, (m, 1)), u=[0.7],
                c=rng.uniform(0.3, 1.5, (m, d)), theta=CoefficientSpec.finite_support(self.grid(1, 30, -0.9)),
            )
            points = 4.0 + rng.standard_normal((40, d)) + 1j * rng.uniform(-20.0, 20.0, (40, d))
            many = evaluate_many(config, points, tol=1e-12)
            assert [_bits(r) for r in many] == [_bits(evaluate(config, s, tol=1e-12)) for s in points]

    def test_two_forms(self):
        # with m = 2 the exponent sums over the forms, in index order with
        # separate products and sums: a fused multiply-add there would round
        # differently from two products
        config = ShintaniConfig(
            d=1, m=2, r=2, lam=[[1.0, 1.0], [1.0, 2.0]], u=[1.0, 0.5], c=[[0.5], [1.0]],
            theta=CoefficientSpec.finite_support({(0, 0): 1.0 + 0j}),
        )
        many = evaluate_many(config, [-1.5 + 1.5j, -1.5 + 1.5j], tol=1.0, shell_cap=0)
        assert [_bits(r) for r in many] == [_bits(evaluate(config, -1.5 + 1.5j, tol=1.0, shell_cap=0))] * 2

    def test_no_point_kept(self):
        # no support point of degree 0 and a budget of 0: the shell keeps none
        config = ShintaniConfig(
            d=1, m=1, r=2, lam=[[1.0, 1.0]], u=[1.0, 1.0], c=[[1.0]],
            theta=CoefficientSpec.finite_support({(0, 1): 1.0 + 0j}),
        )
        many = evaluate_many(config, [-1.5 + 1.5j, 2.0 - 1j], tol=1.0, shell_cap=0)
        assert [r.value for r in many] == [0j, 0j]
        assert [_bits(r) for r in many] == [_bits(evaluate(config, s, tol=1.0, shell_cap=0)) for s in (-1.5 + 1.5j, 2.0 - 1j)]

    def test_slices_hold_the_bits(self, monkeypatch):
        # a block of 40 terms: slices of a few points, and slices of one
        # point whose terms are more than a block
        config = _one_form(CoefficientSpec.finite_support(self.grid(1, 120, 0.9)), u=0.5)
        res = [1.0, 2.0, 6.0, 40.0]
        points = [complex(res[k % 4], 0.5 * k - 7.0) for k in range(30)] + [2.0, 6.0]
        ref = [_bits(evaluate(config, s, tol=1e-9)) for s in points]
        assert len({r[3] for r in ref}) == 4  # the points keep different shells
        monkeypatch.setattr(series, "_BLOCK", 40)
        assert [_bits(r) for r in evaluate_many(config, points, tol=1e-9)] == ref

    def test_large_support_memory(self):
        # 20,100 support points at 400 complex points: 8.04e6 terms, formed
        # a block of points at a time instead of in one 129 MB array
        theta = CoefficientSpec.finite_support(self.grid(2, 199, 0.97))
        config = ShintaniConfig(d=1, m=1, r=2, lam=[[1.0, 1.0]], u=[0.5, 0.5], c=[[1.0]], theta=theta)
        points = [complex(2.0 + 0.5 * (k % 3), 0.1 * k) for k in range(400)]
        tracemalloc.start()
        try:
            many = evaluate_many(config, points, tol=1e-12)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.5 * 16 * series._BLOCK, peak
        assert {r.shells_used for r in many} == {199}
        for k in range(0, 400, 37):
            assert _bits(many[k]) == _bits(evaluate(config, points[k], tol=1e-12)), points[k]


def _sweep_cases(seed: int, count: int):
    """Seeded finite supports with complex theta (real on about a third),
    m, r and d up to 3, 1 to 44 support points (up to 8 on half of them),
    and batches of 1 to 7 points, a third of them real and every other one
    sharing Re s with the first; loose tolerances and small budgets stop
    some shells early."""
    top = {1: 59, 2: 9, 3: 4}  # room for 44 distinct support points at every rank
    rng = np.random.default_rng(seed)
    for _ in range(count):
        m, d, r = (int(x) for x in rng.integers(1, 4, size=3))
        size = rng.integers(1, 45 if rng.random() < 0.5 else 9)
        pts = sorted(set(map(tuple, rng.integers(0, top[r] + 1, size=(size, r)).tolist())))
        vals = rng.uniform(-2.0, 2.0, (len(pts), 2))
        if rng.random() < 0.3:
            vals[:, 1] = 0.0
        config = ShintaniConfig(
            d=d, m=m, r=r, lam=rng.uniform(0.3, 2.0, (m, r)), u=rng.uniform(0.3, 2.0, r),
            c=rng.uniform(-1.5, 1.5, (m, d)),
            theta=CoefficientSpec.finite_support(dict(zip(pts, (vals[:, 0] + 1j * vals[:, 1]).tolist()))),
        )
        n = int(rng.integers(1, 8))
        re = rng.uniform(-3.0, 3.0, (n, d))
        im = rng.uniform(-20.0, 20.0, (n, d)) * (rng.random((n, 1)) < 0.7)
        re[1::2] = re[0]
        tol = 10.0 ** rng.uniform(-12.0, 0.0)
        cap = int(rng.integers(0, 40)) if rng.random() < 0.3 else 10**4
        yield config, re + 1j * im, tol, cap


def test_finite_sweep_lone_batched_and_partial_agree(monkeypatch):
    """evaluate_many(...)[i] and evaluate(...) give the same bits at every
    point of 1,500 finite supports, and evaluate_partial(..., shells_used)
    at one point of each; every other batch runs with _BLOCK = 2, whose
    slices are one or two points wide and often one support point long."""
    points = 0
    for k, (config, batch, tol, cap) in enumerate(_sweep_cases(2013, 1500)):
        with monkeypatch.context() as patch:
            if k % 2:
                patch.setattr(series, "_BLOCK", 2)
            many = evaluate_many(config, batch, tol=tol, shell_cap=cap)
        for s, res in zip(batch, many):
            assert _bits(res) == _bits(evaluate(config, s, tol=tol, shell_cap=cap)), s
        s, res = batch[k % len(batch)], many[k % len(batch)]
        assert _bits(evaluate_partial(config, s, res.shells_used))[:4] == _bits(res)[:4], s
        points += len(batch)
    assert points > 5000


def test_finite_supports_use_one_kernel(monkeypatch):
    """No finite-support evaluation reaches the per-point kernels: every
    partial sum of evaluate, evaluate_many and evaluate_partial comes from
    `_finite_sums`, at real and complex s, for one or more forms and points."""
    def refuse(*args, **kwargs):
        raise AssertionError("a finite support reached a per-point kernel")

    kernel = mock.Mock(wraps=series._finite_sums)
    monkeypatch.setattr(series, "_finite_sums", kernel)
    monkeypatch.setattr(series, "_sum_terms", refuse)
    monkeypatch.setattr(series, "_form_powers", refuse)
    calls = 0
    for config, batch, tol, cap in _sweep_cases(7, 40):
        evaluate_many(config, batch, tol=tol, shell_cap=cap)
        for s in batch:
            evaluate(config, s, tol=tol, shell_cap=cap)
            evaluate_partial(config, s, 3)
        calls += 1 + 2 * len(batch)
    binomial = make_special_distribution("binomial", j=2, big_k=3, phi=0.8, sigma=-1.0)
    evaluate(binomial.config, -1.0)
    evaluate(differentiate(binomial.config, 1), -1.0 + 2.0j)
    assert kernel.call_count == calls + 2
