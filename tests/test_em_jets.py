"""One Euler–Maclaurin line kernel for any number of log factors.

A config differentiated K times (`differentiate`) has theta times K log
factors; on a line they multiply out to a polynomial of degree K in
log(k + v), and `series._em_sum` sums P(log x) x^(-b) for any degree.
Checked here against mpmath's zeta derivatives, against the block route
(the reference for `shells_used`, `tail_bound` and `certified`), and by a
property test of the kernel plus its remainder against an mpmath direct
sum; `moment` is a partial sum of the differentiated config.

`python -m pytest tests/test_em_jets.py --hypothesis-profile=ci` runs the
property test derandomized with more examples (see conftest.py).
"""

from __future__ import annotations

import dataclasses
import math
from unittest import mock

import mpmath as mp
import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from shintani import series
from shintani.distributions import build_distribution, moment
from shintani.series import (
    ComplexPoint,
    _em_remainder_bounds,
    _em_sum,
    differentiate,
    evaluate,
    make_special,
)
from test_line_sums import ROUNDING, _tolerance


def _derivative(config, axes):
    for axis in axes:
        config = differentiate(config, axis)
    return config


class TestZetaDerivatives:
    """d^k/ds^k zeta(s, a) = sum_n (-log(n + a))^k (n + a)^(-s), k <= 4."""

    @pytest.mark.parametrize("u", [1.0, 0.5])
    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    def test_against_mpmath(self, u, k):
        config = _derivative(make_special("hurwitz", u=u), [1] * k)
        for s in (2.0, 3.5, 2.0 + 5.0j):
            res = evaluate(config, s, tol=1e-9, shell_cap=10**12)
            with mp.workdps(30):
                s_mp = mp.mpc(complex(s).real, complex(s).imag)
                ref = complex(mp.zeta(s_mp, u, k))
                # sum of |terms|: the derivative at Re s, where every term has
                # one sign but the negative-log one at n = 0 when u < 1
                scale = float(abs(mp.zeta(complex(s).real, u, k))
                              + 2 * abs(mp.log(u)) ** k * mp.mpf(u) ** -complex(s).real)
            phase = abs(complex(s).imag) * math.log(res.shells_used + u + 1.0)
            allowed = res.tail_bound + ROUNDING * (1.0 + scale) * (1.0 + phase)
            assert abs(res.value - ref) <= allowed, (u, k, s, res)
            assert res.tail_bound <= 1e-9 or not res.certified


class TestAgainstBlockRoute:
    """Differentiated euler_zagier (r = 2) and barnes (r = 3) at orders 2-3
    along mixed axes: the line route's `shells_used`, `tail_bound` and
    `certified` are the block route's, bit for bit."""

    CASES = [
        (make_special("euler_zagier", r=2, u=[0.0, 0.0]), [1, 2]),
        (make_special("euler_zagier", r=2, u=[0.3, 0.7]), [2, 1, 1]),
        (make_special("euler_zagier", r=2, u=[0.0, 0.5]), [2, 2]),
        (make_special("barnes", r=3, lam=[1.0, 2.0, 3.0], u=0.5), [1, 1]),
        (make_special("barnes", r=3, lam=[0.7, 1.3, 1.1], u=1.2), [1, 1, 1]),
    ]

    @pytest.mark.parametrize("case", range(len(CASES)))
    def test_fields_bit_identical(self, case):
        config, axes = self.CASES[case]
        config = _derivative(config, axes)
        rng = np.random.default_rng(case)
        for complex_s in (False, True):
            re = np.full(config.d, 3.5) + rng.uniform(0.0, 1.0, size=config.d)
            im = rng.uniform(-20.0, 20.0, size=config.d) if complex_s else np.zeros(config.d)
            pt = ComplexPoint(re, im)
            for tol in (1e-2, 1e-4):
                with mock.patch.object(series, "_sum_terms", wraps=series._sum_terms) as block:
                    lines = evaluate(config, pt, tol=tol, shell_cap=10**5)
                assert block.call_count == 0
                with mock.patch.object(series, "_line_partial_sum", return_value=None):
                    ref = evaluate(config, pt, tol=tol, shell_cap=10**5)
                assert lines.shells_used == ref.shells_used
                assert lines.tail_bound == ref.tail_bound
                assert lines.certified == ref.certified
                assert abs(lines.value - ref.value) <= _tolerance(config, pt, lines.shells_used)


class TestRoute:
    def test_no_lattice_walk(self):
        # riemann'' through riemann'''' and the riemann table's moments of
        # order <= 4 are line sums: the block route is never entered
        dist = build_distribution(make_special("riemann"), 2.0, delta=1e-6)
        with mock.patch.object(series, "_sum_terms", side_effect=AssertionError("block route")):
            config = make_special("riemann_derivative")
            for _ in range(3):
                config = differentiate(config, 1)
                res = evaluate(config, 3.0, tol=1e-6, shell_cap=10**9)
                assert math.isfinite(res.value.real)
            for k in range(5):
                assert math.isfinite(moment(dist, k).value)

    def test_riemann_second_derivative_to_1e_5(self):
        # the shell and bound of the block route, which took 2.4 s
        config = _derivative(make_special("riemann"), [1, 1])
        res = evaluate(config, 2.0, tol=1e-5, shell_cap=10**8)
        assert res.certified and res.shells_used == 34_078_159
        assert res.tail_bound == series._tail_bound(config, np.array([2.0]), 34_078_159)
        with mp.workdps(30):
            ref = float(mp.zeta(2, 1, 2) - mp.zeta(2, 34_078_161, 2))
        assert abs(res.value.real - ref) <= ROUNDING * (1.0 + float(mp.zeta(2, 1, 2)))


class TestMoments:
    def test_scrambled_table_keeps_its_moments(self):
        # moment reads config, sigma, shells_used and normalizer, not the atoms
        dist = build_distribution(make_special("euler_zagier", r=2, u=[0.0, 0.0]), [3.0, 2.0], delta=1e-4)
        rng = np.random.default_rng(3)
        scrambled = dataclasses.replace(
            dist, locations=rng.permutation(dist.locations) + 1.0, masses=rng.permutation(dist.masses)
        )
        for k in ((0, 0), (1, 0), (0, 2), (1, 1), (2, 1)):
            assert moment(scrambled, k) == moment(dist, k)

    @pytest.mark.parametrize("name, sigma, delta", [
        ("riemann", [2.0], 1e-6),
        ("hurwitz", [2.5], 1e-7),
        ("euler_zagier", [3.0, 2.0], 1e-5),
        ("barnes", [5.0], 1e-5),
    ])
    def test_matches_the_table_sum(self, name, sigma, delta):
        params = {"hurwitz": dict(u=0.3), "euler_zagier": dict(r=2, u=[0.0, 0.0]),
                  "barnes": dict(r=3, lam=[1.0, 2.0, 3.0], u=0.5)}.get(name, {})
        dist = build_distribution(make_special(name, **params), sigma, delta=delta)
        orders = [(1,), (2,), (3,)] if dist.d == 1 else [(1, 0), (0, 1), (1, 1), (2, 0), (1, 2), (3, 0)]
        for k in orders:
            got = moment(dist, k)
            powers = np.prod(dist.locations ** np.array(k), axis=1)
            table = math.fsum((powers * dist.masses).tolist())
            size = math.fsum((np.abs(powers) * dist.masses).tolist())
            # the line remainder is at most 2^-60 of the tail bound
            assert abs(got.value - table) <= 2.0**-60 * got.tail_bound + ROUNDING * (1.0 + size), (name, k)


@st.composite
def _lines(draw):
    """One line P(log x) x^(-b), x = k + v, k <= k_max, of degree <= 4 in log x,
    a head h with h + v >= 1 and a Bernoulli order that has a remainder bound."""
    b = complex(draw(st.floats(-3.0, 6.0)), draw(st.one_of(st.just(0.0), st.floats(-40.0, 40.0))))
    v = draw(st.floats(0.05, 40.0))
    k_max = draw(st.integers(0, 1500))
    degree = draw(st.integers(0, 4))
    parts = st.floats(-2.0, 2.0)
    weights = [complex(draw(parts), draw(st.one_of(st.just(0.0), parts))) for _ in range(degree + 1)]
    h = draw(st.integers(max(1, math.ceil(1.0 - v)), 40))
    bounds = dict(_em_remainder_bounds(b, v, h, *weights))
    order = draw(st.sampled_from(sorted(bounds))) if bounds else None
    return b, v, k_max, weights, h, order, bounds.get(order)


@settings(deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(_lines())
def test_em_sum_against_mpmath(line):
    """`_em_sum` with M Bernoulli terms is within its remainder bound of the
    direct sum, plus rounding relative to the sum of |terms| times their
    phase condition numbers 1 + |Im b| |log x| (x^(-b) is exp(-b log x))."""
    b, v, k_max, weights, h, order, bound = line
    if order is None:
        return
    got = _em_sum(b, np.array([v]), np.array([k_max]), np.array([weights]), np.array([h]), order)
    with mp.workdps(40):
        bb = mp.mpc(b.real, b.imag)
        ws = [mp.mpc(w.real, w.imag) for w in weights]
        exact, size = mp.mpc(0), mp.mpf(0)
        for k in range(k_max + 1):
            x = k + mp.mpf(v)
            y = mp.log(x)
            term = mp.fsum(w * y**i for i, w in enumerate(ws)) * x ** (-bb)
            exact, size = exact + term, size + abs(term) * (1 + abs(bb.imag * y))
    err = abs(got - complex(exact))
    assert err <= bound * (1.0 + 1e-9) + 1e-14 * (1.0 + float(size)), (err, bound, float(size))
