"""One Euler–Maclaurin remainder for every line: a log-free line is the
g = 0 case of the log-weighted bound, and a degree-0 line is the sum of a
degree-1 line whose log coefficient is 0.  The start point and order: the
one-pass walk over the Bernoulli orders returns the full scan's choice,
the doubling steps after Newton reach the target, and the remainder that
the line sums report is the sum of the per-line bounds."""

from __future__ import annotations

import math
import operator
from typing import Optional
from unittest import mock

import mpmath as mp
import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from shintani import series
from shintani.series import (
    _em_remainder_bounds,
    _em_sum,
    _line_partial_sum,
    differentiate,
    evaluate_partial,
    make_special,
)

ROUNDING = 4e-15  # the rounding rule of tests/test_closed_form.py


def _abs_scale(b: complex, v: np.ndarray, k_max: np.ndarray, weights: np.ndarray) -> float:
    """sum_i |w_i| sum_{k<=k_max_i} |(k+v_i)^(-b)|."""
    return float(sum(
        abs(w) * np.sum((np.arange(k + 1) + x) ** -b.real) for x, k, w in zip(v, k_max, weights)
    ))


class TestLogFreeFork:
    def test_no_logs_agrees_with_zero_logs(self):
        # `_em_sum` forms a degree-0 line without a log; with a zero degree-1
        # column the same kernel sums the same series
        rng = np.random.default_rng(19)
        bs = [0.0, -1.0, -2.0, -3.0, -4.0, -5.0, 2.0, 1.5 + 10j, 0.5 - 3j, 3.0 + 40j, -2.5 + 1j, 7.0]
        lines = 0
        for case in range(40):
            b = complex(bs[case % len(bs)])
            n = 10
            v = rng.uniform(0.05, 40.0, size=n)
            k_max = rng.integers(0, 3000, size=n)
            # heads past max(16, |b|) as `_em_line_sums` chooses them, some lines all head
            heads = np.minimum(np.ceil(max(16.0, abs(b)) - v).clip(0) + rng.integers(0, 40, size=n), k_max + 1)
            heads = heads.astype(np.int64)
            weights = rng.normal(size=n) + 1j * rng.normal(size=n)
            for order in (0, 1, 5, 20):
                plain = _em_sum(b, v, k_max, weights, heads, order)
                zero = _em_sum(b, v, k_max, np.column_stack((weights, np.zeros(n))), heads, order)
                assert abs(plain - zero) <= ROUNDING * (1.0 + _abs_scale(b, v, k_max, weights)), (b, order)
            lines += n
        assert lines == 400


class TestOneBound:
    def test_g0_bound_is_the_plain_bound(self):
        # at g = 0: 4 |w| |(b)_2M| (2 pi)^(-2M) X^(-p) / p, and 0 where (b)_2M = 0
        for b in (2.0, 1.5 + 10j, 0.5 - 3j, 3.0 + 40j, -1.5 + 2j, -2.0, -3.0):
            for v, h, w in ((0.3, 1, 1.0), (1.0, 16, 0.5 - 2j)):
                bounds = _em_remainder_bounds(complex(b), v, h, w)
                assert [m for m, _ in bounds] == [m for m in range(1, 21) if b.real + 2 * m - 1 > 0]
                with mp.workdps(40):
                    bb, x = mp.mpc(complex(b).real, complex(b).imag), mp.mpf(h + v)
                    for m, bound in bounds:
                        p = complex(b).real + 2 * m - 1
                        ref = 4 * abs(w) * abs(mp.rf(bb, 2 * m)) * (2 * mp.pi) ** (-2 * m) * x ** (-p) / p
                        assert abs(bound - float(ref)) <= 1e-12 * float(ref), (b, m)

    def test_odd_negative_riemann_lines_have_zero_remainder(self):
        # s = -1, -3: the first order whose (b)_2M has the zero factor has
        # p = 0 and is skipped; the next one (p = 2, a zero Bernoulli
        # coefficient) gives the same sum and a remainder of exactly 0
        cfg = make_special("riemann")
        for s, first_order in ((-1.0, 2), (-3.0, 3)):
            pt = series.as_point(s, 1)
            for n_shell in (600, 5000):
                with mock.patch.object(series, "_em_sum", wraps=series._em_sum) as spy:
                    value, remainder = _line_partial_sum(cfg, pt, n_shell, math.inf)
                assert remainder == 0.0
                args = spy.call_args.args
                assert args[5] == first_order
                assert _em_sum(*args[:5], first_order - 1) == value
                block = series._sum_terms(cfg, pt, series._blocks_upto(cfg, n_shell))
                exact = sum(float(n) ** -s for n in range(1, n_shell + 2))  # integers below 2^53
                assert abs(value - exact) <= ROUNDING * exact
                assert abs(block - exact) <= ROUNDING * exact
                res = evaluate_partial(cfg, s, n_shell)
                assert (res.value, res.tail_bound, res.certified) == (value, math.inf, False)


def _full_scan(b: complex, totals: list, target: float) -> tuple[float, Optional[int]]:
    """The least (X_M, M) over every order of a line set whose Pbar has the
    coefficients `totals`, each X_M formed as `series._em_order` forms it:
    in closed form where q = 0 (degree 0, or S_M(0) = 0), else by
    `series._em_start`; (inf, None) when no order applies."""
    log_target = math.log(target * (1.0 - 2.0**-20))
    rows = series._derivative_rows(totals)
    best = (math.inf, math.inf)
    for order, log_c, decay, alphas in series._em_remainder_constants(b, len(totals) - 1):
        s0 = sum(map(operator.mul, alphas, rows[0]))
        c0 = log_c + (math.log(s0) - log_target) if s0 > 0.0 else -math.inf
        y = max(c0 / decay, series._LOG_EM_HEAD)
        if len(totals) == 1 or s0 == 0.0:
            x = max(math.exp(min(y, 700.0)), series._EM_HEAD)
        else:
            x = series._em_start(decay, alphas, rows, c0, y)
        best = min(best, (x, order))
    return best[0], None if best[1] == math.inf else best[1]


def _order_choice(b: complex, totals: list, target: float) -> tuple[float, Optional[int]]:
    x, chosen = series._em_order(b, totals, target)
    return x, None if chosen is None else chosen[0]


TOTAL = st.one_of(st.just(0.0), st.floats(1e-300, 1e300))


class TestStartPoint:
    @given(
        st.one_of(st.just(0.0), st.floats(-45.0, 60.0), st.floats(1e-300, 1e3), st.integers(-40, 5).map(float)),
        st.one_of(st.just(0.0), st.floats(-1e3, 1e3), st.floats(-1e12, 1e12)),
        st.lists(TOTAL, min_size=1, max_size=4).filter(any),
        st.floats(1e-300, 1e300),
    )
    @example(2.0**-1022, 2.0**-1022, [0.0, 0.0, 0.0, 1.0], 1.0)  # |r| of a ratio overflowed
    @settings(deadline=None)
    def test_order_choice_is_the_full_scans(self, re_b, im_b, totals, target):
        # degrees 0-3, Re b of either sign (no order applies below Re b = -39): the
        # one-pass walk over (x_lo, M) returns the least (X_M, M) of every order
        b = complex(re_b, im_b)
        assert _order_choice(b, totals, target) == _full_scan(b, totals, target)

    def test_overflowing_ratios_skip_the_order(self):
        # at b = 2^-1022 (1 + i) the ratios 1/(b + 0) have finite parts whose
        # modulus passes the float range: abs() raised OverflowError out of
        # evaluate_partial; such an order is skipped, and here none is left
        b = complex(2.0**-1022, 2.0**-1022)
        assert series._em_order(b, [0.0, 0.0, 0.0, 1.0], 1.0) == (math.inf, None)
        config = differentiate(differentiate(differentiate(make_special("riemann"), 1), 1), 1)
        res = evaluate_partial(config, b, 1000)
        assert not res.certified and res.tail_bound == math.inf

    def test_order_scan_sweep(self):
        all_orders, drawn = series._em_remainder_constants, []

        def counted(b, degree):
            for const in all_orders(b, degree):
                drawn.append(const[0])
                yield const

        for re_b in (-3.0, -2.5, 0.0, 1e-9, 0.5, 1.0, 2.0, 3.5, 7.25, 20.0, 41.0):
            for im_b in (0.0, 0.3, 5.0, -40.0, 1e3, -1e6):
                for totals in ([1e-12], [1.0], [3e5], [1e100], [1.0, 0.5], [1e-12, 0.0, 3.0], [0.0, 2.0, 1e5, 1.0]):
                    for target in (1e-300, 1e-60, 1e-20, 1e-8, 1.0):
                        b = complex(re_b, im_b)
                        drawn.clear()
                        with mock.patch.object(series, "_em_remainder_constants", counted):
                            x, chosen = series._em_order(b, totals, target)
                        assert (x, chosen[0]) == _full_scan(b, totals, target), (b, totals, target)
                        if x == series._EM_HEAD and len(totals) == 1:
                            # degree 0: the first order at the floor is chosen, and no order after it is drawn
                            assert drawn[-1] == chosen[0], (b, totals, target)

    def test_reported_remainder_is_the_sum_of_line_bounds(self):
        # the remainder `_em_line_sums` reports is the sum over its Euler–Maclaurin
        # lines (those with head <= k_max) of `_em_remainder_bounds` at the chosen
        # order, each line from its start point: plain and log-weighted euler_zagier
        # lines, and a random K = 2 line set where short lines are summed directly
        ez = make_special("euler_zagier", r=2, u=[0.3, 0.1])
        calls = []
        for config, s in ((ez, [3.0, 2.0]), (ez, [2.5 + 4j, 1.5 - 3j]), (differentiate(ez, 1), [3.0, 2.0]),
                          (differentiate(differentiate(ez, 1), 2), [2.5 + 4j, 2.0])):
            with mock.patch.object(series, "_em_line_sums", wraps=series._em_line_sums) as lines:
                _line_partial_sum(config, series.as_point(s, 2), 3000, 1e-12)
            calls.append(lines.call_args.args)
        rng = np.random.default_rng(5)
        weights = rng.normal(size=(400, 3)) + 1j * rng.normal(size=(400, 3))
        calls.append((2.5 + 30j, rng.uniform(0.05, 40.0, size=400), rng.integers(0, 60, size=400), weights, 1e-20))
        direct = 0
        for b, v, k_max, weights, target in calls:
            with mock.patch.object(series, "_em_sum", wraps=series._em_sum) as sums:
                _, remainder = series._em_line_sums(b, v, k_max, weights, target)
            heads, order = sums.call_args.args[4:]
            em = np.flatnonzero(heads <= k_max)
            assert em.size > 100 and order > 0
            weights = weights.reshape(v.size, -1)
            bounds = [dict(_em_remainder_bounds(b, v[i], int(heads[i]), *weights[i]))[order] for i in em]
            assert 0.0 < remainder <= target
            assert abs(remainder - math.fsum(bounds)) <= 1e-13 * remainder, (b, remainder, math.fsum(bounds))
            direct += v.size - em.size
        assert direct > 20

    def test_doubling_steps_after_newton_reach_the_target(self):
        # K = 2 and 3 line sets where psi is concave at the start: one Newton step from
        # c0/p ends below the root, and the steps to the right end where the bound of
        # the order is at most the target
        cases = [(0.6, [10.0, 1e-4, 0.1], 1e-3), (1.0, [0.1, 1e-5, 1e-3], 1e-7),
                 (0.6, [0.1, 1e-3, 1e-6, 1e-4], 1e-6), (3.5, [10.0, 1e-5, 1e-2, 0.1], 1e-7)]
        for re_b, totals, target in cases:
            b = complex(re_b)
            rows = series._derivative_rows(totals)
            order, log_c, decay, alphas = next(series._em_remainder_constants(b, len(totals) - 1))
            assert order == 1
            c0 = log_c + (math.log(sum(map(operator.mul, alphas, rows[0]))) - math.log(target * (1.0 - 2.0**-20)))
            s = series._bound_poly(alphas, rows)
            q = [0.0] + [si / s[0] for si in s[1:]]

            def psi(y):
                return decay * y - math.log1p(series._horner(q, y)) - c0

            y0 = max(c0 / decay, series._LOG_EM_HEAD)
            slope = decay - series._horner([i * c for i, c in enumerate(q)][1:], y0) / (1.0 + series._horner(q, y0))
            y1 = max(y0 - psi(y0) / slope, series._LOG_EM_HEAD)
            assert psi(y1) < -(2.0**-21)  # one Newton step ends below the root
            with mock.patch.object(series, "_EM_NEWTON", 1):
                x = series._em_start(decay, alphas, rows, c0, y0)
            assert x > math.exp(y1)
            bound = sum(bound for m, bound in _em_remainder_bounds(b, x - 1.0, 1, *totals) if m == 1)
            assert bound <= target
            assert math.log(x) <= y1 + 2.0 * (math.log(series._em_start(decay, alphas, rows, c0, y0)) - y1)
