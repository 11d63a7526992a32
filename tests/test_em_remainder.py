"""One Euler–Maclaurin remainder for every line: a log-free line is the
g = 0 case of the log-weighted bound, and a degree-0 line is the sum of a
degree-1 line whose log coefficient is 0."""

from __future__ import annotations

import math
from unittest import mock

import mpmath as mp
import numpy as np

from shintani import series
from shintani.series import _em_remainder_bounds, _em_sum, _line_partial_sum, evaluate_partial, make_special

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
