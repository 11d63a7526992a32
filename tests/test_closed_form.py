"""Closed-form rank-1 partial sums against the block route and mpmath."""

from __future__ import annotations

import math
import time
from fractions import Fraction
from unittest import mock

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from shintani import series
from shintani.coefficients import CoefficientSpec
from shintani.errors import NumericError
from shintani.series import (
    ComplexPoint,
    ShintaniConfig,
    _blocks_upto,
    _em_line_sums,
    _em_sum,
    _em_remainder_bounds,
    _line_partial_sum,
    _sum_terms,
    _tail_bound,
    differentiate,
    evaluate,
    evaluate_partial,
    make_special,
)

ROUNDING = 4e-15


def _config(seed: int, m: int, d: int, kind: str, q: int, complex_theta: bool) -> ShintaniConfig:
    rng = np.random.default_rng(seed)
    lam = rng.uniform(0.4, 2.0, size=(m, 1))
    u = rng.uniform(0.05, 1.5, size=1)
    c = rng.uniform(0.6, 1.4, size=(m, d))
    imag = 1j if complex_theta else 0.0
    if kind == "constant":
        theta = CoefficientSpec.constant(rng.uniform(0.2, 2.0) + imag * rng.uniform(-1.0, 1.0))
    else:
        table = rng.uniform(-1.0, 1.0, size=q) + imag * rng.uniform(-1.0, 1.0, size=q)
        if q > 1 and rng.uniform() < 0.3:
            table[rng.integers(q)] = 0.0
        theta = CoefficientSpec.periodic((q,), table)
    return ShintaniConfig(d=d, m=m, r=1, lam=lam, u=u, c=c, theta=theta)


def _point(config: ShintaniConfig, seed: int, re_b: float, complex_s: bool) -> ComplexPoint:
    """s with sum_l Re<c_l, s> = re_b and each Im s_j in [-50, 50]."""
    rng = np.random.default_rng(seed + 1)
    base = rng.uniform(0.5, 1.5, size=config.d)
    re = base * re_b / float(np.sum(config.c @ base))
    im = rng.uniform(-50.0, 50.0, size=config.d) if complex_s else np.zeros(config.d)
    return ComplexPoint(re, im)


def _term_sizes(config: ShintaniConfig, pt: ComplexPoint, n_shell: int) -> tuple[np.ndarray, np.ndarray]:
    """|theta(n)| prod_l |L_l(n)^(-beta_l)| for n <= n_shell, and the phase
    condition number sum_l |Im beta_l| |log L_l(n)| of each term."""
    n = np.arange(n_shell + 1, dtype=float)
    table = np.atleast_1d(np.asarray(
        config.theta.params["table"] if config.theta.family == "periodic"
        else [config.theta.params["value"]], dtype=complex,
    ))
    theta = np.abs(table[np.arange(n_shell + 1) % table.size])
    forms = np.outer(n + config.u[0], config.lam[:, 0])
    sizes = theta * np.prod(forms ** -(config.c @ pt.re), axis=1)
    return sizes, np.abs(np.log(forms)) @ np.abs(config.c @ pt.im)


def _abs_terms(config: ShintaniConfig, pt: ComplexPoint, n_shell: int) -> float:
    return float(np.sum(_term_sizes(config, pt, n_shell)[0]))


def _tolerance(config: ShintaniConfig, pt: ComplexPoint, n_shell: int) -> float:
    """4e-15 (1 + sum_n |term_n| (1 + phase condition number of term_n)).

    The block route forms exp(-beta log L), so a term at complex s carries a
    phase error of about eps |Im beta| |log L| in either route; at real s the
    condition term is 0 and this is 4e-15 (1 + sum |terms|).
    """
    sizes, cond = _term_sizes(config, pt, n_shell)
    return ROUNDING * (1.0 + float(np.sum(sizes * (1.0 + cond))))


def _block(config: ShintaniConfig, pt: ComplexPoint, n_shell: int) -> complex:
    return _sum_terms(config, pt, _blocks_upto(config, n_shell))


def _em_line_sum(b: complex, v: float, k_max: int, h: int, order: int, w: complex = 1.0,
                 g: complex = 0.0) -> complex:
    """sum_{k=0}^{k_max} (w + g log(k+v)) (k+v)^(-b) by `_em_sum` without its remainder, one line."""
    weights = np.array([[w]] if g == 0 else [[w, g]])
    return _em_sum(b, np.array([float(v)]), np.array([k_max]), weights, np.array([h]), order)


def _head(config: ShintaniConfig, pt: ComplexPoint) -> int:
    """Head length of the first plan the closed form tries."""
    b = complex(np.sum(config.c @ pt.values))
    return max(series._EM_HEAD, math.ceil(abs(b)))


configs = st.builds(
    _config,
    seed=st.integers(0, 2**32 - 1),
    m=st.integers(1, 2),
    d=st.integers(1, 2),
    kind=st.sampled_from(["constant", "periodic"]),
    q=st.integers(1, 3),
    complex_theta=st.booleans(),
)


class TestAgainstBlockRoute:
    @given(
        configs,
        st.integers(0, 2**32 - 1),
        st.floats(1.1, 6.0),
        st.booleans(),
        st.one_of(st.sampled_from(["0", "1", "h-1", "h", "h+1", "qh-1", "qh", "qh+1"]),
                  st.integers(0, 10**5)),
    )
    @settings(max_examples=120, deadline=None)
    def test_partial_sums_agree(self, config, seed, re_b, complex_s, where):
        pt = _point(config, seed, re_b, complex_s)
        h = _head(config, pt)
        q = config.theta.params["mods"][0] if config.theta.family == "periodic" else 1
        if isinstance(where, int):
            n_shell = where
        else:
            n_shell = {"0": 0, "1": 1, "h-1": h - 1, "h": h, "h+1": h + 1,
                       "qh-1": q * h - 1, "qh": q * h, "qh+1": q * h + 1}[where]
        got = evaluate_partial(config, pt, n_shell)
        ref = _block(config, pt, n_shell)
        assert abs(got.value - ref) <= _tolerance(config, pt, n_shell)
        assert got.tail_bound == _tail_bound(config, pt.re, n_shell)
        assert got.shells_used == n_shell

    @given(
        configs,
        st.integers(0, 2**32 - 1),
        st.floats(0.05, 3.0),
        st.booleans(),
        st.sampled_from([1e-3, 1e-6, 1e-9, 1e-12]),
    )
    @settings(max_examples=60, deadline=None)
    def test_evaluate_fields_bit_identical(self, config, seed, margin, complex_s, tol):
        rng = np.random.default_rng(seed)
        base = rng.uniform(0.5, 1.5, size=config.d)
        re = base * (1.0 / config.m + margin) / float(np.min(config.c @ base))
        im = rng.uniform(-50.0, 50.0, size=config.d) if complex_s else np.zeros(config.d)
        pt = ComplexPoint(re, im)
        closed = evaluate(config, pt, tol=tol, shell_cap=10**5)
        with mock.patch.object(series, "_line_partial_sum", return_value=None):
            block = evaluate(config, pt, tol=tol, shell_cap=10**5)
        assert closed.tail_bound == block.tail_bound
        assert closed.shells_used == block.shells_used
        assert closed.certified == block.certified
        assert abs(closed.value - block.value) <= _tolerance(config, pt, closed.shells_used)

    def test_other_families_keep_the_block_route(self):
        pt = ComplexPoint([3.0], [0.0])
        config = make_special("lerch_transcendent", u=0.5, q=0.5)
        assert _line_partial_sum(config, series.as_point(pt, config.d), 100, 1.0) is None
        # log factors: riemann' and riemann'' are summed along their line
        for config in (make_special("riemann_derivative"), differentiate(make_special("riemann_derivative"), 1)):
            assert _line_partial_sum(config, pt, 100, 1.0) is not None
            with mock.patch.object(series, "_sum_terms") as block:
                evaluate(config, pt, tol=1e-8)
            assert block.call_count == 0

    def test_real_point_real_value(self):
        res = evaluate(make_special("hurwitz", u=0.25), 2.5, tol=1e-10)
        assert res.value.imag == 0.0 and math.copysign(1.0, res.value.imag) == 1.0


class TestEvaluatePartialRegions:
    def test_exponent_exactly_one(self):
        # sum_{n<=N} 1/(n+u) = psi(N+1+u) - psi(u); B = 0.25 + 0.75 = 1 exactly
        for c, lam in (([[1.0]], [[1.0]]), ([[0.25], [0.75]], [[1.0], [1.0]])):
            cfg = ShintaniConfig(
                d=1, m=len(c), r=1, lam=np.array(lam), u=np.array([0.4]), c=np.array(c),
                theta=CoefficientSpec.constant(1.0),
            )
            for n_shell in (0, 15, 16, 17, 1000, 10**5):
                res = evaluate_partial(cfg, 1.0, n_shell)
                with mp.workdps(30):
                    ref = float(mp.digamma(n_shell + 1.4) - mp.digamma(0.4))
                assert abs(res.value - ref) <= ROUNDING * (1.0 + ref)
                assert res.tail_bound == math.inf and not res.certified

    def test_near_one_and_below_one(self):
        cfg = make_special("hurwitz", u=0.7)
        for s in (1.0 + 1e-9j, 1.0 - 1e-12, 0.5, 0.2 + 40j, -0.5 + 3j, -2.0, -3.0 + 0.5j):
            pt = series.as_point(s, 1)
            for n_shell in (0, 1, 17, 999, 10**5):
                got = evaluate_partial(cfg, pt, n_shell)
                ref = _block(cfg, pt, n_shell)
                assert abs(got.value - ref) <= _tolerance(cfg, pt, n_shell)

    def test_negative_integer_exponent_is_exact(self):
        # B = -2: f is a polynomial, Euler-Maclaurin is exact with remainder 0
        cfg = make_special("riemann")
        value, remainder = _line_partial_sum(cfg, series.as_point(-2.0, 1), 10**4, math.inf)
        n = 10**4 + 1
        exact = n * (n + 1) * (2 * n + 1) // 6
        assert remainder == 0.0
        assert abs(value - exact) <= ROUNDING * exact

    def test_unreachable_plan_sums_the_line_as_the_blocks_do(self):
        # Re B = -45: every order has Re B + 2M <= 1, so no plan exists and
        # the line is one head, summed in the block route's chunks of _BLOCK
        # terms: the same bits at any length
        cfg = make_special("riemann")
        for s in (-45.0, -45.0 + 2.0j):
            pt = series.as_point(s, 1)
            for n_shell in (2**16, 10**5, 3 * 10**6):
                res = evaluate_partial(cfg, pt, n_shell)
                assert res.value == _block(cfg, pt, n_shell), (s, n_shell)
                assert res.tail_bound == math.inf and not res.certified

    def test_riemann_at_1e8_against_mpmath(self):
        # sum_{n<=N} (n+1)^(-s) = zeta(s) - zeta(s, N+2).  At complex s mpmath's
        # zeta(s, a) sieves a - 1 terms for integer a (and its sumem is off by
        # 4e-6 at 1.5-30i), so the tail there is a^(1-s)/(s-1) + a^-s/2 +
        # s a^(-s-1)/12, whose error is below |(s)_3| a^(-Re s-3)/720 < 1e-30.
        cfg = make_special("riemann")
        n_shell = 10**8
        with mp.workdps(30):
            a = mp.mpf(n_shell + 2)
            for s in (2.0, 3.5, 2.0 + 5.0j, 1.5 - 30.0j):
                s_mp = mp.mpc(s.real, s.imag)
                if s_mp.imag == 0:
                    tail = mp.zeta(s_mp.real, a)
                else:
                    tail = a ** (1 - s_mp) / (s_mp - 1) + a ** -s_mp / 2 + s_mp * a ** (-s_mp - 1) / 12
                ref = complex(mp.zeta(s_mp) - tail)
                res = evaluate_partial(cfg, s, n_shell)
                assert abs(res.value - ref) <= ROUNDING * (1.0 + float(mp.zeta(s.real)))

    def test_hurwitz_half_at_1e8_against_mpmath(self):
        # sum_{n<=N} (n+1/2)^(-s) = zeta(s, 1/2) - zeta(s, N+3/2), all in mpmath
        cfg = make_special("hurwitz", u=0.5)
        n_shell = 10**8
        with mp.workdps(30):
            for s in (2.0 + 5.0j, 1.5 - 30.0j, 1.2 + 50.0j):
                s_mp = mp.mpc(s.real, s.imag)
                ref = complex(mp.zeta(s_mp, 0.5) - mp.zeta(s_mp, n_shell + mp.mpf(1.5)))
                res = evaluate_partial(cfg, s, n_shell)
                assert abs(res.value - ref) <= ROUNDING * (1.0 + float(mp.zeta(s.real, 0.5)))


class TestRemainder:
    @staticmethod
    def _exact(b: complex, v: float, k_max: int) -> complex:
        with mp.workdps(40):
            bb = mp.mpc(b.real, b.imag)
            return complex(mp.fsum((k + mp.mpf(v)) ** (-bb) for k in range(k_max + 1)))

    def test_bound_holds_with_small_head_and_order(self):
        checked = 0
        for b in (2.0 + 0j, 1.5 + 10j, 0.5 - 3j, 3.0 + 40j, -1.5 + 2j, 1.0 + 0j):
            for v in (0.3, 1.0):
                for h in (1, 2, 4, 8):
                    bounds = dict(_em_remainder_bounds(b, v, h))
                    for k_max in (h, h + 5, 1500):
                        exact = self._exact(b, v, k_max)
                        scale = 1.0 + sum(abs((k + v) ** -b) for k in range(k_max + 1))
                        for order, bound in bounds.items():
                            err = abs(_em_line_sum(b, v, k_max, h, order) - exact)
                            assert err <= bound + 1e-12 * bound + 1e-14 * scale, (b, v, h, k_max, order)
                            checked += 1
        assert checked > 1000

    def test_each_bernoulli_term_against_mpmath(self):
        # EM(M) - EM(M-1) is the M-th correction B_2M/(2M)! (f^(2M-1)(K+v) - f^(2M-1)(h+v))
        for b in (2.0 + 0j, 0.5 - 3j, 3.0 + 40j):
            v, h, k_max = 0.6, 2, 40
            prev = _em_line_sum(b, v, k_max, h, 0)
            for order in range(1, 21):
                cur = _em_line_sum(b, v, k_max, h, order)
                with mp.workdps(40):
                    bb = mp.mpc(b.real, b.imag)
                    coeff = mp.bernoulli(2 * order) / mp.factorial(2 * order)
                    rise = mp.rf(bb, 2 * order - 1)
                    x0, x1 = mp.mpf(h + v), mp.mpf(k_max + v)
                    term = complex(coeff * rise * (x0 ** (-bb - 2 * order + 1) - x1 ** (-bb - 2 * order + 1)))
                assert abs((cur - prev) - term) <= 1e-12 * abs(term) + 4e-16 * abs(cur), (b, order)
                prev = cur

    def test_bernoulli_table_exact(self):
        for j, (num, den) in enumerate(series._BERNOULLI_EVEN, start=1):
            assert (num, den) == mp.bernfrac(2 * j)
            assert series._EM_COEFFS[j - 1] == float(Fraction(num, den * math.factorial(2 * j)))

    def test_remainder_reported_and_below_tail(self):
        cases = [
            (make_special("riemann"), 2.0),
            (make_special("hurwitz", u=0.3), 2.5 + 30j),
            (ShintaniConfig(d=1, m=1, r=1, lam=np.array([[1.5]]), u=np.array([0.2]),
                            c=np.array([[1.0]]),
                            theta=CoefficientSpec.periodic((3,), [1.0, -0.5j, 0.25])), 3.0 - 7j),
        ]
        for cfg, s in cases:
            pt = series.as_point(s, 1)
            for n_shell in (10**3, 10**6):
                tail = _tail_bound(cfg, pt.re, n_shell)
                value, remainder = _line_partial_sum(cfg, pt, n_shell, tail)
                assert 0.0 < remainder <= 2.0**-60 * tail
                assert tail + remainder == tail
                # the reported bound carries the remainder (visible on a zero tail)
                assert series._partial_sum(cfg, pt, n_shell, 0.0)[1] > 0.0
                # the plan's target is relative to the first terms when the tail is infinite
                _, rem_inf = _line_partial_sum(cfg, pt, n_shell, math.inf)
                assert 0.0 < rem_inf <= 2.0**-60 * _abs_terms(cfg, pt, n_shell)


class TestLogLines:
    """Lines (w + g log x) x^(-b), x = k + v, as `differentiate` gives them,
    against mpmath at 40 digits."""

    @staticmethod
    def _prefix_sums(b: complex, v: float, w: complex, g: complex, count: int) -> tuple[list, list]:
        """sum_{k<=K} (w + g log(k+v)) (k+v)^(-b) and 1 + the sum of |terms|, K < count."""
        exact, scale = [], []
        with mp.workdps(40):
            bb, ww, gg = (mp.mpc(z.real, z.imag) for z in map(complex, (b, w, g)))
            acc, acc_abs = mp.mpc(0), mp.mpf(1)
            for k in range(count):
                x = k + mp.mpf(v)
                term = (ww + gg * mp.log(x)) * x ** (-bb)
                acc, acc_abs = acc + term, acc_abs + abs(term)
                exact.append(complex(acc))
                scale.append(float(acc_abs))
        return exact, scale

    def test_bound_holds_with_small_head_and_order(self):
        checked = 0
        for b in (2.0, 1.5 + 10j, 0.5 - 3j, 3.0 + 40j, -1.5 + 2j, 1.0, 1.0 + 1e-12, -1.0, -2.0):
            for v in (0.3, 1.0):
                for w, g in ((0.0, -1.0), (0.7, 1.3 - 0.4j)):
                    exact, scale = self._prefix_sums(b, v, w, g, 1501)
                    for h in (1, 2, 4, 8):
                        bounds = dict(series._em_remainder_bounds(complex(b), v, h, w, g))
                        for k_max in (h, h + 5, 1500):
                            for order, bound in bounds.items():
                                err = abs(_em_line_sum(complex(b), v, k_max, h, order, w, g) - exact[k_max])
                                allowed = bound + 1e-12 * bound + 1e-14 * scale[k_max]
                                assert err <= allowed, (b, v, w, h, k_max, order)
                                checked += 1
        assert checked > 5000

    def test_zero_factor_keeps_a_log_remainder(self):
        # b = -2: (b)_2M = 0 from M = 2 on, but the log part is no polynomial
        for b in (-1.0, -2.0):
            plain = dict(series._em_remainder_bounds(b, 1.0, 4))
            logged = dict(series._em_remainder_bounds(b, 1.0, 4, 0.0, 1.0))
            assert 0.0 in plain.values()
            assert all(bound > 0.0 for bound in logged.values())

    def test_each_bernoulli_term_against_mpmath(self):
        # EM(M) - EM(M-1) is B_2M/(2M)! (f^(2M-1)(K+v) - f^(2M-1)(h+v)) with
        # f^(n)(x) = (-1)^n x^(-b-n) ((b)_n (w + g log x) - g (b)_n'), and
        # (b)_n' = (b)_n (psi(b+n) - psi(b))
        w, g = 0.7, 1.3 - 0.4j
        for b in (2.0 + 0j, 0.5 - 3j, 3.0 + 40j):
            v, h, k_max = 0.6, 2, 40
            prev = _em_line_sum(b, v, k_max, h, 0, w, g)
            for order in range(1, 21):
                cur = _em_line_sum(b, v, k_max, h, order, w, g)
                with mp.workdps(40):
                    bb, gg = mp.mpc(b.real, b.imag), mp.mpc(g.real, g.imag)
                    n = 2 * order - 1
                    rise = mp.rf(bb, n)
                    drise = rise * (mp.digamma(bb + n) - mp.digamma(bb))

                    def deriv(x):
                        return -(x ** (-bb - n)) * (rise * (w + gg * mp.log(x)) - gg * drise)

                    coeff = mp.bernoulli(2 * order) / mp.factorial(2 * order)
                    term = complex(coeff * (deriv(mp.mpf(k_max + v)) - deriv(mp.mpf(h + v))))
                assert abs((cur - prev) - term) <= 1e-12 * abs(term) + 4e-16 * abs(cur), (b, order)
                prev = cur

    def test_hurwitz_derivative_against_mpmath(self):
        # d/ds zeta(s, u) = -sum_n log(n+u) (n+u)^(-s); the sum of |terms| is
        # -zeta'(sigma, u) less twice the one negative-log term when u < 1
        for u in (0.05, 0.3, 1.0):
            config = differentiate(make_special("hurwitz", u=u), 1)
            for s in (2.5, 3.0 + 7.0j, 2.5 - 30.0j, 4.0 + 1.0j):
                res = evaluate(config, s, tol=1e-10, shell_cap=10**8)
                with mp.workdps(40):
                    s_mp = mp.mpc(s.real, s.imag)
                    ref = complex(mp.zeta(s_mp, u, 1))
                    scale = float(-mp.zeta(s.real, u, 1) - 2 * min(mp.log(u), 0) * mp.mpf(u) ** -s.real)
                assert res.certified
                assert abs(res.value - ref) <= res.tail_bound + ROUNDING * (1.0 + scale), (u, s)
            for n_shell in (0, 17, 2000):  # 2,001 terms: Euler–Maclaurin past the head
                for s in (2.0, 1.5 - 30.0j, 0.5 + 3.0j):
                    got = evaluate_partial(config, s, n_shell).value
                    with mp.workdps(40):
                        s_mp = mp.mpc(complex(s).real, complex(s).imag)
                        ref = complex(mp.zeta(s_mp, u, 1) - mp.zeta(s_mp, u + n_shell + 1, 1))
                        scale = float(mp.fsum(
                            abs(mp.log(n + mp.mpf(u))) * (n + mp.mpf(u)) ** -s_mp.real
                            for n in range(n_shell + 1)
                        ))
                    assert abs(got - ref) <= ROUNDING * (1.0 + scale), (u, s, n_shell)


class TestStartPoint:
    """Every line starts Euler–Maclaurin at X = min_M X_M, where X_M is the
    smallest point (at least _EM_HEAD) with W C_M X_M^(-p_M) <= target."""

    @staticmethod
    def _start_points(b: complex, total_w: float, target: float) -> list[tuple[int, float]]:
        """(M, X_M) for each order, with C_M and p_M read off the remainder
        bound C_M x^(-p_M) at x = 1 and x = e."""
        at_one = dict(_em_remainder_bounds(b, 0.0, 1))
        at_e = dict(_em_remainder_bounds(b, math.e - 1.0, 1))
        out = []
        for order, c in at_one.items():
            x = 0.0 if c == 0.0 else (total_w * c / target) ** (1.0 / math.log(c / at_e[order]))
            out.append((order, max(float(series._EM_HEAD), x)))
        return out

    def test_start_is_the_smallest_head_point(self):
        rng = np.random.default_rng(10)
        checked = 0
        # large |Im b| puts X above _EM_HEAD; the others test the first order at the floor
        for b in (2.5, 1.5 + 20j, 6.0 - 3j, 0.7 + 2j, -3.5 + 1j, 40.0, 1.1 + 80j, 2.0 - 150j):
            v = rng.uniform(0.05, 40.0, size=50)
            k_max = rng.integers(0, 10**5, size=50)
            weights = rng.normal(size=50) + 1j * rng.normal(size=50)
            total_w = float(np.abs(weights).sum())
            for rel in (1e-3, 1e-18, 1e-30):
                target = rel * total_w
                with mock.patch.object(series, "_em_sum", wraps=series._em_sum) as spy:
                    _, remainder = _em_line_sums(complex(b), v, k_max, weights, target)
                heads, order = spy.call_args.args[4:]
                points = self._start_points(complex(b), total_w, target)
                x = min(xm for _, xm in points)
                assert order == next(m for m, xm in points if xm <= x * (1.0 + 1e-9)), (b, rel)
                lo, hi = (
                    np.minimum(np.maximum(np.ceil(x * f - v), 0.0), k_max + 1)
                    for f in (1.0 - 1e-12, 1.0 + 1e-12)
                )
                assert np.all((lo <= heads) & (heads <= hi)), (b, rel)
                assert remainder <= target
                checked += int(np.any(heads <= k_max))
        assert checked == 24  # every case sums some line by Euler–Maclaurin

    def test_direct_through_512_terms_then_euler_maclaurin(self):
        periodic = ShintaniConfig(
            d=1, m=1, r=1, lam=np.array([[1.5]]), u=np.array([0.2]), c=np.array([[1.0]]),
            theta=CoefficientSpec.periodic((3,), [1.0, -0.5j, 0.25]),
        )
        for cfg, s in ((make_special("riemann"), 2.5), (periodic, 3.0 - 7j), (periodic, 1.5 + 4j)):
            pt = series.as_point(s, 1)
            for n_shell in (511, 512):  # 512 and 513 terms over all lines
                tail = _tail_bound(cfg, pt.re, n_shell)
                value, remainder = _line_partial_sum(cfg, pt, n_shell, tail)
                assert abs(value - _block(cfg, pt, n_shell)) <= _tolerance(cfg, pt, n_shell)
                if n_shell == 511:
                    assert remainder == 0.0
                else:
                    assert 0.0 < remainder <= 2.0**-60 * tail

    def test_no_order_sums_directly_at_any_length(self):
        # Re b = -45: no order has Re b + 2M > 1; the line is summed directly
        # with no remainder however long it is, up to the point budget
        cfg = make_special("riemann")
        for s in (-45.0, -45.0 + 2.0j):
            pt = series.as_point(s, 1)
            value, remainder = _line_partial_sum(cfg, pt, 1000, math.inf)
            assert remainder == 0.0
            assert abs(value - _block(cfg, pt, 1000)) <= _tolerance(cfg, pt, 1000)
            for n_shell in (2**16, 10**5, 3 * 10**6):
                assert _line_partial_sum(cfg, pt, n_shell, math.inf) == (_block(cfg, pt, n_shell), 0.0)
            start = time.perf_counter()
            with pytest.raises(NumericError, match="3000000001 Euler–Maclaurin head terms, past the budget"):
                evaluate_partial(cfg, pt, 3 * 10**9)
            assert time.perf_counter() - start < 1.0
