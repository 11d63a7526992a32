"""Euler–Maclaurin line sums for lattice rank >= 2 against the block route,
mpmath oracles and threads."""

from __future__ import annotations

import dataclasses
import itertools
import math
import sys
import threading
from unittest import mock

import mpmath as mp
import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from shintani import coefficients as cf
from shintani import series
from shintani.coefficients import CoefficientSpec
from shintani.series import (
    ComplexPoint,
    ShintaniConfig,
    _blocks_upto,
    _line_partial_sum,
    _sum_terms,
    _tail_bound,
    differentiate,
    evaluate,
    evaluate_partial,
    make_special,
)

ROUNDING = 4e-15  # the rounding rule of tests/test_closed_form.py


def _euler_zagier(seed: int, r: int) -> ShintaniConfig:
    u = np.random.default_rng(seed).uniform(0.0, 0.9, size=r)
    return make_special("euler_zagier", r=r, u=u)


def _barnes(seed: int, r: int) -> ShintaniConfig:
    rng = np.random.default_rng(seed)
    return make_special("barnes", r=r, lam=rng.uniform(0.4, 2.0, size=r), u=rng.uniform(0.1, 2.0))


def _periodic(seed: int, complex_theta: bool) -> ShintaniConfig:
    """r = 2, m = 2: column 0 appears in form 0 only; theta has periods (2, 3)."""
    rng = np.random.default_rng(seed)
    lam = np.array([[rng.uniform(0.4, 2.0), rng.uniform(0.4, 2.0)], [0.0, rng.uniform(0.4, 2.0)]])
    table = rng.uniform(-1.0, 1.0, size=(2, 3))
    if complex_theta:
        table = table + 1j * rng.uniform(-1.0, 1.0, size=(2, 3))
    table[rng.integers(2), rng.integers(3)] = 0.0
    return ShintaniConfig(
        d=2, m=2, r=2, lam=lam, u=rng.uniform(0.05, 1.5, size=2),
        c=rng.uniform(0.6, 1.4, size=(2, 2)), theta=CoefficientSpec.periodic((2, 3), table),
    )


def _config(kind: str, seed: int) -> ShintaniConfig:
    if kind.startswith("euler_zagier"):
        return _euler_zagier(seed, int(kind[-1]))
    if kind.startswith("barnes"):
        return _barnes(seed, int(kind[-1]))
    return _periodic(seed, kind == "periodic complex")


KINDS = ["euler_zagier 2", "euler_zagier 3", "barnes 2", "barnes 3", "periodic real", "periodic complex"]
MAX_SHELL = {2: 600, 3: 60}  # keeps the block-route reference small


def _point(config: ShintaniConfig, seed: int, margin: float, complex_s: bool) -> ComplexPoint:
    """s with min_l Re<c_l, s> = r/m + margin and each Im s_j in [-30, 30]."""
    rng = np.random.default_rng(seed + 1)
    base = rng.uniform(0.5, 1.5, size=config.d)
    re = base * (config.r / config.m + margin) / float(np.min(config.c @ base))
    im = rng.uniform(-30.0, 30.0, size=config.d) if complex_s else np.zeros(config.d)
    return ComplexPoint(re, im)


def _block(config: ShintaniConfig, pt: ComplexPoint, n_shell: int) -> complex:
    return _sum_terms(config, pt, _blocks_upto(config, n_shell))


def _tolerance(config: ShintaniConfig, pt: ComplexPoint, n_shell: int) -> float:
    """4e-15 (1 + sum_n |term_n| (1 + sum_l |Im beta_l| |log L_l(n)|)) over
    the lattice points of degree <= n_shell."""
    total = 0.0
    for pts in _blocks_upto(config, n_shell):
        forms = pts @ config.lam.T + config.form_offsets
        theta = np.abs(np.asarray(cf.theta_values(config.theta, pts)))
        sizes = theta * np.prod(forms ** -(config.c @ pt.re), axis=1)
        cond = np.abs(np.log(forms)) @ np.abs(config.c @ pt.im)
        total += float(np.sum(sizes * (1.0 + cond)))
    return ROUNDING * (1.0 + total)


def _head(config: ShintaniConfig, pt: ComplexPoint) -> int:
    """A shell near where line heads end and Euler–Maclaurin starts: max(16, |b|)."""
    _, rows = series._line_column(config.lam)
    b = complex(np.sum((config.c @ pt.values)[rows]))
    return max(series._EM_HEAD, math.ceil(abs(b)))


class TestAgainstBlockRoute:
    @given(
        st.sampled_from(KINDS),
        st.integers(0, 2**32 - 1),
        st.floats(0.1, 3.0),
        st.booleans(),
        st.one_of(st.sampled_from(["0", "1", "h-1", "h", "h+1"]), st.floats(0.0, 1.0)),
    )
    @settings(max_examples=120, deadline=None)
    def test_partial_sums_agree(self, kind, seed, margin, complex_s, where):
        config = _config(kind, seed)
        pt = _point(config, seed, margin, complex_s)
        h = _head(config, pt)
        if isinstance(where, float):
            n_shell = int(where * MAX_SHELL[config.r])
        else:
            n_shell = {"0": 0, "1": 1, "h-1": h - 1, "h": h, "h+1": h + 1}[where]
        got = evaluate_partial(config, pt, n_shell)
        ref = _block(config, pt, n_shell)
        assert abs(got.value - ref) <= _tolerance(config, pt, n_shell)
        assert got.tail_bound == _tail_bound(config, pt.re, n_shell)
        assert got.shells_used == n_shell

    @given(
        st.sampled_from(KINDS),
        st.integers(0, 2**32 - 1),
        st.floats(0.1, 3.0),
        st.booleans(),
        st.sampled_from([1e-3, 1e-6, 1e-9]),
    )
    @settings(max_examples=60, deadline=None)
    def test_evaluate_fields_bit_identical(self, kind, seed, margin, complex_s, tol):
        config = _config(kind, seed)
        pt = _point(config, seed, margin, complex_s)
        lines = evaluate(config, pt, tol=tol, shell_cap=10**5)
        with mock.patch.object(series, "_line_partial_sum", return_value=None):
            block = evaluate(config, pt, tol=tol, shell_cap=10**5)
        assert lines.tail_bound == block.tail_bound
        assert lines.shells_used == block.shells_used
        assert lines.certified == block.certified
        assert abs(lines.value - block.value) <= _tolerance(config, pt, lines.shells_used)

    @given(
        st.sampled_from(KINDS),
        st.integers(0, 2**32 - 1),
        st.integers(1, 3),
        st.floats(0.1, 3.0),
        st.booleans(),
        st.sampled_from([1e-3, 1e-6, 1e-9]),
    )
    @settings(max_examples=60, deadline=None)
    def test_derivative_fields_bit_identical(self, kind, seed, axis, margin, complex_s, tol):
        # one log factor (from `differentiate` along any axis) keeps the line route
        config = _config(kind, seed)
        config = differentiate(config, (axis - 1) % config.d + 1)
        pt = _point(config, seed, margin, complex_s)
        with mock.patch.object(series, "_sum_terms", wraps=series._sum_terms) as block:
            lines = evaluate(config, pt, tol=tol, shell_cap=10**5)
        assert block.call_count == 0
        with mock.patch.object(series, "_line_partial_sum", return_value=None):
            ref = evaluate(config, pt, tol=tol, shell_cap=10**5)
        assert lines.tail_bound == ref.tail_bound
        assert lines.shells_used == ref.shells_used
        assert lines.certified == ref.certified
        assert abs(lines.value - ref.value) <= _tolerance(config, pt, lines.shells_used)

    @given(
        st.sampled_from(KINDS),
        st.integers(0, 2**32 - 1),
        st.integers(1, 3),
        st.floats(0.1, 3.0),
        st.booleans(),
        st.one_of(st.sampled_from(["0", "1", "h-1", "h", "h+1"]), st.floats(0.0, 1.0)),
    )
    @settings(max_examples=60, deadline=None)
    def test_derivative_partial_sums_agree(self, kind, seed, axis, margin, complex_s, where):
        config = _config(kind, seed)
        config = differentiate(config, (axis - 1) % config.d + 1)
        pt = _point(config, seed, margin, complex_s)
        h = _head(config, pt)
        if isinstance(where, float):
            n_shell = int(where * MAX_SHELL[config.r])
        else:
            n_shell = {"0": 0, "1": 1, "h-1": h - 1, "h": h, "h+1": h + 1}[where]
        got = evaluate_partial(config, pt, n_shell)
        assert abs(got.value - _block(config, pt, n_shell)) <= _tolerance(config, pt, n_shell)
        assert got.tail_bound == _tail_bound(config, pt.re, n_shell)

    def test_proportional_forms_share_the_line(self):
        # form 1 is twice form 0, so on a line both are one Hurwitz-type factor
        config = ShintaniConfig(
            d=1, m=2, r=2, lam=np.array([[1.0, 0.5], [2.0, 1.0]]), u=np.array([0.3, 0.8]),
            c=np.array([[1.5], [1.0]]), theta=CoefficientSpec.constant(1.0),
        )
        assert series._line_column(config.lam)[1].tolist() == [0, 1]
        for s in (2.0, 2.0 + 7.0j):
            pt = series.as_point(s, 1)
            for n_shell in (0, 17, 300):
                got = evaluate_partial(config, pt, n_shell)
                assert abs(got.value - _block(config, pt, n_shell)) <= _tolerance(config, pt, n_shell)


class TestRoutes:
    def test_ineligible_configs_keep_the_block_route(self):
        ineligible = (
            make_special("generalized_barnes", m=2, r=2, lam=[[1.0, 2.0], [2.0, 1.0]], u=[1.0, 0.5]),
            make_special("generalized_barnes", m=2, r=3, lam=[[1.0, 2.0, 1.5], [2.0, 1.0, 1.0]],
                         u=[1.0, 0.5, 0.7]),
            make_special("lerch_transcendent", u=0.5, q=0.5),
        )
        for config in ineligible:
            point = series.as_point(np.full(config.d, 3.0), config.d)
            assert _line_partial_sum(config, point, 20, 1.0) is None
            with mock.patch.object(series, "_sum_terms", wraps=series._sum_terms) as block:
                evaluate(config, point, tol=1e-3, shell_cap=10**4)
            assert block.call_count == 1
        for config in (make_special("euler_zagier", r=2, u=[0.0, 0.0]),
                       make_special("barnes", r=3, lam=[1.0, 2.0, 3.0], u=0.5),
                       differentiate(make_special("barnes", r=2, lam=[1.0, 1.5], u=1.0), 1),
                       differentiate(make_special("euler_zagier", r=2, u=[0.0, 0.0]), 1),
                       # a second derivative: two log factors
                       differentiate(differentiate(make_special("euler_zagier", r=2, u=[0.0, 0.0]), 1), 2),
                       make_special("riemann_derivative")):
            point = series.as_point(np.full(config.d, 4.0), config.d)
            with mock.patch.object(series, "_sum_terms") as block:
                evaluate(config, point, tol=1e-3, shell_cap=10**4)
            assert block.call_count == 0

    def test_remainder_reported_and_below_tail(self):
        cases = [
            (make_special("euler_zagier", r=2, u=[0.0, 0.0]), [3.0, 2.0]),
            (make_special("euler_zagier", r=3, u=[0.2, 0.5, 0.1]), [2.5 + 4j, 2.0, 1.5 - 3j]),
            (make_special("barnes", r=3, lam=[1.0, 1.0, 1.0], u=1.0), 5.0),
            (make_special("barnes", r=2, lam=[0.7, 1.9], u=0.4), 3.5 + 20j),
            (_periodic(5, True), [2.5, 2.0 - 9j]),
        ]
        for config, s in cases:
            pt = series.as_point(s, config.d)
            for n_shell in (300, 600):
                tail = _tail_bound(config, pt.re, n_shell)
                value, remainder = _line_partial_sum(config, pt, n_shell, tail)
                assert 0.0 < remainder <= 2.0**-60 * tail
                assert tail + remainder == tail
                assert series._partial_sum(config, pt, n_shell, 0.0)[1] > 0.0


def _mp_power_sums(s, count: int) -> list:
    """P[m] = sum_{i=1}^{m} i^(-s) for m = 0..count, in mpmath."""
    out = [mp.mpf(0)]
    for i in range(1, count + 1):
        out.append(out[-1] + mp.mpf(i) ** (-s))
    return out


class TestOracles:
    def test_euler_zagier_against_mpmath_lines(self):
        # u = (0, 0): L_0 = n_0 + n_1 + 2, L_1 = n_1 + 1; the line at n_1 = m sums
        # (k + m + 2)^(-s_0) over k <= N - m, which is P_s0(N + 2) - P_s0(m + 1)
        config = make_special("euler_zagier", r=2, u=[0.0, 0.0])
        for s, n_shell in (((3.0, 2.0), 10**4), ((3.0, 2.0), 4470), ((3.0 + 5.0j, 2.0 - 3.0j), 3000)):
            with mp.workdps(30):
                s0, s1 = (mp.mpc(z.real, z.imag) for z in map(complex, s))
                p, p_abs = _mp_power_sums(s0, n_shell + 2), _mp_power_sums(s0.real, n_shell + 2)
                ref = complex(mp.fsum(
                    (m + 1) ** (-s1) * (p[n_shell + 2] - p[m + 1]) for m in range(n_shell + 1)
                ))
                scale = float(mp.fsum(  # sum of |terms|
                    (m + 1) ** (-s1.real) * (p_abs[n_shell + 2] - p_abs[m + 1]) for m in range(n_shell + 1)
                ))
            got = evaluate_partial(config, list(s), n_shell)
            assert abs(got.value - ref) <= ROUNDING * (1.0 + scale), (s, n_shell)

    def test_heavy_euler_zagier_keeps_shell_and_bound(self):
        config = make_special("euler_zagier", r=2, u=[0.0, 0.0])
        res = evaluate(config, [3.0, 2.0], tol=1e-8, shell_cap=10**7)
        assert res.shells_used == 4470 and not res.certified
        assert res.tail_bound == _tail_bound(config, np.array([3.0, 2.0]), 4470)

    def test_barnes_against_hurwitz_combination(self):
        # sum_{t <= N} C(t+2, 2) (t+u)^(-s) = H(s, u) - H(s, N+1+u) with
        # H(s, a) = (zeta(s-2, a) + (3-2u) zeta(s-1, a) + (u-1)(u-2) zeta(s, a)) / 2
        for u, s, n_shell in ((0.7, 5.0 + 3.0j, 389), (1.3, 6.0 - 10.0j, 120), (1.0, 5.0, 389)):
            config = make_special("barnes", r=3, lam=[1.0, 1.0, 1.0], u=u)
            with mp.workdps(30):
                uu, ss = mp.mpf(u), mp.mpc(s.real, s.imag)

                def combo(a):
                    return (mp.zeta(ss - 2, a) + (3 - 2 * uu) * mp.zeta(ss - 1, a)
                            + (uu - 1) * (uu - 2) * mp.zeta(ss, a)) / 2

                ref = complex(combo(uu) - combo(n_shell + 1 + uu))
                scale = float(mp.fsum(
                    mp.binomial(t + 2, 2) * (t + uu) ** (-s.real) for t in range(n_shell + 1)
                ))
            got = evaluate_partial(config, s, n_shell)
            assert abs(got.value - ref) <= ROUNDING * (1.0 + scale), (u, s)

    def test_heavy_barnes_keeps_shell_and_bound(self):
        config = make_special("barnes", r=3, lam=[1.0, 1.0, 1.0], u=1.0)
        res = evaluate(config, 5.0, tol=1e-8, shell_cap=10**7)
        assert res.shells_used == 389 and not res.certified
        assert res.tail_bound == _tail_bound(config, np.array([5.0]), 389)

    def test_barnes_r4_against_hurwitz_combination(self):
        # sum_{t <= N} C(t+3, 3) (t+u)^(-s) = H(s, u) - H(s, N+1+u): with x = t + u
        # and c = 2 - u, C(t+3, 3) = ((x+c)^3 - (x+c)) / 6, so H(s, a) = (zeta(s-3, a)
        # + 3c zeta(s-2, a) + (3c^2 - 1) zeta(s-1, a) + (c^3 - c) zeta(s, a)) / 6
        for u, s in ((1.0, 7.0), (0.6, 5.5 + 4.0j), (1.7, 6.5 - 12.0j), (2.3, 4.75)):
            config = make_special("barnes", r=4, lam=[1.0, 1.0, 1.0, 1.0], u=u)
            for n_shell in (100, 400):
                with mp.workdps(30):
                    cc, ss = 2 - mp.mpf(u), mp.mpc(complex(s).real, complex(s).imag)

                    def combo(a):
                        return (mp.zeta(ss - 3, a) + 3 * cc * mp.zeta(ss - 2, a)
                                + (3 * cc**2 - 1) * mp.zeta(ss - 1, a) + (cc**3 - cc) * mp.zeta(ss, a)) / 6

                    ref = complex(combo(mp.mpf(u)) - combo(n_shell + 1 + mp.mpf(u)))
                    scale = float(mp.fsum(
                        mp.binomial(t + 3, 3) * (t + mp.mpf(u)) ** (-complex(s).real) for t in range(n_shell + 1)
                    ))
                got = evaluate_partial(config, s, n_shell)
                assert abs(got.value - ref) <= ROUNDING * (1.0 + scale), (u, s, n_shell)


def _rest_free(seed: int, r: int, periodic: bool, equal_along: bool) -> ShintaniConfig:
    """d = m = 1 and forms lam (n + u) with line column 0: lam = (lam_0, mu, ..., mu)
    when `equal_along` (lines merge by rest degree), else distinct rest entries;
    theta constant or periodic along column 0 only, so it does not vary with the rest."""
    rng = np.random.default_rng(seed)
    lam = np.concatenate(([rng.uniform(0.4, 2.0)], np.full(r - 1, rng.uniform(0.4, 2.0))))
    if not equal_along:
        lam[1:] = rng.uniform(0.4, 2.0, size=r - 1)
        lam[-1] = lam[1] * 1.25  # two rest entries differ at every r >= 3
    if periodic:
        q = int(rng.integers(2, 4))
        table = rng.uniform(-1.0, 1.0, size=(q,) + (1,) * (r - 1))
        table[rng.integers(q)] = 0.0
        theta = CoefficientSpec.periodic(table.shape, table)
    else:
        theta = CoefficientSpec.constant(float(rng.uniform(0.2, 2.0)))
    return ShintaniConfig(d=1, m=1, r=r, lam=lam.reshape(1, r), u=rng.uniform(0.05, 1.5, size=r),
                          c=np.array([[1.0]]), theta=theta)


def _period_two_twin(config: ShintaniConfig) -> ShintaniConfig:
    """The same theta values as a periodic theta with period 2 on rest column 1,
    which varies with the rest as far as the line route can tell: its lines are
    one per rest point."""
    theta = config.theta
    if theta.family == "constant":
        table = np.full((1,) * config.r, theta.params["value"])
    else:
        table = np.asarray(theta.params["table"], dtype=complex)
    twin = CoefficientSpec.periodic(table.shape[:1] + (2,) + table.shape[2:], np.repeat(table, 2, axis=1))
    return dataclasses.replace(config, theta=twin)


def _line_count(config: ShintaniConfig, pt: ComplexPoint, n_shell: int, tail: float):
    """(value, remainder, number of lines) of `_line_partial_sum`."""
    with mock.patch.object(series, "_em_line_sums", wraps=series._em_line_sums) as spy:
        value, remainder = _line_partial_sum(config, pt, n_shell, tail)
    return value, remainder, (spy.call_args.args[1].size if spy.call_count else 0)


class TestMergedLines:
    """Lines of one rest degree merge into one weighted line when every form
    lies on the line rows, their rest entries are equal and theta does not vary
    with the rest; merged sums against per-rest-point lines and the block route.

    `python -m pytest tests/test_line_sums.py --hypothesis-profile=ci` runs the
    property test derandomized with more examples (see conftest.py)."""

    @given(
        st.sampled_from([2, 3, 4]),
        st.integers(0, 2**32 - 1),
        st.sampled_from(["constant", "periodic", "unequal along", "period 2 on the rest"]),
        st.integers(0, 2),
        st.booleans(),
        st.floats(0.1, 3.0),
        st.floats(0.0, 1.0),
    )
    @settings(deadline=None)
    def test_merged_against_per_rest_point_lines(self, r, seed, kind, logs, complex_s, margin, where):
        base = _rest_free(seed, r, kind == "periodic", kind != "unequal along")
        config = _period_two_twin(base) if kind == "period 2 on the rest" else base
        for _ in range(logs):
            config = differentiate(config, 1)
        pt = _point(config, seed, margin, complex_s)
        n_shell = int(where * {2: 400, 3: 60, 4: 24}[r])
        tail = _tail_bound(config, pt.re, n_shell)
        value, remainder, lines = _line_count(config, pt, n_shell, tail)
        assert remainder <= 2.0**-60 * tail
        assert abs(value - _block(config, pt, n_shell)) <= _tolerance(config, pt, n_shell)
        # the residue classes a along column 0 where theta is not 0, and their line counts:
        # one per rest degree D <= n_shell - a merged, one per rest point otherwise
        q = 1 if base.theta.family == "constant" else len(base.theta.params["table"])
        classes = np.arange(min(q, n_shell + 1))
        along = np.asarray(cf.theta_values(base.theta, np.eye(1, r, dtype=np.int64) * classes[:, None]))
        nonzero = classes[along != 0.0].tolist()
        per_degree = sum(n_shell - a + 1 for a in nonzero)
        per_point = sum(math.comb(n_shell - a + r - 1, r - 1) for a in nonzero)
        assert lines == (per_degree if kind in ("constant", "periodic") else per_point)
        if kind in ("constant", "periodic"):
            twin = _period_two_twin(base)
            for _ in range(logs):
                twin = differentiate(twin, 1)
            twin_value, twin_remainder, twin_lines = _line_count(twin, pt, n_shell, tail)
            assert twin_lines == per_point
            assert twin_remainder <= 2.0**-60 * tail
            assert abs(value - twin_value) <= _tolerance(config, pt, n_shell)

    def test_heavy_barnes_sums_one_line_per_degree(self):
        config = make_special("barnes", r=3, lam=[1.0, 1.0, 1.0], u=1.0)
        pt = series.as_point(5.0, 1)
        tail = _tail_bound(config, pt.re, 389)
        value, remainder, lines = _line_count(config, pt, 389, tail)
        assert lines == 390 and 0.0 < remainder <= 2.0**-60 * tail
        twin_value, _, twin_lines = _line_count(_period_two_twin(config), pt, 389, tail)
        assert twin_lines == math.comb(391, 2)
        assert abs(value - twin_value) <= ROUNDING * value.real


class TestShells:
    def test_shells_match_a_sorted_enumeration(self):
        for rank in (1, 2, 3, 4):
            for lo, hi in ((0, 0), (0, 6), (3, 7), (5, 5)):
                ref = sorted(
                    (sum(p), p) for p in itertools.product(range(hi + 1), repeat=rank)
                    if lo <= sum(p) <= hi
                )
                got = series._shells(lo, hi, rank)
                assert got.dtype == np.int64
                assert got.tolist() == [list(p) for _, p in ref]

    def test_shells_are_not_kept(self):
        first = series._shells(40, 40, 3)
        again = series._shells(40, 40, 3)
        assert first is not again and np.array_equal(first, again)
        assert not hasattr(series._shells, "cache_info")


def _run_threads(worker, count: int = 8) -> list[str]:
    errors: list[str] = []
    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=worker, args=(seed, errors)) for seed in range(count)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
    finally:
        sys.setswitchinterval(old)
    assert not any(thread.is_alive() for thread in threads)
    return errors


def test_threads_match_single_threaded_results():
    calls = [
        (make_special("euler_zagier", r=2, u=[0.0, 0.0]), [3.0, 2.0], 1e-8, 10**6),
        (make_special("euler_zagier", r=3, u=[0.1, 0.4, 0.2]), [3.0 + 2.0j, 2.0, 1.5], 1e-6, 10**5),
        (make_special("barnes", r=3, lam=[1.0, 1.0, 1.0], u=0.8), 6.0 + 5.0j, 1e-7, 10**6),
        (make_special("barnes", r=2, lam=[0.5, 1.5], u=1.2), 4.0, 1e-9, 10**6),
    ]
    expected = [evaluate(cfg, s, tol=tol, shell_cap=cap) for cfg, s, tol, cap in calls]
    start = threading.Barrier(8)

    def worker(seed, errors):
        try:
            start.wait(timeout=30)
            for i in np.random.default_rng(seed).permutation(2 * len(calls)) % len(calls):
                cfg, s, tol, cap = calls[i]
                if evaluate(cfg, s, tol=tol, shell_cap=cap) != expected[i]:
                    errors.append(f"evaluate differs for call {i}")
        except Exception as exc:  # noqa: BLE001 - reported through the assertion below
            errors.append(repr(exc))

    assert _run_threads(worker) == []
