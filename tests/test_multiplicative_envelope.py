"""Exact envelopes of multiplicative coefficients and the tables behind them.

`coefficients._rules_envelope(rules, eps)` is sup_n |A(n)| / n^eps, formed
as a product of exact local maxima over the primes below k^(1/eps); the
tail routes take the least bound over the envelope ladder's rungs.  The
checks here are against brute force over coefficient tables, against the
old fitted envelope's counterexample, and against mpmath and the Euler
product.  `arithmetic.coefficient_array` applies the primes past the
square root of its limit in one vectorised step per multiplier; the
per-prime loop it replaced is kept below as the reference.

`python -m pytest tests/test_multiplicative_envelope.py --hypothesis-profile=ci`
runs the property test derandomized with more examples (see conftest.py).
"""

from __future__ import annotations

import math
import threading
from unittest import mock

import mpmath as mp
import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from shintani import arithmetic, coefficients, series
from shintani.arithmetic import (
    AlphaRule,
    chi_minus_4,
    coefficient_array,
    coefficient_at,
    prime_power_coefficient,
    sieve_primes,
)
from shintani.coefficients import CoefficientSpec, theta_values
from shintani.errors import ConfigError
from shintani.euler import EulerConfig, evaluate_euler, shintani_from_euler
from shintani.series import ShintaniConfig, differentiate, evaluate
from test_arithmetic import _run_threads

TWO_RULES = (AlphaRule.constant(1.0), chi_minus_4())
RUNGS = (0.05,) + coefficients._RUNGS


def _one_form(theta):
    return ShintaniConfig(d=1, m=1, r=1, lam=[[1.0]], u=[1.0], c=[[1.0]], theta=theta)


def _loop_table(rules, limit):
    """A(0..limit) by the per-prime loop: every prime power's exact
    exponent class, one prime at a time in ascending order."""
    is_real = all(rule.is_real for rule in rules)
    out = np.ones(limit + 1, dtype=np.float64 if is_real else np.complex128)
    out[0] = 0.0
    for p in sieve_primes(max(limit, 2)).primes.tolist():
        q, nu = p, 1
        while q <= limit:
            coeff = prime_power_coefficient(rules, p, nu)
            coeff = coeff.real if is_real else coeff
            idx = np.arange(q, limit + 1, q)
            out[idx[(idx % (q * p)) != 0] if q * p <= limit else idx] *= coeff
            q *= p
            nu += 1
    return out


def _brute_sup(table, eps):
    """(max over 1 <= n <= len - 1 of |A(n)| / n^eps, its argmax)."""
    n = np.arange(table.size, dtype=float)
    ratio = np.abs(table[1:]) / n[1:] ** eps
    return float(ratio.max()), int(ratio.argmax()) + 1


class TestExactEnvelope:
    @pytest.fixture(scope="class")
    def table(self):
        return coefficient_array(TWO_RULES, 10**6)

    @pytest.mark.parametrize(
        "eps, expected, argmax",
        [(0.2, 2.18406312111, 160225), (0.25, 1.41312444831, 325), (0.3, 1.23406772544, 5)],
    )
    def test_equals_brute_force_where_the_maximiser_is_in_range(self, table, eps, expected, argmax):
        bound = coefficients._rules_envelope(TWO_RULES, eps)
        brute, at = _brute_sup(table, eps)
        assert at == argmax
        assert brute <= bound <= brute * (1.0 + 1e-12)
        assert bound == pytest.approx(expected, rel=1e-11)

    def test_exceeds_the_scan_where_the_maximiser_is_past_it(self, table):
        # the old fitted value at 0.15 was the scan's 4.165; the supremum is
        # reached past 10^6
        brute, _ = _brute_sup(table, 0.15)
        assert brute == pytest.approx(4.165, abs=1e-3)
        assert coefficients._rules_envelope(TWO_RULES, 0.15) == pytest.approx(7.289, abs=1e-3)

    def test_rungs_past_the_float_range_are_dropped(self):
        # the true B at 0.05 is about 10^979; the prime range alone drops it
        assert coefficients._rules_envelope(TWO_RULES, 0.05) == math.inf
        assert coefficients._envelope_rungs((TWO_RULES,), 0.05) == coefficients._RUNGS
        spec = CoefficientSpec.multiplicative_product([TWO_RULES])
        assert spec.params["growth"] == 0.05
        assert spec.envelope_triple[1] == 0.1
        assert spec.envelope_triple[0] == coefficients._rules_envelope(TWO_RULES, 0.1)
        assert [view.envelope_triple[1] for view in spec.envelope_ladder] == list(coefficients._RUNGS)

    def test_no_finite_rung_is_a_config_error(self):
        # 200 rules: every rung's majorant passes the float range
        rules = tuple(AlphaRule.constant(1.0) for _ in range(200))
        assert coefficients._rules_envelope(rules, 0.5) == math.inf
        with pytest.raises(ConfigError, match="no finite envelope"):
            CoefficientSpec.multiplicative_product([rules])

    def test_spec_build_makes_no_coefficient_table(self):
        rules = (AlphaRule.constant(1.0), AlphaRule.character(3, (0.0, 1.0, -1.0)))
        with mock.patch.object(coefficients, "coefficient_array", side_effect=AssertionError):
            spec = CoefficientSpec.multiplicative_product([rules])
        assert math.isfinite(spec.envelope_triple[0])

    def test_old_fitted_envelope_fails_where_the_new_one_holds(self):
        n = 5 * 13 * 17 * 29 * 37 * 41 * 53 * 61  # eight primes = 1 mod 4
        assert n == 157_163_452_745
        assert coefficient_at(TWO_RULES, n) == 256
        assert 16.2 * n**0.05 < 60.0  # the old fitted envelope at growth 0.05
        spec = CoefficientSpec.multiplicative_product([TWO_RULES])
        for view in spec.envelope_ladder:
            assert view.envelope_triple[0] * n**view.envelope_triple[1] >= 256

    def test_derivative_ladder_multiplies_the_rungs(self):
        config = differentiate(_one_form(CoefficientSpec.multiplicative_product([TWO_RULES])), 1)
        ladder = config.theta.envelope_ladder
        assert len(ladder) == len(coefficients._RUNGS)
        pts = np.arange(0, 5000).reshape(-1, 1)
        vals = np.abs(np.asarray(theta_values(config.theta, pts)))
        for view in ladder:
            b, eps, _ = view.envelope_triple
            weight = view.log_weight
            t1 = pts[:, 0] + 1.0
            bound = b * t1**eps * (weight.offset + np.log(t1)) ** weight.power
            assert np.all(vals <= bound * (1 + 1e-12))


class TestOneRulePastOne:
    """A one-rule coordinate is bounded by 1 only where |alpha| <= 1; the
    constructors accept |alpha| up to 1 + 1e-12, where |A(p^k)| grows."""

    OVER = (AlphaRule.constant(1.0 + 1e-12),)

    def test_envelope_holds_past_one(self):
        spec = CoefficientSpec.multiplicative_product([self.OVER])
        assert (spec.envelope_triple[0], spec.envelope_triple[1]) != (1.0, 0.0)
        table = coefficient_array(self.OVER, 2**20)
        assert abs(table[2**20]) > 1.0 + 2e-11  # A(2^20) = alpha^20
        for view in spec.envelope_ladder:
            brute, _ = _brute_sup(table, view.envelope_triple[1])
            assert brute <= view.envelope_triple[0]
        ((b, eps),) = spec.per_coordinate_envelope(1)
        assert eps > 0.0 and _brute_sup(table, eps)[0] <= b

    def test_unit_rules_keep_the_exact_bound(self):
        for rule in (AlphaRule.constant(1.0), AlphaRule.constant(-1.0), chi_minus_4()):
            spec = CoefficientSpec.multiplicative_product([(rule,)])
            assert (spec.envelope_triple[0], spec.envelope_triple[1]) == (1.0, 0.0)
            assert spec.envelope_ladder == (spec,)
        mixed = CoefficientSpec.multiplicative_product([(AlphaRule.constant(1.0),), self.OVER])
        assert mixed.per_coordinate_envelope(2)[0] == (1.0, 0.0)
        assert mixed.per_coordinate_envelope(2)[1][1] > 0.0

    def test_through_the_euler_embedding(self):
        config = shintani_from_euler(EulerConfig(d=1, m=2, alphas=(AlphaRule.constant(1.0),) + self.OVER,
                                                 a=np.array([[1.0], [1.0]])))
        theta = config.theta
        assert theta.envelope_triple[1] > 0.0
        pts = np.stack(np.meshgrid(np.arange(0, 2**10), np.arange(0, 2**10)), axis=-1).reshape(-1, 2)
        vals = np.abs(np.asarray(theta_values(theta, pts)))
        t1 = pts.sum(axis=1) + 1.0
        for view in theta.envelope_ladder:
            assert np.all(vals <= view.envelope_triple[0] * t1**view.envelope_triple[1])
        assert math.isfinite(series.tail_bound(config, [3.0], 100))


class TestOracle:
    """(1, chi_-4) is zeta(s) L(s, chi_-4)."""

    CONFIG = _one_form(CoefficientSpec.multiplicative_product([TWO_RULES]))

    @pytest.mark.parametrize("s", [3.0, 3.0 + 2.0j])
    def test_within_its_tail_of_mpmath_and_the_euler_product(self, s):
        res = evaluate(self.CONFIG, s, tol=1e-9)
        assert res.certified and res.shells_used <= 122_220
        s_mp = mp.mpc(s.real, s.imag)
        exact = complex(mp.zeta(s_mp) * mp.dirichlet(s_mp, [0, 1, 0, -1]))
        assert abs(res.value - exact) <= res.tail_bound
        product = evaluate_euler(
            EulerConfig(d=1, m=2, alphas=TWO_RULES, a=np.array([[1.0], [1.0]])),
            s, sieve_primes(10**4),
        )
        assert product.certified
        assert abs(res.value - product.value) <= res.tail_bound + product.tail_bound

    def test_slow_tail_is_not_certified(self):
        # s = 2, tol 1e-6, cap 10^8: every rung needs more than 10^8 shells
        ((shell, certified, tail),) = series._choose_shell(
            self.CONFIG, np.array([[2.0]]), 1e-6, 10**8
        )
        assert (shell, certified) == (99_999_999, False)
        assert tail > 1e-6


def test_concurrent_first_ladder_use():
    """Threads that form a fresh spec's envelope ladder at once get equal
    tail bounds."""
    sigma = np.array([3.0])
    for round_ in range(5):
        rules = (AlphaRule.constant(1.0), AlphaRule.constant(0.5 + 0.1 * round_))
        spec = CoefficientSpec.multiplicative_product([rules])
        twin = _one_form(CoefficientSpec.multiplicative_product([rules]))
        expected = series.tail_bound(twin, sigma, 500)
        config = _one_form(spec)
        start = threading.Barrier(8)

        def worker(seed, errors):
            try:
                start.wait(timeout=30)
                if series.tail_bound(config, sigma, 500) != expected:
                    errors.append(f"tail differs in round {round_}")
            except Exception as exc:  # noqa: BLE001 - reported through the assertion below
                errors.append(repr(exc))

        assert _run_threads(worker) == []


class TestZeroTerms:
    def test_terms_only_where_theta_is_nonzero(self):
        config = TestOracle.CONFIG
        pts = np.arange(0, 400).reshape(-1, 1)
        theta = np.asarray(theta_values(config.theta, pts))
        beta = np.array([3.0])
        forms, terms = series._terms(config, pts, beta, True)
        nonzero = theta != 0
        assert forms.shape == (int(nonzero.sum()), 1)
        powers = series._form_powers(pts + 1.0, beta, True)
        assert terms.tolist() == (theta * powers)[nonzero].tolist()


@pytest.mark.parametrize("rules", [
    TWO_RULES,
    (chi_minus_4(),),
    (AlphaRule.constant(1.0), AlphaRule.constant(1.0), AlphaRule.constant(-1.0)),
    (AlphaRule.character(3, (0.0, 1.0, -1.0)), AlphaRule.table({2: -1.0, 5: 0.0}, default=1.0)),
], ids=["1,chi4", "chi4", "1,1,-1", "chi3,table"])
def test_unit_rules_table_is_the_loops_bit_for_bit(rules):
    # alpha in {0, 1, -1}: every A(p^nu) is a small integer, exact in floats
    arithmetic._COEFF_ARRAY_CACHE.clear()
    got = coefficient_array(rules, 2**17)
    assert got.tobytes() == _loop_table(rules, 2**17).tobytes()


def test_complex_table_matches_the_loop_to_rounding():
    # numpy rounds a complex product differently in its vector loop and its
    # remainder, so only real tables are compared bit for bit
    rules = (
        AlphaRule.constant(0.5j),
        AlphaRule.character(3, (0.0, 1j, -0.3 + 0.2j)),
        AlphaRule.table({2: -1.0, 7: 0.5j, 1009: 0.25}, default=0.7),
    )
    arithmetic._COEFF_ARRAY_CACHE.clear()
    got = coefficient_array(rules, 3000)
    want = _loop_table(rules, 3000)
    assert np.allclose(got, want, rtol=1e-14, atol=1e-300)


unit = st.floats(-1.0, 1.0)


@st.composite
def rule_lists(draw):
    def rule():
        kind = draw(st.sampled_from(["constant", "character", "table"]))
        if kind == "constant":
            return AlphaRule.constant(draw(unit))
        if kind == "character":
            mod = draw(st.integers(3, 6))
            return AlphaRule.character(mod, [draw(unit) for _ in range(mod)])
        primes = draw(st.lists(st.sampled_from([2, 3, 5, 7, 11, 13, 101, 149]), max_size=4))
        return AlphaRule.table({p: draw(unit) for p in primes}, default=draw(unit))

    return tuple(rule() for _ in range(draw(st.integers(1, 3))))


@settings(deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(rule_lists(), st.integers(2, 20_000))
def test_exact_envelope_and_vectorised_table(rules, limit):
    arithmetic._COEFF_ARRAY_CACHE.clear()
    table = coefficient_array(rules, limit)
    assert table.tobytes() == _loop_table(rules, limit).tobytes()
    full = coefficient_array(rules, 20_000)
    for eps in RUNGS:
        bound = coefficients._rules_envelope(rules, eps)
        assert bound >= 1.0
        assert _brute_sup(full, eps)[0] <= bound * (1.0 + 1e-12)
