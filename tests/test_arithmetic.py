"""Prime sieves, factorization, and multiplicative coefficient machinery."""

import math
import sys
import threading

import numpy as np
import pytest

from shintani import arithmetic
from shintani.arithmetic import (
    AlphaRule,
    chi_minus_4,
    coefficient_array,
    coefficient_at,
    factorize,
    prime_exponent,
    prime_power_coefficient,
    sieve_primes,
    smallest_prime_factors,
)
from shintani.errors import ConfigError


def trial_division_primes(limit):
    out = []
    for n in range(2, limit + 1):
        if all(n % p for p in range(2, int(n**0.5) + 1)):
            out.append(n)
    return out


class TestSieve:
    def test_small(self):
        assert sieve_primes(10).primes.tolist() == [2, 3, 5, 7]
        assert sieve_primes(2).primes.tolist() == [2]

    def test_thirty(self):
        primes = sieve_primes(30).primes
        assert len(primes) == 10
        assert primes[-1] == 29

    def test_against_second_sieve(self):
        assert sieve_primes(2000).primes.tolist() == trial_division_primes(2000)

    def test_limit_too_small(self):
        with pytest.raises(ConfigError):
            sieve_primes(1)

    def test_smallest_prime_factors(self):
        spf = smallest_prime_factors(50)
        for n in range(2, 51):
            assert n % spf[n] == 0
            assert spf[n] == min(p for p, _ in factorize(n))


class TestExponents:
    def test_examples(self):
        assert prime_exponent(12, 2) == 2
        assert prime_exponent(12, 5) == 0
        for p in (2, 3, 7, 97):
            assert prime_exponent(1, p) == 0

    def test_errors(self):
        with pytest.raises(ConfigError):
            prime_exponent(0, 2)
        with pytest.raises(ConfigError):
            prime_exponent(12, 4)

    def test_factorize_roundtrip(self):
        for n in range(1, 500):
            assert math.prod(p**k for p, k in factorize(n)) == n


class TestAlphaRules:
    def test_constant(self):
        rule = AlphaRule.constant(0.5)
        assert rule.at(7) == 0.5
        assert rule.at_array(np.array([2, 3, 5])).tolist() == [0.5, 0.5, 0.5]

    def test_character(self):
        chi = chi_minus_4()
        values = [chi.at(p) for p in (2, 3, 5, 7, 11, 13)]
        assert values == [0, -1, 1, -1, -1, 1]
        assert chi.is_real

    def test_table(self):
        rule = AlphaRule.table({2: 0.25, 5: -1.0}, default=0.5)
        assert rule.at(2) == 0.25
        assert rule.at(5) == -1.0
        assert rule.at(7) == 0.5
        arr = rule.at_array(np.array([2, 3, 5, 7]))
        assert arr.tolist() == [0.25, 0.5, -1.0, 0.5]

    def test_max_abs(self):
        assert chi_minus_4().max_abs() == 1.0
        assert AlphaRule.constant(-0.3).max_abs() == pytest.approx(0.3)


class TestCoefficients:
    def test_single_alpha_power(self):
        rule = (AlphaRule.constant(0.5),)
        assert prime_power_coefficient(rule, 3, 4) == pytest.approx(0.5**4)

    def test_composition_count(self):
        # alpha == 1 for all three factors: value is the composition count
        rules = tuple(AlphaRule.constant(1.0) for _ in range(3))
        assert prime_power_coefficient(rules, 2, 2) == pytest.approx(6.0)
        assert prime_power_coefficient(rules, 2, 0) == pytest.approx(1.0)

    def test_coefficient_at_multiplicative(self):
        rules = (AlphaRule.constant(1.0), chi_minus_4())
        for m, n in [(3, 4), (5, 9), (7, 8), (11, 25)]:
            lhs = coefficient_at(rules, m * n)
            rhs = coefficient_at(rules, m) * coefficient_at(rules, n)
            assert lhs == rhs

    def test_single_coefficient(self):
        # completely multiplicative character: A(n) = chi(n)
        chi = chi_minus_4()
        for n in range(1, 200):
            assert coefficient_at((chi,), n) == complex((0, 1, 0, -1)[n % 4])

    def test_array_matches_pointwise(self):
        rules = (AlphaRule.constant(1.0), chi_minus_4())
        arr = coefficient_array(rules, 500)
        for n in (1, 2, 3, 4, 5, 25, 36, 121, 360, 499, 500):
            assert arr[n] == pytest.approx(coefficient_at(rules, n).real)

    def test_array_complex_rules(self):
        rules = (AlphaRule.constant(0.5j),)
        arr = coefficient_array(rules, 64)
        assert arr[8] == pytest.approx((0.5j) ** 3)


def _run_threads(worker, count: int = 8) -> list[str]:
    """Run worker(seed, errors) in `count` threads with a 1 us switch
    interval; returns the errors they appended."""
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


class TestCoefficientArrayThreads:
    """The coefficient_array cache is shared by every caller in the process."""

    RULES = (
        (AlphaRule.constant(1.0), chi_minus_4()),
        (AlphaRule.constant(1.0),),
        (chi_minus_4(),),
        (AlphaRule.constant(0.5j),),
        (AlphaRule.constant(1.0), AlphaRule.constant(1.0)),
    )
    # 40 keys for 32 cache slots: lookups race with inserts and evictions
    KEYS = [(rules, limit) for rules in RULES for limit in (16, 24, 32, 40, 48, 56, 64, 72)]

    def test_concurrent_lookup_insert_evict(self):
        expected = {key: np.array(coefficient_array(*key)) for key in self.KEYS}
        for round_ in range(10):
            # an empty cache at a common start makes the threads miss together
            arithmetic._COEFF_ARRAY_CACHE.clear()
            start = threading.Barrier(8)

            def worker(seed, errors):
                rng = np.random.default_rng(100 * round_ + seed)
                try:
                    start.wait(timeout=30)
                    for i in rng.permutation(2 * len(self.KEYS)) % len(self.KEYS):
                        key = self.KEYS[i]
                        arr = coefficient_array(*key)
                        if arr.flags.writeable or not np.array_equal(arr, expected[key]):
                            errors.append(f"wrong table for limit {key[1]}")
                except Exception as exc:  # noqa: BLE001 - reported through the assertion below
                    errors.append(repr(exc))

            assert _run_threads(worker) == [], f"round {round_}"

    def test_concurrent_evaluate_multiplicative(self):
        from shintani.coefficients import CoefficientSpec
        from shintani.series import ShintaniConfig, evaluate, evaluate_many

        spec = CoefficientSpec.multiplicative_product([(AlphaRule.constant(1.0), chi_minus_4())])
        cfg = ShintaniConfig(
            d=1, m=1, r=1, lam=np.array([[1.0]]), u=np.array([1.0]), c=np.array([[1.0]]), theta=spec,
        )
        points = (3.0, 3.0 + 2.0j, 4.0)
        expected = [evaluate(cfg, s, tol=1e-9) for s in points]
        assert evaluate_many(cfg, points, tol=1e-9) == expected
        start = threading.Barrier(8)

        def worker(seed, errors):
            try:
                start.wait(timeout=30)
                for i in np.random.default_rng(seed).permutation(2 * len(points)) % len(points):
                    if seed % 2:  # half the threads churn the cache meanwhile
                        for key in self.KEYS[::3]:
                            coefficient_array(*key)
                    if evaluate(cfg, points[i], tol=1e-9) != expected[i]:
                        errors.append(f"evaluate differs at s = {points[i]}")
                    if evaluate_many(cfg, points, tol=1e-9) != expected:
                        errors.append("evaluate_many differs")
            except Exception as exc:  # noqa: BLE001 - reported through the assertion below
                errors.append(repr(exc))

        assert _run_threads(worker) == []
