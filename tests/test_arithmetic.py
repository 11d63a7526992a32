"""Prime sieves, factorization, and multiplicative coefficient machinery.

`python -m pytest tests/test_arithmetic.py --hypothesis-profile=ci` runs the
property test derandomized with more examples (see conftest.py).
"""

import itertools
import math
import sys
import threading
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from shintani import arithmetic
from shintani.arithmetic import (
    AlphaRule,
    chi_minus_4,
    coefficient_array,
    coefficient_at,
    coefficient_nonzero,
    complete_homogeneous,
    factorize,
    prime_exponent,
    prime_power_coefficient,
    sieve_primes,
)
from shintani.errors import ConfigError
from shintani.euler import levy_measure, riemann_levy_logcf


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

    @pytest.mark.parametrize("call", [
        lambda: sieve_primes(arithmetic._SIEVE_MAX + 1),
        lambda: sieve_primes(10**15),
        lambda: sieve_primes(10**400),
        lambda: riemann_levy_logcf(2.0, 1.0, prime_limit=10**15),
        lambda: levy_measure(2.0, 10**15, 40),
    ], ids=["2^31+1", "1e15", "1e400", "levy_logcf", "levy_measure"])
    def test_limit_past_the_maximum_is_config_error(self, call):
        # raised MemoryError from numpy once; refused before the sieve is allocated
        tracemalloc.start()
        try:
            with pytest.raises(ConfigError, match="past the limit"):
                call()
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2**20


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


def _compositions(k, nu):
    """Every (n_1, ..., n_k) of nonnegative integers with sum nu."""
    return [c for c in itertools.product(range(nu + 1), repeat=k) if sum(c) == nu]


_unit_disc = st.builds(
    lambda r, a: r * complex(math.cos(a), math.sin(a)),
    st.floats(0.0, 1.0), st.floats(0.0, 2.0 * math.pi),
)


@settings(deadline=None)
@given(st.lists(st.floats(-1.0, 1.0).map(complex) | _unit_disc, min_size=1, max_size=4),
       st.integers(0, 12))
def test_complete_homogeneous_against_compositions(alphas, top):
    # h_nu against the sum over all compositions of nu, relative to the sum of
    # the monomials' moduli (a cancelling sum has no relative bound of its own);
    # the same values as numbers and as arrays over three primes
    scalars = complete_homogeneous(alphas, top)
    arrays = complete_homogeneous([np.full(3, a) for a in alphas], top)
    assert len(scalars) == len(arrays) == top + 1
    for nu in range(top + 1):
        monomials = [math.prod(a**n for a, n in zip(alphas, c)) for c in _compositions(len(alphas), nu)]
        want = complex(math.fsum(z.real for z in monomials), math.fsum(z.imag for z in monomials))
        size = sum(abs(z) for z in monomials)
        assert abs(complex(scalars[nu]) - want) <= 1e-13 * size + 1e-300  # subnormal products
        assert np.all(np.abs(np.asarray(arrays[nu]) - want) <= 1e-13 * size + 1e-300)


_value = st.floats(-1.0, 1.0).map(complex) | _unit_disc | st.just(0j)
_rules = st.one_of(
    _value.map(AlphaRule.constant),
    st.integers(2, 6).flatmap(lambda q: st.lists(_value, min_size=q, max_size=q).map(
        lambda table: AlphaRule.character(len(table), table))),
    st.builds(lambda entries, default: AlphaRule.table(entries, default=default),
              st.dictionaries(st.sampled_from([2, 3, 5, 67, 101, 149, 257]), _value, max_size=3), _value),
)


@settings(deadline=None)
@example(rules=(AlphaRule.character(3, (0.0, 0.5j, -0.5 + 0.5j)), AlphaRule.constant(0.3 + 0.4j)), limit=4096)
@given(st.lists(_rules, min_size=1, max_size=3).map(tuple), st.integers(1, 1 << 17))
def test_table_bits_do_not_depend_on_build_size(rules, limit):
    # a fresh table at `limit` is the slice of a 2^18 one bit for bit, real or
    # complex: a prime's factor is multiplied in one way at every build size
    arithmetic._COEFF_ARRAY_CACHE.clear()
    fresh = np.array(coefficient_array(rules, limit))
    arithmetic._COEFF_ARRAY_CACHE.clear()
    assert fresh.tobytes() == coefficient_array(rules, 1 << 18)[: limit + 1].tobytes()


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
                        # 40 keys for 32 slots, in a cycle: every lookup misses,
                        # and the evaluate's own table is evicted and rebuilt
                        # with its nonzero index
                        for key in self.KEYS:
                            index = coefficient_nonzero(*key)
                            if not np.array_equal(index, np.flatnonzero(coefficient_array(*key))):
                                errors.append(f"wrong nonzero index for limit {key[1]}")
                    if evaluate(cfg, points[i], tol=1e-9) != expected[i]:
                        errors.append(f"evaluate differs at s = {points[i]}")
                    if evaluate_many(cfg, points, tol=1e-9) != expected:
                        errors.append("evaluate_many differs")
            except Exception as exc:  # noqa: BLE001 - reported through the assertion below
                errors.append(repr(exc))

        assert _run_threads(worker) == []
