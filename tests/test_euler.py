"""Euler products: evaluation, coefficients, embedding, Levy representation,
and Dedekind arithmetic."""

import math

import mpmath as mp
import numpy as np
import pytest

from shintani.arithmetic import AlphaRule, chi_minus_4
from shintani.errors import ConfigError, RegionError
from shintani.euler import (
    EulerConfig,
    dedekind_coefficient,
    dedekind_euler_config,
    dirichlet_coefficient,
    evaluate_euler,
    hurwitz_half_levy_logcf,
    levy_measure,
    riemann_levy_logcf,
    shintani_from_euler,
    sieve_primes,
)
from shintani.series import ComplexPoint, evaluate

ZETA2 = math.pi**2 / 6
CATALAN = 0.9159655941772190


def riemann_product():
    return EulerConfig(d=1, m=1, alphas=(AlphaRule.constant(1.0),), a=np.array([[1.0]]))


def ordered_factorizations(n, k):
    """Brute-force count of ordered k-tuples with product n."""
    if k == 1:
        return 1
    total = 0
    d = 1
    while d <= n:
        if n % d == 0:
            total += ordered_factorizations(n // d, k - 1)
        d += 1
    return total


class TestEvaluateEuler:
    def test_riemann_matches_series(self):
        table = sieve_primes(10**5)
        res = evaluate_euler(riemann_product(), 2.0, table)
        assert abs(res.value - ZETA2) <= 1e-4
        assert abs(res.value - ZETA2) <= res.tail_bound

    def test_self_consistent_tail(self):
        cfg = riemann_product()
        small = evaluate_euler(cfg, 3.0, sieve_primes(10**3))
        big = evaluate_euler(cfg, 3.0, sieve_primes(10**4))
        assert abs(small.value - big.value) <= small.tail_bound

    def test_dedekind_value(self):
        res = evaluate_euler(dedekind_euler_config(), 2.0, sieve_primes(10**5))
        assert abs(res.value - ZETA2 * CATALAN) <= res.tail_bound + 1e-12
        assert abs(res.value - 1.5067030099229850) <= 1e-4

    def test_region_error(self):
        with pytest.raises(RegionError):
            evaluate_euler(riemann_product(), 1.0, sieve_primes(100))

    def test_complex_mode_evaluates(self):
        cfg = EulerConfig(
            d=1, m=1, alphas=(AlphaRule.constant(0.5j),), a=np.array([[1.0]])
        )
        assert not cfg.real_mode
        res = evaluate_euler(cfg, 2.0, sieve_primes(10**4))
        # oracle: direct Dirichlet series of the expanded coefficients
        direct = sum(
            complex(dirichlet_coefficient(cfg, n)) / n**2 for n in range(1, 4000)
        )
        assert abs(res.value - direct) <= res.tail_bound + 1e-6

    def test_alpha_range_enforced(self):
        with pytest.raises(ConfigError):
            EulerConfig(d=1, m=1, alphas=(AlphaRule.constant(1.2),), a=np.array([[1.0]]))


class TestCoefficients:
    def test_all_ones(self):
        cfg = riemann_product()
        assert all(dirichlet_coefficient(cfg, n) == 1.0 for n in range(1, 50))

    def test_character_square(self):
        cfg = EulerConfig(d=1, m=1, alphas=(chi_minus_4(),), a=np.array([[1.0]]))
        assert dirichlet_coefficient(cfg, 9) == 1.0  # chi(3)^2
        for n in range(1, 300):
            assert dirichlet_coefficient(cfg, n) == complex((0, 1, 0, -1)[n % 4])

    def test_d3_of_4(self):
        cfg = EulerConfig(
            d=1, m=3, alphas=tuple(AlphaRule.constant(1.0) for _ in range(3)),
            a=np.ones((3, 1)),
        )
        assert dirichlet_coefficient(cfg, 4) == pytest.approx(6.0)

    def test_dk_brute_force(self):
        for k in (2, 3, 4):
            cfg = EulerConfig(
                d=1, m=k, alphas=tuple(AlphaRule.constant(1.0) for _ in range(k)),
                a=np.ones((k, 1)),
            )
            for n in range(1, 120):
                assert dirichlet_coefficient(cfg, n).real == ordered_factorizations(n, k)

    def test_multiplicativity(self):
        cfg = dedekind_euler_config()
        values = {n: dirichlet_coefficient(cfg, n) for n in range(1, 1600)}
        for m in range(2, 40):
            for n in range(2, 40):
                if math.gcd(m, n) == 1:
                    assert values[m * n] == values[m] * values[n]

    def test_single_factor(self):
        cfg = dedekind_euler_config()
        assert dirichlet_coefficient(cfg, 9, l=1) == 1.0
        assert dirichlet_coefficient(cfg, 9, l=2) == 1.0  # chi(3)^2
        with pytest.raises(ConfigError):
            dirichlet_coefficient(cfg, 9, l=3)

    def test_n_zero(self):
        with pytest.raises(ConfigError):
            dirichlet_coefficient(riemann_product(), 0)


class TestEmbedding:
    def test_riemann_theta_is_one(self):
        emb = shintani_from_euler(riemann_product())
        res = evaluate(emb, 3.0, tol=1e-9)
        assert abs(res.value - 1.2020569031595943) <= 1e-9

    def test_dedekind_cross_module(self):
        cfg = dedekind_euler_config()
        prod = evaluate_euler(cfg, 2.0, sieve_primes(10**4))
        series = evaluate(shintani_from_euler(cfg), 2.0, tol=1e-4, shell_cap=2 * 10**6)
        assert abs(prod.value - series.value) <= prod.tail_bound + series.tail_bound

    def test_liouville_signs(self):
        cfg = EulerConfig(
            d=1, m=1, alphas=(AlphaRule.constant(-1.0),), a=np.array([[1.0]])
        )
        # theta(n) = A(n+1) = (-1)^Omega(n+1)
        emb = shintani_from_euler(cfg)
        from shintani.coefficients import theta_values

        def omega(n):
            total, d = 0, 2
            while d * d <= n:
                while n % d == 0:
                    total += 1
                    n //= d
                d += 1
            return total + (1 if n > 1 else 0)

        pts = np.arange(0, 300, dtype=np.int64).reshape(-1, 1)
        got = theta_values(emb.theta, pts)
        want = [(-1.0) ** omega(int(n) + 1) for n in pts.ravel()]
        assert got.tolist() == pytest.approx(want)
        prod = evaluate_euler(cfg, 3.0, sieve_primes(10**4))
        series = evaluate(emb, 3.0, tol=1e-7)
        assert abs(prod.value - series.value) <= prod.tail_bound + series.tail_bound

    def test_complex_mode_rejected(self):
        cfg = EulerConfig(
            d=1, m=1, alphas=(AlphaRule.constant(0.5j),), a=np.array([[1.0]])
        )
        with pytest.raises(ConfigError):
            shintani_from_euler(cfg)

    def test_product_series_agreement_random(self):
        rng = np.random.default_rng(17)
        table = sieve_primes(10**4)
        for _ in range(5):
            m = int(rng.integers(1, 4))
            d = int(rng.integers(1, 3))
            alphas = tuple(
                AlphaRule.constant(float(rng.uniform(-1.0, 1.0))) for _ in range(m)
            )
            a = rng.uniform(0.45, 0.8, size=(m, d)) if d == 2 else rng.uniform(0.7, 1.3, size=(m, 1))
            cfg = EulerConfig(d=d, m=m, alphas=alphas, a=a)
            emb = shintani_from_euler(cfg)
            for _ in range(3):
                re = rng.uniform(2.5, 3.5, size=d) if d == 2 else rng.uniform(3.0, 4.0, size=1)
                im = rng.uniform(-2.0, 2.0, size=d)
                s = ComplexPoint(re, im)
                assert float(np.min(cfg.a @ re)) >= 2.0
                prod = evaluate_euler(cfg, s, table)
                series = evaluate(emb, s, tol=1e-4, shell_cap=4 * 10**5)
                assert (
                    abs(prod.value - series.value)
                    <= prod.tail_bound + series.tail_bound
                )


class TestLevy:
    def test_zero_at_t_zero(self):
        assert riemann_levy_logcf(2.0, 0.0).value == 0.0
        assert hurwitz_half_levy_logcf(2.0, 0.0).value == 0.0

    def test_sigma_range(self):
        with pytest.raises(RegionError):
            riemann_levy_logcf(1.0, 1.0)

    @pytest.mark.parametrize("sigma, t", [
        (math.nan, 1.0), (math.inf, 1.0), (2.0, math.nan), (2.0, math.inf), (2.0, -math.inf),
    ])
    def test_non_finite_input_rejected(self, sigma, t):
        # nan sigma passed the sigma <= 1 check and returned certified nan values
        for call in (riemann_levy_logcf, hurwitz_half_levy_logcf):
            with pytest.raises(ConfigError, match="finite"):
                call(sigma, t)
        if not math.isfinite(sigma):
            with pytest.raises(ConfigError, match="finite"):
                levy_measure(sigma, 100, 20)

    def test_representation_within_certified_bounds(self):
        # module invariant: agreement within combined certified bounds
        with mp.workdps(30):
            for sigma in (1.5, 2.0, 3.0):
                denom = complex(mp.zeta(sigma))
                for t in (-2.0, -1.0, 0.0, 1.0, 2.0):
                    lev = riemann_levy_logcf(sigma, t, 10**4, 40)
                    ratio = complex(mp.zeta(sigma + 1j * t)) / denom
                    got = complex(np.exp(lev.value))
                    # |e^x - e^y| <= e^max(|x|,|y|) |x - y|; the ratio has |.| <= 1
                    assert abs(got - ratio) <= math.e * lev.tail_bound + 1e-12

    def test_hurwitz_representation(self):
        sigma = 2.0
        with mp.workdps(30):
            denom = complex(mp.zeta(sigma, 0.5))
            for t in (-1.0, 1.0, 2.0):
                lev = hurwitz_half_levy_logcf(sigma, t, 10**4, 40)
                ratio = complex(mp.zeta(mp.mpc(sigma, t), 0.5)) / denom
                assert abs(complex(np.exp(lev.value)) - ratio) <= math.e * lev.tail_bound

    def test_odd_prime_difference(self):
        full = riemann_levy_logcf(2.0, 1.0, 10**4, 40)
        # the u = 1/2 sum carries the i t log 2 drift on top of the odd primes
        odd = hurwitz_half_levy_logcf(2.0, 1.0, 10**4, 40).value - 1j * 1.0 * math.log(2.0)
        p2 = sum(
            (2.0 ** (-2 * r) / r) * (np.exp(-1j * r * math.log(2.0)) - 1.0)
            for r in range(1, 41)
        )
        assert abs(full.value - odd - p2) <= 1e-13

    def test_measure(self):
        m100 = levy_measure(2.0, 100, 20)
        m50 = levy_measure(2.0, 50, 20)
        assert np.all(m100.masses > 0)
        assert len(np.unique(m100.locations)) == m100.locations.size
        assert m100.total_mass > m50.total_mass
        # total mass approximates log zeta(2)
        assert abs(m100.total_mass - math.log(ZETA2)) < 2e-3

    def test_odd_measure(self):
        m = levy_measure(2.0, 100, 20, odd_only=True)
        assert math.log(2.0) not in m.locations.tolist()


class TestDedekind:
    def test_examples(self):
        assert dedekind_coefficient(1) == 1
        assert dedekind_coefficient(3) == 0
        assert dedekind_coefficient(5) == 2

    def test_methods_agree(self):
        for n in range(1, 2001):
            assert dedekind_coefficient(n) == dedekind_coefficient(n, "lattice_count")

    def test_exhaustive_lattice_oracle(self):
        for n in range(1, 60):
            count = sum(
                1
                for m1 in range(-n, n + 1)
                for m2 in range(-n, n + 1)
                if m1 * m1 + m2 * m2 == n
            )
            assert dedekind_coefficient(n) == count // 4

    def test_errors(self):
        with pytest.raises(ConfigError):
            dedekind_coefficient(0)
        with pytest.raises(ConfigError):
            dedekind_coefficient(5, "unknown")
