"""Core series evaluation: validation, region, certified tails, derivative
closure, named constructions, and the module invariants."""

import dataclasses
import math
import sys
import time
from concurrent.futures import ThreadPoolExecutor

import mpmath as mp
import numpy as np
import pytest
import scipy.special as sp

from conftest import random_config, region_sigma
from shintani.arithmetic import AlphaRule, PrimeTable
from shintani.coefficients import CoefficientSpec, Envelope
from shintani import series
from shintani.distributions import SampleBatch, build_distribution, sample
from shintani.errors import CertificationError, ConfigError, NumericError, RegionError
from shintani.series import (
    SPECIAL_KINDS,
    ComplexPoint,
    ShintaniConfig,
    differentiate,
    evaluate,
    evaluate_many,
    evaluate_partial,
    in_convergence_region,
    lattice_count,
    make_special,
    tail_bound,
    validate_config,
)
from shintani.euler import DiscreteMeasure, EulerConfig
from shintani.summation import exact_complex_sum
from shintani.zeros import SliceSpec

ZETA2 = math.pi**2 / 6
ZETA_PRIME_2 = -0.9375482543158437  # zeta'(2)
ZETA_PRIME_3 = -0.19812624288563685  # zeta'(3)
ZETA_2ND_3 = 0.23974691730538718  # zeta''(3)
EZH_32 = 0.026753494435697963  # nested double sum, u = (1, 1), s = (3, 2)


def riemann():
    return make_special("riemann")


class TestValidation:
    def test_riemann_ok(self):
        assert validate_config(riemann()).ok

    def test_nonpositive_u(self):
        cfg = ShintaniConfig(
            d=1, m=1, r=1, lam=np.array([[1.0]]), u=np.array([0.0]),
            c=np.array([[1.0]]), theta=CoefficientSpec.constant(1.0),
        )
        report = validate_config(cfg)
        assert not report.ok
        assert any("u_j must be positive" in v for v in report.violations)

    def test_lambda_shape(self):
        cfg = ShintaniConfig(
            d=1, m=2, r=2, lam=np.ones((2, 3)), u=np.ones(2),
            c=np.ones((2, 1)), theta=CoefficientSpec.constant(1.0),
        )
        report = validate_config(cfg)
        assert not report.ok
        assert any("lambda" in v for v in report.violations)

    def test_zero_pattern_coverage(self):
        cfg = ShintaniConfig(
            d=1, m=1, r=2, lam=np.array([[1.0, 0.0]]), u=np.ones(2),
            c=np.array([[1.0]]), theta=CoefficientSpec.constant(1.0),
        )
        report = validate_config(cfg)
        assert any("coordinate" in v for v in report.violations)


class TestValidationAtConstruction:
    """The report is computed when the config is built, from copies of its
    arrays, so nothing the caller does afterwards can change either."""

    @staticmethod
    def one_form(u):
        return ShintaniConfig(
            d=1, m=1, r=1, lam=np.array([[1.0]]), u=u,
            c=np.array([[1.0]]), theta=CoefficientSpec.constant(1.0),
        )

    def test_invalid_config_raises_everywhere(self):
        cfg = self.one_form(np.array([0.0]))
        for call in (
            lambda: evaluate(cfg, 2.0),
            lambda: evaluate_partial(cfg, 2.0, 3),
            lambda: tail_bound(cfg, 2.0, 3),
            lambda: differentiate(cfg, 1),
        ):
            with pytest.raises(ConfigError, match="u_j must be positive"):
                call()

    def test_caller_writes_change_nothing(self):
        u = np.array([0.5])
        cfg = self.one_form(u)
        before = evaluate(cfg, 2.0, tol=1e-8)
        u.setflags(write=True)
        u[0] = -1.0
        assert cfg.u.tolist() == [0.5]
        assert validate_config(cfg).ok
        assert evaluate(cfg, 2.0, tol=1e-8) == before
        with pytest.raises(ValueError):
            cfg.u[0] = 2.0  # the config's own copy is read-only

    def test_caller_cannot_repair_an_invalid_config(self):
        u = np.array([0.0])
        cfg = self.one_form(u)
        u[0] = 1.0
        assert not validate_config(cfg).ok
        with pytest.raises(ConfigError):
            evaluate(cfg, 2.0)

    def test_threads_match_one_thread(self):
        configs = [
            riemann(),
            make_special("hurwitz", u=0.25),
            make_special("euler_zagier", r=2, u=(0.0, 0.0)),
            ShintaniConfig(
                d=1, m=1, r=1, lam=[[1.0]], u=[1.0], c=[[1.0]],
                theta=CoefficientSpec.finite_support({(0,): 1.0, (1,): -0.5, (3,): 0.25}),
            ),
        ]
        tasks = [(cfg, s) for cfg in configs for s in (2.0, 3 + 4j, 2.5 - 1j)] * 4
        calls = [(lambda cfg=cfg, s=s: evaluate(cfg, (s,) * cfg.d, tol=1e-9, shell_cap=10**5))
                 for cfg, s in tasks]
        expected = [call() for call in calls]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(max_workers=8) as pool:
                futures = [pool.submit(call) for call in calls]
                got = [f.result(timeout=60) for f in futures]
        finally:
            sys.setswitchinterval(interval)
        assert got == expected


class TestRegion:
    def test_riemann(self):
        cfg = riemann()
        assert in_convergence_region(cfg, 2.0)
        assert not in_convergence_region(cfg, 1.0)  # boundary excluded

    def test_euler_zagier(self):
        cfg = make_special("euler_zagier", r=2, u=(1.0, 1.0))
        assert in_convergence_region(cfg, (3.0, 2.0))
        assert not in_convergence_region(cfg, (1.0, 0.5))

    def test_dimension_mismatch(self):
        with pytest.raises(ConfigError):
            in_convergence_region(riemann(), (2.0, 3.0))


class TestTailBound:
    def test_riemann_oracle(self):
        # oracle: true tail past shell 1000 is psi'(1002)
        bound = tail_bound(riemann(), 2.0, 1000)
        true_tail = float(sp.polygamma(1, 1002))
        assert true_tail <= bound <= 10 * true_tail

    def test_monotone_to_zero(self):
        cfg = riemann()
        values = [tail_bound(cfg, 2.0, n) for n in (1, 10, 100, 1000, 10**6)]
        assert all(a >= b for a, b in zip(values, values[1:]))
        assert values[-1] < 2e-6

    def test_monotone_random_configs(self):
        rng = np.random.default_rng(7)
        for _ in range(5):
            cfg = random_config(rng)
            sigma = region_sigma(cfg, rng)
            values = [tail_bound(cfg, sigma, n) for n in (0, 3, 10, 30, 100, 300)]
            assert all(a >= b for a, b in zip(values, values[1:]))

    def test_near_boundary(self):
        bound = tail_bound(riemann(), 1.0005, 10)
        assert math.isfinite(bound) and bound > 1.0

    def test_envelope_too_weak(self):
        cfg = ShintaniConfig(
            d=1, m=1, r=1, lam=np.array([[1.0]]), u=np.array([1.0]),
            c=np.array([[1.0]]),
            theta=CoefficientSpec.constant(1.0, envelope=Envelope(1.0, 0.1)),
        )
        with pytest.raises(CertificationError, match="no certified bound"):
            tail_bound(cfg, 1.0005, 10)

    def test_bad_shell_index(self):
        for n_shell in (-1, -5, 2.5):
            with pytest.raises(ConfigError, match="shell index"):
                evaluate_partial(riemann(), 2.0, n_shell)
            with pytest.raises(ConfigError, match="shell index"):
                tail_bound(riemann(), 2.0, n_shell)

    def test_bad_shell_cap(self):
        # 1e6 once reached math.comb as a TypeError, 2.5 was used as a cap and
        # -5 returned an uncertified shell-0 value
        for cap in (1e6, 2.5, -5, True, "10"):
            with pytest.raises(ConfigError, match="shell_cap"):
                evaluate(riemann(), 2.0, tol=1e-6, shell_cap=cap)
            with pytest.raises(ConfigError, match="shell_cap"):
                evaluate_many(riemann(), [2.0, 3.0], tol=1e-6, shell_cap=cap)
            with pytest.raises(ConfigError, match="shell_cap"):
                build_distribution(riemann(), 2.0, delta=1e-4, shell_cap=cap)
        # 0 and numpy integers stay valid caps
        assert evaluate(riemann(), 2.0, tol=1e-6, shell_cap=0).shells_used == 0
        assert evaluate(riemann(), 2.0, tol=1e-6, shell_cap=np.int64(10**6)).certified

    def test_poisson_tail_keeps_the_first_point_past_the_shell(self):
        # the support point 3^35 - 1 lies past 2^53 and just past the shell
        base, rate, sigma = 3, 1.0, -3.0
        c = -1.0 / math.log(base)
        cfg = ShintaniConfig(
            d=1, m=1, r=1, lam=np.array([[1.0]]), u=np.array([1.0]), c=np.array([[c]]),
            theta=CoefficientSpec.poisson_powers(base, rate),
        )
        point = base**35 - 1
        theta = math.exp(35 * rate * math.log(base) - math.lgamma(36.0))
        first = theta * float(point + 1) ** (-c * sigma)
        for n_shell in (point - 2, point - 1):
            assert tail_bound(cfg, sigma, n_shell) >= first

    @staticmethod
    def tenth_lambda():
        # terms (0.1 (n + 1))^(-s): at large s, lam^(-s) overflows the float
        # range long before the power of n + 1 underflows
        return ShintaniConfig(d=1, m=1, r=1, lam=[[0.1]], u=[1.0], c=[[1.0]],
                              theta=CoefficientSpec.constant(1.0))

    @pytest.mark.parametrize("s, n_shell", [(300, 12), (300, 40), (200, 60)])
    def test_underflowing_routes_stay_above_the_tail(self, s, n_shell):
        # each route once formed lam^(-s) * (N + 1)^(1 - s) with the power at
        # 0.0, and evaluate_partial reported certified=True, tail_bound=0.0
        cfg = self.tenth_lambda()
        with mp.workdps(30):
            true = mp.mpf(10) ** s * mp.zeta(s, n_shell + 2)  # sum over n > N
        sig = np.array([float(s)])
        for route in (series._poly_tail, series._separable_tail, series._nested_tail):
            assert true <= route(cfg, sig, n_shell) < math.inf, route.__name__
        res = evaluate_partial(cfg, float(s), n_shell)
        assert res.certified and true <= res.tail_bound == tail_bound(cfg, float(s), n_shell)

    @pytest.mark.parametrize("route, n_shell", [
        (series._nested_tail, 12), (series._nested_tail, 40), (series._separable_tail, 40),
    ])
    def test_underflowing_routes_at_rank_two(self, route, n_shell):
        # euler_zagier at s = (300, 300): L_1 = n_1 + n_2 + 2, L_2 = n_2 + 1,
        # and the product of the routes' float factors underflows
        cfg = make_special("euler_zagier", r=2, u=(0.0, 0.0))
        s = 300
        with mp.workdps(30):
            true = mp.fsum(  # degree t = n_1 + n_2 > N; terms past N + 400 are below 10^-40 of it
                mp.mpf(t + 2) ** -s * mp.fsum(mp.mpf(k + 1) ** -s for k in range(t + 1))
                for t in range(n_shell + 1, n_shell + 400)
            )
        bound = route(cfg, np.array([float(s), float(s)]), n_shell)
        assert 0.0 < bound < math.inf and true <= bound

    def test_underflowing_finite_tails(self):
        # each omitted term underflowed in the float table: the tail was 0.0
        # and evaluate_partial reported certified=True, tail_bound=0.0
        one = ShintaniConfig(d=1, m=1, r=1, lam=[[1.0]], u=[1.0], c=[[1.0]],
                             theta=CoefficientSpec.finite_support({(0,): 1.0, (1000,): 1.0}))
        two = ShintaniConfig(d=1, m=1, r=2, lam=[[1.0, 1.0]], u=[1.0, 1.0], c=[[1.0]],
                             theta=CoefficientSpec.finite_support({(0, 0): 1.0, (400, 600): 2.0}))
        with mp.workdps(30):
            cases = ((one, 200.0, mp.mpf(1001) ** -200), (two, 120.0, 2 * mp.mpf(1002) ** -120))
        for cfg, s, true in cases:
            bound = tail_bound(cfg, s, 0)
            assert 0.0 < bound < 1e-300 and true <= bound
            res = evaluate_partial(cfg, s, 0)
            assert (res.certified, res.tail_bound) == (True, bound)
            res = evaluate(cfg, s, tol=1e-300)
            assert (res.shells_used, res.certified, res.tail_bound) == (0, True, bound)
            # past the last support point nothing is omitted
            assert tail_bound(cfg, s, cfg.theta.support_degree) == 0.0

    def test_tail_below_the_float_range_is_the_least_subnormal(self):
        with mp.workdps(30):
            true = mp.zeta(300, 10002)  # about 10^-1200
        res = evaluate_partial(riemann(), 300.0, 10000)
        assert res.certified and res.tail_bound == math.ulp(0.0) and true <= res.tail_bound

    def test_underflowing_geometric_and_poisson_tails(self):
        lerch = make_special("lerch_transcendent", u=1.0, q=0.5)
        for s, n_shell in ((300.0, 10), (2.0, 1100), (50.0, 900)):
            with mp.workdps(30):
                true = mp.nsum(lambda k: mp.mpf(0.5) ** k * (k + 1) ** -s, [n_shell + 1, mp.inf])
            bound = series._geometric_tail(lerch, np.array([s]), n_shell)
            assert true <= bound < math.inf and bound > 0.0, (s, n_shell)
        cfg = ShintaniConfig(d=1, m=1, r=1, lam=[[1.0]], u=[1.0], c=[[-1.0 / math.log(2.0)]],
                             theta=CoefficientSpec.poisson_powers(2, 0.0))
        for sigma, n_shell in ((-700.0, 2**12), (-300.0, 2**20), (-1.0, 2**62)):
            first = n_shell.bit_length()  # the least k with 2^k - 1 > N
            with mp.workdps(30):
                true = mp.fsum(mp.exp(sigma * k) / mp.factorial(k) for k in range(first, first + 80))
            bound = series._poisson_tail(cfg, np.array([sigma]), n_shell)
            assert true <= bound < math.inf and bound > 0.0, (sigma, n_shell)

    def test_monotone_where_the_float_route_underflows(self):
        cfg = self.tenth_lambda()
        values = [tail_bound(cfg, 300.0, n) for n in range(0, 200, 3)]
        assert all(a >= b > 0.0 for a, b in zip(values, values[1:]))

    def test_honest_for_random_configs(self):
        # bound(N) must dominate the measured remainder to a much deeper sum;
        # rounding error is outside the certificate (double precision only)
        rng = np.random.default_rng(5)
        for _ in range(10):
            cfg = random_config(rng)
            sigma = region_sigma(cfg, rng)
            shallow = evaluate_partial(cfg, sigma, 30)
            deep = evaluate_partial(cfg, sigma, 130)
            gap = abs(deep.value - shallow.value)
            slack = 4e-15 * (1.0 + abs(shallow.value))
            assert gap <= tail_bound(cfg, sigma, 30) + slack


class TestEvaluate:
    def test_riemann_basel(self):
        res = evaluate(riemann(), 2.0, tol=1e-6)
        assert res.certified
        assert abs(res.value - ZETA2) <= 1e-6

    def test_hurwitz_half(self):
        res = evaluate(make_special("hurwitz", u=0.5), 2.0, tol=1e-6)
        assert abs(res.value - math.pi**2 / 2) <= 1e-6

    def test_lerch_transcendent(self):
        res = evaluate(make_special("lerch_transcendent", u=1.0, q=0.5), 1.0, tol=1e-10)
        assert abs(res.value - 2 * math.log(2)) <= 1e-10

    def test_region_error(self):
        with pytest.raises(RegionError):
            evaluate(riemann(), 0.5)

    def test_noncertified_partial(self):
        res = evaluate(riemann(), 1.5, tol=1e-12, shell_cap=10**4)
        assert not res.certified
        assert res.tail_bound > 1e-12
        # honest partial: the reported bound covers the distance to truth
        assert abs(res.value - 2.6123753486854883) <= res.tail_bound

    def test_non_finite_inputs_rejected(self):
        # a nan s or tol used to come back "certified"
        for s in (complex(2.0, math.nan), complex(math.inf, 0.0)):
            with pytest.raises(ConfigError, match="finite"):
                evaluate(riemann(), s, tol=1e-6)
        with pytest.raises(ConfigError, match="finite"):
            tail_bound(riemann(), math.nan, 10)
        with pytest.raises(ConfigError, match="positive"):
            evaluate(riemann(), 2.0, tol=math.nan, shell_cap=10**3)

    # the terms overflow on the way to the NumericError
    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @pytest.mark.parametrize("config, s", [
        # the geometric tail formed inf * 0, and a nan route certified
        (make_special("lerch_transcendent", u=1, q=0.5), -400.0),
        (make_special("lerch_transcendent", u=1, q=0.5), -400.0 + 3.0j),
        # 1 + 1001^200 overflows in a certified finite sum
        (ShintaniConfig(d=1, m=1, r=1, lam=[[1.0]], u=[1.0], c=[[1.0]],
                        theta=CoefficientSpec.finite_support({(0,): 1.0, (1000,): 1.0})), -200.0),
    ])
    def test_non_finite_value_is_numeric_error(self, config, s):
        for call in (
            lambda: evaluate(config, s, tol=1e-8),
            lambda: evaluate_many(config, [s], tol=1e-8),
            lambda: evaluate_partial(config, s, 999_999),
        ):
            with pytest.raises(NumericError, match="not finite"):
                call()

    def test_point_budget(self):
        # the block route once walked all 5.0e11 points through shell 10^6
        cfg = make_special("generalized_barnes", m=2, r=2, lam=[[1.0, 2.0], [3.0, 1.0]],
                           u=[1.0, 0.5])
        assert lattice_count(2, 10**6) > series._POINT_BUDGET >= 2**31
        start = time.perf_counter()
        with pytest.raises(NumericError, match="budget"):
            evaluate_partial(cfg, (2.5, 2.5), 10**6)
        with pytest.raises(NumericError, match="budget"):
            evaluate(cfg, (2.5, 2.5), tol=1e-300, shell_cap=10**12)
        assert time.perf_counter() - start < 5.0
        # a sparse support walks only its own points
        sparse = ShintaniConfig(d=1, m=1, r=1, lam=[[1.0]], u=[1.0], c=[[1.0]],
                                theta=CoefficientSpec.poisson_powers(2))
        assert evaluate_partial(sparse, 2.0, 10**12).certified

    def test_zero_coefficient_with_overflowing_power(self):
        # 0 * 1001^200 was 0 * inf = nan: a NumericError value and no tail;
        # the tier-1 warning filter also shows the overflow is never formed
        cfg = ShintaniConfig(d=1, m=1, r=1, lam=[[1.0]], u=[1.0], c=[[1.0]],
                             theta=CoefficientSpec.finite_support({(0,): 1.0, (1000,): 0.0}))
        for s in (-200.0, complex(-200.0, 3.0)):
            res = evaluate(cfg, s, tol=1e-8)
            assert (res.value, res.tail_bound, res.certified) == (1.0, 0.0, True)
            assert evaluate_many(cfg, [s, s], tol=1e-8) == [res, res]
        assert tail_bound(cfg, -200.0, 0) == 0.0
        for shell in (5, 1000):
            res = evaluate_partial(cfg, -200.0, shell)
            assert (res.value, res.tail_bound, res.certified) == (1.0, 0.0, True)

    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
    def test_overflow_at_nonzero_coefficient_still_raises(self):
        cfg = ShintaniConfig(d=1, m=1, r=1, lam=[[1.0]], u=[1.0], c=[[1.0]],
                             theta=CoefficientSpec.finite_support(
                                 {(0,): 1.0, (500,): 0.0, (1000,): 2.0}))
        with pytest.raises(NumericError, match="not finite"):
            evaluate(cfg, -200.0, tol=1e-8)
        with pytest.raises(CertificationError, match="no certified bound"):
            tail_bound(cfg, -200.0, 500)

    def test_nan_tail_route_is_skipped(self):
        # at s = -400 every route is nan or inf: no certified bound
        cfg = make_special("lerch_transcendent", u=1, q=0.5)
        with np.errstate(over="ignore", invalid="ignore"):
            bound = series._tail_bound(cfg, np.array([-400.0]), 999_999)
            assert type(bound) is float and bound == math.inf
            with pytest.raises(CertificationError):
                tail_bound(cfg, -400.0, 999_999)

    def test_complex_point(self):
        res = evaluate(riemann(), ComplexPoint([2.0], [1.0]), tol=1e-6)
        # frozen from the independent high-precision oracle
        assert abs(res.value - complex(1.1503557032549027, -0.4375308659196079)) <= 2e-6

    def test_certified_truncation_movement(self):
        rng = np.random.default_rng(11)
        for _ in range(6):
            cfg = random_config(rng)
            sigma = region_sigma(cfg, rng)
            res = evaluate(cfg, sigma, tol=1e-4, shell_cap=10**5)
            doubled = evaluate_partial(cfg, sigma, 2 * res.shells_used + 1)
            slack = 4e-15 * (1.0 + abs(res.value))
            assert abs(doubled.value - res.value) <= res.tail_bound + slack

    def test_conjugate_symmetry(self):
        rng = np.random.default_rng(3)
        cfg = riemann()
        for _ in range(5):
            s = ComplexPoint([rng.uniform(1.5, 3.0)], [rng.uniform(-5, 5)])
            a = evaluate(cfg, s, tol=1e-8).value
            b = evaluate(cfg, s.conj(), tol=1e-8).value
            assert a == pytest.approx(b.conjugate(), abs=1e-12)

    def test_hurwitz_doubling(self):
        # zeta(s, 1/2) = (2^s - 1) zeta(s)
        half = make_special("hurwitz", u=0.5)
        rie = riemann()
        for s in (1.5, 2.0, 3.0, 4.5, 6.0):
            h = evaluate(half, s, tol=1e-5, shell_cap=10**7)
            z = evaluate(rie, s, tol=1e-5, shell_cap=10**7)
            combined = h.tail_bound + abs(2.0**s - 1.0) * z.tail_bound
            assert abs(h.value - (2.0**s - 1.0) * z.value) <= combined

    def test_shell_order_independence(self):
        cfg = make_special("hurwitz", u=0.7)
        res = evaluate_partial(cfg, 2.0, 5000)
        n = np.arange(0, 5001, dtype=float)
        terms = (n + 0.7) ** -2.0
        rng = np.random.default_rng(0)
        for _ in range(3):
            rng.shuffle(terms)
            alt = exact_complex_sum(terms)
            assert abs(alt - res.value) <= 1e-12 * abs(res.value)


class TestDifferentiate:
    def test_riemann_derivative_value(self):
        der = differentiate(riemann(), 1)
        res = evaluate(der, 3.0, tol=1e-7)
        assert abs(res.value - ZETA_PRIME_3) <= 2e-7

    def test_against_finite_differences(self):
        # independent oracle: Richardson-extrapolated central differences of
        # plain partial sums at fixed depth
        n = np.arange(1.0, 2e6)

        def partial(s):
            return float(np.sum(n ** (-s)))

        h = 0.05
        d1 = (partial(3 + h) - partial(3 - h)) / (2 * h)
        d2 = (partial(3 + h / 2) - partial(3 - h / 2)) / h
        fd = (4 * d2 - d1) / 3
        res = evaluate(differentiate(riemann(), 1), 3.0, tol=1e-8)
        assert abs(res.value - fd) <= 10 * h**2

    def test_derivative_consistency_invariant(self):
        # central differences at step 1e-4: 10*step^2 relative agreement
        n = np.arange(1.0, 2e6)

        def partial(s):
            return float(np.sum(n ** (-s)))

        step = 1e-4
        fd = (partial(3 + step) - partial(3 - step)) / (2 * step)
        res = evaluate(differentiate(riemann(), 1), 3.0, tol=2e-8)
        assert abs(res.value - fd) <= 10 * step**2 * abs(fd)

    def test_twice(self):
        second = differentiate(differentiate(riemann(), 1), 1)
        res = evaluate(second, 3.0, tol=1e-7)
        assert abs(res.value - ZETA_2ND_3) <= 2e-7

    def test_zero_c_column(self):
        cfg = ShintaniConfig(
            d=2, m=1, r=1, lam=np.array([[1.0]]), u=np.array([1.0]),
            c=np.array([[1.0, 0.0]]), theta=CoefficientSpec.constant(1.0),
        )
        der = differentiate(cfg, 2)
        res = evaluate(der, (2.5, 0.3), tol=1e-9)
        assert res.value == 0.0

    def test_axis_range(self):
        with pytest.raises(ConfigError):
            differentiate(riemann(), 2)

    def test_hurwitz_derivative_tails_against_mpmath(self):
        # past shell N the terms log(n + u) (n + u)^-s, n > N, are positive,
        # so the true tail is |zeta'(s, N + 1 + u)|
        for u in (1.0, 0.3, 0.05):
            der = differentiate(make_special("hurwitz", u=u), 1)
            for s in (1.2, 1.5, 3.0):
                for n_shell in (0, 10, 1000):
                    bound = tail_bound(der, s, n_shell)
                    with mp.workdps(30):
                        true = float(abs(mp.zeta(s, n_shell + 1 + u, 1)))
                    assert true <= bound, (u, s, n_shell)
                    if n_shell == 1000:
                        assert bound <= 3.0 * true, (u, s, n_shell)


class TestMakeSpecial:
    def test_every_special_kind_is_known(self):
        # each name of the tuple reaches its own branch, which rejects the
        # parameter no kind takes
        for kind in SPECIAL_KINDS:
            with pytest.raises(ConfigError, match="unexpected parameters"):
                make_special(kind, bogus=1)
        with pytest.raises(ConfigError, match="unknown special kind"):
            make_special("binomial")

    def test_hurwitz_one_is_riemann(self):
        a = evaluate(make_special("hurwitz", u=1.0), 3.0, tol=1e-9)
        b = evaluate(riemann(), 3.0, tol=1e-9)
        assert a.value == b.value

    def test_lerch_v0_is_hurwitz(self):
        a = evaluate(make_special("lerch", u=1.0, v=0.0), 2.0, tol=1e-6)
        assert abs(a.value - ZETA2) <= 2e-6

    def test_lerch_phase(self):
        # sum e^(2 pi i v n) / (n+1)^3 against a direct numpy oracle
        v = 0.3
        cfg = make_special("lerch", u=1.0, v=v)
        res = evaluate(cfg, 3.0, tol=1e-8)
        n = np.arange(0.0, 3e5)
        oracle = np.sum(np.exp(2j * math.pi * v * n) * (n + 1.0) ** -3.0)
        assert abs(res.value - oracle) <= 1e-7

    def test_euler_zagier_oracle(self):
        cfg = make_special("euler_zagier", r=2, u=(1.0, 1.0))
        res = evaluate(cfg, (3.0, 2.0), tol=1e-8, shell_cap=10**8)
        assert abs(res.value - EZH_32) <= 2e-8

    def test_euler_zagier_matches_constrained_form(self):
        # first (ordered) form of the nested sum as an independent oracle
        u1, u2 = 0.8, 0.6
        cfg = make_special("euler_zagier", r=2, u=(u1, u2))
        res = evaluate(cfg, (3.5, 2.5), tol=1e-8, shell_cap=10**8)
        n1 = np.arange(1.0, 4000.0)
        inner = np.cumsum((n1 + u2) ** -2.5)  # sum_{n2 <= k} over n2 >= 1
        oracle = np.sum(((n1 + u1) ** -3.5)[1:] * inner[:-1])
        assert abs(res.value - oracle) <= 1e-6

    def test_barnes(self):
        lamv = (1.0, 2.0)
        cfg = make_special("barnes", r=2, lam=lamv, u=3.0)
        res = evaluate(cfg, 4.0, tol=1e-6, shell_cap=10**7)
        n1, n2 = np.meshgrid(np.arange(0.0, 900.0), np.arange(0.0, 900.0))
        oracle = np.sum((n1 + 2.0 * n2 + 3.0) ** -4.0)
        assert abs(res.value - oracle) <= 1e-5

    def test_generalized_barnes(self):
        lam = [[1.0, 2.0], [2.0, 1.0]]
        cfg = make_special("generalized_barnes", m=2, r=2, lam=lam, u=(0.5, 0.5))
        res = evaluate(cfg, (2.5, 2.5), tol=1e-6, shell_cap=10**7)
        n1, n2 = np.meshgrid(np.arange(0.0, 700.0), np.arange(0.0, 700.0))
        f1 = (n1 + 0.5 + 2.0 * (n2 + 0.5)) ** -2.5
        f2 = (2.0 * (n1 + 0.5) + (n2 + 0.5)) ** -2.5
        oracle = np.sum(f1 * f2)
        assert abs(res.value - oracle) <= 1e-5

    def test_riemann_derivative_kind(self):
        cfg = make_special("riemann_derivative")
        res = evaluate(cfg, 2.0, tol=1e-5, shell_cap=10**7)
        assert abs(res.value - ZETA_PRIME_2) <= 2e-5

    def test_parameter_errors(self):
        with pytest.raises(ConfigError):
            make_special("hurwitz", u=0.0)
        with pytest.raises(ConfigError):
            make_special("hurwitz", u=1.5)
        with pytest.raises(ConfigError):
            make_special("lerch_transcendent", u=1.0, q=1.0)
        with pytest.raises(ConfigError):
            make_special("euler_zagier", r=2, u=(0.1, 2.0))
        with pytest.raises(ConfigError):
            make_special("riemann", extra=1)
        with pytest.raises(ConfigError):
            make_special("unknown_kind")


class TestBudget:
    def test_lattice_count(self):
        assert lattice_count(1, 10) == 11
        assert lattice_count(2, 3) == 10
        assert lattice_count(3, 2) == 10


def _array_keepers(name):
    """(a writable array, a function that builds the object from it and
    returns the array the object keeps) for every class that keeps an
    array, and for the entry points that handed callers' arrays to them."""
    dist = build_distribution(riemann(), 2.0, delta=1e-2)
    base = ComplexPoint([2.0], [0.0])
    return {
        "ComplexPoint.re": (np.array([2.0]), lambda a: ComplexPoint(a, [0.0]).re),
        "ComplexPoint.im": (np.array([1.0]), lambda a: ComplexPoint([2.0], a).im),
        "ShintaniConfig": (
            np.array([0.5]),
            lambda a: ShintaniConfig(d=1, m=1, r=1, lam=[[1.0]], u=a, c=[[1.0]],
                                     theta=CoefficientSpec.constant(1.0)).u,
        ),
        "SliceSpec": (np.array([1j]), lambda a: SliceSpec(base, a, (0.0, 1.0, 0.0, 1.0)).direction),
        "ZetaDistribution": (dist.masses.copy(), lambda a: dataclasses.replace(dist, masses=a).masses),
        "SampleBatch": (np.zeros((3, 1)), lambda a: SampleBatch(a, 0, 3, 0.0).points),
        "EulerConfig": (np.ones((1, 1)), lambda a: EulerConfig(1, 1, (AlphaRule.constant(1.0),), a).a),
        "DiscreteMeasure": (np.ones(2), lambda a: DiscreteMeasure(a, np.ones(2), 2, 1).locations),
        "PrimeTable": (np.array([2, 3]), lambda a: PrimeTable(3, a).primes),
        "build_distribution": (np.array([2.0]), lambda a: build_distribution(riemann(), a, delta=1e-2).sigma),
        "evaluate": (np.array([2.0]), lambda a: np.array([evaluate(riemann(), ComplexPoint(a, [0.0])).value])),
    }[name]


@pytest.mark.parametrize("name", [
    "ComplexPoint.re", "ComplexPoint.im", "ShintaniConfig", "SliceSpec", "ZetaDistribution",
    "SampleBatch", "EulerConfig", "DiscreteMeasure", "PrimeTable", "build_distribution", "evaluate",
])
def test_constructors_leave_callers_arrays_writable(name):
    arr, build = _array_keepers(name)
    kept = build(arr)
    before = kept.copy()
    assert arr.flags.writeable, name
    arr[...] = 7
    assert np.array_equal(kept, before), name
    if name != "evaluate":
        assert not kept.flags.writeable, name


def test_read_only_arrays_are_kept_as_is():
    dist = build_distribution(riemann(), 2.0, delta=1e-2)
    copy = dataclasses.replace(dist)
    assert copy.locations is dist.locations and copy.masses is dist.masses
    batch = sample(dist, seed=1, count=5)
    assert dataclasses.replace(batch).points is batch.points
    # a read-only view of a writable array is copied: its base could change
    owner = np.array([0.5])
    view = owner[:]
    view.setflags(write=False)
    cfg = ShintaniConfig(d=1, m=1, r=1, lam=[[1.0]], u=view, c=[[1.0]], theta=CoefficientSpec.constant(1.0))
    owner[0] = 2.0
    assert cfg.u.tolist() == [0.5]
