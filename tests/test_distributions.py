"""Zeta distributions: atom tables, characteristic functions, closed-form
constructions, sampling, and moments."""

import dataclasses
import math
import tracemalloc
from unittest import mock

import mpmath as mp
import numpy as np
import pytest

from conftest import random_config, region_sigma
from shintani import coefficients
from shintani.coefficients import CoefficientSpec
from shintani import distributions, series
from shintani.distributions import (
    SPECIAL_DISTRIBUTION_KINDS,
    _merge_atoms,
    _phases,
    atom_cf,
    atom_cf_grid,
    build_distribution,
    char_fn,
    empirical_cf,
    make_special_distribution,
    moment,
    sample,
)
from shintani.errors import CertificationError, ConfigError, RegionError
from shintani.series import ShintaniConfig, differentiate, evaluate, make_special

ZETA2 = math.pi**2 / 6


def riemann():
    return make_special("riemann")


class TestBuild:
    def test_riemann_atoms(self):
        dist = build_distribution(riemann(), 2.0, delta=1e-6)
        total = float(np.sum(dist.masses))
        assert 1.0 - 1e-6 <= total <= 1.0 + 1e-12
        assert dist.tail_mass_bound <= 1e-6
        assert abs(dist.mass_at(0.0) - 6.0 / math.pi**2) <= 2e-6
        # atoms sit at -log n with masses n^-2/zeta(2)
        assert dist.locations[4, 0] == pytest.approx(-math.log(5.0))
        assert dist.masses[4] == pytest.approx(5.0**-2 / ZETA2, rel=1e-6)

    def test_delta_construction(self):
        sd = make_special_distribution("delta", lam=2.0, u=1.5, c=1.0, theta0=3.0, sigma=2.0)
        dist = build_distribution(sd.config, sd.sigma, delta=1e-12)
        assert dist.atom_count == 1
        assert dist.masses[0] == pytest.approx(1.0)
        assert dist.locations[0, 0] == pytest.approx(-math.log(3.0))

    def test_hurwitz_half_atoms(self):
        dist = build_distribution(make_special("hurwitz", u=0.5), 2.0, delta=1e-6)
        with mp.workdps(25):
            z = float(mp.zeta(2, 0.5))
        for n in (0, 1, 5):
            assert dist.locations[n, 0] == pytest.approx(-math.log(n + 0.5))
            assert dist.masses[n] == pytest.approx((n + 0.5) ** -2 / z, rel=1e-5)

    def test_mixed_sign_rejected(self):
        cfg = ShintaniConfig(
            d=1, m=1, r=1, lam=np.array([[1.0]]), u=np.array([1.0]),
            c=np.array([[1.0]]),
            theta=CoefficientSpec.finite_support({(0,): 1.0, (1,): -2.0}),
        )
        with pytest.raises(ConfigError, match="sign class"):
            build_distribution(cfg, 2.0, delta=1e-6)

    def test_nonpositive_theta_allowed(self):
        dist = build_distribution(
            make_special("riemann_derivative"), 2.0, delta=1e-5, shell_cap=10**7
        )
        assert np.all(dist.masses >= 0.0)
        assert dist.normalizer.value.real < 0.0  # zeta'(2) < 0

    def test_region_violation(self):
        with pytest.raises(RegionError):
            build_distribution(riemann(), 0.8, delta=1e-6)

    def test_delta_unreachable(self):
        with pytest.raises(CertificationError, match="unreachable"):
            build_distribution(riemann(), 1.2, delta=1e-9, shell_cap=10**4)

    def test_non_finite_sigma_and_delta_rejected(self):
        # a nan sigma gave nan masses behind a "certified" normaliser, and a
        # nan delta enumerated to the cap
        sd = make_special_distribution("binomial", j=2, big_k=2, phi=1.0, sigma=-1.0)
        for sigma in (math.nan, math.inf):
            with pytest.raises(ConfigError, match="finite"):
                build_distribution(sd.config, sigma, delta=1e-6)
        with pytest.raises(ConfigError, match="positive"):
            build_distribution(sd.config, sd.sigma, delta=math.nan)

    def test_atom_merging(self):
        # lam symmetric: lattice points (a, b) and (b, a) share locations
        cfg = ShintaniConfig(
            d=1, m=1, r=2, lam=np.array([[1.0, 1.0]]), u=np.array([0.5, 0.5]),
            c=np.array([[2.0]]), theta=CoefficientSpec.constant(1.0),
        )
        dist = build_distribution(cfg, 2.0, delta=1e-4, shell_cap=10**6)
        # one atom per total degree t, mass proportional to (t+1) points
        locs = dist.locations[:, 0]
        assert len(np.unique(locs)) == len(locs)
        order = np.argsort(-locs)
        masses = dist.masses[order]
        z = dist.normalizer.value.real
        for t in range(5):
            want = (t + 1) * (t + 1.0) ** -4.0 / z
            assert masses[t] == pytest.approx(want, rel=1e-9)

    @staticmethod
    def _dict_merge(locations, masses):
        """Masses summed per location in input order, sorted by location."""
        merged: dict[tuple, float] = {}
        for loc, mass in zip(map(tuple, locations.tolist()), masses.tolist()):
            merged[loc] = merged.get(loc, 0.0) + mass
        keys = sorted(merged)
        return np.array(keys, dtype=float).reshape(len(keys), -1), np.array([merged[k] for k in keys])

    def test_merge_against_dict_reference(self):
        rng = np.random.default_rng(8)
        distinct = rng.normal(size=(400, 2))
        masses = rng.uniform(0.0, 1.0, size=1200)
        for locations in (distinct, distinct[rng.integers(0, 400, size=1200)]):
            n = locations.shape[0]
            got_locs, got_masses = _merge_atoms(locations, masses[:n])
            want_locs, want_masses = self._dict_merge(locations, masses[:n])
            assert got_locs.tobytes() == want_locs.tobytes()
            assert got_masses.tobytes() == want_masses.tobytes()
        assert got_locs.shape[0] < 1200  # the second table has coincident atoms

    def test_derivative_distribution_validity(self):
        # sum_j lam_lj u_j >= 1 and same-sign c rows: the derivative's theta
        # keeps a definite sign, so the build succeeds
        for cfg in (riemann(), make_special("euler_zagier", r=2, u=(1.0, 1.0))):
            der = differentiate(cfg, 1)
            sigma = [3.0] * cfg.d
            dist = build_distribution(der, sigma, delta=1e-4, shell_cap=4 * 10**6)
            assert np.all(dist.masses >= 0.0)


class TestCharFn:
    def test_unit_at_zero(self):
        got = char_fn(riemann(), 2.0, 0.0, tol=1e-10)
        assert got.value == pytest.approx(1.0)

    def test_riemann_ratio_oracle(self):
        # independent oracle: direct partial sums with an integral correction
        n = np.arange(1.0, 10**7)
        num = complex(np.sum(n ** (-2.0) * np.exp(-1j * np.log(n))))
        got = char_fn(riemann(), 2.0, 1.0, tol=1e-8, shell_cap=10**8)
        oracle = num / float(np.sum(n**-2.0))
        assert abs(got.value - oracle) <= 5e-7
        assert got.error_bound <= 1e-7

    def test_hermitian(self):
        rng = np.random.default_rng(2)
        for _ in range(5):
            t = float(rng.uniform(0.1, 8.0))
            a = char_fn(riemann(), 2.0, t, tol=1e-8).value
            b = char_fn(riemann(), 2.0, -t, tol=1e-8).value
            assert b == pytest.approx(a.conjugate(), abs=1e-12)

    def test_bounded_by_one(self):
        for t in np.linspace(-10, 10, 21):
            got = char_fn(riemann(), 2.0, float(t), tol=1e-8)
            assert abs(got.value) <= 1.0 + got.error_bound

    def test_bounded_by_one_2d(self):
        cfg = make_special("euler_zagier", r=2, u=(1.0, 1.0))
        for t1 in (-10.0, -3.0, 1.0, 10.0):
            for t2 in (-7.0, 2.0, 10.0):
                got = char_fn(cfg, (3.0, 2.5), (t1, t2), tol=1e-4, shell_cap=10**5)
                assert abs(got.value) <= 1.0 + got.error_bound

    def test_vanishing_normalizer(self):
        from shintani.errors import NumericError

        # Z(1) = 1 - 2/2 = 0 exactly for theta = {1, -2} on n = 0, 1
        cfg = ShintaniConfig(
            d=1, m=1, r=1, lam=np.array([[1.0]]), u=np.array([1.0]),
            c=np.array([[1.0]]),
            theta=CoefficientSpec.finite_support({(0,): 1.0, (1,): -2.0}),
        )
        with pytest.raises(NumericError, match="normalizer"):
            char_fn(cfg, 1.0, 0.5, tol=1e-12)

    def test_one_evaluate_many_call(self):
        # numerator and normaliser share Re s: one shell choice, and each
        # value has the bits of its own evaluate call
        for cfg, sigma, t in ((riemann(), 2.0, 1.5),
                              (make_special_distribution("binomial", j=2, big_k=3, phi=0.8, sigma=-1.0).config, -1.0, 2.0)):
            with mock.patch.object(series, "_choose_shell", wraps=series._choose_shell) as spy:
                got = char_fn(cfg, sigma, t, tol=1e-8)
            assert spy.call_count == 1
            num, den = (evaluate(cfg, complex(sigma, x), tol=1e-8) for x in (t, 0.0))
            assert got.value == num.value / den.value

    def test_grid_axis_in_range(self):
        cfg = make_special("euler_zagier", r=2, u=(1.0, 1.0))
        dist = build_distribution(cfg, (3.0, 2.5), delta=1e-3, shell_cap=10**6)
        assert atom_cf_grid(dist, 2, [0.0])[0] == pytest.approx(1.0, abs=1e-3)
        for axis in (0, 3):
            with pytest.raises(ConfigError, match="axis"):
                atom_cf_grid(dist, axis, [0.0, 1.0])

    def test_atom_table_consistency(self):
        dist = build_distribution(riemann(), 2.0, delta=1e-7, shell_cap=10**8)
        rng = np.random.default_rng(4)
        for _ in range(5):
            t = float(rng.uniform(-5.0, 5.0))
            via_atoms = atom_cf(dist, t)
            via_ratio = char_fn(riemann(), 2.0, t, tol=1e-7, shell_cap=10**8)
            assert abs(via_atoms - via_ratio.value) <= (
                2 * dist.tail_mass_bound + via_ratio.error_bound
            )


class TestSpecials:
    def test_binomial_parameter_algebra(self):
        sd = make_special_distribution("binomial", j=2, big_k=3, phi=math.e, sigma=-1.0)
        assert sd.params["p"] == pytest.approx(0.5)
        # atoms are the binomial on 0..K
        dist = build_distribution(sd.config, sd.sigma, delta=1e-12)
        assert dist.atom_count == 4
        assert sorted(np.round(dist.locations[:, 0]).tolist()) == [0, 1, 2, 3]
        assert np.sort(dist.masses).tolist() == pytest.approx([0.125, 0.125, 0.375, 0.375])

    def test_binomial_cf_closed_form(self):
        sd = make_special_distribution("binomial", j=3, big_k=4, phi=1.7, sigma=-2.0)
        dist = build_distribution(sd.config, sd.sigma, delta=1e-13)
        rng = np.random.default_rng(9)
        for t in rng.uniform(-12, 12, size=25):
            assert abs(atom_cf(dist, float(t)) - sd.cf(float(t))) <= 1e-10

    def test_poisson_cf_closed_form(self):
        sd = make_special_distribution("poisson", j=2, rate=0.5, sigma=-1.2)
        assert sd.params["mean"] == pytest.approx(2.0**0.5 * math.exp(-1.2))
        dist = build_distribution(sd.config, sd.sigma, delta=1e-13)
        rng = np.random.default_rng(10)
        for t in rng.uniform(-12, 12, size=25):
            assert abs(atom_cf(dist, float(t)) - sd.cf(float(t))) <= 1e-10

    def test_delta_cf(self):
        sd = make_special_distribution("delta", lam=1.0, u=1.0, c=1.0, theta0=1.0, sigma=2.0)
        assert sd.cf(1.7) == pytest.approx(1.0)  # atom at -log 1 = 0

    def test_sigma_ranges(self):
        with pytest.raises(ConfigError):
            make_special_distribution("binomial", j=2, big_k=1, phi=1.0, sigma=0.0)
        with pytest.raises(ConfigError):
            make_special_distribution("poisson", j=2, sigma=-0.1)
        # expert mode per the remark: any sigma with absolute convergence
        sd = make_special_distribution("poisson", j=2, sigma=-0.1, check=False)
        dist = build_distribution(sd.config, sd.sigma, delta=1e-10)
        assert abs(float(np.sum(dist.masses)) - 1.0) <= 1e-9

    def test_every_special_distribution_kind_is_known(self):
        # each name of the tuple reaches its own branch, which rejects the
        # parameter no kind takes
        for kind in SPECIAL_DISTRIBUTION_KINDS:
            with pytest.raises(ConfigError, match="unexpected parameters"):
                make_special_distribution(kind, check=False, j=2, big_k=1, phi=1.0, sigma=-1.0, bogus=1)

    @pytest.mark.parametrize("kind, params, missing", [
        ("binomial", {"j": 2}, "big_k"),
        ("binomial", {"j": 2, "big_k": 1, "sigma": -1.0}, "phi"),
        ("poisson", {"j": 2}, "sigma"),
        ("delta", {}, "sigma"),
    ])
    def test_missing_parameter_is_config_error(self, kind, params, missing):
        # a missing parameter once raised KeyError
        with pytest.raises(ConfigError, match=repr(missing)):
            make_special_distribution(kind, **params)

    def test_parameter_errors(self):
        with pytest.raises(ConfigError):
            make_special_distribution("binomial", j=1, big_k=1, phi=1.0, sigma=-1.0)
        with pytest.raises(ConfigError):
            make_special_distribution("delta", lam=-1.0, u=1.0, c=1.0, theta0=1.0, sigma=2.0)
        with pytest.raises(ConfigError):
            make_special_distribution("unknown", sigma=2.0)


class TestSampling:
    def test_delta_all_equal(self):
        sd = make_special_distribution("delta", lam=2.0, u=1.0, c=1.0, theta0=1.0, sigma=2.0)
        dist = build_distribution(sd.config, sd.sigma, delta=1e-12)
        batch = sample(dist, seed=1, count=100)
        assert np.all(batch.points == dist.locations[0])

    def test_determinism(self):
        dist = build_distribution(riemann(), 2.0, delta=1e-5)
        a = sample(dist, seed=123, count=5000)
        b = sample(dist, seed=123, count=5000)
        assert np.array_equal(a.points, b.points)
        c = sample(dist, seed=124, count=5000)
        assert not np.array_equal(a.points, c.points)

    def test_count_positive(self):
        dist = build_distribution(riemann(), 2.0, delta=1e-4)
        with pytest.raises(ConfigError):
            sample(dist, seed=1, count=0)

    def test_seed_nonnegative(self):
        dist = build_distribution(riemann(), 2.0, delta=1e-4)
        with pytest.raises(ConfigError, match="seed"):
            sample(dist, seed=-1, count=10)

    def test_atom_zero_frequency(self):
        dist = build_distribution(riemann(), 2.0, delta=1e-6)
        batch = sample(dist, seed=7, count=200000)
        freq = float(np.mean(batch.points[:, 0] == 0.0))
        assert abs(freq - 6.0 / math.pi**2) < 0.004


class TestMoments:
    def test_delta_powers(self):
        sd = make_special_distribution("delta", lam=3.0, u=1.0, c=1.0, theta0=2.0, sigma=2.0)
        dist = build_distribution(sd.config, sd.sigma, delta=1e-12)
        x0 = -math.log(3.0)
        for k in range(4):
            got = moment(dist, k)
            assert got.value == pytest.approx(x0**k)
            assert got.tail_bound <= 1e-10

    def test_binomial_mean(self):
        sd = make_special_distribution("binomial", j=2, big_k=3, phi=math.e, sigma=-1.0)
        dist = build_distribution(sd.config, sd.sigma, delta=1e-13)
        got = moment(dist, 1)
        assert got.value == pytest.approx(3 * 0.5, rel=1e-9)  # K p
        # cross-check against a finite difference of the closed-form cf
        h = 1e-5
        fd = (sd.cf(h) - sd.cf(-h)) / (2j * h)
        assert got.value == pytest.approx(fd.real, abs=1e-6)

    def test_moment_cf_consistency(self):
        dist = build_distribution(riemann(), 2.0, delta=1e-7, shell_cap=10**8)
        got = moment(dist, 1)
        h = 1e-4
        a = char_fn(riemann(), 2.0, h, tol=3e-9, shell_cap=10**8).value
        b = char_fn(riemann(), 2.0, -h, tol=3e-9, shell_cap=10**8).value
        fd = ((a - b) / (2j * h)).real
        assert abs(got.value - fd) <= 1e-6 + got.tail_bound

    def test_order_cap(self):
        dist = build_distribution(riemann(), 2.0, delta=1e-4)
        with pytest.raises(ConfigError, match="cap"):
            moment(dist, 9)

    def test_euler_zagier_mean_has_finite_bound(self):
        cfg = make_special("euler_zagier", r=2, u=(1.0, 1.0))
        dist = build_distribution(cfg, (3.0, 2.5), delta=1e-5, shell_cap=10**6)
        got = moment(dist, (1, 0))
        assert math.isfinite(got.tail_bound)
        # oracle: direct weighted sum over the unconstrained form
        n1 = np.arange(0.0, 1500.0)
        total, weight = 0.0, 0.0
        inner_w = (np.add.outer(n1, n1) + 3.0) ** -3.0  # (m1 + m2 + 3)^-s1
        f2 = (n1 + 2.0) ** -2.5
        w = inner_w * f2[None, :]
        x1 = -np.log(np.add.outer(n1, n1) + 3.0)
        weight = float(np.sum(w))
        total = float(np.sum(w * x1))
        assert got.value == pytest.approx(total / weight, abs=5e-4)


    def test_euler_zagier_moment_tails_against_box(self):
        # forms L0 = n0 + n1 + 3 and L1 = n1 + 2 at sigma = (3, 2.5); the
        # remainder summed over a 4000 x 4000 box is a lower bound of the
        # true remainder, so it must lie below the certified tail bound
        cfg = make_special("euler_zagier", r=2, u=(1.0, 1.0))
        dist = build_distribution(cfg, (3.0, 2.5), delta=1e-5, shell_cap=10**6)
        ks = ((1, 0), (0, 1), (1, 1), (2, 0))
        box = dict.fromkeys(ks, 0.0)
        n0 = np.arange(4000.0)
        for n1 in np.array_split(np.arange(4000.0), 16):
            l0 = np.add.outer(n1, n0) + 3.0
            l1 = (n1 + 2.0)[:, None]
            w = np.where(l0 - 3.0 > dist.shells_used, l0**-3.0 * l1**-2.5, 0.0)
            x0, x1 = np.log(l0), np.log(l1)
            for k in ks:
                box[k] += float(np.sum(w * x0 ** k[0] * x1 ** k[1]))
        z = abs(dist.normalizer.value.real)
        for k in ks:
            assert box[k] / z <= moment(dist, k).tail_bound, k

    @staticmethod
    def _moment_bound(dist, k):
        """moment(dist, k).tail_bound, and whether the weighted ratio ran."""
        ratio = coefficients._LogWeight.ratio
        with mock.patch.object(coefficients._LogWeight, "ratio", autospec=True, side_effect=ratio) as spy:
            bound = moment(dist, k).tail_bound
        return bound, spy.called

    def test_poisson_weighted_tail_against_brute_force(self):
        # atoms at x = i (lattice point 2^i - 1) with weight e^(sigma i) / i!
        sd = make_special_distribution("poisson", j=2, sigma=-1.0)
        for delta in (1e-3, 1e-6):
            dist = build_distribution(sd.config, [sd.sigma], delta=delta)
            first = next(i for i in range(64) if 2**i - 1 > dist.shells_used)
            z = abs(dist.normalizer.value.real)
            for k in (1, 2, 4):
                with mp.workdps(30):
                    tail = float(mp.fsum(
                        mp.mpf(i) ** k * mp.exp(sd.sigma * i) / mp.factorial(i)
                        for i in range(first, first + 200)
                    )) / z
                bound, weighted = self._moment_bound(dist, k)
                assert weighted
                assert tail <= bound <= 4.0 * tail, (delta, k)

    def test_lerch_weighted_tail_against_brute_force(self):
        # atoms at x = -log(n + 1) with weight q^n (n + 1)^(-sigma)
        q = 0.9995
        cfg = make_special("lerch_transcendent", u=1.0, q=q)
        for sigma in (0.5, 2.0):
            dist = build_distribution(cfg, [sigma], delta=1e-6)
            n = np.arange(dist.shells_used + 1, dist.shells_used + 400_001, dtype=float)
            weights = np.exp(n * math.log(q)) * (n + 1.0) ** -sigma
            z = abs(dist.normalizer.value.real)
            for k in (1, 3):
                tail = math.fsum(weights * np.log(n + 1.0) ** k) / z
                bound, weighted = self._moment_bound(dist, k)
                assert weighted
                assert tail <= bound <= 4.0 * tail, (sigma, k)


class TestEmpirical:
    def test_exact_at_zero(self):
        dist = build_distribution(riemann(), 2.0, delta=1e-5)
        batch = sample(dist, seed=3, count=1000)
        assert empirical_cf(batch, 0.0) == 1.0

    def test_delta_batch(self):
        sd = make_special_distribution("delta", lam=2.0, u=1.0, c=1.0, theta0=1.0, sigma=2.0)
        dist = build_distribution(sd.config, sd.sigma, delta=1e-12)
        batch = sample(dist, seed=5, count=50)
        x0 = dist.locations[0, 0]
        t = 1.3
        assert empirical_cf(batch, t) == pytest.approx(np.exp(1j * t * x0))

    def test_concentration(self):
        dist = build_distribution(riemann(), 2.0, delta=1e-6)
        batch = sample(dist, seed=11, count=100000)
        got = empirical_cf(batch, 1.0)
        want = char_fn(riemann(), 2.0, 1.0, tol=1e-8).value
        assert abs(got - want) <= 4.0 / math.sqrt(batch.count)

    def test_normalization_random_configs(self):
        rng = np.random.default_rng(21)
        done = 0
        while done < 4:
            cfg = random_config(rng)
            if cfg.theta.sign_class() not in ("nonnegative", "nonpositive"):
                continue
            sigma = region_sigma(cfg, rng)
            try:
                dist = build_distribution(cfg, sigma, delta=1e-5, shell_cap=10**6)
            except CertificationError:
                continue
            total = float(np.sum(dist.masses))
            assert 1.0 - 1e-5 <= total <= 1.0 + 1e-10
            done += 1


class TestAtomCfGrid:
    """`atom_cf_grid` against `atom_cf`, within the bound its docstring proves."""

    U = 2.0**-53

    @staticmethod
    def table(rng, atoms, d):
        base = build_distribution(riemann(), 2.0, delta=1e-3)
        return dataclasses.replace(
            base,
            locations=rng.uniform(-8.0, 8.0, size=(atoms, d)),
            masses=rng.dirichlet(np.ones(atoms)),
        )

    def stated_bound(self, dist, axis, ts):
        """u M (6 K + 3 B + nb + 43 T X), the docstring's bound on the error
        against the exact sum, plus atom_cf's own: its phase t x and its cos
        or sin err by u T X and 2 u, its products by m by u, its sums by u."""
        u, big_k, big_b = self.U, distributions._CF_RUN, distributions._CF_ATOMS
        mass = math.fsum(dist.masses)
        big_t = float(np.max(np.abs(ts)))
        big_x = float(np.max(np.abs(dist.locations[:, axis - 1])))
        blocks = -(-dist.atom_count // big_b)
        grid = u * mass * (6 * big_k + 3 * big_b + blocks + 43 * big_t * big_x)
        return grid + math.sqrt(2.0) * u * mass * (big_t * big_x + 4.0)

    @pytest.mark.parametrize("count", [1, 2, 31, 32, 33, 101])
    def test_seeded_tables_within_bound(self, count):
        rng = np.random.default_rng(1000 + count)
        for d in (1, 2, 3):
            # 2,500 atoms fill two blocks and part of a third; 7 fit in one
            for atoms in (7, 2500):
                dist = self.table(rng, atoms, d)
                lo = float(rng.uniform(-30.0, 30.0))
                step = float(rng.uniform(0.01, 0.5)) * (1 if rng.random() < 0.5 else -1)
                # the callers' two kinds of grid; the step is negative in half the draws
                grids = (np.linspace(lo, lo + step * (count - 1), count),
                         np.arange(lo, lo + step * (count - 0.5), step))
                for axis in range(1, d + 1):
                    for ts in grids:
                        assert ts.size == count
                        got = atom_cf_grid(dist, axis, ts)
                        bound = self.stated_bound(dist, axis, ts)
                        point = np.zeros(d)
                        for t, value in zip(ts, got):
                            point[axis - 1] = t
                            assert abs(value - atom_cf(dist, point)) <= bound

    def test_empty_grid(self):
        dist = self.table(np.random.default_rng(6), 10, 1)
        assert atom_cf_grid(dist, 1, []).shape == (0,)

    @pytest.mark.parametrize("ts", [
        [0.0, 1.0, 3.0],
        [0.0, 0.5, math.nan],
        [0.0, 0.5, math.inf],
        np.linspace(-20.0, 20.0, 801) + np.where(np.arange(801) == 400, 1e-9, 0.0),
    ])
    def test_uneven_grid_is_config_error(self, ts):
        dist = self.table(np.random.default_rng(7), 10, 1)
        with pytest.raises(ConfigError, match="evenly spaced grid of finite t"):
            atom_cf_grid(dist, 1, ts)

    def test_arange_and_linspace_grids_are_even(self):
        # both callers' grids, over wide ranges of ends and steps
        dist = self.table(np.random.default_rng(8), 3, 1)
        rng = np.random.default_rng(9)
        for _ in range(300):
            lo = float(rng.uniform(-100.0, 100.0) * 10 ** rng.uniform(-3, 3))
            span = float(10 ** rng.uniform(-3, 3))
            count = int(rng.integers(2, 2000))
            atom_cf_grid(dist, 1, np.linspace(lo, lo + span, count))
            atom_cf_grid(dist, 1, np.arange(lo, lo + span + span / count / 2, span / count))

    def test_memory_stays_in_blocks(self):
        rng = np.random.default_rng(10)
        dist = self.table(rng, 1 << 20, 1)
        ts = np.linspace(-20.0, 20.0, 801)
        tracemalloc.start()
        try:
            got = atom_cf_grid(dist, 1, ts)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak - got.nbytes < 2 * 2**20

    def test_phases_are_the_matvec_bits_at_d1(self):
        rng = np.random.default_rng(11)
        points = rng.standard_normal((4000, 1)) * 10.0 ** rng.integers(-300, 300, size=(4000, 1))
        points[::7] = 0.0
        points[1::7] = -0.0
        for t in (1.7, -2.3, 0.0, -0.0, 1e300):
            t_arr = np.array([t])
            with np.errstate(over="ignore"):
                assert np.array_equal((points @ t_arr).view(np.int64), _phases(points, t_arr).view(np.int64))

    def test_point_dimension_checked(self):
        # atom_cf's matvec once raised a bare ValueError
        dist = self.table(np.random.default_rng(12), 10, 2)
        for t in ([1.0], [1.0, 2.0, 3.0]):
            with pytest.raises(ConfigError, match="dimension"):
                atom_cf(dist, t)
