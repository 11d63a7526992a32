"""Differential tests: the evaluator against a straightforward independent
reimplementation of the truncated sums (plain loops, no shared code paths),
across every coefficient family and linear-form pattern."""

import itertools
import math

import numpy as np
import pytest

from conftest import region_sigma
from shintani.arithmetic import AlphaRule, chi_minus_4, coefficient_at
from shintani.coefficients import CoefficientSpec
from shintani.distributions import build_distribution
from shintani.errors import CertificationError
from shintani.series import (
    ComplexPoint,
    ShintaniConfig,
    evaluate,
    evaluate_partial,
    tail_bound,
)


def theta_reference(spec: CoefficientSpec, point: tuple) -> complex:
    """Scalar reference implementation of every family, written plainly."""
    fam = spec.family
    if fam == "constant":
        return complex(spec.params["value"])
    if fam == "finite_support":
        for pt, v in spec.params["entries"]:
            if pt == point:
                return complex(v)
        return 0.0
    if fam == "periodic":
        table = spec.params["table"]
        cell = table
        for j, mod in enumerate(spec.params["mods"]):
            cell = cell[point[j] % mod]
        return complex(cell)
    if fam == "geometric":
        out = 1.0 + 0.0j
        for q, n in zip(spec.params["ratios"], point):
            out *= complex(q) ** n
        return out
    if fam == "log_factor":
        lam = spec.params["lam"]
        u = spec.params["u"]
        out = 0.0
        for g, row in zip(spec.params["coeffs"], lam):
            form = sum(row[j] * (point[j] + u[j]) for j in range(len(u)))
            out += g * math.log(form)
        return complex(out)
    if fam == "character_product":
        out = 1.0 + 0.0j
        for mod, table, coord, shift in spec.params["factors"]:
            out *= complex(table[(point[coord] + shift) % mod])
        return out
    if fam == "product_of_families":
        out = 1.0 + 0.0j
        for factor in spec.params["factors"]:
            out *= theta_reference(factor, point)
        return out
    if fam == "multiplicative_product":
        out = 1.0 + 0.0j
        for rules, n in zip(spec.params["coords"], point):
            out *= coefficient_at(tuple(rules), n + 1)
        return out
    if fam == "poisson_powers":
        base = spec.params["base"]
        rate = spec.params["rate"]
        n = point[0]
        k = 0
        while base**k - 1 < n:
            k += 1
        if base**k - 1 != n:
            return 0.0
        return complex(base ** (rate * k) / math.factorial(k))
    raise AssertionError(fam)


def reference_partial(config: ShintaniConfig, s: complex | tuple, n_shell: int) -> complex:
    """Truncated sum by plain iteration over the simplex."""
    s_arr = np.atleast_1d(np.asarray(s, dtype=complex))
    total = 0.0 + 0.0j
    for point in itertools.product(range(n_shell + 1), repeat=config.r):
        if sum(point) > n_shell:
            continue
        th = theta_reference(config.theta, point)
        if th == 0.0:
            continue
        term = th
        for l in range(config.m):
            form = sum(
                config.lam[l, j] * (point[j] + config.u[j]) for j in range(config.r)
            )
            expo = complex(np.dot(config.c[l], s_arr))
            term *= math.exp(-expo.real * math.log(form)) * complex(
                math.cos(-expo.imag * math.log(form)),
                math.sin(-expo.imag * math.log(form)),
            )
        total += term
    return total


def spec_pool(rng: np.random.Generator, r: int) -> CoefficientSpec:
    roll = rng.integers(0, 8)
    if roll == 0:
        return CoefficientSpec.constant(complex(rng.uniform(-2, 2), rng.uniform(-1, 1)))
    if roll == 1:
        entries = {
            tuple(int(x) for x in rng.integers(0, 8, size=r)): float(rng.uniform(-2, 2))
            for _ in range(4)
        }
        return CoefficientSpec.finite_support(entries)
    if roll == 2:
        mods = tuple(int(m) for m in rng.integers(1, 4, size=r))
        return CoefficientSpec.periodic(mods, rng.uniform(-1, 1, size=mods))
    if roll == 3:
        phases = rng.uniform(0, 2 * math.pi, size=r)
        radii = rng.uniform(0.3, 1.0, size=r)
        qs = [complex(rr * math.cos(p), rr * math.sin(p)) for rr, p in zip(radii, phases)]
        return CoefficientSpec.geometric(qs)
    if roll == 4:
        m = int(rng.integers(1, 3))
        lam = rng.uniform(0.3, 2.0, size=(m, r))
        u = rng.uniform(0.3, 1.5, size=r)
        return CoefficientSpec.log_factor(rng.uniform(-1.5, 1.5, size=m), lam, u)
    if roll == 5:
        factors = [
            (4, (0.0, 1.0, 0.0, -1.0), int(rng.integers(0, r)), int(rng.integers(0, 3)))
        ]
        return CoefficientSpec.character_product(factors)
    if roll == 6:
        rules = []
        for _ in range(r):
            if rng.random() < 0.5:
                rules.append((chi_minus_4(),))
            else:
                rules.append((AlphaRule.constant(float(rng.uniform(-1, 1))),))
        return CoefficientSpec.multiplicative_product(rules)
    return CoefficientSpec.product(
        [
            CoefficientSpec.geometric(tuple(rng.uniform(0.3, 0.9, size=r))),
            CoefficientSpec.log_factor(
                rng.uniform(-1.0, 1.0, size=1),
                rng.uniform(0.5, 1.5, size=(1, r)),
                rng.uniform(0.5, 1.5, size=r),
            ),
        ]
    )


def random_full_config(rng: np.random.Generator) -> ShintaniConfig:
    r = int(rng.integers(1, 3))
    d = int(rng.integers(1, 3))
    pattern = rng.integers(0, 3)
    if pattern == 0 or r == 1:
        m = int(rng.integers(1, 3))
        lam = rng.uniform(0.4, 2.0, size=(m, r))
    elif pattern == 1:
        m = r
        lam = np.diag(rng.uniform(0.4, 2.0, size=r))
    else:
        m = r
        lam = np.triu(rng.uniform(0.4, 2.0, size=(r, r)))
    u = rng.uniform(0.3, 1.5, size=r)
    c = rng.uniform(0.6, 1.4, size=(m, d))
    return ShintaniConfig(d=d, m=m, r=r, lam=lam, u=u, c=c, theta=spec_pool(rng, r))


class TestDifferential:
    def test_partial_sums_match_reference(self):
        rng = np.random.default_rng(2718)
        for trial in range(25):
            cfg = random_full_config(rng)
            sigma = region_sigma(cfg, rng)
            s = ComplexPoint(sigma, rng.uniform(-2.0, 2.0, size=cfg.d))
            depth = int(rng.integers(3, 14))
            got = evaluate_partial(cfg, s, depth).value
            want = reference_partial(cfg, s.values if cfg.d > 1 else complex(s.values[0]), depth)
            scale = max(1.0, abs(want))
            assert abs(got - want) <= 5e-12 * scale, (trial, cfg.theta.family)

    def test_certified_bounds_hold_against_deep_sums(self):
        rng = np.random.default_rng(31415)
        checked = 0
        while checked < 20:
            cfg = random_full_config(rng)
            sigma = region_sigma(cfg, rng, margin=1.0)
            shallow = int(rng.integers(4, 20))
            try:
                bound = tail_bound(cfg, sigma, shallow)
            except CertificationError:
                continue
            a = evaluate_partial(cfg, sigma, shallow).value
            b = evaluate_partial(cfg, sigma, 40 + 4 * shallow).value
            slack = 4e-15 * (1.0 + abs(a))
            assert abs(b - a) <= bound + slack, (cfg.theta.family, bound, abs(b - a))
            checked += 1

    def test_distribution_atoms_match_reference(self):
        rng = np.random.default_rng(4242)
        built = 0
        while built < 8:
            cfg = random_full_config(rng)
            if cfg.theta.sign_class() not in ("nonnegative", "nonpositive"):
                continue
            sigma = region_sigma(cfg, rng, margin=1.2)
            try:
                dist = build_distribution(cfg, sigma, delta=1e-3, shell_cap=10**5)
            except CertificationError:
                continue
            z = dist.normalizer.value.real
            # recompute a handful of atoms from scratch
            for point in itertools.product(range(3), repeat=cfg.r):
                th = theta_reference(cfg.theta, point)
                if th == 0.0:
                    continue
                loc = np.zeros(cfg.d)
                weight = th.real
                for l in range(cfg.m):
                    form = sum(
                        cfg.lam[l, j] * (point[j] + cfg.u[j]) for j in range(cfg.r)
                    )
                    loc -= cfg.c[l] * math.log(form)
                    weight *= form ** (-float(np.dot(cfg.c[l], sigma)))
                got = dist.mass_at(loc, tol=1e-12)
                assert got == pytest.approx(weight / z, rel=1e-9, abs=1e-13)
            built += 1
