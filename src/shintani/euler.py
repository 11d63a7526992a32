"""Polynomial Euler products, their Dirichlet coefficients, and the
compound-Poisson log-characteristic-functions of the Riemann and
Hurwitz(1/2) zeta distributions.

The product prod_p prod_l (1 - alpha_l(p) p^{-<a_l,s>})^{-1} expands into a
multiplicative Dirichlet series; with one factor per lattice coordinate it
embeds into the Shintani series class, which is how the product and series
evaluations cross-check each other.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Optional

import numpy as np

from .arithmetic import (
    AlphaRule,
    PrimeTable,
    chi_minus_4,
    coefficient_at,
    factorize,
    frozen_array,
    prime_exponent,
    sieve_primes,
)
from .coefficients import CoefficientSpec
from .errors import ConfigError, RegionError
from .series import EvalResult, ShintaniConfig, _two_pass, as_point

__all__ = [
    "AlphaRule",
    "PrimeTable",
    "sieve_primes",
    "prime_exponent",
    "EulerConfig",
    "DiscreteMeasure",
    "dirichlet_coefficient",
    "evaluate_euler",
    "shintani_from_euler",
    "riemann_levy_logcf",
    "hurwitz_half_levy_logcf",
    "levy_measure",
    "dedekind_coefficient",
    "dedekind_euler_config",
    "chi_minus_4",
    "chi4",
]


@dataclass(frozen=True)
class EulerConfig:
    """The (m, alpha_l(p), a_l) data of a polynomial Euler product."""

    d: int
    m: int
    alphas: tuple[AlphaRule, ...]
    a: np.ndarray  # (m, d)

    def __post_init__(self) -> None:
        object.__setattr__(self, "alphas", tuple(self.alphas))
        object.__setattr__(self, "a", frozen_array(self.a))
        if self.d < 1 or self.m < 1:
            raise ConfigError("EulerConfig needs d >= 1 and m >= 1")
        if len(self.alphas) != self.m:
            raise ConfigError(f"need exactly m={self.m} alpha rules")
        if self.a.shape != (self.m, self.d):
            raise ConfigError(f"a must have shape (m, d)=({self.m}, {self.d})")
        for rule in self.alphas:
            if rule.max_abs() > 1.0 + 1e-12:
                raise ConfigError("alpha values must satisfy |alpha_l(p)| <= 1")

    @property
    def real_mode(self) -> bool:
        """True when every alpha is real in [-1, 1] (inside the product class);
        complex unimodular-bounded alphas evaluate but sit outside it."""
        return all(rule.is_real for rule in self.alphas)


@dataclass(frozen=True)
class DiscreteMeasure:
    """Atoms of a discrete measure with a truncation note."""

    locations: np.ndarray
    masses: np.ndarray
    prime_cutoff: int
    power_cutoff: int

    def __post_init__(self) -> None:
        for name in ("locations", "masses"):
            object.__setattr__(self, name, frozen_array(getattr(self, name)))

    @property
    def total_mass(self) -> float:
        return float(np.sum(self.masses))

    def as_table(self) -> tuple[list[str], np.ndarray]:
        return ["location", "mass"], np.column_stack([self.locations, self.masses])


def dirichlet_coefficient(config: EulerConfig, n: int, l: Optional[int] = None) -> complex:
    """A(n) of the full product, or A_l(n) of the single factor l (1-based).

    The full coefficient multiplies, over p | n, the sum over compositions
    k_1 + ... + k_m = nu(n; p) of prod_l alpha_l(p)^{k_l}.
    """
    if n < 1:
        raise ConfigError(f"Dirichlet coefficients are defined for n >= 1, got {n}")
    if l is None:
        return coefficient_at(config.alphas, n)
    if not 1 <= l <= config.m:
        raise ConfigError(f"factor index must be in 1..{config.m}, got {l}")
    return coefficient_at((config.alphas[l - 1],), n)


def evaluate_euler(config: EulerConfig, s, prime_table: PrimeTable) -> EvalResult:
    """Truncated product over the table's primes with a certified tail factor.

    Needs min_l Re<a_l, s> > 1.  The omitted factor F over p > P satisfies
    |log F| <= sum_l (1 - (P+1)^{-sigma_l})^{-1} P^{1-sigma_l}/(sigma_l - 1),
    so |Z - partial| <= |partial| (exp(...) - 1).  That bound is formed by
    `series._two_pass`: in floats, and where that value is below 2^-1022 or
    overflows, again in the wide type, rounded up and at least 2^-1074.  A
    bound that is inf (sigma_l next to 1 with many primes) is not certified.
    """
    pt = as_point(s, config.d)
    if len(prime_table) == 0:
        raise ConfigError("prime table is empty")
    sig = config.a @ pt.re
    if np.min(sig) <= 1.0:
        raise RegionError(
            f"product needs min_l Re<a_l, s> > 1, got {float(np.min(sig))}"
        )
    primes = prime_table.primes.astype(float)
    beta = config.a @ pt.values  # (m,)
    log_p = np.log(primes)
    partial = 1.0 + 0.0j
    for l in range(config.m):
        alpha = config.alphas[l].at_array(prime_table.primes)
        factors = 1.0 - alpha * np.exp(-beta[l] * log_p)
        if np.any(factors == 0.0):
            raise RegionError("Euler factor vanishes at a table prime")
        partial *= complex(np.prod(1.0 / factors))
    p_cut = float(prime_table.limit)

    def tail(num):
        log_tail = 0.0
        for sl in sig.tolist():
            log_tail += (
                1.0 / (1.0 - (p_cut + 1.0) ** (-sl)) * num.pow(p_cut, 1.0 - sl) / (sl - 1.0)
            )
        return abs(partial) * num.expm1(log_tail)

    bound = _two_pass(tail)
    return EvalResult(
        value=partial, tail_bound=bound, shells_used=len(prime_table),
        certified=math.isfinite(bound),
    )


def shintani_from_euler(config: EulerConfig) -> ShintaniConfig:
    """Embed the product as a rank-m series: identity-pattern forms, unit
    offsets, c_l = a_l, theta(n) = prod_l A_l(n_l + 1)."""
    if not config.real_mode:
        raise ConfigError(
            "only real-mode products (alpha in [-1, 1]) embed into the series class"
        )
    m = config.m
    theta = CoefficientSpec.multiplicative_product([(rule,) for rule in config.alphas])
    return ShintaniConfig(
        d=config.d,
        m=m,
        r=m,
        lam=np.eye(m),
        u=np.ones(m),
        c=config.a,
        theta=theta,
    )


# ---------------------------------------------------------------------------
# Compound-Poisson (Levy) log-characteristic-functions
# ---------------------------------------------------------------------------

def _levy_logcf(
    primes: np.ndarray, sigma: float, t: float, power_cutoff: int
) -> complex:
    log_p = np.log(primes.astype(float))
    total = 0.0 + 0.0j
    for r in range(1, power_cutoff + 1):
        w = primes.astype(float) ** (-r * sigma) / r
        total += complex(np.sum(w * (np.exp(-1j * r * t * log_p) - 1.0)))
    return total


def _levy_tail(primes: np.ndarray, sigma: float, prime_limit: int, power_cutoff: int) -> float:
    """Certified bound on |L - truncation| for the full double sum L.

    L = sum_p sum_{r>=1} (p^{-r sigma}/r)(e^{-i r t log p} - 1) converges
    absolutely for sigma > 1 and exp(L) is the cf ratio; every term has
    modulus <= 2 p^{-r sigma}/r.  The truncation keeps the given primes
    (all at most prime_limit = P) with r <= power_cutoff = R and omits:

    * inner part, r > R at each kept prime p:
      sum_{r>R} 2 p^{-r sigma}/r <= 2/(R+1) sum_{r>=R+1} p^{-r sigma}
      = 2 p^{-(R+1) sigma} / ((R+1)(1 - p^{-sigma})), summed over the kept
      primes;
    * outer part, every r at the primes p > P:
      sum_{p>P} sum_r 2 p^{-r sigma}/r <= sum_{p>P} 2 p^{-sigma}/(1 - p^{-sigma})
      <= 2/(1 - (P+1)^{-sigma}) sum_{n>P} n^{-sigma}
      <= 2/(1 - (P+1)^{-sigma}) * P^{1-sigma}/(sigma - 1),
      since p >= P + 1, the primes past P are among the integers past P,
      and n^{-sigma} <= integral_{n-1}^{n} x^{-sigma} dx.

    An odd-prime table omits no prime <= P other than 2, which the
    u = 1/2 representation carries exactly in its drift, and the outer part
    over all p > P covers its odd ones.

    The sum is formed by `series._two_pass`: in floats, and where that value
    is below 2^-1022, again in the wide type, rounded up and at least
    2^-1074.
    """
    pf = primes.astype(float)
    r_next = power_cutoff + 1
    p_cut = float(prime_limit)

    def tail(num):
        inner = np.sum(2.0 * num.array(pf) ** (-r_next * sigma) / (r_next * (1.0 - pf**-sigma)))
        outer = (
            2.0
            / (1.0 - (p_cut + 1.0) ** (-sigma))
            * num.pow(p_cut, 1.0 - sigma)
            / (sigma - 1.0)
        )
        return inner + outer

    return _two_pass(tail)


def _levy_result(
    sigma: float, t: float, prime_limit: int, power_cutoff: int, odd_only: bool
) -> EvalResult:
    if not (math.isfinite(sigma) and math.isfinite(t)):
        raise ConfigError(f"Levy representation needs finite sigma and t, got {sigma} and {t}")
    if sigma <= 1.0:
        raise RegionError(f"Levy representation needs sigma > 1, got {sigma}")
    if prime_limit < 2 or power_cutoff < 1:
        raise ConfigError("need prime_limit >= 2 and power_cutoff >= 1")
    primes = sieve_primes(prime_limit).primes
    if odd_only:
        primes = primes[primes > 2]
    value = _levy_logcf(primes, sigma, t, power_cutoff)
    tail = _levy_tail(primes, sigma, prime_limit, power_cutoff)
    return EvalResult(
        value=value, tail_bound=tail, shells_used=int(primes.size), certified=True
    )


def riemann_levy_logcf(
    sigma: float, t: float, prime_limit: int = 10**4, power_cutoff: int = 40
) -> EvalResult:
    """Truncation of log f_sigma(t) = sum_p sum_r (p^{-r sigma}/r)(e^{-i r t log p} - 1)."""
    return _levy_result(sigma, t, prime_limit, power_cutoff, odd_only=False)


def hurwitz_half_levy_logcf(
    sigma: float,
    t: float,
    prime_limit: int = 10**4,
    power_cutoff: int = 40,
) -> EvalResult:
    """The u = 1/2 representation: odd-prime double sum plus the drift.

    zeta(s, 1/2) = 2^s prod_{p>2} (1 - p^{-s})^{-1}, so the cf ratio is
    2^{it} times the odd-prime compound-Poisson factor: the riemann sum
    minus its p = 2 part, plus the i t log 2 drift.
    """
    res = _levy_result(sigma, t, prime_limit, power_cutoff, odd_only=True)
    return replace(res, value=res.value + 1j * t * math.log(2.0))


def levy_measure(
    sigma: float, prime_limit: int, power_cutoff: int, odd_only: bool = False
) -> DiscreteMeasure:
    """Atoms (r log p, p^{-r sigma}/r) for p <= prime_limit, r <= power_cutoff."""
    if not math.isfinite(sigma):
        raise ConfigError(f"Levy measure needs a finite sigma, got {sigma}")
    if sigma <= 1.0:
        raise RegionError(f"Levy measure needs sigma > 1, got {sigma}")
    primes = sieve_primes(prime_limit).primes
    if odd_only:
        primes = primes[primes > 2]
    pf = primes.astype(float)
    log_p = np.log(pf)
    locs, masses = [], []
    for r in range(1, power_cutoff + 1):
        locs.append(r * log_p)
        masses.append(pf ** (-r * sigma) / r)
    locs, masses = np.concatenate(locs), np.concatenate(masses)
    for arr in (locs, masses):  # made here: handed over as is, not copied
        arr.setflags(write=False)
    return DiscreteMeasure(locs, masses, prime_cutoff=prime_limit, power_cutoff=power_cutoff)


# ---------------------------------------------------------------------------
# Dedekind Q(i) arithmetic
# ---------------------------------------------------------------------------

def chi4(n: int) -> int:
    """The nonprincipal character mod 4: pattern 1, 0, -1, 0."""
    return (0, 1, 0, -1)[n % 4]


def dedekind_coefficient(n: int, method: str = "divisor_sum") -> int:
    """Number of Gaussian-integer ideals of norm n: sum_{d | n} chi4(d),
    equal to a quarter of the lattice points on the circle of radius sqrt(n)."""
    if n < 1:
        raise ConfigError(f"dedekind_coefficient needs n >= 1, got {n}")
    if method == "divisor_sum":
        total = 0
        for dv in _divisors(n):
            total += chi4(dv)
        return total
    if method == "lattice_count":
        count = 0
        root = math.isqrt(n)
        for m1 in range(-root, root + 1):
            rem = n - m1 * m1
            if rem < 0:
                continue
            m2 = math.isqrt(rem)
            if m2 * m2 == rem:
                count += 1 if m2 == 0 else 2
        return count // 4
    raise ConfigError(f"unknown method {method!r}; use divisor_sum or lattice_count")


def _divisors(n: int) -> list[int]:
    out = [1]
    for p, k in factorize(n):
        out = [d * p**i for d in out for i in range(k + 1)]
    return out


def dedekind_euler_config() -> EulerConfig:
    """zeta(s) L(s, chi_-4) as a two-factor product on one complex variable."""
    return EulerConfig(
        d=1,
        m=2,
        alphas=(AlphaRule.constant(1.0), chi_minus_4()),
        a=np.array([[1.0], [1.0]]),
    )
