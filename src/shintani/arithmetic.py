"""Prime sieves and multiplicative Dirichlet-coefficient machinery.

The coefficient of a polynomial Euler product prod_p prod_l
(1 - alpha_l(p) p^{-s})^{-1} is multiplicative with prime-power values
given by a sum over compositions k_1 + ... + k_m = nu of
prod_l alpha_l(p)^{k_l}.  This module owns that arithmetic so that both
the Euler-product module and the coefficient families can use it without
an import cycle.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable

import numpy as np

from .errors import ConfigError


@dataclass(frozen=True)
class PrimeTable:
    """All primes up to ``limit``, ascending."""

    limit: int
    primes: np.ndarray

    def __post_init__(self) -> None:
        self.primes.setflags(write=False)

    def __len__(self) -> int:
        return int(self.primes.size)


def sieve_primes(limit: int) -> PrimeTable:
    """Sieve of Eratosthenes up to ``limit`` inclusive."""
    if limit < 2:
        raise ConfigError(f"prime sieve limit must be >= 2, got {limit}")
    flags = np.ones(limit + 1, dtype=bool)
    flags[:2] = False
    for p in range(2, int(limit**0.5) + 1):
        if flags[p]:
            flags[p * p :: p] = False
    return PrimeTable(limit=limit, primes=np.nonzero(flags)[0].astype(np.int64))


def smallest_prime_factors(limit: int) -> np.ndarray:
    """spf[n] = smallest prime factor of n, for 0 <= n <= limit (spf[0..1] = 0)."""
    spf = np.zeros(limit + 1, dtype=np.int64)
    for p in range(2, limit + 1):
        if spf[p] == 0:
            spf[p::p] = np.where(spf[p::p] == 0, p, spf[p::p])
            if p * p > limit:
                # remaining unmarked entries are primes; finish cheaply
                rest = np.nonzero(spf[p:] == 0)[0] + p
                spf[rest] = rest
                break
    return spf


def prime_exponent(n: int, p: int) -> int:
    """Largest k with p^k dividing n."""
    if n < 1:
        raise ConfigError(f"prime_exponent needs n >= 1, got {n}")
    if p < 2 or any(p % q == 0 for q in range(2, int(p**0.5) + 1)):
        raise ConfigError(f"{p} is not prime")
    k = 0
    while n % p == 0:
        n //= p
        k += 1
    return k


def factorize(n: int) -> list[tuple[int, int]]:
    """Prime factorization of n >= 1 as (p, exponent) pairs, trial division."""
    if n < 1:
        raise ConfigError(f"cannot factorize {n}")
    out: list[tuple[int, int]] = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            k = 0
            while n % d == 0:
                n //= d
                k += 1
            out.append((d, k))
        d += 1 if d == 2 else 2
    if n > 1:
        out.append((n, 1))
    return out


# ---------------------------------------------------------------------------
# Alpha rules: per-prime coefficients of an Euler factor, evaluable anywhere.
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class AlphaRule:
    """A named rule producing alpha(p) for every prime p.

    kinds:
      constant  -- params ("value",): alpha(p) = value
      character -- params ("mod", values...): alpha(p) = values[p % mod]
      table     -- params ("default", (p1, v1), (p2, v2), ...): explicit
                   per-prime values with a default for unlisted primes
    """

    kind: str
    params: tuple

    def __post_init__(self) -> None:
        if self.kind not in ("constant", "character", "table"):
            raise ConfigError(f"unknown alpha rule kind {self.kind!r}")

    @staticmethod
    def constant(value: complex) -> "AlphaRule":
        return AlphaRule("constant", (complex(value),))

    @staticmethod
    def character(mod: int, values: Iterable[complex]) -> "AlphaRule":
        vals = tuple(complex(v) for v in values)
        if mod < 1 or len(vals) != mod:
            raise ConfigError("character rule needs mod >= 1 and exactly mod values")
        return AlphaRule("character", (mod,) + vals)

    @staticmethod
    def table(entries: dict[int, complex], default: complex = 0.0) -> "AlphaRule":
        items = tuple(sorted((int(p), complex(v)) for p, v in entries.items()))
        return AlphaRule("table", (complex(default),) + items)

    def at(self, p: int) -> complex:
        if self.kind == "constant":
            return self.params[0]
        if self.kind == "character":
            mod = self.params[0]
            return self.params[1 + (p % mod)]
        default = self.params[0]
        for q, v in self.params[1:]:
            if q == p:
                return v
        return default

    def at_array(self, primes: np.ndarray) -> np.ndarray:
        if self.kind == "constant":
            return np.full(primes.shape, self.params[0])
        if self.kind == "character":
            mod = self.params[0]
            table = np.asarray(self.params[1:])
            return table[primes % mod]
        out = np.full(primes.shape, self.params[0])
        for q, v in self.params[1:]:
            out[primes == q] = v
        return out

    @property
    def is_real(self) -> bool:
        vals: tuple
        if self.kind == "constant":
            vals = (self.params[0],)
        elif self.kind == "character":
            vals = self.params[1:]
        else:
            vals = (self.params[0],) + tuple(v for _, v in self.params[1:])
        return all(abs(complex(v).imag) == 0.0 for v in vals)

    def max_abs(self) -> float:
        if self.kind == "constant":
            return abs(self.params[0])
        if self.kind == "character":
            return max(abs(v) for v in self.params[1:])
        return max([abs(self.params[0])] + [abs(v) for _, v in self.params[1:]])


def chi_minus_4() -> AlphaRule:
    """The nonprincipal character mod 4 (pattern 1, 0, -1, 0)."""
    return AlphaRule.character(4, (0.0, 1.0, 0.0, -1.0))


# ---------------------------------------------------------------------------
# Prime-power coefficients and full multiplicative coefficients.
# ---------------------------------------------------------------------------

@lru_cache(maxsize=65536)
def _prime_power_coefficient(alpha_values: tuple, nu: int) -> complex:
    """sum over compositions k_1+...+k_m = nu of prod_l alpha_l^{k_l}.

    Stars-and-bars iteration over compositions, memoized per
    (alpha-values-at-p, nu); coefficient queries repeat exponent patterns.
    """
    m = len(alpha_values)
    if nu == 0:
        return 1.0 + 0.0j
    if m == 1:
        return alpha_values[0] ** nu
    total = 0.0 + 0.0j

    def rec(idx: int, remaining: int, partial: complex) -> None:
        nonlocal total
        if idx == m - 1:
            total += partial * alpha_values[idx] ** remaining
            return
        apow = 1.0 + 0.0j
        for k in range(remaining + 1):
            rec(idx + 1, remaining - k, partial * apow)
            apow *= alpha_values[idx]

    rec(0, nu, 1.0 + 0.0j)
    return total


def prime_power_coefficient(rules: tuple[AlphaRule, ...], p: int, nu: int) -> complex:
    values = tuple(complex(rule.at(p)) for rule in rules)
    return _prime_power_coefficient(values, nu)


def coefficient_at(rules: tuple[AlphaRule, ...], n: int) -> complex:
    """A(n) = prod over p | n of the prime-power coefficient at nu(n; p)."""
    if n < 1:
        raise ConfigError(f"Dirichlet coefficients are defined for n >= 1, got {n}")
    out = 1.0 + 0.0j
    for p, nu in factorize(n):
        out *= prime_power_coefficient(rules, p, nu)
    return out


_COEFF_ARRAY_CACHE: dict[tuple, np.ndarray] = {}
_COEFF_ARRAY_LOCK = threading.Lock()


def coefficient_array(rules: tuple[AlphaRule, ...], limit: int) -> np.ndarray:
    """A(1..limit) as a read-only array (index n holds A(n); index 0 unused).

    Built by touching each n once per prime with its exact exponent class,
    so zero coefficients need no special casing.  At most 32 tables are
    cached, the oldest evicted first; one lock guards lookup, insert and
    eviction, so concurrent calls are safe (threads that miss on the same
    key may each build it).
    """
    key = (rules, limit)
    with _COEFF_ARRAY_LOCK:
        for (crules, climit), arr in _COEFF_ARRAY_CACHE.items():
            if crules == rules and climit >= limit:
                return arr[: limit + 1]
    is_real = all(rule.is_real for rule in rules)
    dtype = np.float64 if is_real else np.complex128
    out = np.ones(limit + 1, dtype=dtype)
    out[0] = 0.0
    primes = sieve_primes(max(limit, 2)).primes
    primes = primes[primes <= limit]
    for p in primes.tolist():
        q = p
        nu = 1
        while q <= limit:
            coeff = prime_power_coefficient(rules, p, nu)
            coeff = coeff.real if is_real else coeff
            idx = np.arange(q, limit + 1, q)
            exact = idx[(idx % (q * p)) != 0] if q * p <= limit else idx
            out[exact] *= coeff
            q *= p
            nu += 1
    out.setflags(write=False)
    with _COEFF_ARRAY_LOCK:
        _COEFF_ARRAY_CACHE[key] = out
        if len(_COEFF_ARRAY_CACHE) > 32:
            _COEFF_ARRAY_CACHE.pop(next(iter(_COEFF_ARRAY_CACHE)))
    return out
