"""Prime sieves and multiplicative Dirichlet-coefficient machinery.

The coefficient of a polynomial Euler product prod_p prod_l
(1 - alpha_l(p) p^{-s})^{-1} is multiplicative with prime-power values
given by a sum over compositions k_1 + ... + k_m = nu of
prod_l alpha_l(p)^{k_l}.  This module owns that arithmetic so that both
the Euler-product module and the coefficient families can use it without
an import cycle.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable

import numpy as np

from .errors import ConfigError


def require_finite(what: str, values) -> None:
    """ConfigError naming `what` unless every one of `values` is finite."""
    arr = np.asarray(values)
    if not np.all(np.isfinite(arr)):
        raise ConfigError(f"{what} must be finite, got {arr[~np.isfinite(arr)].tolist()[0]}")


def frozen_array(x, dtype=float) -> np.ndarray:
    """`x` as a read-only array of `dtype` no caller can write: taken as is
    when it and every array it views are read-only, else copied and the
    copy frozen.  Every constructor that keeps an array takes it here, so
    a caller's array stays writable and its writes never reach the object."""
    if isinstance(x, np.ndarray) and x.dtype == dtype:
        base = x
        while isinstance(base, np.ndarray) and not base.flags.writeable:
            base = base.base
        if not isinstance(base, np.ndarray):
            return x
    arr = np.array(x, dtype=dtype)
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True)
class PrimeTable:
    """All primes up to ``limit``, ascending."""

    limit: int
    primes: np.ndarray

    def __post_init__(self) -> None:
        object.__setattr__(self, "primes", frozen_array(self.primes, np.int64))

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
    primes = np.nonzero(flags)[0].astype(np.int64)
    primes.setflags(write=False)  # handed over as is, not copied
    return PrimeTable(limit=limit, primes=primes)


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
        names = {"constant": "value", "character": "values", "table": "default and entries"}
        if self.kind not in names:
            raise ConfigError(f"unknown alpha rule kind {self.kind!r}")
        require_finite(f"alpha rule {self.kind}: {names[self.kind]}", self.values)

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
    def values(self) -> tuple:
        """Every value alpha(p) takes or may take: the constant, the
        character's table, or the table's default and entries."""
        if self.kind == "constant":
            return self.params[:1]
        if self.kind == "character":
            return self.params[1:]
        return (self.params[0],) + tuple(v for _, v in self.params[1:])

    @property
    def is_real(self) -> bool:
        return all(complex(v).imag == 0.0 for v in self.values)

    def max_abs(self) -> float:
        return max(abs(v) for v in self.values)


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
    so zero coefficients need no special casing.  A prime P > sqrt(build
    limit) divides each n at most once and no n has two of them, so those
    primes go last, one `out[k P] *= A(P)` over all of them per multiplier
    k: every n still takes its factors in ascending prime order, one
    multiplication per prime, so a real table has the bits of a per-prime
    loop (a complex one may differ in last bits: numpy rounds a complex
    product differently in its vector loop and its remainder).  A miss
    builds the table through the next power of two at or past `limit`, so
    nearby larger limits hit.
    At most 32 tables are cached, the oldest evicted first; one lock guards
    lookup, insert and eviction, so concurrent calls are safe (threads that
    miss on the same key may each build it).
    """
    with _COEFF_ARRAY_LOCK:
        for (crules, climit), arr in _COEFF_ARRAY_CACHE.items():
            if crules == rules and climit >= limit:
                return arr[: limit + 1]
    build = 1 << max(limit - 1, 1).bit_length()  # the least power of two >= limit, at least 2
    is_real = all(rule.is_real for rule in rules)
    dtype = np.float64 if is_real else np.complex128
    out = np.ones(build + 1, dtype=dtype)
    out[0] = 0.0
    primes = sieve_primes(build).primes
    root = math.isqrt(build)
    for p in primes[primes <= root].tolist():
        q = p
        nu = 1
        while q <= build:
            coeff = prime_power_coefficient(rules, p, nu)
            coeff = coeff.real if is_real else coeff
            idx = np.arange(q, build + 1, q)
            exact = idx[(idx % (q * p)) != 0] if q * p <= build else idx
            out[exact] *= coeff
            q *= p
            nu += 1
    large = primes[primes > root]
    # A(P) from `_prime_power_coefficient`, once per distinct (alpha_l(P))_l
    alphas = np.stack([rule.at_array(large) for rule in rules], axis=1)
    keys = alphas.view(np.dtype((np.void, alphas.itemsize * len(rules))))[:, 0]
    _, first, inverse = np.unique(keys, return_index=True, return_inverse=True)
    distinct = [_prime_power_coefficient(tuple(row), 1) for row in alphas[first].tolist()]
    coeffs = np.array(distinct)[inverse.reshape(-1)]
    coeffs = coeffs.real if is_real else coeffs
    for k in range(1, build // (root + 1) + 1):
        count = int(np.searchsorted(large, build // k, side="right"))
        out[k * large[:count]] *= coeffs[:count]
    out.setflags(write=False)
    with _COEFF_ARRAY_LOCK:
        _COEFF_ARRAY_CACHE[(rules, build)] = out
        if len(_COEFF_ARRAY_CACHE) > 32:
            _COEFF_ARRAY_CACHE.pop(next(iter(_COEFF_ARRAY_CACHE)))
    return out[: limit + 1]
