"""Prime sieves and multiplicative Dirichlet-coefficient machinery.

The coefficient of a polynomial Euler product prod_p prod_l
(1 - alpha_l(p) p^{-s})^{-1} is multiplicative with prime-power values
given by a sum over compositions k_1 + ... + k_m = nu of
prod_l alpha_l(p)^{k_l}, the complete homogeneous symmetric polynomial h_nu
formed by one recurrence (`complete_homogeneous`).  This module owns that
arithmetic so that both the Euler-product module and the coefficient
families can use it without an import cycle.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass
from typing import Iterable

import numpy as np

from .errors import ConfigError


def require_finite(what: str, values) -> None:
    """ConfigError naming `what` unless every one of `values` is finite."""
    arr = np.asarray(values)
    if not np.all(np.isfinite(arr)):
        raise ConfigError(f"{what} must be finite, got {arr[~np.isfinite(arr)].tolist()[0]}")


def modulus(z: complex) -> float:
    """|z| by Python's abs; inf where abs overflows (finite parts, modulus past the float range)."""
    try:
        return abs(z)
    except OverflowError:
        return math.inf


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
        return max(map(modulus, self.values))


def chi_minus_4() -> AlphaRule:
    """The nonprincipal character mod 4 (pattern 1, 0, -1, 0)."""
    return AlphaRule.character(4, (0.0, 1.0, 0.0, -1.0))


# ---------------------------------------------------------------------------
# Prime-power coefficients and full multiplicative coefficients.
# ---------------------------------------------------------------------------

def homogeneous_step(alphas, h: list) -> list:
    """One degree of the complete homogeneous symmetric polynomials: from
    h^(l)_(nu-1) of alpha_1, ..., alpha_l for l = 1..k, the recurrence
    h^(l)_nu = h^(l-1)_nu + alpha_l h^(l)_(nu-1), with h^(0)_nu = 0 for
    nu >= 1.  Each alpha_l is a number or an array over primes."""
    out: list = []
    for alpha, prev in zip(alphas, h):
        out.append(alpha * prev + out[-1] if out else alpha * prev)
    return out


def complete_homogeneous(alphas, top: int) -> list:
    """[h_0, ..., h_top] of alpha_1, ..., alpha_k (numbers, or arrays over
    primes): h_nu = A(p^nu), the sum over compositions n_1 + ... + n_k = nu
    of prod_l alpha_l(p)^(n_l), formed by `homogeneous_step` in O(k top)."""
    h = [1.0] * len(alphas)  # h^(l)_0 = 1
    out = [h[-1]]
    for _ in range(top):
        h = homogeneous_step(alphas, h)
        out.append(h[-1])
    return out


def prime_power_coefficient(rules: tuple[AlphaRule, ...], p: int, nu: int) -> complex:
    """A(p^nu), in real arithmetic for real rules as in `coefficient_array`."""
    real = all(rule.is_real for rule in rules)
    values = [rule.at(p).real if real else rule.at(p) for rule in rules]
    return complex(complete_homogeneous(values, nu)[nu])


def coefficient_at(rules: tuple[AlphaRule, ...], n: int) -> complex:
    """A(n) = prod over p | n of the prime-power coefficient at nu(n; p)."""
    if n < 1:
        raise ConfigError(f"Dirichlet coefficients are defined for n >= 1, got {n}")
    out = 1.0 + 0.0j
    for p, nu in factorize(n):
        out *= prime_power_coefficient(rules, p, nu)
    return out


# each entry is [table, its nonzero index or None until `coefficient_nonzero` asks]
_COEFF_ARRAY_CACHE: dict[tuple, list] = {}
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
    At most 32 tables are cached, the oldest evicted first, each with its
    nonzero index once `coefficient_nonzero` has formed it; one lock guards
    lookup, insert, eviction and the index, so concurrent calls are safe
    (threads that miss on the same key may each build it).
    """
    return _coefficient_entry(rules, limit)[0][: limit + 1]


def coefficient_nonzero(rules: tuple[AlphaRule, ...], limit: int) -> tuple[np.ndarray, np.ndarray]:
    """(table, index): `coefficient_array(rules, limit)` and the n <= limit
    with A(n) != 0, ascending and read-only, taken from the one cached
    table that `coefficient_array` would return and the index kept with it
    (formed on the first call), so no later caller scans the table for its
    zeros."""
    entry = _coefficient_entry(rules, limit)
    with _COEFF_ARRAY_LOCK:
        if entry[1] is None:
            entry[1] = np.flatnonzero(entry[0])
            entry[1].setflags(write=False)
        table, index = entry
    return table[: limit + 1], index[: index.searchsorted(limit, side="right")]


def _coefficient_entry(rules: tuple[AlphaRule, ...], limit: int) -> list:
    """The cached [table, nonzero index or None] of `coefficient_array`, built on a miss."""
    with _COEFF_ARRAY_LOCK:
        for (crules, climit), entry in _COEFF_ARRAY_CACHE.items():
            if crules == rules and climit >= limit:
                return entry
    build = 1 << max(limit - 1, 1).bit_length()  # the least power of two >= limit, at least 2
    is_real = all(rule.is_real for rule in rules)
    dtype = np.float64 if is_real else np.complex128
    out = np.ones(build + 1, dtype=dtype)
    out[0] = 0.0
    primes = sieve_primes(build).primes
    root = math.isqrt(build)
    cut = int(np.searchsorted(primes, root, side="right"))  # primes[:cut] are <= root
    alphas = [rule.at_array(primes).real if is_real else rule.at_array(primes) for rule in rules]
    # A(p^nu) of every small prime p, one row per prime, column nu - 1 for
    # nu = 1..log2(build)
    table = np.stack(complete_homogeneous([a[:cut] for a in alphas], build.bit_length() - 1)[1:], axis=1)
    for p, coeffs in zip(primes[:cut].tolist(), table.tolist()):
        q = p
        nu = 1
        while q <= build:
            idx = np.arange(q, build + 1, q)
            exact = idx[(idx % (q * p)) != 0] if q * p <= build else idx
            out[exact] *= coeffs[nu - 1]
            q *= p
            nu += 1
    large = primes[cut:]
    coeffs = complete_homogeneous([a[cut:] for a in alphas], 1)[1]  # A(P)
    for k in range(1, build // (root + 1) + 1):
        count = int(np.searchsorted(large, build // k, side="right"))
        out[k * large[:count]] *= coeffs[:count]
    out.setflags(write=False)
    entry = [out, None]
    with _COEFF_ARRAY_LOCK:
        _COEFF_ARRAY_CACHE[(rules, build)] = entry
        if len(_COEFF_ARRAY_CACHE) > 32:
            _COEFF_ARRAY_CACHE.pop(next(iter(_COEFF_ARRAY_CACHE)))
    return entry
