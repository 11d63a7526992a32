"""Lattice coefficient families for multiple zeta-type series.

A coefficient specification is a family and its parameters, describing a
function theta(n_1, ..., n_r) on the nonnegative integer lattice.  Its
growth envelope |theta(n)| <= B (t + 1)^eps g^t (a + log(t + 1))^p at
total degree t, which the certified truncation bounds use, is derived from
the parameters once, at construction; it is never declared.  Families
beyond the polynomial-envelope ones also carry structural information
(finite support, geometric decay, sparse factorial support) that unlocks
sharper certified tails.

Each family is one subclass of CoefficientSpec, registered in FAMILIES under
its name.  The base class answers every query for a dense family with a
polynomial envelope; a family overrides only what differs.

Multiplicative coefficients have exact envelopes, formed as a product of
local maxima over a finite set of primes (`_rules_envelope`), at a ladder
of growth exponents; a tail takes the least bound over the ladder's rungs
(`envelope_ladder`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import Callable, ClassVar, Iterable, Optional

import numpy as np

from .arithmetic import (
    AlphaRule, coefficient_array, coefficient_nonzero, homogeneous_step, modulus, require_finite, sieve_primes,
)
from .errors import ConfigError

NONNEGATIVE = "nonnegative"
NONPOSITIVE = "nonpositive"
MIXED = "mixed"
COMPLEX = "complex"

FAMILIES: dict[str, type] = {}  # family name -> its CoefficientSpec subclass

# the growth exponents above a multiplicative family's own `growth` at
# which its exact envelope is also formed; each tail takes the least bound
_RUNGS = (0.1, 0.15, 0.2, 0.25, 0.3, 0.4, 0.5)
_RUNG_PRIME_LIMIT = 1 << 16  # a rung that needs primes past this is dropped
_LATTICE_MAX = int(np.iinfo(np.int64).max)  # lattice points are int64 rows
_SIGN_SCAN_LIMIT = 4096


@dataclass(frozen=True)
class _LogWeight:
    """The factor (offset + log(t + 1))^power of a structural envelope.

    Absorption into a power of t + 1: log x <= x^eps / (e eps) for x >= 1
    and eps > 0 (log x / x^eps peaks at x = e^(1/eps)), so with offset >= 0
    and x^eps >= 1,
        offset + log x <= (offset + 1/(e eps)) x^eps,
    and the factor is at most (offset + 1/(e eps))^power (t + 1)^(power eps).
    """

    offset: float = 0.0
    power: int = 0

    def at(self, t: float) -> float:
        return (self.offset + math.log(t + 1.0)) ** self.power  # 1.0 at power 0

    def ratio(self, t_from: float, t_to: float) -> float:
        """Upper bound for at(t_to)/at(t_from), valid for all t >= t_from."""
        if self.power == 0:
            return 1.0
        lo = self.offset + math.log(t_from + 1.0)
        hi = self.offset + math.log(t_to + 1.0)
        if lo <= 0.0:
            return math.inf
        return (hi / lo) ** self.power

    def absorb(self, bound: float, growth: float, room: float) -> tuple[float, float]:
        """(bound', growth') with bound (t+1)^growth times this factor <= bound'
        (t+1)^growth', eps = min(0.05, room / (2 power)); inf if room <= 0."""
        if self.power == 0:
            return bound, growth
        eps = min(0.05, room / (2.0 * self.power))
        if eps <= 0.0:
            return math.inf, growth
        return (
            bound * (self.offset + 1.0 / (math.e * eps)) ** self.power,
            growth + self.power * eps,
        )


@dataclass(frozen=True)
class CoefficientSpec:
    """Tagged description of a coefficient family: its name and parameters.

    Use the family constructors (``constant``, ``finite_support``, ...)
    rather than building instances directly; they normalize parameters and
    return the family's subclass.  Every family implements ``values(points)``
    (theta at the rows of a 2-d int array, shape (k, r) -> (k,)),
    ``sign_class()`` (one of nonnegative / nonpositive / mixed / complex) and
    ``_envelope()``; the other queries below have defaults.  The structural
    invariants ``support_degree``, ``envelope_triple``, ``log_weight`` and
    ``poisson_decomposition`` are derived from the parameters once, at
    construction, and ``envelope_ladder`` once, on first use; they are not
    dataclass fields, so equality and the config schema see only family and
    params.
    Together the triple (B, eps, g) and the log weight bound every value:
    |theta(n)| <= B (t + 1)^eps g^t (offset + log(t + 1))^power, t = |n|.
    """

    family: str
    params: dict

    # Largest total degree carrying a nonzero value, or None if unbounded.
    support_degree: ClassVar[Optional[int]] = None
    log_weight: ClassVar[_LogWeight] = _LogWeight()
    # (base, rate, B_other, eps_other) when exactly one poisson factor drives
    # the support; None otherwise.  The other factors' log weight is in
    # ``log_weight``.
    poisson_decomposition: ClassVar[Optional[tuple[int, float, float, float]]] = None
    is_one: ClassVar[bool] = False  # theta == 1 everywhere
    family_name: ClassVar[str] = ""

    def __init_subclass__(cls, family: str, **kwargs) -> None:
        super().__init_subclass__(**kwargs)
        cls.family_name = family
        FAMILIES[family] = cls

    def __post_init__(self) -> None:
        if FAMILIES.get(self.family) is not type(self):
            raise ConfigError(f"unknown coefficient family {self.family!r}")
        triple = self._envelope()
        b, eps, _ = triple
        if not (0.0 <= b < math.inf and 0.0 <= eps < math.inf):  # false for nan
            raise ConfigError(
                f"{self.family}: no finite envelope from {', '.join(self.params)} "
                f"(B = {b}, eps = {eps})"
            )
        object.__setattr__(self, "envelope_triple", triple)

    @classmethod
    def _of(cls, params: dict) -> "CoefficientSpec":
        return cls(cls.family_name, params)

    def _envelope(self) -> tuple[float, float, float]:
        """(B, eps, g) with |theta(n)| <= B (t + 1)^eps g^t times the log
        weight, g in (0, 1], derived from the params; a nan or inf param
        gives a B or eps that is not finite, which construction refuses."""
        raise NotImplementedError

    # -- protocol -------------------------------------------------------------

    @property
    def is_entire(self) -> bool:
        """True when the series converges absolutely for every s (finite
        support, sparse factorial support, or strict geometric decay)."""
        return (
            self.support_degree is not None
            or self.poisson_decomposition is not None
            or self.envelope_triple[2] < 1.0
        )

    def support(self, r: int, lo: int, hi: int) -> Optional[np.ndarray]:
        """Support lattice points with lo <= total degree <= hi, ascending
        degree (lexicographic within one), or None when the support cannot be
        enumerated directly.  ``hi`` may be large for a sparse support."""
        return None

    def per_coordinate_envelope(self, r: int) -> Optional[list[tuple[float, float]]]:
        """(B_j, eps_j) per coordinate with |theta(n)| <= prod_j B_j (n_j+1)^eps_j.

        Feeds the matched-coordinate tail route for zero-pattern linear forms.
        None when the family has no usable coordinatewise factorization.  The
        default reads the triple: g^t <= 1 and (t+1)^eps <= prod_j (n_j+1)^eps.
        """
        b, eps, _ = self.envelope_triple
        return [(b, eps)] + [(1.0, eps)] * (r - 1)

    def validate(self, r: int) -> list[str]:
        """Family-specific shape checks against lattice rank r."""
        return []

    def residue_classes(self, j: int) -> Optional[tuple[int, Callable]]:
        """(q, at) when theta is periodic with period q along coordinate j:
        ``at(rest, a)`` is theta at n_j = a (mod q) for the points ``rest`` of
        the other coordinates, a scalar exactly when theta does not vary with
        the rest (constant, or period 1 on every other coordinate).  None for
        every family but constant and periodic."""
        return None

    def log_split(self, lam: np.ndarray, u: np.ndarray) -> Optional[tuple["CoefficientSpec", np.ndarray]]:
        """(rest, coeffs) when theta(n) = rest(n) prod_i sum_l coeffs[i, l]
        log L_l(n) over the K >= 0 ``log_factor``s of theta, none left in
        ``rest``, all on the forms L_l(n) = sum_j lam_lj (n_j + u_j): coeffs
        is (K, m), m = len(lam).  None when a log factor sits on other forms."""
        return (self, np.zeros((0, len(lam)))) if not self.log_weight.power else None

    @cached_property
    def envelope_ladder(self) -> tuple["CoefficientSpec", ...]:
        """This spec first, then the same theta under other proven envelopes
        (the multiplicative family's exponent rungs, and products holding
        it); each tail route takes its least bound over them."""
        return (self,)

    def prewarm(self, max_coord: int) -> None:
        """Build any table ``values`` needs for coordinates up to max_coord."""

    def nonzero(self, points: np.ndarray, shells: bool) -> tuple[np.ndarray, np.ndarray]:
        """(rows, values): the rows of ``points`` (shape (k, r)) where theta
        is nonzero, in their order, and theta there, with the bits of
        ``values``.  ``shells`` states that the rows are every lattice point
        of their degrees by ascending degree (a block of whole shells),
        which lets a family read them from a table's nonzero index.  The
        default evaluates theta on every row and keeps the nonzero ones."""
        vals = np.asarray(theta_values(self, points))
        keep = np.flatnonzero(vals)
        if keep.size < vals.size:
            points, vals = points.take(keep, axis=0), vals.take(keep)
        return points, vals

    def times(self, factor: "CoefficientSpec") -> "CoefficientSpec":
        """The product theta * factor, appending to this product's factors."""
        return CoefficientSpec.product((self, factor))

    # -- constructors -------------------------------------------------------

    @staticmethod
    def constant(value: complex = 1.0) -> "CoefficientSpec":
        return _Constant._of({"value": complex(value)})

    @staticmethod
    def finite_support(
        entries: dict[tuple[int, ...], complex] | Iterable[tuple[tuple[int, ...], complex]],
    ) -> "CoefficientSpec":
        if isinstance(entries, dict):
            items = entries.items()
        else:
            items = list(entries)
        norm = tuple(sorted((tuple(int(i) for i in pt), complex(v)) for pt, v in items))
        if not norm:
            raise ConfigError("finite_support needs at least one entry")
        lengths = {len(pt) for pt, _ in norm}
        if len(lengths) != 1:
            raise ConfigError("finite_support entries must share one lattice rank")
        if any(any(not 0 <= i <= _LATTICE_MAX for i in pt) for pt, _ in norm):
            raise ConfigError(f"finite_support points must be nonnegative and at most {_LATTICE_MAX}")
        return _FiniteSupport._of({"entries": norm})

    @staticmethod
    def periodic(mods: Iterable[int], table) -> "CoefficientSpec":
        mods = tuple(int(q) for q in mods)
        if any(q < 1 for q in mods):
            raise ConfigError("periodic moduli must be >= 1")
        arr = np.asarray(table, dtype=complex)
        if arr.shape != mods:
            raise ConfigError(f"periodic table shape {arr.shape} != moduli {mods}")
        return _Periodic._of({"mods": mods, "table": _nest(arr)})

    @staticmethod
    def geometric(ratios: complex | Iterable[complex]) -> "CoefficientSpec":
        if isinstance(ratios, (int, float, complex)):
            ratios = (ratios,)
        qs = tuple(complex(q) for q in ratios)
        for q in qs:
            if not (0.0 < modulus(q) <= 1.0 + 1e-15):
                raise ConfigError(f"geometric ratio must satisfy 0 < |q| <= 1, got {q}")
        return _Geometric._of({"ratios": qs})

    @staticmethod
    def log_factor(coeffs: Iterable[float], lam, u: Iterable[float]) -> "CoefficientSpec":
        g = tuple(float(x) for x in coeffs)
        lam_arr = np.asarray(lam, dtype=float)
        u_arr = np.asarray(tuple(u), dtype=float)
        if lam_arr.ndim != 2 or lam_arr.shape[0] != len(g) or lam_arr.shape[1] != u_arr.size:
            raise ConfigError("log_factor needs lam of shape (len(coeffs), len(u))")
        require_finite("log_factor: lam", lam_arr)
        require_finite("log_factor: u", u_arr)
        with np.errstate(over="ignore"):  # an offset past the float range is refused below
            w = lam_arr @ u_arr
        if np.any(lam_arr < 0) or np.any(u_arr <= 0) or not np.all((w > 0) & (w < math.inf)):
            raise ConfigError("log_factor forms need nonnegative lam, positive u, positive finite offsets")
        return _LogFactor._of({"coeffs": g, "lam": _nest(lam_arr), "u": tuple(u_arr.tolist())})

    @staticmethod
    def character_product(factors: Iterable[tuple[int, Iterable[complex], int, int]]) -> "CoefficientSpec":
        """Factors are (mod, table, coord, shift): theta multiplies
        table[(n_coord + shift) % mod] over all factors."""
        norm = []
        for mod, table, coord, shift in factors:
            tab = tuple(complex(v) for v in table)
            if int(mod) < 1 or len(tab) != int(mod):
                raise ConfigError("character factor needs len(table) == mod >= 1")
            norm.append((int(mod), tab, int(coord), int(shift)))
        return _CharacterProduct._of({"factors": tuple(norm)})

    @staticmethod
    def product(factors: Iterable["CoefficientSpec"]) -> "CoefficientSpec":
        fs = tuple(factors)
        if not fs:
            raise ConfigError("product_of_families needs at least one factor")
        return _Product._of({"factors": fs})

    @staticmethod
    def multiplicative_product(
        coords: Iterable[Iterable[AlphaRule]], growth: float = 0.05
    ) -> "CoefficientSpec":
        """theta(n) = prod_j A_j(n_j + 1), each A_j the multiplicative
        coefficient of an Euler factor list attached to coordinate j.

        ``growth`` is the lowest exponent rung of the envelope ladder
        (`_envelope_rungs`); the envelope is the exact one at the lowest
        rung kept, B = prod_j `_rules_envelope` over the coordinates with
        two or more rules or a rule past |alpha| = 1, and eps = rung times
        their count (a coordinate with one rule and |alpha| <= 1 has
        |A_j| <= 1)."""
        norm = tuple(tuple(rules) for rules in coords)
        if not norm or any(not rules for rules in norm):
            raise ConfigError("multiplicative_product needs rules for every coordinate")
        for rules in norm:
            for rule in rules:
                if rule.max_abs() > 1.0 + 1e-12:
                    raise ConfigError("multiplicative coefficients need |alpha(p)| <= 1")
        growth = float(growth)
        require_finite("multiplicative_product: growth", growth)
        return _MultiplicativeProduct._of({"coords": norm, "growth": growth})

    @staticmethod
    def poisson_powers(base: int, rate: float = 0.0) -> "CoefficientSpec":
        """theta(base^k - 1) = base^(rate*k) / k!, zero elsewhere; rank 1 only."""
        base = int(base)
        if base < 2:
            raise ConfigError(f"poisson_powers base must be an integer >= 2, got {base}")
        rate = float(rate)
        require_finite("poisson_powers: rate", rate)
        return _PoissonPowers._of({"base": base, "rate": rate})


def _nest(arr: np.ndarray):
    return tuple(map(tuple, arr)) if arr.ndim == 2 else tuple(arr.tolist())


def _log_offsets(lam: np.ndarray, u: np.ndarray) -> np.ndarray:
    """C0_q = max(log M_q, 0) + max(-log w_q, 0), so that |log L_q(n)| <=
    C0_q + log(t + 1): L_q(n) <= M_q (t + 1) with M_q = max(max_j lam_qj,
    w_q), and L_q(n) >= w_q = sum_j lam_qj u_j."""
    w = lam @ u
    m_row = np.maximum(lam.max(axis=1), w)
    return np.maximum(np.log(m_row), 0.0) + np.maximum(-np.log(w), 0.0)


@lru_cache(maxsize=None)
def _rules_envelope(rules: tuple[AlphaRule, ...], eps: float) -> float:
    """B = sup over n >= 1 of |A(n)| / n^eps for one coordinate's rules,
    rounded up; inf where B passes the float range or the primes it needs
    pass _RUNG_PRIME_LIMIT.

    Proof.  A is multiplicative, so |A(n)|/n^eps is the product over p^nu
    || n of |A(p^nu)| p^(-nu eps), and the supremum is the product over all
    p of f_p = max over nu >= 0 of |A(p^nu)| p^(-nu eps) (nu = 0 gives 1,
    so every f_p >= 1; Hardy and Wright, section 18.1, with exact local
    maxima).  A(p^nu) = h_nu(alpha_1(p), ..., alpha_k(p)), the complete
    homogeneous symmetric polynomial, a sum of M_nu = C(nu + k - 1, k - 1)
    monomials, so |A(p^nu)| <= a^nu M_nu <= (a k)^nu with a = max(1,
    max |alpha_l|): f_p = 1 for every p >= (a k)^(1/eps).  Below that, the
    majorant's log nu log a + log M_nu - nu eps log p is concave in nu (its
    steps log(a (nu + k) / (nu + 1)) - eps log p fall), so once it drops
    below the running best it stays there, which ends the scan over nu of
    that prime.
    Rounding.  h_nu is formed by h^(l)_nu = h^(l-1)_nu + alpha_l
    h^(l)_(nu-1) (`arithmetic.homogeneous_step`), which the majorant a^nu
    M_nu satisfies with every alpha = a, so by induction each step's error
    stays below 4 u (nu + l) a^nu M^(l)_nu (u = 2^-53: a complex product
    errs by sqrt(5) u, a sum by u),
    and |A(p^nu)| <= U_nu = |h_nu| + 2^-50 (nu + k) a^nu M_nu.  Each log
    (of U_nu >= 2^-50, of p, of the majorant) and nu eps log p errs by a
    few ulps of a value below 35 + log(a^nu M_nu) + nu eps log p, so by
    less than slack = 2^-46 (1 + log(a^nu M_nu) + nu eps log p), which
    grows with nu: each log U_nu - nu eps log p is raised by it, and a
    prime stops only where its computed majorant is 3 slacks below the
    raised best (the true majorant then is below a true earlier value, so
    past its peak, and below the true best).  The raised logs are summed by
    fsum, the sum raised by 2^-48 of itself, and its exp stepped up past
    exp's one-ulp error.
    """
    k = len(rules)
    a = max([1.0] + [rule.max_abs() for rule in rules])
    log_ak = math.log(a * k)
    if not eps > 0.0 or log_ak / eps > math.log(_RUNG_PRIME_LIMIT):
        return math.inf
    primes = sieve_primes(max(int(math.exp(log_ak / eps)) + 1, 2)).primes
    log_p = np.log(primes.astype(float)) * eps  # eps log p
    alphas = np.stack([rule.at_array(primes) for rule in rules])
    h = [np.ones(primes.size, dtype=complex) for _ in range(k)]  # h^(l)_nu, nu = 0
    best = np.zeros(primes.size)  # log f_p so far, raised by its rounding bound
    active = np.arange(primes.size)
    nu = 0
    while active.size:
        nu += 1
        h = homogeneous_step(alphas, h)
        log_m = math.log(math.comb(nu + k - 1, k - 1)) + nu * math.log(a)
        step = nu * log_p
        slack = 2.0**-46 * (1.0 + log_m + step)
        majorant = math.exp(log_m) if log_m < 709.0 else math.inf
        upper = np.abs(h[-1]) + 2.0**-50 * (nu + k) * majorant
        best[active] = np.maximum(best[active], np.log(upper) - step + slack)
        going = log_m - step + 3.0 * slack >= best[active]
        active, alphas, h = active[going], alphas[:, going], [x[going] for x in h]
        log_p = log_p[going]
    log_b = math.fsum(best.tolist())
    x = math.nextafter(log_b + 2.0**-48 * (abs(log_b) + 1.0), math.inf)
    return math.nextafter(math.exp(x), math.inf) if x < 709.0 else math.inf  # nan gives inf


def _unit_rules(rules) -> bool:
    """One rule with |alpha(p)| <= 1: then |A(p^k)| = |alpha(p)|^k <= 1, so
    |A(n)| <= 1 exactly.  A rule past 1 (the constructors accept 1 + 1e-12)
    grows without bound along p^k and takes `_rules_envelope`."""
    return len(rules) == 1 and rules[0].max_abs() <= 1.0


def _rung_bound(coords, eps: float) -> float:
    """The product of the coordinates' `_rules_envelope` at eps, each
    product rounded up (a `_unit_rules` coordinate has |A| <= 1 exactly);
    inf where a factor is."""
    factors = [_rules_envelope(rules, eps) for rules in coords if not _unit_rules(rules)] or [1.0]
    bound = factors[0]
    for factor in factors[1:]:
        bound = math.nextafter(bound * factor, math.inf)
    return bound


@lru_cache(maxsize=None)
def _envelope_rungs(coords, growth: float) -> tuple[float, ...]:
    """The envelope ladder's exponents with a finite bound, ascending:
    growth and the _RUNGS above it, walked down from the top and stopped
    at the first whose `_rung_bound` is inf (B only grows as eps falls)."""
    rungs: list[float] = []
    for eps in sorted({growth, *(e for e in _RUNGS if e > growth)}, reverse=True):
        if math.isinf(_rung_bound(coords, eps)):
            break
        rungs.insert(0, eps)
    if not rungs:
        raise ConfigError(f"multiplicative_product: no finite envelope at growth {growth} or above")
    return tuple(rungs)


# ---------------------------------------------------------------------------
# Evaluation: theta_values and one class per family
# ---------------------------------------------------------------------------

def theta_values(spec: CoefficientSpec, points: np.ndarray) -> np.ndarray:
    """Evaluate theta at lattice points, shape (k, r) -> (k,)."""
    pts = np.asarray(points)
    if pts.ndim != 2:
        raise ConfigError("lattice points must be a 2-d array")
    return spec.values(pts)


def _real_if_possible(out: np.ndarray) -> np.ndarray:
    return out if out.imag.any() else out.real


class _Constant(CoefficientSpec, family="constant"):
    @property
    def is_one(self) -> bool:
        return self.params["value"] == 1.0

    def _envelope(self):
        return modulus(self.params["value"]), 0.0, 1.0

    def _value(self):
        v = self.params["value"]
        return v.real if v.imag == 0.0 else v  # keeps real theta in real arithmetic

    def values(self, points):
        return np.full(points.shape[0], self._value())

    def sign_class(self):
        return _sign_of_values([self.params["value"]])

    def residue_classes(self, j):
        value = self._value()
        return 1, lambda rest, a: value


def _row_keys(points: np.ndarray) -> np.ndarray:
    """The bytes of each row as one opaque scalar: equal exactly for equal
    rows, and totally ordered, so a sorted key array can be searched."""
    rows = np.ascontiguousarray(points, dtype=np.int64)
    return rows.view(_row_dtype(rows.shape[1])).reshape(rows.shape[0])


@lru_cache(maxsize=None)
def _row_dtype(width: int) -> np.dtype:
    return np.dtype((np.void, 8 * width))


class _FiniteSupport(CoefficientSpec, family="finite_support"):
    """The entries are kept as read-only arrays built once: sorted row keys
    with their values for lookup, and the points sorted by (degree, point)
    for ``support``."""

    def __post_init__(self) -> None:
        super().__post_init__()
        entries = self.params["entries"]  # sorted by point
        pts = np.array([pt for pt, _ in entries], dtype=np.int64).reshape(len(entries), -1)
        vals = np.array([v for _, v in entries], dtype=complex)
        keys = _row_keys(pts)
        by_key = np.argsort(keys, kind="stable")
        degrees = pts.sum(axis=1)
        by_degree = np.argsort(degrees, kind="stable")
        arrays = {
            "_keys": keys[by_key], "_key_values": vals[by_key],
            "_points": pts[by_degree], "_degrees": degrees[by_degree],
        }
        for name, arr in arrays.items():
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)
        object.__setattr__(self, "support_degree", int(degrees.max()))

    def _envelope(self):
        return _max_abs([v for _, v in self.params["entries"]]), 0.0, 1.0

    def values(self, points):
        if points.shape[1] != self._points.shape[1]:
            return np.zeros(points.shape[0])
        keys = _row_keys(points)
        at = self._keys.searchsorted(keys)
        at[at == self._keys.size] = 0  # a row past every key differs from key 0
        on = self._keys[at] == keys
        return _real_if_possible(np.where(on, self._key_values[at], 0.0))

    def sign_class(self):
        return _sign_of_values([v for _, v in self.params["entries"]])

    def support(self, r, lo, hi):
        top = self.support_degree
        start = self._degrees.searchsorted(min(lo, top + 1), side="left")
        stop = self._degrees.searchsorted(min(hi, top), side="right")
        return self._points[start:stop]

    def validate(self, r):
        if any(len(pt) != r for pt, _ in self.params["entries"]):
            return [f"theta.params.entries: lattice points must have length r={r}"]
        return []


class _Periodic(CoefficientSpec, family="periodic"):
    def _envelope(self):
        return float(np.max(np.abs(np.asarray(self.params["table"], dtype=complex)))), 0.0, 1.0

    def values(self, points):
        mods = self.params["mods"]
        table = np.asarray(self.params["table"], dtype=complex).reshape(mods)
        res = tuple(points[:, j] % mods[j] for j in range(points.shape[1]))
        return _real_if_possible(table[res])

    def sign_class(self):
        return _sign_of_values(np.asarray(self.params["table"], dtype=complex).ravel())

    def validate(self, r):
        if len(self.params["mods"]) != r:
            return [f"theta.params.mods: needs exactly r={r} moduli"]
        return []

    def residue_classes(self, j):
        mods = self.params["mods"]
        if all(q == 1 for i, q in enumerate(mods) if i != j):  # theta does not vary with the rest
            along = np.asarray(self.params["table"], dtype=complex).ravel().tolist()
            values = [v.real if v.imag == 0.0 else v for v in along]
            return mods[j], lambda rest, a: values[a]
        return mods[j], lambda rest, a: theta_values(self, np.insert(rest, j, a, axis=1))


class _Geometric(CoefficientSpec, family="geometric"):
    def _envelope(self):
        return 1.0, 0.0, min(max(modulus(complex(q)) for q in self.params["ratios"]), 1.0)

    def values(self, points):
        # Re log q clamped at 0: a ratio admitted past |q| = 1 (a rounded unit
        # ratio) counts as |q| = 1, so theta meets g = min(max |q|, 1) at every t
        qs = np.asarray(self.params["ratios"], dtype=complex)
        if np.all(qs.imag == 0.0) and np.all(qs.real > 0.0):
            return np.exp(points @ np.minimum(np.log(qs.real), 0.0))
        logs = np.log(qs)
        np.minimum(logs.real, 0.0, out=logs.real)
        return np.exp(points @ logs)

    def sign_class(self):
        qs = self.params["ratios"]
        if any(complex(q).imag != 0.0 for q in qs):
            return COMPLEX
        return NONNEGATIVE if all(complex(q).real > 0.0 for q in qs) else MIXED

    def validate(self, r):
        if len(self.params["ratios"]) != r:
            return [f"theta.params.ratios: needs exactly r={r} ratios"]
        return []


class _LogFactor(CoefficientSpec, family="log_factor"):
    def __post_init__(self) -> None:
        super().__post_init__()
        # sum_q |g_q| |log L_q(n)| <= sum_q |g_q| (C0_q + log(t+1)), which is
        # S (offset + log(t+1)): S = sum_q |g_q|, offset the |g|-mean of C0
        lam, u, coeffs = self._arrays()
        total = self.envelope_triple[0]
        offset = float(np.abs(coeffs) @ _log_offsets(lam, u)) / total if total > 0.0 else 0.0
        object.__setattr__(self, "log_weight", _LogWeight(offset, 1))

    def _envelope(self):
        return float(np.abs(self.params["coeffs"]).sum()), 0.0, 1.0

    def _arrays(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        p = self.params
        return (
            np.asarray(p["lam"], dtype=float),
            np.asarray(p["u"], dtype=float),
            np.asarray(p["coeffs"], dtype=float),
        )

    def values(self, points):
        lam, u, coeffs = self._arrays()
        forms = points @ lam.T + (lam @ u)
        return np.log(forms) @ coeffs

    def log_split(self, lam, u):
        own_lam, own_u, coeffs = self._arrays()
        on_forms = np.array_equal(own_lam, lam) and np.array_equal(own_u, u)
        return (CoefficientSpec.constant(1.0), coeffs[None, :]) if on_forms else None

    def sign_class(self):
        lam, u, coeffs = self._arrays()
        if np.all(coeffs == 0.0):
            return NONNEGATIVE
        if np.any((lam @ u)[coeffs != 0.0] < 1.0):
            return MIXED  # some log L_q takes both signs over the lattice
        if np.all(coeffs >= 0.0):
            return NONNEGATIVE
        if np.all(coeffs <= 0.0):
            return NONPOSITIVE
        return MIXED

    def per_coordinate_envelope(self, r):
        # S (offset + log(t+1)) <= B0 prod_j (1 + log(n_j+1)), B0 = S (offset + 1),
        # and 1 + log x <= max(1, e^(eps-1)/eps) x^eps
        eps = 0.05
        b0 = self.envelope_triple[0] * (self.log_weight.offset + 1.0)
        k_eps = max(1.0, math.exp(eps - 1.0) / eps)
        return [(b0 * k_eps, eps)] + [(k_eps, eps)] * (r - 1)

    def validate(self, r):
        problems = []
        if np.asarray(self.params["lam"], dtype=float).shape[1] != r:
            problems.append(f"theta.params.lam: needs r={r} columns")
        if len(self.params["u"]) != r:
            problems.append(f"theta.params.u: needs length r={r}")
        return problems


class _CharacterProduct(CoefficientSpec, family="character_product"):
    def _envelope(self):
        bound = 1.0
        for _, table, _, _ in self.params["factors"]:
            bound *= _max_abs(table)
        return bound, 0.0, 1.0

    def values(self, points):
        out = np.ones(points.shape[0])
        complex_out = None
        for mod, table, coord, shift in self.params["factors"]:
            tab = np.asarray(table)
            vals = tab[(points[:, coord] + shift) % mod]
            if np.iscomplexobj(vals) and np.any(vals.imag != 0.0):
                complex_out = (complex_out if complex_out is not None else out.astype(complex)) * vals
            elif complex_out is not None:
                complex_out = complex_out * vals.real
            else:
                out = out * vals.real
        return complex_out if complex_out is not None else out

    def sign_class(self):
        cls = NONNEGATIVE
        for _, table, _, _ in self.params["factors"]:
            cls = _sign_product(cls, _sign_of_values(table))
        return cls

    def validate(self, r):
        return [
            f"theta.params.factors: coordinate {coord} outside 0..{r - 1}"
            for _, _, coord, _ in self.params["factors"]
            if not 0 <= coord < r
        ]


class _Product(CoefficientSpec, family="product_of_families"):
    def __post_init__(self) -> None:
        super().__post_init__()
        fs = self.params["factors"]
        degs = [f.support_degree for f in fs if f.support_degree is not None]
        object.__setattr__(self, "support_degree", min(degs) if degs else None)
        # prod_i (a_i + x)^(p_i) <= (max_i a_i + x)^(sum_i p_i) for x >= 0
        weights = [f.log_weight for f in fs]
        log_weight = _LogWeight(max(w.offset for w in weights), sum(w.power for w in weights))
        object.__setattr__(self, "log_weight", log_weight)
        poisson = [f for f in fs if isinstance(f, _PoissonPowers)]
        if len(poisson) == 1:
            others = [f.envelope_triple for f in fs if f is not poisson[0]]
            base, rate, _, _ = poisson[0].poisson_decomposition
            b_other = math.prod((b for b, _, _ in others), start=1.0)
            eps_other = sum((e for _, e, _ in others), 0.0)
            object.__setattr__(self, "poisson_decomposition", (base, rate, b_other, eps_other))

    def _envelope(self):
        bb, ee, gg = 1.0, 0.0, 1.0
        for f in self.params["factors"]:
            fb, fe, fg = f.envelope_triple
            bb, ee, gg = bb * fb, ee + fe, gg * fg
        return bb, ee, gg

    def values(self, points):
        out = None
        for factor in self.params["factors"]:
            vals = factor.values(points)
            out = vals if out is None else out * vals
        return out

    def sign_class(self):
        cls = NONNEGATIVE
        for factor in self.params["factors"]:
            cls = _sign_product(cls, factor.sign_class())
        return cls

    def support(self, r, lo, hi):
        # a finite factor of least degree enumerates the product's support,
        # else the first sparse factor does
        fs = self.params["factors"]
        finite = [f for f in fs if f.support_degree is not None]
        for f in [min(finite, key=lambda f: f.support_degree)] if finite else fs:
            pts = f.support(r, lo, hi)
            if pts is not None:
                return pts
        return None

    def per_coordinate_envelope(self, r):
        out = [(1.0, 0.0)] * r
        for factor in self.params["factors"]:
            sub = factor.per_coordinate_envelope(r)
            if sub is None:
                return None
            out = [(b1 * b2, e1 + e2) for (b1, e1), (b2, e2) in zip(out, sub)]
        return out

    def validate(self, r):
        return [p for factor in self.params["factors"] for p in factor.validate(r)]

    def prewarm(self, max_coord):
        for factor in self.params["factors"]:
            factor.prewarm(max_coord)

    def log_split(self, lam, u):
        if not self.log_weight.power:
            return super().log_split(lam, u)
        splits = [f.log_split(lam, u) for f in self.params["factors"]]
        if None in splits:
            return None
        rest = [f for f, _ in splits if not f.is_one]
        if len(rest) != 1:
            rest = [CoefficientSpec.product(rest) if rest else CoefficientSpec.constant(1.0)]
        return rest[0], np.concatenate([coeffs for _, coeffs in splits])

    def times(self, factor):
        return CoefficientSpec.product(self.params["factors"] + (factor,))

    @cached_property
    def envelope_ladder(self):
        # rung i multiplies each factor's rung i, or its last when it has fewer
        ladders = [f.envelope_ladder for f in self.params["factors"]]
        return (self,) + tuple(
            CoefficientSpec.product([ladder[min(i, len(ladder) - 1)] for ladder in ladders])
            for i in range(1, max(map(len, ladders)))
        )


class _MultiplicativeProduct(CoefficientSpec, family="multiplicative_product"):
    def _envelope(self):
        coords = self.params["coords"]
        multi = sum(not _unit_rules(rules) for rules in coords)
        if not multi:
            # one Euler factor with |alpha| <= 1 per coordinate: |A(n)| <= 1 exactly
            return 1.0, 0.0, 1.0
        eps = _envelope_rungs(coords, self.params["growth"])[0]
        return _rung_bound(coords, eps), eps * multi, 1.0

    def values(self, points):
        limit = int(points.max(initial=0)) + 1
        out = None
        for j, rules in enumerate(self.params["coords"]):
            arr = coefficient_array(tuple(rules), max(limit, 2))
            vals = arr[points[:, j] + 1]
            out = vals if out is None else out * vals
        return out

    def nonzero(self, points, shells):
        # at rank 1 whole shells are the run n = lo..hi, and theta(n) = A(n + 1):
        # two searchsorted calls on the table's nonzero index give its rows,
        # from the table `values` takes (no table is built below limit 2)
        if not (shells and points.shape[1] == 1 and points.shape[0]):
            return super().nonzero(points, shells)
        lo, hi = int(points[0, 0]), int(points[-1, 0])
        table, index = coefficient_nonzero(tuple(self.params["coords"][0]), hi + 1)
        index = index[index.searchsorted(lo + 1):]
        return (index - 1).reshape(-1, 1), table[index]

    def sign_class(self):
        cls = NONNEGATIVE
        for rules in self.params["coords"]:
            arr = coefficient_array(tuple(rules), _SIGN_SCAN_LIMIT)
            cls = _sign_product(cls, _sign_of_values(arr[1:]))
        return cls

    @cached_property
    def envelope_ladder(self):
        coords, growth = self.params["coords"], self.params["growth"]
        if all(map(_unit_rules, coords)):
            return (self,)
        # each rung's own walk from eps keeps eps: every rung above it is finite
        return (self,) + tuple(
            _MultiplicativeProduct._of({"coords": coords, "growth": eps})
            for eps in _envelope_rungs(coords, growth)[1:]
        )

    def per_coordinate_envelope(self, r):
        return list(self._coordinate_envelopes)

    @cached_property
    def _coordinate_envelopes(self) -> tuple[tuple[float, float], ...]:
        coords = self.params["coords"]
        eps = _envelope_rungs(coords, self.params["growth"])[0]
        return tuple(
            (1.0, 0.0) if _unit_rules(rules) else (_rules_envelope(rules, eps), eps)
            for rules in coords
        )

    def validate(self, r):
        if len(self.params["coords"]) != r:
            return [f"theta.params.coords: needs rules for each of r={r} coordinates"]
        return []

    def prewarm(self, max_coord):
        for rules in self.params["coords"]:
            coefficient_array(tuple(rules), max(max_coord + 1, 2))


class _PoissonPowers(CoefficientSpec, family="poisson_powers"):
    def __post_init__(self) -> None:
        super().__post_init__()
        decomposition = (self.params["base"], self.params["rate"], 1.0, 0.0)
        object.__setattr__(self, "poisson_decomposition", decomposition)

    def _envelope(self):
        return 1.0, max(self.params["rate"], 0.0), 1.0

    def values(self, points):
        j = self.params["base"]
        a = self.params["rate"]
        out = np.zeros(points.shape[0])
        n = points[:, 0]
        kk = np.round(np.log(n.astype(float) + 1.0) / math.log(j)).astype(int)
        kk = kk.clip(min=0)
        # exact integer support test; python ints avoid int64 power overflow
        on = np.array([j**int(x) == int(m) + 1 for x, m in zip(kk, n)], dtype=bool)
        ks = kk[on]
        out[on] = np.exp(
            a * ks * math.log(j) - np.asarray([math.lgamma(x + 1.0) for x in ks])
        )
        return out

    def sign_class(self):
        return NONNEGATIVE

    def support(self, r, lo, hi):
        base = self.params["base"]
        hi = min(hi, _LATTICE_MAX)
        ks = []
        k = 0
        while base**k - 1 <= hi:
            if base**k - 1 >= lo:
                ks.append(base**k - 1)
            k += 1
        return np.asarray(ks, dtype=np.int64).reshape(len(ks), 1)

    def per_coordinate_envelope(self, r):
        return None

    def validate(self, r):
        if r != 1:
            return ["theta.family poisson_powers requires lattice rank r=1"]
        return []


def _max_abs(values) -> float:
    """max |v| by `modulus`; nan where any value is nan (Python's max
    drops a nan that is not first)."""
    return float(np.max([modulus(v) for v in values]))


def _sign_of_values(values) -> str:
    arr = np.asarray(list(values), dtype=complex)
    if np.any(arr.imag != 0.0):
        return COMPLEX
    re = arr.real
    if np.all(re >= 0.0):
        return NONNEGATIVE
    if np.all(re <= 0.0):
        return NONPOSITIVE
    return MIXED


def _sign_product(a: str, b: str) -> str:
    if COMPLEX in (a, b):
        return COMPLEX
    if MIXED in (a, b):
        return MIXED
    return NONNEGATIVE if a == b else NONPOSITIVE
