"""Lattice coefficient families for multiple zeta-type series.

A coefficient specification describes a function theta(n_1, ..., n_r) on the
nonnegative integer lattice together with a growth envelope
|theta(n)| <= B * (n_1 + ... + n_r + 1)^eps used by the certified
truncation bounds.  Families beyond the polynomial-envelope ones also carry
structural information (finite support, geometric decay, sparse factorial
support) that unlocks sharper certified tails.

Each family is one subclass of CoefficientSpec, registered in FAMILIES under
its name.  The base class answers every query for a dense family with a
polynomial envelope; a family overrides only what differs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, ClassVar, Iterable, Optional

import numpy as np

from .arithmetic import AlphaRule, coefficient_array
from .errors import ConfigError

NONNEGATIVE = "nonnegative"
NONPOSITIVE = "nonpositive"
MIXED = "mixed"
COMPLEX = "complex"

FAMILIES: dict[str, type] = {}  # family name -> its CoefficientSpec subclass

_ENVELOPE_SCAN_LIMIT = 10**6
_LATTICE_MAX = int(np.iinfo(np.int64).max)  # lattice points are int64 rows
_SIGN_SCAN_LIMIT = 4096


@dataclass(frozen=True)
class Envelope:
    """|theta(n)| <= bound * (n_1 + ... + n_r + 1)^growth for all lattice n."""

    bound: float
    growth: float

    def __post_init__(self) -> None:
        if not (self.bound >= 0.0 and math.isfinite(self.bound)):
            raise ConfigError(f"envelope bound must be finite and >= 0, got {self.bound}")
        if not (self.growth >= 0.0 and math.isfinite(self.growth)):
            raise ConfigError(f"envelope growth must be finite and >= 0, got {self.growth}")


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
    """Tagged description of a coefficient family plus its envelope.

    Use the family constructors (``constant``, ``finite_support``, ...)
    rather than building instances directly; they normalize parameters and
    derive envelopes where the family permits it, and return the family's
    subclass.  Every family implements ``values(points)`` (theta at the rows
    of a 2-d int array, shape (k, r) -> (k,)) and ``sign_class()`` (one of
    nonnegative / nonpositive / mixed / complex); the other queries below
    have defaults.  The structural invariants ``support_degree``,
    ``envelope_triple``, ``log_weight`` and ``poisson_decomposition`` are
    computed once, at construction; they are not dataclass fields, so
    equality and the config schema see only family, params and envelope.
    Together the triple (B, eps, g) and the log weight bound every value:
    |theta(n)| <= B (t + 1)^eps g^t (offset + log(t + 1))^power, t = |n|.
    """

    family: str
    params: dict
    envelope: Envelope

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
        # (B, eps, g) with |theta(n)| <= B * (t + 1)^eps * g^t, g in (0, 1]
        triple = (self.envelope.bound, self.envelope.growth, 1.0)
        object.__setattr__(self, "envelope_triple", triple)

    @classmethod
    def _of(cls, params: dict, envelope: Envelope) -> "CoefficientSpec":
        return cls(cls.family_name, params, envelope)

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
        default respects the declared envelope, (t+1)^eps <= prod_j (n_j+1)^eps,
        with the smaller of its bound and the structural one.
        """
        b, eps = min(self.envelope.bound, self.envelope_triple[0]), self.envelope.growth
        return [(b, eps)] + [(1.0, eps)] * (r - 1)

    def validate(self, r: int) -> list[str]:
        """Family-specific shape checks against lattice rank r."""
        return []

    def residue_classes(self, j: int) -> Optional[tuple[int, Callable]]:
        """(q, at) when theta is periodic with period q along coordinate j:
        ``at(rest, a)`` is theta at n_j = a (mod q) for the points ``rest`` of
        the other coordinates (a scalar when theta is constant).  None for
        every family but constant and periodic."""
        return None

    def prewarm(self, max_coord: int) -> None:
        """Build any table ``values`` needs for coordinates up to max_coord."""

    def times(self, factor: "CoefficientSpec") -> "CoefficientSpec":
        """The product theta * factor, appending to this product's factors."""
        return CoefficientSpec.product((self, factor))

    # -- constructors -------------------------------------------------------

    @staticmethod
    def constant(value: complex = 1.0, envelope: Optional[Envelope] = None) -> "CoefficientSpec":
        value = complex(value)
        env = envelope or Envelope(abs(value), 0.0)
        return _Constant._of({"value": value}, env)

    @staticmethod
    def finite_support(
        entries: dict[tuple[int, ...], complex] | Iterable[tuple[tuple[int, ...], complex]],
        envelope: Optional[Envelope] = None,
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
        if any(any(i < 0 for i in pt) for pt, _ in norm):
            raise ConfigError("finite_support points must be nonnegative")
        env = envelope or Envelope(max(abs(v) for _, v in norm), 0.0)
        return _FiniteSupport._of({"entries": norm}, env)

    @staticmethod
    def periodic(
        mods: Iterable[int], table, envelope: Optional[Envelope] = None
    ) -> "CoefficientSpec":
        mods = tuple(int(q) for q in mods)
        if any(q < 1 for q in mods):
            raise ConfigError("periodic moduli must be >= 1")
        arr = np.asarray(table, dtype=complex)
        if arr.shape != mods:
            raise ConfigError(f"periodic table shape {arr.shape} != moduli {mods}")
        env = envelope or Envelope(float(np.max(np.abs(arr))), 0.0)
        return _Periodic._of({"mods": mods, "table": _nest(arr)}, env)

    @staticmethod
    def geometric(
        ratios: complex | Iterable[complex], envelope: Optional[Envelope] = None
    ) -> "CoefficientSpec":
        if isinstance(ratios, (int, float, complex)):
            ratios = (ratios,)
        qs = tuple(complex(q) for q in ratios)
        for q in qs:
            if not (0.0 < abs(q) <= 1.0 + 1e-15):
                raise ConfigError(f"geometric ratio must satisfy 0 < |q| <= 1, got {q}")
        env = envelope or Envelope(1.0, 0.0)
        return _Geometric._of({"ratios": qs}, env)

    @staticmethod
    def log_factor(
        coeffs: Iterable[float],
        lam,
        u: Iterable[float],
        growth: float = 0.05,
        envelope: Optional[Envelope] = None,
    ) -> "CoefficientSpec":
        g = tuple(float(x) for x in coeffs)
        lam_arr = np.asarray(lam, dtype=float)
        u_arr = np.asarray(tuple(u), dtype=float)
        if lam_arr.ndim != 2 or lam_arr.shape[0] != len(g) or lam_arr.shape[1] != u_arr.size:
            raise ConfigError("log_factor needs lam of shape (len(coeffs), len(u))")
        if np.any(lam_arr < 0) or np.any(u_arr <= 0) or np.any(lam_arr @ u_arr <= 0):
            raise ConfigError("log_factor forms need nonnegative lam, positive u, positive offsets")
        env = envelope or Envelope(_log_factor_bound(g, lam_arr, u_arr, growth), growth)
        return _LogFactor._of(
            {"coeffs": g, "lam": _nest(lam_arr), "u": tuple(u_arr.tolist())}, env
        )

    @staticmethod
    def character_product(
        factors: Iterable[tuple[int, Iterable[complex], int, int]],
        envelope: Optional[Envelope] = None,
    ) -> "CoefficientSpec":
        """Factors are (mod, table, coord, shift): theta multiplies
        table[(n_coord + shift) % mod] over all factors."""
        norm = []
        bound = 1.0
        for mod, table, coord, shift in factors:
            tab = tuple(complex(v) for v in table)
            if int(mod) < 1 or len(tab) != int(mod):
                raise ConfigError("character factor needs len(table) == mod >= 1")
            norm.append((int(mod), tab, int(coord), int(shift)))
            bound *= max(abs(v) for v in tab)
        env = envelope or Envelope(bound, 0.0)
        return _CharacterProduct._of({"factors": tuple(norm)}, env)

    @staticmethod
    def product(
        factors: Iterable["CoefficientSpec"], envelope: Optional[Envelope] = None
    ) -> "CoefficientSpec":
        fs = tuple(factors)
        if not fs:
            raise ConfigError("product_of_families needs at least one factor")
        env = envelope or Envelope(
            math.prod(f.envelope.bound for f in fs),
            sum(f.envelope.growth for f in fs),
        )
        return _Product._of({"factors": fs}, env)

    @staticmethod
    def multiplicative_product(
        coords: Iterable[Iterable[AlphaRule]],
        growth: float = 0.05,
        envelope: Optional[Envelope] = None,
    ) -> "CoefficientSpec":
        """theta(n) = prod_j A_j(n_j + 1), each A_j the multiplicative
        coefficient of an Euler factor list attached to coordinate j."""
        norm = tuple(tuple(rules) for rules in coords)
        if not norm or any(not rules for rules in norm):
            raise ConfigError("multiplicative_product needs rules for every coordinate")
        for rules in norm:
            for rule in rules:
                if rule.max_abs() > 1.0 + 1e-12:
                    raise ConfigError("multiplicative coefficients need |alpha(p)| <= 1")
        env = envelope or _multiplicative_envelope(norm, growth)
        return _MultiplicativeProduct._of({"coords": norm, "growth": float(growth)}, env)

    @staticmethod
    def poisson_powers(
        base: int, rate: float = 0.0, envelope: Optional[Envelope] = None
    ) -> "CoefficientSpec":
        """theta(base^k - 1) = base^(rate*k) / k!, zero elsewhere; rank 1 only."""
        base = int(base)
        if base < 2:
            raise ConfigError(f"poisson_powers base must be an integer >= 2, got {base}")
        env = envelope or Envelope(1.0, max(float(rate), 0.0))
        return _PoissonPowers._of({"base": base, "rate": float(rate)}, env)


def _nest(arr: np.ndarray):
    return tuple(map(tuple, arr)) if arr.ndim == 2 else tuple(arr.tolist())


def _log_factor_bound(coeffs, lam: np.ndarray, u: np.ndarray, growth: float) -> float:
    """Envelope constant for sums of |c_q| * |log L_q(n)|.

    Uses L_q(n) <= M_q * (t + 1) with M_q = max(max_j lam_qj, sum_j lam_qj u_j),
    L_q(n) >= w_q = sum_j lam_qj u_j, and log x <= x^eps / (e * eps).
    """
    if growth <= 0:
        raise ConfigError("log_factor envelope growth must be positive")
    crossover = 1.0 / (math.e * growth)
    return float(np.sum(np.abs(np.asarray(coeffs)) * (_log_offsets(lam, u) + crossover + 1.0)))


def _log_offsets(lam: np.ndarray, u: np.ndarray) -> np.ndarray:
    """C0_q = max(log M_q, 0) + max(-log w_q, 0) with M_q and w_q as in
    `_log_factor_bound`, so that |log L_q(n)| <= C0_q + log(t + 1)."""
    w = lam @ u
    m_row = np.maximum(lam.max(axis=1), w)
    return np.maximum(np.log(m_row), 0.0) + np.maximum(-np.log(w), 0.0)


@lru_cache(maxsize=None)
def _rules_envelope(rules: tuple[AlphaRule, ...], growth: float) -> float:
    """max |A(n)| / n^growth over 1 <= n <= _ENVELOPE_SCAN_LIMIT for one
    coordinate's rules: empirical over the scan range; the coefficient lemma
    guarantees the asymptotic order for any positive growth."""
    arr = np.abs(coefficient_array(rules, _ENVELOPE_SCAN_LIMIT))
    n = np.arange(_ENVELOPE_SCAN_LIMIT + 1, dtype=float)
    n[0] = 1.0
    return float(np.max(arr / n**growth))


def _multiplicative_envelope(coords, growth: float) -> Envelope:
    if all(len(rules) == 1 for rules in coords):
        # one Euler factor per coordinate: |A(n)| <= 1 exactly
        return Envelope(1.0, 0.0)
    bound = 1.0
    for rules in coords:
        bound *= max(_rules_envelope(tuple(rules), growth), 1.0)
    return Envelope(bound, growth * len(coords))


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
        return self.params["mods"][j], lambda rest, a: theta_values(
            self, np.insert(rest, j, a, axis=1)
        )


class _Geometric(CoefficientSpec, family="geometric"):
    def __post_init__(self) -> None:
        super().__post_init__()
        g = max(abs(complex(q)) for q in self.params["ratios"])
        object.__setattr__(self, "envelope_triple", (1.0, 0.0, min(g, 1.0)))

    def values(self, points):
        qs = np.asarray(self.params["ratios"], dtype=complex)
        if np.all(qs.imag == 0.0) and np.all(qs.real > 0.0):
            return np.exp(points @ np.log(qs.real))
        return np.exp(points @ np.log(qs))

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
        weights = np.abs(coeffs)
        total = float(weights.sum())
        offset = float(weights @ _log_offsets(lam, u)) / total if total > 0.0 else 0.0
        object.__setattr__(self, "envelope_triple", (total, 0.0, 1.0))
        object.__setattr__(self, "log_weight", _LogWeight(offset, 1))

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
        eps = max(self.envelope.growth, 0.05)
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
        bb, ee, gg = 1.0, 0.0, 1.0
        for f in fs:
            fb, fe, fg = f.envelope_triple
            bb, ee, gg = bb * fb, ee + fe, gg * fg
        object.__setattr__(self, "envelope_triple", (bb, ee, gg))
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

    def times(self, factor):
        return CoefficientSpec.product(self.params["factors"] + (factor,))


class _MultiplicativeProduct(CoefficientSpec, family="multiplicative_product"):
    def values(self, points):
        limit = int(points.max(initial=0)) + 1
        out = None
        for j, rules in enumerate(self.params["coords"]):
            arr = coefficient_array(tuple(rules), max(limit, 2))
            vals = arr[points[:, j] + 1]
            out = vals if out is None else out * vals
        return out

    def sign_class(self):
        cls = NONNEGATIVE
        for rules in self.params["coords"]:
            arr = coefficient_array(tuple(rules), _SIGN_SCAN_LIMIT)
            cls = _sign_product(cls, _sign_of_values(arr[1:]))
        return cls

    def per_coordinate_envelope(self, r):
        growth = self.params["growth"]
        out = []
        for rules in self.params["coords"]:
            if len(rules) == 1:
                out.append((1.0, 0.0))
            else:
                out.append((max(_rules_envelope(tuple(rules), growth), 1.0), growth))
        return out

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
