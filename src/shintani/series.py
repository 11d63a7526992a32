"""Multidimensional Shintani zeta configurations and certified evaluation.

A configuration assembles linear forms L_l(n) = sum_j lam_lj (n_j + u_j)
with complex exponents <c_l, s> and a lattice coefficient family theta.
It keeps its arrays read-only (`arithmetic.frozen_array`) and validates
itself once, when built.
Evaluation enumerates the lattice by total-degree shells and stops at the
first shell whose certified tail bound drops below the requested tolerance.
Complex powers are always exp(-<c_l, s> log L) with the real log of the
positive base, so no branch cuts arise.

That first shell is found without scanning.  For an infinite support a
safeguarded solve (`_first_admissible`) interpolates log tail between the
ends of a bracket that holds the answer and falls back to the midpoint
when a step does not halve it; every route is non-increasing in the shell,
so the result is the shell bisection would find.  `evaluate_many` takes
many points in one call and chooses the shell once per distinct Re s;
`evaluate` is its one-point case, and `evaluate_partial` the same call at
a given shell.  A finite support is enumerated, and theta evaluated on
it, once per call: one table of |terms| (distinct Re s x support points)
gives every degree's tail at every Re s as a row suffix sum, and one
kernel, `_finite_sums`, forms the partial sums of every point, real or
complex, alone or batched, for any m and d, as (points x support) arrays
formed a slice at a time from real products and sums, so that every
entry, and a point's sum, has the same bits whatever else the call holds.

Tail certificates come from six routes.  A finite support has one,
`_finite_tail`: the exact remaining-support sums.  Any other support takes
the least of the routes that apply: `_poisson_tail`, a factorial-ratio
majorant (sparse j^k - 1 support); `_geometric_tail`, a geometric-ratio
majorant (|q| < 1 decay); and three integral comparisons against the
total-degree envelope, each the least over its ladder (`_ladder_route`):
`_poly_tail` (the dense chain, strictly positive lam), `_separable_tail` (a
matched-coordinate product bound for identity/triangular zero patterns) and
`_nested_tail` (complete-flag supports, the single-form line among them: a
one-dimensional tail times full one-dimensional sums).  All six share one
underflow rule, in one piece of code.  Each infinite-support route is one
formula over a number kind (`_tail_route`): `_two_pass` evaluates it in
floats (`_Float`), with the expressions and bits it always had, and that
value stands unless it is 0 or subnormal, a power in it is subnormal, or a
power overflows; there the same formula is evaluated again in `_Wide`, a
nonnegative real kept as its logarithm with a proven error bound, whose
float is rounded up and at least 2^-1074.  So no omitted nonzero term gives
a 0 tail and no overflow escapes as OverflowError.  The finite route sums a
suffix below 2^-1022 with a power below 2^-1022 again in `_Wide`.  Every
other value keeps the bits it is formed with.

The shell choice and its tail bound are the same for every config; only
the partial sum through the chosen shell is computed two ways.  With
constant or periodic theta, times any number K of log_factors on the
config's own forms (the K-th derivatives `differentiate` builds), and a
line coordinate j (every form that contains n_j is the same multiple of
one form: always for r = 1, column 0 of euler_zagier, any column of
barnes), it is a sum of Euler–Maclaurin line sums (Johansson 2015), one
per rest point of the other r - 1 coordinates and residue class of n_j,
all computed in one array kernel.  Along a line each log factor is
a + g log(k + v), so each line sums P(log x) x^(-b) with P a polynomial
of degree K.  Their certified remainder, at most 2^-60 times the tail
bound, is added to the reported bound.  Every other config enumerates the
lattice in blocks.  Rounding error is uncertified on both routes.
"""

from __future__ import annotations

import cmath
import functools
import itertools
import math
import numbers
import operator
from dataclasses import dataclass, replace
from functools import cached_property
from typing import Callable, Iterable, Iterator, Optional

import numpy as np

from . import coefficients as cf
from .arithmetic import frozen_array, modulus
from .coefficients import _LATTICE_MAX, CoefficientSpec
from .errors import CertificationError, ConfigError, NumericError, RegionError
from .summation import CompensatedSum

DEFAULT_SHELL_CAP = 10**6
_BLOCK = 1 << 21
# the most lattice points one partial sum walks where theta's support is not
# enumerable; past it the sum raises NumericError before it starts
_POINT_BUDGET = 1 << 31


@dataclass(frozen=True)
class ComplexPoint:
    """A point s = sigma + i t in C^d, stored as real and imaginary parts."""

    re: np.ndarray
    im: np.ndarray

    def __post_init__(self) -> None:
        object.__setattr__(self, "re", frozen_array(np.atleast_1d(self.re)))
        object.__setattr__(self, "im", frozen_array(np.atleast_1d(self.im)))
        if self.re.shape != self.im.shape or self.re.ndim != 1:
            raise ConfigError("ComplexPoint needs matching 1-d re and im vectors")
        if not all(map(math.isfinite, self.re.tolist() + self.im.tolist())):
            raise ConfigError(f"point components must be finite, got re {self.re}, im {self.im}")

    @property
    def d(self) -> int:
        return int(self.re.size)

    @property
    def values(self) -> np.ndarray:
        return self.re + 1j * self.im

    def conj(self) -> "ComplexPoint":
        return ComplexPoint(self.re, -self.im)

    @property
    def is_real(self) -> bool:
        return not self.im.any()


def as_point(s, d: int) -> ComplexPoint:
    """Coerce complex scalars / sequences / ComplexPoint to a d-dim point."""
    if isinstance(s, ComplexPoint):
        pt = s
    else:
        arr = np.atleast_1d(np.asarray(s, dtype=complex))
        pt = ComplexPoint(arr.real, arr.imag)
    if pt.d != d:
        raise ConfigError(f"point has dimension {pt.d}, config expects d={d}")
    return pt


def as_sigma(sigma, d: int) -> np.ndarray:
    arr = np.atleast_1d(np.asarray(sigma, dtype=float))
    if arr.size != d or arr.ndim != 1:
        raise ConfigError(f"sigma has dimension {arr.size}, config expects d={d}")
    if not all(map(math.isfinite, arr.tolist())):
        raise ConfigError(f"sigma components must be finite, got {arr}")
    return arr


@dataclass(frozen=True)
class ShintaniConfig:
    """Full parameter set (d, m, r, lambda, u, c, theta) of a Shintani series."""

    d: int
    m: int
    r: int
    lam: np.ndarray  # (m, r), nonnegative with covered rows and columns
    u: np.ndarray  # (r,), positive
    c: np.ndarray  # (m, d)
    theta: CoefficientSpec

    def __post_init__(self) -> None:
        for name in ("lam", "u", "c"):
            object.__setattr__(self, name, frozen_array(getattr(self, name)))
        # every field is immutable from here on, so the report is computed
        # once, and so is each structure below, on first use
        object.__setattr__(self, "_report", _check_config(self))

    @cached_property
    def form_offsets(self) -> np.ndarray:
        """w_l = sum_j lam_lj u_j, the value of each linear form at n = 0."""
        out = self.lam @ self.u
        out.setflags(write=False)
        return out

    @cached_property
    def _poly_shape(self) -> Optional[tuple[float, float]]:
        """`_poly_tail`'s (r min_j u_j, min lam), or None where it is inf
        (one form on one coordinate, or a zero lam entry)."""
        if self.m == self.r == 1 or (self.lam <= 0.0).any():
            return None
        return self.r * float(self.u.min()), float(self.lam.min())

    @cached_property
    def _matching(self) -> Optional[tuple[tuple[int, float, float], ...]]:
        """`_separable_tail`'s matched coordinates (`_best_matching`), or None."""
        return _best_matching(self.lam, self.u, self.m, self.r)

    @cached_property
    def _flag(self) -> Optional[tuple[tuple[int, ...], tuple[float, ...], tuple[float, ...]]]:
        """`_nested_tail`'s complete flag (`_flag_structure`), or None."""
        return _flag_structure(self.lam, self.u, self.m, self.r)

    @cached_property
    def _geometry(self) -> tuple[float, np.ndarray, np.ndarray, np.ndarray]:
        """`_geometric_tail`'s sum_j u_j, min and max of each lam row, and
        which rows have every entry positive."""
        row_min = self.lam.min(axis=1)
        return float(np.sum(self.u)), row_min, self.lam.max(axis=1), row_min > 0.0


@dataclass(frozen=True)
class EvalResult:
    """A value together with a rigorous bound on the omitted tail."""

    value: complex
    tail_bound: float
    shells_used: int
    certified: bool


@dataclass(frozen=True)
class ValidationReport:
    ok: bool
    violations: tuple[str, ...]


def validate_config(config: ShintaniConfig) -> ValidationReport:
    """Report-style constraint check; never raises.

    lam entries may be zero (identity and triangular patterns arise from the
    Euler-product embedding and nested multiple sums) but every row and every
    lattice coordinate must carry at least one positive weight.  The report
    is computed once, when the config is constructed.
    """
    return config._report


def _check_config(config: ShintaniConfig) -> ValidationReport:
    problems: list[str] = []
    for name in ("d", "m", "r"):
        v = getattr(config, name)
        if not isinstance(v, (int, np.integer)) or v < 1:
            problems.append(f"{name} must be a positive integer")
    if config.lam.shape != (config.m, config.r):
        problems.append(
            f"lambda must have m={config.m} rows and r={config.r} columns, "
            f"got shape {config.lam.shape}"
        )
    else:
        if np.any(config.lam < 0) or not np.all(np.isfinite(config.lam)):
            problems.append("lambda entries must be nonnegative")
        else:
            if np.any(config.lam.max(axis=1) <= 0):
                problems.append("every lambda row needs a positive entry")
            if np.any(config.lam.max(axis=0) <= 0):
                problems.append("every lattice coordinate needs a positive lambda entry")
    if config.u.shape != (config.r,):
        problems.append(f"u must have length r={config.r}, got {config.u.shape}")
    elif np.any(config.u <= 0) or not np.all(np.isfinite(config.u)):
        problems.append("u_j must be positive")
    if config.c.shape != (config.m, config.d):
        problems.append(
            f"c must contain m={config.m} vectors of length d={config.d}, "
            f"got shape {config.c.shape}"
        )
    if not isinstance(config.theta, CoefficientSpec):
        problems.append("theta must be a CoefficientSpec")
    else:
        problems.extend(config.theta.validate(config.r))
    return ValidationReport(ok=not problems, violations=tuple(problems))


def _require_valid(config: ShintaniConfig) -> None:
    report = config._report
    if not report.ok:
        raise ConfigError("; ".join(report.violations))


def in_convergence_region(config: ShintaniConfig, s) -> bool:
    """True iff min_l Re<c_l, s> > r/m (the certified absolute-convergence region)."""
    return _region_holds(config, config.c @ as_point(s, config.d).re)


def _region_holds(config: ShintaniConfig, sl: np.ndarray) -> bool:
    # every Re<c_l, s> = sl[l] above r/m (a nan fails), as fast Python floats
    bound = config.r / config.m
    return all(x > bound for x in sl.tolist())


def absolutely_convergent_at(config: ShintaniConfig, s) -> bool:
    """Region membership, or a coefficient family convergent for every s."""
    return _region_holds(config, config.c @ as_point(s, config.d).re) or config.theta.is_entire


# ---------------------------------------------------------------------------
# Certified tail bounds
# ---------------------------------------------------------------------------

_NORMAL_MIN = 2.0**-1022  # the least positive normal float


def _checked(out):
    if 0.0 < out < _NORMAL_MIN:
        raise FloatingPointError("subnormal power")
    return out


class _Float:
    """The float pass of a tail formula: its float expressions, bits and
    types, with a check on each power and exponential: a subnormal result
    (its relative error can reach percents) raises FloatingPointError, and
    past the float range Python's `**` and `math.exp` raise OverflowError."""

    @staticmethod
    def pow(x, y):  # `_checked` inlined: one frame less on the hottest call
        out = x**y
        if 0.0 < out < _NORMAL_MIN:
            raise FloatingPointError("subnormal power")
        return out

    exp = staticmethod(lambda x, size: _checked(math.exp(x)))
    expm1 = staticmethod(math.expm1)
    array = staticmethod(lambda xs: xs)


def _wide(x) -> "_Wide":
    return x if isinstance(x, _Wide) else _Wide(math.log(x) if x else -math.inf)


class _Wide:
    """The wide pass of a tail formula: a nonnegative real x kept as l, its
    natural logarithm, with a bound e on |ln x - l| (l = -inf for x = 0).

    Proof.  Each operation adds to e the error of its own l, at most 2^-50
    (|l| + 1): libm's log errs by less than an ulp (an int is rounded to a
    float, or logged from its leading bits, first); a product, quotient or
    power rounds once; a sum hi + log1p(exp(lo - hi)) errs by at most 2^-53
    in each of its steps (its slope, below 1/2, damps the ulp of lo - hi).
    The operands' errors propagate: a product or quotient adds their e, x^y
    takes |y| e, a sum the larger e.  `exp(x, size)` adds 2^-48 (size + 1)
    for an exponent formed from terms of total magnitude size, each within
    16 ulps (CPython's lgamma stays within 4 over the Poisson route's range,
    by an mpmath scan).  The float is exp(l + e (1 + 2^-20) + 2^-40): the
    factor covers the roundings of e, and 2^-40 the few ulps of each factor
    a formula forms in plain floats (1 - rho, G - j), a few dozen at most to
    a product.  The exponent is rounded to nearest and stepped up; exp's
    result, less than an ulp off, is stepped up once, twice in the normal
    range (the true value may lie in the next binade).  So the float is at
    least x and 2^-1074, and inf past e^709."""

    __slots__ = ("l", "e")

    def __init__(self, l: float, e: float = 0.0) -> None:
        self.l = l
        self.e = e + 2.0**-50 * (abs(l) + 1.0) if math.isfinite(l) else 0.0

    def __mul__(self, other) -> "_Wide":
        other = _wide(other)
        return _Wide(self.l + other.l, self.e + other.e)

    __rmul__ = __mul__

    __truediv__ = lambda self, other: self * _wide(other) ** -1  # noqa: E731

    def __pow__(self, y) -> "_Wide":
        return _Wide(self.l * y, abs(y) * self.e) if y else _Wide(0.0)  # x^0 = 1

    def __add__(self, other) -> "_Wide":
        other = _wide(other)
        hi, lo = (self, other) if self.l >= other.l else (other, self)
        if lo.l == -math.inf:
            return hi
        return _Wide(hi.l + math.log1p(math.exp(lo.l - hi.l)), max(hi.e, lo.e))

    __radd__ = __add__

    def __float__(self) -> float:
        x = math.nextafter(math.fsum((self.l, self.e * (1.0 + 2.0**-20), 2.0**-40)), math.inf)
        out = math.inf if x > 709.0 else math.exp(x)  # nan stays nan
        out = math.nextafter(out, math.inf) if out >= _NORMAL_MIN else out
        return math.nextafter(out, math.inf)

    pow = staticmethod(lambda x, y: _wide(x) ** y)
    exp = staticmethod(lambda x, size: _Wide(x, 2.0**-48 * (size + 1.0)))
    array = staticmethod(lambda xs: np.array([_wide(x) for x in xs.tolist()], dtype=object))
    # e^x - 1 <= x + (e - 2) x^2 <= x (1 + x) for 0 <= x <= 1 (to 1.79, past the test's rounding)
    expm1 = staticmethod(lambda x: x * (1.0 + x) if x.l + x.e <= 0.0 else _Wide(float(x)))


def _two_pass(formula, *args) -> float:
    """formula(num, *args) as a float: over `_Float` where that value stands
    (unless it is 0 or subnormal, or a power in it is subnormal or
    overflows), else over `_Wide`, rounded up and at least 2^-1074.  A nan
    stands and bounds nothing; a wide pass that overflows gives inf."""
    try:
        out = float(formula(_Float, *args))
        if not out < _NORMAL_MIN:  # normal, inf or nan
            return out
    except (OverflowError, FloatingPointError):
        pass
    try:
        return float(formula(_Wide, *args))
    except OverflowError:
        return math.inf


def _least(values: list):
    """The least of a formula's values over the rungs of theta's envelope
    ladder (`CoefficientSpec.envelope_ladder`), compared as floats (each
    bounds the tail, so the comparison's rounding is harmless), a nan only
    when all are nan; a single value is returned as it is."""
    if len(values) == 1:
        return values[0]
    keys = [float(x) for x in values]
    numbers = [k for k in keys if k == k]  # not nan
    return values[keys.index(min(numbers))] if numbers else values[0]


def _tail_route(formula):
    """route(config, sigma, n_shell): `_two_pass` of the route's one formula
    formula(num, config, sigma, n_shell), kept as route.formula."""
    route = functools.partial(_two_pass, formula)
    route.__name__, route.__doc__, route.formula = formula.__name__, formula.__doc__, formula
    return route


def _ladder_route(rung):
    """The `_tail_route` of an integral comparison from its formula on one
    rung, rung(num, config, theta, sl, n_shell) with sl = c @ sigma: inf
    outside the region, else the least over theta's envelope ladder."""

    @functools.wraps(rung)
    def formula(num, config: ShintaniConfig, sigma: np.ndarray, n_shell: int):
        sl = config.c @ sigma
        if not _region_holds(config, sl):
            return math.inf
        return _least([rung(num, config, th, sl, n_shell) for th in config.theta.envelope_ladder])

    return _tail_route(formula)


@_ladder_route
def _poly_tail(num, config: ShintaniConfig, theta, sl: np.ndarray, n_shell: int):
    """Integral-comparison bound for strictly positive lam, one form on one
    coordinate (m = r = 1) excepted.

    Partitions lattice points of total degree > N by their set of zero
    coordinates and maps each class onto disjoint unit cubes; this keeps the
    convergence proof's integral constant while staying a genuine upper bound
    for every lattice rank.

    At m = r = 1 (inf here) the one form is a complete flag of length 1, and
    `_nested_tail` forms the same floats in the same order (mins[0] = lam_min,
    v[0] = ru, s_head = s_total, N + v[0] = y + ru; comb(1, 0) / 0! = 1 is
    exact), so its float pass stands where this one does, with the same bits.
    Its wide pass has one product fewer (by comb(1, 0) = 1, which adds to e),
    so its float is never above this one's, and at bound = 0 it is 0: the
    least route keeps its bits.
    """
    r, shape = config.r, config._poly_shape
    if shape is None:
        return math.inf
    s_total = float(sl.sum())
    ru, lam_min = shape
    bound, growth, _ = theta.envelope_triple
    bound, growth = theta.log_weight.absorb(bound, growth, s_total - r - growth)
    big_g = s_total - growth
    if big_g <= r or bound == 0.0:
        return math.inf if big_g <= r else 0.0
    k_u = num.pow(ru, -growth) if growth > 0 and ru < 1.0 else 1.0  # max(1, ru^-growth)
    amp = bound * k_u * num.pow(lam_min, -s_total)
    total = 0.0
    for j in range(1, r + 1):  # j = number of free (nonzero) coordinates
        term = math.comb(r, r - j) * num.pow(max(0.0, n_shell + 1.0 - j) + ru, j - big_g)
        total += term / (math.factorial(j - 1) * (big_g - j))
    return amp * total


def _best_matching(
    lam: np.ndarray, u: np.ndarray, m: int, r: int
) -> Optional[tuple[tuple[int, float, float], ...]]:
    """(j, lam_lj, u_j) of each form l, in form order, for the permutation
    j = pi(l) with lam[l, pi(l)] > 0 maximizing the weight product, or
    None; formed once per config (`ShintaniConfig._matching`)."""
    if m != r or r > 7:
        return None
    best, best_score = None, 0.0
    for perm in itertools.permutations(range(r)):
        score = float(np.prod([lam[l, perm[l]] for l in range(r)]))
        if score > best_score:
            best, best_score = perm, score
    if best is None:
        return None
    return tuple((j, float(lam[l, j]), float(u[j])) for l, j in enumerate(best))


@_ladder_route
def _separable_tail(num, config: ShintaniConfig, theta, sl: np.ndarray, n_shell: int):
    """Matched-coordinate product bound for zero-pattern lam (m == r).

    Drops every unmatched (nonnegative) term of each form, leaving an
    independent product over coordinates; the tail then splits by which
    coordinate exceeds N/r.
    """
    r, matching = config.r, config._matching
    env = None if matching is None else theta.per_coordinate_envelope(r)
    if env is None:
        return math.inf
    m_start = n_shell // r
    full = [0.0] * r  # F_j: full 1-dim sums
    tails = [0.0] * r  # T_j: 1-dim tails past floor(N/r)
    for l, (j, lam_lj, u_j) in enumerate(matching):  # form l and its matched coordinate j
        s_l = float(sl[l])
        b_j, eps_j = env[j]
        decay = s_l - eps_j
        if decay <= 1.0:
            return math.inf
        k_u = num.pow(u_j, -eps_j) if eps_j > 0 and u_j < 1.0 else 1.0  # max(1, u_j^-eps_j)
        amp = b_j * k_u * num.pow(lam_lj, -s_l)
        full[j] = amp * (num.pow(u_j, -decay) + num.pow(u_j, 1.0 - decay) / (decay - 1.0))
        tails[j] = amp * num.pow(m_start + u_j, 1.0 - decay) / (decay - 1.0)
    total = 0.0
    for j in range(r):
        others = functools.reduce(operator.mul, full[:j] + full[j + 1 :]) if r > 1 else 1.0
        total += tails[j] * others
    return total


def _flag_structure(
    lam: np.ndarray, u: np.ndarray, m: int, r: int
) -> Optional[tuple[tuple[int, ...], tuple[float, ...], tuple[float, ...]]]:
    """Rows ordered by strictly nested supports of sizes r, r-1, ..., 1.

    Triangular patterns (nested multiple sums) have this shape; returns
    (row order, min positive weight per row, the sum v_i of u_j over each
    row's support) or None.  Formed once per config (`ShintaniConfig._flag`).
    """
    if m != r:
        return None
    supports = [frozenset(np.nonzero(lam[l] > 0.0)[0].tolist()) for l in range(m)]
    order = sorted(range(m), key=lambda l: -len(supports[l]))
    chain = [supports[l] for l in order]
    for i, supp in enumerate(chain):
        if len(supp) != r - i:
            return None
        if i > 0 and not supp < chain[i - 1]:
            return None
    mins = [float(lam[l][lam[l] > 0.0].min()) for l in order]
    return tuple(order), tuple(mins), tuple(float(np.sum(u[sorted(supp)])) for supp in chain)


@_ladder_route
def _nested_tail(num, config: ShintaniConfig, theta, sl: np.ndarray, n_shell: int):
    """Tail bound for complete-flag supports via m_l = sum of supported n_j.

    The map n -> (m_1 >= m_2 >= ... >= m_r) is a bijection, m_1 equals the
    total degree, and dropping the ordering constraint splits the tail into a
    one-dimensional tail times full one-dimensional sums.
    """
    flag = config._flag
    if flag is None:
        return math.inf
    order, mins, v = flag
    s_head = float(sl[order[0]])
    bound, growth, _ = theta.envelope_triple
    bound, growth = theta.log_weight.absorb(bound, growth, s_head - 1.0 - growth)
    decay_head = s_head - growth
    if bound == 0.0 or decay_head <= 1.0:
        return 0.0 if bound == 0.0 else math.inf
    k_u = num.pow(v[0], -growth) if growth > 0 and v[0] < 1.0 else 1.0  # max(1, v_0^-growth)
    head = num.pow(n_shell + v[0], 1.0 - decay_head) / (decay_head - 1.0)
    total = bound * k_u * num.pow(mins[0], -s_head) * head
    for i in range(1, len(order)):
        s_l = float(sl[order[i]])
        if s_l <= 1.0:
            return math.inf
        total *= num.pow(mins[i], -s_l) * (
            num.pow(v[i], -s_l) + num.pow(v[i], 1.0 - s_l) / (s_l - 1.0)
        )
    return total


def _finite_support(
    config: ShintaniConfig,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The whole finite support, ascending (degree, point), with its degrees,
    theta values and linear forms, from one enumeration.

    A point whose theta is 0 gets the forms 1, so its term theta(n) prod_l
    L_l(n)^(-beta_l) is exactly 0 at every s, where its true power could
    overflow (0 * inf is nan), and it keeps its place in every sum."""
    (pts,) = _blocks_upto(config, config.theta.support_degree)
    vals = np.asarray(cf.theta_values(config.theta, pts))
    forms = pts @ config.lam.T + config.form_offsets
    forms[vals == 0] = 1.0
    return pts, pts.sum(axis=1), vals, forms


def _finite_tails(
    support: tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray],
    sl: np.ndarray,
    kept: list[int],
    tol: float = -math.inf,
) -> np.ndarray:
    """A finite support's tails at several Re s and shells from one table
    of |terms|: out[i, j] sums |theta(n)| prod_l L_l(n)^(-sl[i, l]) past
    the first kept[j] points of `support` (its `_finite_support`), where
    sl[i] is c @ sigma at one Re s.

    A row multiplies the powers `L_l ** -sl[i, l]` in form order (scalar
    exponents: numpy rounds a broadcast one differently), then |theta|; a
    tail is numpy's pairwise sum of a contiguous row suffix, with the bits
    of the 1-d sum.  No entry depends on the other rows.  Rows go in slices
    of at most _BLOCK entries (one row if a row alone is longer).  A slice
    stops once each of its rows has had a tail <= tol (never at the default
    -inf), and its later entries stay nan.

    A tail below 2^-1022 (0 or subnormal) whose suffix holds a nonzero theta
    with a power prod_l L_l^(-sl_l) below 2^-1022 is summed again in `_Wide`
    (`_log_tail`): rounded up and at least 2^-1074, so no term lost to the
    power's underflow is reported as a 0 tail.  Every other tail keeps its
    bits, those of coefficients below 2^-1022 at a normal power included."""
    _, _, vals, forms = support
    abs_vals = np.abs(vals)
    if min(kept) >= abs_vals.size:  # only empty suffixes: no table
        return np.zeros((len(sl), len(kept)))
    nonzero = np.flatnonzero(abs_vals)
    last = nonzero[-1] if nonzero.size else -1  # a suffix from k <= last holds a nonzero theta
    out = np.full((len(sl), len(kept)), math.nan)
    step = max(_BLOCK // abs_vals.size, 1)
    for lo in range(0, len(sl), step):
        rows = sl[lo : lo + step]
        terms = np.empty((len(rows), abs_vals.size))
        for row, b in zip(terms, rows):
            row[:] = forms[:, 0] ** -b[0]
            for l in range(1, forms.shape[1]):
                row *= forms[:, l] ** -b[l]
        terms *= abs_vals
        done = np.zeros(len(rows), dtype=bool)
        for j, k in enumerate(kept):
            out[lo : lo + step, j] = tails = terms[:, k:].sum(axis=1)
            low = tails < _NORMAL_MIN
            if k <= last and low.any():
                for i in np.flatnonzero(low).tolist():
                    tail = _log_tail(abs_vals[k:], forms[k:], rows[i])
                    if tail is not None:
                        out[lo + i, j] = tails[i] = tail
            done |= tails <= tol
            if done.all():
                break
    return out


def _log_tail(abs_vals: np.ndarray, forms: np.ndarray, b: np.ndarray) -> Optional[float]:
    """sum_n |theta(n)| prod_l L_l(n)^(-b_l) over the points with theta(n) !=
    0, summed as `_Wide` numbers and rounded up; None when no such point's
    power, multiplied up in form order, falls below 2^-1022."""
    total, low = 0.0, False
    for value, row in zip(abs_vals.tolist(), forms.tolist()):
        if value:
            power = 1.0
            for form, b_l in zip(row, b.tolist()):
                power *= _Wide.pow(form, -b_l)
                low = low or float(power) < _NORMAL_MIN
            total = _wide(value) * power + total
    return float(total) if low else None


def _finite_tail(config: ShintaniConfig, sigma: np.ndarray, n_shell: int) -> float:
    """Exact remaining-support sum for finitely supported coefficients."""
    if n_shell >= config.theta.support_degree:
        return 0.0
    support = _finite_support(config)
    kept = int(np.searchsorted(support[1], n_shell, side="right"))
    return float(_finite_tails(support, (config.c @ sigma)[None, :], [kept])[0, 0])


def _geometric_ratio(config: ShintaniConfig, sl: np.ndarray, t0: float) -> float:
    """rho(t0), the ratio-test bound of `_geometric_tail` on consecutive
    heads past degree t0 - 1 (sl = c @ sigma); it falls as t0 grows."""
    usum = config._geometry[0]
    _, growth, g = config.theta.envelope_triple
    rho = g * ((t0 + 2.0) / (t0 + 1.0)) ** growth * (t0 + config.r) / (t0 + 1.0)
    for b in sl:
        if b < 0:
            rho *= ((t0 + 1.0 + usum) / (t0 + usum)) ** (-b)
    return rho * config.theta.log_weight.ratio(t0, t0 + 1.0)


def _geometric_start(config: ShintaniConfig, sigma: np.ndarray, hi: int) -> int:
    """The first shell N <= hi where `_geometric_tail` is finite, that is
    rho(N + 1) < 1 (or the bound is 0), else hi: rho falls with N, so
    `_gallop` from shell 0 finds it without a tail bound."""
    if config.theta.envelope_triple[0] == 0.0:
        return 0
    sl = config.c @ sigma

    def finite(n: int) -> bool:
        return _geometric_ratio(config, sl, float(n + 1)) < 1.0

    return min(_gallop(finite, 0, hi), hi)


def _gallop(passes: Callable[[int], bool], x0: int, hi: int) -> int:
    """The first shell n in [x0, hi] where `passes` holds, given that it
    fails below some shell and holds from it on; hi + 1 when it holds
    nowhere in [x0, hi].

    Probes x0, x0 + 1, x0 + 3, x0 + 7, ... (steps that double), capped at
    hi, up to the first that passes, then bisects between it and the probe
    before it (x0 - 1 when x0 passes)."""
    lo, n, step = x0 - 1, x0, 1  # passes fails at lo (nothing to check at x0 - 1)
    while not passes(n):
        if n >= hi:
            return hi + 1
        lo, n, step = n, min(n + step, hi), 2 * step
    while n - lo > 1:
        mid = (lo + n) // 2
        if passes(mid):
            n = mid
        else:
            lo = mid
    return n


@_tail_route
def _geometric_tail(num, config: ShintaniConfig, sigma: np.ndarray, n_shell: int):
    """Ratio-test majorant when |theta| decays like g^t with g < 1."""
    bound, growth, g = config.theta.envelope_triple
    if g >= 1.0:
        return math.inf
    if bound == 0.0:
        return 0.0
    sl = config.c @ sigma
    usum, row_min, row_max, full_support = config._geometry
    t0 = float(n_shell + 1)
    rho = _geometric_ratio(config, sl, t0)
    if not rho < 1.0:
        return math.inf
    pf = 1.0
    for l, b in enumerate(sl):
        if b >= 0 and not full_support[l]:
            base = float(config.form_offsets[l])  # constant lower bound only
        else:
            base = (row_min[l] if b >= 0 else row_max[l]) * (t0 + usum)
        pf *= num.pow(base, -b)
    head = (
        bound
        * num.pow(g, t0)
        * num.pow(t0 + 1.0, growth)
        * math.comb(int(t0) + config.r - 1, config.r - 1)
        * pf
        * config.theta.log_weight.at(t0)
    )
    return head / (1.0 - rho)


@_tail_route
def _poisson_tail(num, config: ShintaniConfig, sigma: np.ndarray, n_shell: int):
    """Factorial-ratio majorant for sparse support on {j^k - 1}."""
    decomp = config.theta.poisson_decomposition
    if decomp is None or config.r != 1:
        return math.inf
    weight = config.theta.log_weight
    base, rate, b_other, eps_other = decomp
    sl = config.c @ sigma
    forms = list(zip(config.lam[:, 0].tolist(), sl.tolist()))  # (lam_l, Re<c_l, s>)
    u0 = float(config.u[0])
    logj = math.log(base)
    k = 0
    while base**k - 1 <= n_shell:  # exact: past 2^53 a float walk skips a tail point
        k += 1
    total = 0.0
    # a support point past the float range raises OverflowError in both passes: no bound
    for _ in range(100000):
        n = float(base) ** k - 1.0
        n_next = float(base) ** (k + 1) - 1.0
        ratio = (base**rate) * (base**eps_other) / (k + 1.0)
        rl = (n_next + u0) / (n + u0)
        for b in sl:
            if b < 0:
                ratio *= rl ** (-b)
        ratio *= weight.ratio(n, n_next)
        pf = 1.0
        for lam_l, b in forms:  # Python floats: an overflowing power raises
            pf *= num.pow(lam_l * (n + u0), -b)
        log_rate, log_factorial = rate * k * logj, math.lgamma(k + 1.0)
        theta = num.exp(log_rate - log_factorial, log_rate + log_factorial)
        v = theta * b_other * num.pow(n + 1.0, eps_other) * pf * weight.at(n)
        if ratio <= 0.5:
            return total + v + v * ratio / (1.0 - ratio)
        total += v
        k += 1
    return math.inf


def _tail_bound(config: ShintaniConfig, sigma: np.ndarray, n_shell: int) -> float:
    """Certified bound on sum |theta(n)| prod_l L_l(n)^(-<c_l, sigma>) over degree
    > n_shell from theta's structural envelope: the least route (each one
    formula, evaluated by `_two_pass`), inf if none.  A route that comes out
    nan (inf * 0 where a numpy power overflows and a factor underflows to
    0) bounds nothing and is skipped."""
    if config.theta.support_degree is not None:
        return _finite_tail(config, sigma, n_shell)
    routes = (_geometric_tail, _poly_tail, _separable_tail, _nested_tail)
    if config.theta.poisson_decomposition is not None and config.r == 1:
        routes = (_poisson_tail,) + routes  # elsewhere it is inf before any arithmetic
    best = math.inf
    for route in routes:
        x = route(config, sigma, n_shell)
        if x < best:  # false for nan
            best = x
    return best


def tail_bound(config: ShintaniConfig, sigma, n_shell: int) -> float:
    """Certified upper bound on the absolute sum over total degree > n_shell.

    Raises CertificationError when no route gives a finite bound: the
    envelope is too weak relative to sum_l <c_l, sigma> - r and no
    structural route (finite support, geometric decay, sparse factorial
    support) applies, or a route's arithmetic overflows.  Its message
    reports the shell, the envelope growth and log power, and
    sum_l <c_l, sigma> - r.
    """
    _require_valid(config)
    _require_shell(n_shell, top=_LATTICE_MAX)
    sig = as_sigma(sigma, config.d)
    out = _tail_bound(config, sig, n_shell)
    if not math.isfinite(out):
        _, growth, _ = config.theta.envelope_triple
        raise CertificationError(
            f"no certified bound available past shell {n_shell}: every tail route refused; "
            f"envelope growth {growth}, log power {config.theta.log_weight.power}, "
            f"sum_l<c_l,sigma> - r = {float(np.sum(config.c @ sig)) - config.r}"
        )
    return out


# ---------------------------------------------------------------------------
# Lattice enumeration
# ---------------------------------------------------------------------------

def _shells(lo: int, hi: int, rank: int) -> np.ndarray:
    """All nonnegative integer points with lo <= total degree <= hi, shape
    (k, rank), by ascending degree and lexicographic within a degree.

    Built with whole-array operations on every call and never cached: each
    point of rank - 1 splits its last coordinate L into (x, L - x), x = 0..L,
    which keeps both orders.  Rank 0 has one point, of degree 0.
    """
    if rank == 0:
        return np.zeros((int(lo <= 0 <= hi), 0), dtype=np.int64)
    if rank == 1:
        return np.arange(lo, hi + 1, dtype=np.int64).reshape(-1, 1)
    outer = _shells(lo, hi, rank - 1)
    counts = outer[:, -1] + 1
    size = int(counts.sum())
    out = np.empty((size, rank), dtype=np.int64)
    for i in range(rank - 2):
        out[:, i] = np.repeat(outer[:, i], counts)
    out[:, -2] = np.arange(size) - np.repeat(np.cumsum(counts) - counts, counts)
    out[:, -1] = np.repeat(outer[:, -1], counts) - out[:, -2]
    return out


def lattice_count(r: int, n_shell: int) -> int:
    """Number of lattice points with total degree <= n_shell."""
    return math.comb(n_shell + r, r)


def _last_degree(r: int, count: int, lo: int, top: int) -> int:
    """The largest degree h in [lo, top] with lattice_count(r, h) <= count,
    given that lo has it (degree -1, with no points, always does): one
    below the first degree past lo without it (`_gallop`); top itself when
    it has it (rank 0, the rest point of a rank-1 line, has one point at
    every degree)."""
    if lattice_count(r, top) <= count:
        return top
    return _gallop(lambda h: lattice_count(r, h) > count, lo + 1, top) - 1


def _iter_blocks(
    r: int, n_shell: Optional[int] = None, size: int = _BLOCK, grow: int = 1
) -> Iterator[tuple[np.ndarray, int]]:
    """(points, last degree) for the rank-r lattice points of degree <=
    n_shell (every degree in the int64 range when None), in blocks of whole
    shells by ascending degree.  A block ends at the first shell that brings
    it to `size` points, found from `lattice_count` without walking shells,
    and each block's `size` is `grow` times the one before."""
    top = _LATTICE_MAX if n_shell is None else n_shell
    total = lattice_count(r, top)
    lo, done = 0, 0  # done = lattice_count(r, lo - 1)
    while done < total:
        hi = min(_last_degree(r, done + size - 1, lo - 1, top) + 1, top)
        yield _shells(lo, hi, r), hi
        lo, done, size = hi + 1, lattice_count(r, hi), size * grow


def _lattice_blocks(
    config: ShintaniConfig, n_shell: Optional[int] = None, size: int = _BLOCK, grow: int = 1
) -> Iterator[tuple[np.ndarray, int]]:
    """`_iter_blocks` restricted to theta's support: the lattice points of
    degree <= n_shell (every degree when None) where theta may be nonzero.
    An enumerable support is one block, through n_shell or its last degree;
    an unbounded sparse support with no n_shell is one block per support
    degree, up to the int64 range of lattice points.  Where theta.support
    is None the blocks are `_iter_blocks`' whole shells."""
    theta, r = config.theta, config.r
    top = theta.support_degree if n_shell is None else n_shell
    if top is not None:
        pts = theta.support(r, 0, top)
        if pts is not None:
            yield pts, top
            return
        theta.prewarm(top)
    elif theta.support(r, 0, 0) is not None:
        lo, hi = 0, 1
        while lo <= _LATTICE_MAX:
            pts = theta.support(r, lo, hi)
            degrees = pts.sum(axis=1)
            for t in np.unique(degrees).tolist():
                yield pts[degrees == t], t
            lo, hi = hi + 1, 2 * hi + 1
        return
    yield from _iter_blocks(r, top, size, grow)


def _blocks_upto(config: ShintaniConfig, n_shell: int) -> Iterable[np.ndarray]:
    """The points of `_lattice_blocks(config, n_shell)`, block by block."""
    return (pts for pts, _ in _lattice_blocks(config, n_shell))


def _int_power(col: np.ndarray, k: int) -> np.ndarray:
    """col**k for small positive integer k via binary powering."""
    result = None
    base = col
    while k:
        if k & 1:
            result = base if result is None else result * base
        k >>= 1
        if k:
            base = base * base
    return result


def _form_powers(forms: np.ndarray, beta: np.ndarray, is_real: bool) -> np.ndarray:
    """prod_l forms[:, l]^(-beta_l); real fast path avoids log/exp.  At
    complex beta, sum_l log L_l (-beta_l) is summed from 0.0 in index order
    by real ufuncs, not a BLAS matvec (equal bits for m <= 3)."""
    if not is_real:
        logs = np.log(forms)
        out = np.zeros(forms.shape[0], dtype=complex)
        re, im = out.real, out.imag
        for l, b in enumerate((-np.asarray(beta, dtype=complex)).tolist()):
            re += logs[:, l] * b.real
            im += logs[:, l] * b.imag
        return np.exp(out, out=out)
    out = None
    for l in range(forms.shape[1]):
        b = float(beta[l].real)
        col = forms[:, l]
        if b == 0.0:
            continue
        if b.is_integer() and 0 < abs(b) <= 8:
            powed = _int_power(col, int(abs(b)))
            piece = np.reciprocal(powed) if b > 0 else powed
        else:
            piece = col ** (-b)
        out = piece if out is None else out * piece
    return out if out is not None else np.ones(forms.shape[0])


def _exponents(config: ShintaniConfig, pt: ComplexPoint) -> np.ndarray:
    """The (m,) exponents <c_l, s>, real at real s.

    The real parts are always c @ Re s, so every summation route (and the
    tail bounds) uses the same floats: a complex product can round the real
    parts differently, and one ulp in beta_l moves a term by |log L_l| ulps.
    """
    re = config.c @ pt.re
    return re if pt.is_real else re + 1j * (config.c @ pt.im)


def _terms(
    config: ShintaniConfig, pts: np.ndarray, beta: np.ndarray, is_real: bool
) -> tuple[np.ndarray, np.ndarray]:
    """The forms L_l(n) and the terms theta(n) prod_l L_l(n)^(-beta_l) at
    the lattice points `pts` of a `_lattice_blocks` block where theta(n) !=
    0 (every point when theta is 1): theta is taken first
    (`CoefficientSpec.nonzero`, told when the block is whole shells), and a
    point where it is 0 adds nothing to a sum, so its forms and powers are
    never formed."""
    if config.theta.is_one:
        forms = pts @ config.lam.T + config.form_offsets
        return forms, _form_powers(forms, beta, is_real)
    pts, vals = config.theta.nonzero(pts, config.theta.support(config.r, 0, 0) is None)
    forms = pts @ config.lam.T + config.form_offsets
    return forms, vals * _form_powers(forms, beta, is_real)


def _sum_terms(config: ShintaniConfig, pt: ComplexPoint, blocks: Iterable[np.ndarray]) -> complex:
    """sum theta(n) prod_l L_l(n)^(-<c_l, s>) over the points of `blocks`."""
    beta = _exponents(config, pt)
    acc = CompensatedSum()
    for pts in blocks:
        acc.add_array(_terms(config, pts, beta, pt.is_real)[1])
    return acc.value


# ---------------------------------------------------------------------------
# Closed-form line sums (Euler–Maclaurin)
# ---------------------------------------------------------------------------

# B_2, B_4, ..., B_40 as exact fractions (numerator, denominator)
_BERNOULLI_EVEN = (
    (1, 6), (-1, 30), (1, 42), (-1, 30), (5, 66), (-691, 2730), (7, 6),
    (-3617, 510), (43867, 798), (-174611, 330), (854513, 138),
    (-236364091, 2730), (8553103, 6), (-23749461029, 870),
    (8615841276005, 14322), (-7709321041217, 510), (2577687858367, 6),
    (-26315271553053477373, 1919190), (2929993913841559, 6),
    (-261082718496449122051, 13530),
)
# B_2j / (2j)!, j = 1..20, each correctly rounded (integer true division)
_EM_COEFFS = tuple(
    num / (den * math.factorial(2 * j))
    for j, (num, den) in enumerate(_BERNOULLI_EVEN, start=1)
)
_EM_HEAD = 16  # Euler–Maclaurin starts no lower than k + v = 16
_EM_REL = 2.0**-60  # remainder target relative to the shell tail bound
_EM_DIRECT = 1 << 9  # lines with at most this many terms in all are summed directly
_EM_NEWTON = 50  # Newton steps at most for a start point (a handful converge)
_EM_LOG_RISE = 700.0  # an order whose |(b)_2M| passes e^700 is never chosen
_LOG_EM_HEAD = math.log(_EM_HEAD)
_LOG_4 = math.log(4.0)
_EM_ORDER_TERMS = tuple(  # (M, 2M, log (2 pi)^(2M)) for the Bernoulli orders M = 1..20
    (m, 2.0 * m, 2.0 * m * math.log(2.0 * math.pi)) for m in range(1, len(_EM_COEFFS) + 1))


def _horner(coeffs: list, y):
    """sum_i coeffs[i] y^i (y unused for one coefficient)."""
    out = coeffs[-1]
    for c in reversed(coeffs[:-1]):
        out = out * y + c
    return out


def _derivatives(cols: list, y) -> list:
    """P^(a)(y) for a = 0..degree, where P(y) = sum_i cols[i] y^i."""
    return [_horner(cols, y)] + [_horner([col * math.perm(i, a) for i, col in enumerate(cols[a:], a)], y)
                                 for a in range(1, len(cols))]


@functools.lru_cache(maxsize=None)
def _exp_series(j: int) -> tuple[float, ...]:
    """1 / (k! (j + k + 1)), k = 0..18: the Taylor coefficients of E_j."""
    return tuple(1 / (math.factorial(k) * (j + k + 1)) for k in range(19))


def _exp_moments(z: np.ndarray, degree: int) -> list[np.ndarray]:
    """E_j(z) = int_0^1 t^j e^(z t) dt elementwise, for j = 0..degree.

    E_0 = (e^z - 1)/z from expm1, exactly 1 at z = 0.  For j >= 1, where
    |z| <= 1 the Taylor series sum_k z^k / (k! (j + k + 1)), whose terms
    past k = 18 are below 2^-56 of the first; beyond, integration by parts,
    E_j = (e^z - j E_(j-1)) / z, which passes an error in E_(j-1) on times
    j/|z| < j (not at all at degree 1)."""
    if np.iscomplexobj(z):
        x, y = z.real, z.imag
        num = np.expm1(x) * np.cos(y) - 2.0 * np.sin(0.5 * y) ** 2 + 1j * (np.exp(x) * np.sin(y))
    else:
        num = np.expm1(z)
    moments = [np.ones_like(num)]
    np.divide(num, z, out=moments[0], where=z != 0)
    for j in range(1, degree + 1):
        small = np.abs(z) <= 1.0
        near, far = np.where(small, z, 0.0), np.where(small, 2.0, z)
        series = _horner(_exp_series(j), near)
        moments.append(np.where(small, series, (np.exp(far) - j * moments[-1]) / far))
    return moments


def _em_remainder_constants(b: complex, degree: int) -> Iterator[tuple[int, float, float, list]]:
    """(M, log C_M, p_M, alphas_M) for each order M that `_em_remainder_bounds`
    keeps, those with p_M = Re b + 2M - 1 > 0, in increasing M, such that its
    bound for a line P(log x) x^(-b) of degree <= `degree` from X >= 1 on is
        C_M X^(-p_M) sum_c alphas_M[c] Pbar^(c)(log X),
    Pbar the polynomial of the |coefficients| of P.  With
    (b + eps)_2M = sum_a r_a eps^a and r_a0 its first nonzero coefficient
    (a0 = 1 where a factor b + i, i < 2M, is exactly 0, else a0 = 0):
    C_M = 4 |r_a0| (2 pi)^(-2M) / p_M and alphas_M[c] = sum_{a<=c}
    |r_a / r_a0| p_M^(a-c), so alphas_M = (1,) at degree 0 and (0, 1, ...)
    past a zero factor.  log |r_a0| is a sum of logs, one factor at a time,
    and r_a / r_a0 are the coefficients of prod_i (1 + eps/(b + i)) over the
    nonzero factors, times eps for the zero one, so no rising factorial
    overflows; an order whose ratios do (b + i within about 1e-38 of 0),
    or whose alphas do, is skipped.  So is one with |r_a0| > e^700, so that
    every r_(n,a), n < 2M, that `_bernoulli_polys` forms is finite: where
    |b| <= 80 each is below 2^40 120^40 < e^220, and past it every factor
    has |b + i| > 40, so |(b)_n| grows with n and |r_(n,a)| <= C(n,a)
    40^-a |(b)_n| <= |(b)_n| <= |r_a0|."""
    re_b, bb = b.real, (b.real if b.imag == 0.0 else b)
    log_rising, ratio = 0.0, [1.0] + [0.0] * degree  # log |r_a0|, r_a / r_a0
    for order, two_m, log_2pi_2m in _EM_ORDER_TERMS:
        f0, f1 = bb + (two_m - 2.0), bb + (two_m - 1.0)
        if f0 and f1:
            log_rising = log_rising + math.log(abs(f0)) + math.log(abs(f1))
        else:  # the one zero factor: times eps
            log_rising, ratio = log_rising + math.log(abs(f0 or f1)), [0.0] + ratio[:-1]
        if degree:  # times (1 + eps/f0)(1 + eps/f1) = 1 + lin eps + quad eps^2, zero factors left out
            lin, quad = (1 / f0 + 1 / f1, 1 / (f0 * f1)) if f0 and f1 else (1 / (f0 or f1), 0.0)
            for a in range(degree, 0, -1):
                ratio[a] = ratio[a] + ratio[a - 1] * lin + (ratio[a - 2] * quad if a > 1 else 0.0)
        decay = re_b + two_m - 1.0
        if decay > 0.0 and log_rising <= _EM_LOG_RISE:
            alphas = [modulus(ratio[0])]
            for r in ratio[1:]:
                alphas.append(alphas[-1] / decay + modulus(r))
            if math.isfinite(alphas[-1]):  # an inf or nan reaches every later alpha
                yield order, _LOG_4 + log_rising - log_2pi_2m - math.log(decay), decay, alphas


def _derivative_rows(pbar: list) -> list:
    """Row i holds (i + c)!/i! pbar[i + c] for c = 0..degree - i: the
    coefficients of y^i in Pbar^(c), Pbar(y) = sum_i pbar[i] y^i."""
    return [[p * k if (k := math.perm(i + c, c)) > 1 else p for c, p in enumerate(pbar[i:])]
            for i in range(len(pbar))]


def _bound_poly(alphas: list, rows: list) -> list:
    """The coefficients of S(y) = sum_c alphas[c] Pbar^(c)(y) from Pbar's
    `_derivative_rows`: s_i = sum_c alphas[c] (i + c)!/i! pbar[i + c]."""
    return [functools.reduce(operator.add, map(operator.mul, alphas, row)) for row in rows]


def _em_remainder_bounds(b: complex, v: float, h: int, *poly: complex) -> list[tuple[int, float]]:
    """(M, bound) for the orders M = 1..20 with p = Re b + 2M - 1 > 0: the
    Euler–Maclaurin remainder of sum_{k=h}^{K} P(log(k+v)) (k+v)^(-b) with
    M Bernoulli terms, P(y) = sum_i poly[i] y^i (P = 1 when `poly` is
    empty), for every K >= h, where h + v >= 1.

    Proof (Johansson, "Rigorous high-precision computation of the Hurwitz
    zeta function and its derivatives", Numer. Algorithms 2015, Theorem 1,
    with f(x) = P(log x) x^(-b) and x = k + v > 0).  Summation by parts
    against the periodic Bernoulli function B~_2M leaves the remainder
        R = -int_X^(K+v) B~_2M(x - v) / (2M)! f^(2M)(x) dx,  X = h + v.
    For even order, |B~_2M(x)| <= |B_2M| = 2 (2M)! zeta(2M) / (2 pi)^(2M),
    and zeta(2M) <= zeta(2) < 2, so |B~_2M| / (2M)! < 4 (2 pi)^(-2M).
    Since (log x)^i x^(-b) = (-d/db)^i x^(-b), f = P(-d/db) x^(-b), and
    d^n/dx^n x^(-b) = (-1)^n (b)_n x^(-b-n) with the rising factorial
    (b)_n = b (b+1) ... (b+n-1).  With r_(n,a) = [eps^a] (b + eps)_n,
    (b + eps)_n x^(-b-eps) = sum_(a,l) r_(n,a) eps^a (-log x)^l eps^l / l!,
    and the coefficient of eps^i, times (-1)^i i!, is d^i/db^i, so
        f^(n)(x) = (-1)^n x^(-b-n) sum_(a<=deg P) (-1)^a r_(n,a) P^(a)(log x),
    and |x^(-b-n)| = x^(-Re b-n) because x > 0.  The integral over [X, K+v]
    is at most the one over [X, inf), where |P^(a)(log x)| <=
    Pbar^(a)(log x) (log x >= 0), Pbar the polynomial of the |coefficients|
    of P.  With p > 0 and y = log x, int_X^inf x^(-p-1) Q(log x) dx =
    int_(log X)^inf e^(-p y) Q(y) dy = X^(-p) sum_(m>=0) Q^(m)(log X) / p^(m+1)
    for any polynomial Q (integrate by parts), so
        |R| <= 4 (2 pi)^(-2M) X^(-p) sum_c Pbar^(c)(log X)
               sum_(a<=c) |r_(2M,a)| p^(a-c-1),
    which is the form of `_em_remainder_constants`.  At degree <= 1 it is
    C_M X^(-p) (a_M (|w| + |g| log X) + a0_M |g|) for P = w + g y, with
    a_M = 1 and a0_M = 1/p + |(b)_2M' / (b)_2M| where (b)_2M != 0.  Where
    (b)_2M = 0 (b a non-positive integer) the degree-0 term is 0: at degree
    0 f is a polynomial of degree below 2M and 0 is the exact remainder.
    The bound is an integral from X on of a nonnegative function, so it
    falls as X grows, and a line that starts past X keeps the bound at X.
    """
    log_x, rows = math.log(h + v), _derivative_rows([abs(complex(c)) for c in poly or (1.0,)])
    with np.errstate(over="ignore", invalid="ignore"):  # as in floats: inf, and 0 times inf is nan
        bounds = [(const[0], float(_em_line_bound(const, log_x, rows)))
                  for const in _em_remainder_constants(complex(b), max(len(poly) - 1, 0))]
    return [(order, bound if bound == bound else math.inf) for order, bound in bounds]  # nan: no bound


def _em_line_bound(const: tuple, log_x, rows: list):
    """C_M x^(-p_M) S_M(log x), the remainder bound of `_em_remainder_bounds`
    at order M (`const`, its `_em_remainder_constants` entry) of a line
    from x on, Pbar given by its `_derivative_rows` `rows`: one value, or
    one per line where `log_x` and the rows' entries are arrays.  nan
    where C_M x^(-p_M) underflows to 0 and S_M overflows."""
    _, log_c, decay, alphas = const
    return np.exp(log_c - decay * log_x) * _horner(_bound_poly(alphas, rows), log_x)


def _line_powers(x: np.ndarray, b: complex) -> np.ndarray:
    return _form_powers(x.reshape(-1, 1), np.array([b]), b.imag == 0.0)


def _em_sum(
    b: complex, v: np.ndarray, k_max: np.ndarray, weights: np.ndarray, h: np.ndarray, order: int
) -> complex:
    """sum_i sum_{k=0}^{k_max_i} P_i(log(k+v_i)) (k+v_i)^(-b) without
    remainders, where P_i(y) = sum_a weights[i, a] y^a (a 1-d `weights`
    holds degree-0 lines): line i sums its terms k < h_i directly (the heads
    of all lines one flat run, summed in chunks of at most _BLOCK terms
    whatever line they belong to, P_i by Horner) and the rest by
    Euler–Maclaurin over [h_i, k_max_i] (the integral, the two endpoint
    halves and `order` Bernoulli terms), all lines at once.

    With x0 = h_i + v_i, x1 = k_max_i + v_i, y0 = log x0, z = 1 - b and
    L = log(x1/x0), each part is linear in P, and the line's sum is
    sum_c P^(c)(y0) D_c with D_c free of P:
    - the substitution x = x0 e^(L t) gives int_x0^x1 P(log x) x^(-b) dx =
      x0^(1-b) L sum_c P^(c)(y0) L^c / c! E_c(z L) (the t-coefficients of
      P(y0 + L t)), E_c = `_exp_moments`;
    - the Bernoulli terms use -f^(2j-1)(x) = x^(-b-2j+1) sum_a (-1)^a
      r_(2j-1,a) P^(a)(log x), r_(n,a) = [eps^a] (b + eps)_n (see
      `_em_remainder_bounds`), so at each end they are f/x sum_a
      P^(a)(log x) Q_a(1/x^2) with the polynomials `_bernoulli_polys`;
    - at x1, P^(a)(log x1) = sum_(c>=a) P^(c)(y0) L^(c-a) / (c-a)!
      (Taylor's formula, exact for a polynomial).
    At degree 0, D_0 is the sum of a line x^(-b), and the line's sum is
    P D_0."""
    cols = list(weights.reshape(v.size, -1).T)  # the coefficients of y^a, a = 0..degree
    degree = len(cols) - 1
    acc = CompensatedSum()
    counts = np.minimum(h - 1, k_max) + 1  # min(h, k_max + 1), with no int64 overflow at k_max
    head_ends = counts.cumsum()
    starts, total = head_ends - counts, int(head_ends[-1])
    for first in range(0, total, _BLOCK):
        last = min(first + _BLOCK, total)
        # lines lo..hi-1 hold the chunk's terms, line i those of [starts_i, head_ends_i) in [first, last)
        lo, hi = np.searchsorted(head_ends, [first, last - 1], side="right") + (0, 1)
        idx = np.repeat(np.arange(lo, hi), np.minimum(head_ends[lo:hi], last) - np.maximum(starts[lo:hi], first))
        x = (np.arange(first, last) - starts[idx]) + v[idx]
        poly = _horner([col[idx] for col in cols], np.log(x) if degree else None)
        acc.add_array(poly * _line_powers(x, b))
    em = h <= k_max
    if not em.all():
        if not em.any():
            return acc.value
        h, v, k_max, cols = h[em], v[em], k_max[em], [col[em] for col in cols]
    bb = b.real if b.imag == 0.0 else b
    x0 = h + v
    ends = np.concatenate((x0, k_max + v))  # x0 then x1 of every line
    f = _line_powers(ends, b)
    f0, f1 = f[: x0.size], f[x0.size:]
    log_ratio = np.log1p((k_max - h) / x0)
    moments = _exp_moments((1.0 - bb) * log_ratio, degree)
    # D_0 is the integral of x^(-b) plus the endpoint halves, D_c its L^c/c! parts
    tails, taylor = [x0 * f0 * log_ratio * moments[0] + 0.5 * (f0 + f1)], [1.0]
    for c in range(1, degree + 1):
        taylor.append(taylor[-1] * log_ratio / c)
        tails.append(x0 * f0 * log_ratio * taylor[c] * moments[c] + 0.5 * f1 * taylor[c])
    del moments  # not used below: freed, a large line set keeps its peak memory down
    if order:
        y = 1.0 / (ends * ends)
        qs = [_horner(poly, y) for poly in _bernoulli_polys(bb, order, degree)]  # Q_a(1/x^2)
        corr = [f / ends * q for q in qs]
        for c in range(degree + 1):
            tails[c] += corr[c][: x0.size] - corr[c][x0.size:]
            for a in range(c):
                tails[c] -= taylor[c - a] * corr[a][x0.size:]
    derivs = _derivatives(cols, np.log(x0) if degree else None)
    total = derivs[0] * tails[0]
    for c in range(1, degree + 1):
        total += derivs[c] * tails[c]
    acc.add_array(total)
    return acc.value


def _bernoulli_polys(bb: complex, order: int, degree: int) -> list[list]:
    """The coefficients of Q_a(y) = sum_(j<order) (-1)^a B_2(j+1)/(2(j+1))!
    r_(2j+1,a) y^j for a = 0..degree (`_em_sum`).  (-1)^a r_(n,a) is the
    coefficient of eps^a in (b - eps)_n: that of b - eps at n = 1, times
    (b + 2j - 1 - eps)(b + 2j - eps) = prod - total eps + eps^2 per order,
    truncated past eps^degree."""
    rise, higher = bb, [-1.0] + [0.0] * (degree - 1) if degree else []  # eps^0, then eps^1.. of (b - eps)_n
    first, rest = [], []
    for j in range(order):
        if j:
            prod = (bb + 2 * j - 1) * (bb + 2 * j)
            if higher:
                lower, total = [rise] + higher, 2.0 * bb + 4 * j - 1
                higher = [lower[a] * prod - lower[a - 1] * total + (lower[a - 2] if a > 1 else 0.0)
                          for a in range(1, degree + 1)]
            rise *= prod
        first.append(_EM_COEFFS[j] * rise)
        rest.append(higher)
    return [first] + [[c * r for c, r in zip(_EM_COEFFS, col)] for col in zip(*rest)]


def _em_line_sums(
    b: complex, v: np.ndarray, k_max: np.ndarray, weights: np.ndarray, target: float
) -> tuple[complex, float]:
    """sum_i sum_{k=0}^{k_max_i} P_i(log(k+v_i)) (k+v_i)^(-b), P_i(y) =
    sum_a weights[i, a] y^a (a 1-d `weights` holds degree-0 lines), and a
    bound on the Euler–Maclaurin remainders that is at most `target`.

    One Bernoulli order M serves every line: the least (X_M, M) of
    `_em_order`, from Pbar, the polynomial whose coefficients are the sums
    over the lines of |weights[i, a]|.  Euler–Maclaurin starts on every line
    at the first k with k + v_i >= X = X_M.  Each line's bound only falls
    past X, so the weighted total is at most target.  A line's head grows
    with X and never exceeds the line, so no other choice of X has fewer
    head terms.  A line with v_i >= X needs no head; one whose head covers
    it is summed directly with no remainder.  Every line is summed directly
    when the lines hold at most _EM_DIRECT terms in all, when no order
    applies, or when target or Pbar is 0.  NumericError, before any term is
    formed, when the heads hold more than _POINT_BUDGET terms in all.
    """
    b = complex(b)
    weights = weights.reshape(v.size, -1)
    k_len = k_max + 1.0  # in floats: k_max may be the last int64
    x, chosen = math.inf, None  # every line direct
    totals = [float(np.abs(col).sum()) for col in weights.T]  # the coefficients of Pbar
    if k_len.sum() > _EM_DIRECT and target > 0.0 and any(totals):
        x, chosen = _em_order(b, totals, target)
    heads = np.minimum(np.maximum(np.ceil(x - v), 0.0), k_len)
    _require_budget(int(heads.sum()), "Euler–Maclaurin head terms")
    heads = heads.astype(np.int64)
    order = 0 if chosen is None else chosen[0]  # no order: every line direct
    value, remainder = _em_sum(b, v, k_max, weights, heads, order), 0.0
    if chosen is not None:  # the sum first: arrays live across it slow its allocations
        em = heads <= k_max  # lines summed directly have no remainder
        rows = _derivative_rows([np.abs(col[em]) for col in weights.T])
        remainder = float(_em_line_bound(chosen, np.log(heads[em] + v[em]), rows).sum())
    return value, remainder


def _em_order(b: complex, totals: list, target: float) -> tuple[float, Optional[tuple]]:
    """(X_M, the `_em_remainder_constants` entry of M) for the least (X_M,
    M) over the orders M, or (inf, None) when no order applies: the start
    point and order of `_em_line_sums` for lines whose Pbar has the
    coefficients `totals`, not all 0, and a remainder `target` > 0.

    The lines' bounds of `_em_remainder_bounds` at one X sum to B_M(X) =
    C_M X^(-p_M) S_M(log X), S_M(y) = sum_c alphas_M[c] Pbar^(c)(y) =
    sum_i s_i y^i (`_bound_poly`), s_i >= 0.  X_M >= _EM_HEAD is a point
    where B_M is at most target: _EM_HEAD when S_M = 0 (a zero bound).
    Otherwise, in y = log X the condition is psi(y) = p y - log(1 + q(y))
    - c0 >= 0, with q(y) = sum_(i>=1) (s_i/s_0) y^i and c0 = log(C s_0 /
    target), target shrunk by 2^-20 of itself.  B_M is an integral from X
    on of a nonnegative function, so psi increases; it grows at least like
    p y - deg q log y, without bound; and q >= 0, so psi(c0/p) <= 0 and
    every root is at least c0/p.
    - q = 0 (always at degree 0, and where S_M(0) = 0, as S_M = 0 then):
      psi is linear, and X_M = x_lo = max(e^(c0/p), _EM_HEAD), the
      smallest such point.
    - Otherwise (`_em_start`) Newton's method from c0/p, with iterates
      clamped at log _EM_HEAD.  At degree 1, log(1 + kappa y) is concave,
      so psi is convex: Newton steps past the root once and then falls to
      it from above, every iterate after the first with psi >= 0, and
      stopping at any of them keeps the bound.  A higher degree can make
      psi concave in places, so Newton may end below the root; y then
      steps right by steps that double until psi >= -2^-21, which ends
      because psi increases without bound, and the 2^-20 shrink of the
      target covers psi >= -2^-21 (formed to well within that).
    The orders are drawn in increasing M up to the first whose x_lo is
    exact (q = 0) and _EM_HEAD: every later M has X_M >= _EM_HEAD, so
    (X_M, M) is greater.  They are then walked in increasing (x_lo, M),
    each solved where q != 0, until an (x_lo, M) is no less than the least
    (X_M, M) so far, which then holds for the rest too, as X_M >= x_lo.
    """
    log_target = math.log(target * (1.0 - 2.0**-20))
    rows = _derivative_rows(totals)
    orders = []  # (x_lo, M, exact, constants, c0, y)
    for const in _em_remainder_constants(b, len(totals) - 1):
        _, log_c, decay, alphas = const
        s0 = sum(map(operator.mul, alphas, rows[0]))  # S_M(0); S_M = 0 where it is 0
        c0 = log_c + (math.log(s0) - log_target) if s0 > 0.0 else -math.inf
        y = max(c0 / decay, _LOG_EM_HEAD)  # the root where q = 0: psi is linear
        x_lo = max(math.exp(min(y, 700.0)), _EM_HEAD)
        exact = len(rows) == 1 or s0 == 0.0
        orders.append((x_lo, const[0], exact, const, c0, y))
        if exact and x_lo == _EM_HEAD:
            break
    best, chosen = (math.inf, math.inf), None
    for x_lo, order, exact, const, c0, y in sorted(orders):  # by (x_lo, M): no two share M
        if (x_lo, order) >= best:
            break
        x_m = x_lo if exact else _em_start(const[2], const[3], rows, c0, y)
        if (x_m, order) < best:
            best, chosen = (x_m, order), const
    return best[0], chosen


def _em_start(decay: float, alphas: list, rows: list, c0: float, y: float) -> float:
    """The start point X_M = e^y of `_em_line_sums` for an order with
    `decay` p_M and `alphas` (from `_em_remainder_constants`), with S_M the
    `_bound_poly` of the lines' Pbar (`_derivative_rows` `rows`): Newton's
    method on psi from y = c0/decay (clamped at log _EM_HEAD), then steps to
    the right until psi >= -2^-21 (see `_em_order` for the proof).

    The steps run only after Newton has used all _EM_NEWTON steps, for at
    most 1000 log factors.  Proof.  For y >= 0, q' >= 0, so psi' <= p.  Let
    Newton stop at y1 after its step from y0, |y1 - y0| <= 1e-12 y1.  If
    psi(y0) < 0 the step goes right and psi(y0) = -psi'(y0) (y1 - y0), so
    psi(y1) >= psi(y0) >= -p (y1 - y0); if psi(y0) >= 0, psi(y1) >= psi(y0)
    - p (y0 - y1) (the clamp only shortens a step).  Either way psi(y1) >=
    -1e-12 p y1.  Where psi(y1) < 0, p y1 < c0 + log(1 + q(y1)); as
    alphas[c+1] >= alphas[c]/p, s_i <= (p^i/i!) s_0 term by term, so q(y)
    <= (1 + p y)^K - 1 and p y1 < c0 + K log(1 + p y1), with |c0| < 2^15
    (c0 sums at most 43 logs of positive finite floats, each at most 745
    in size, and two constants below 74): p y1 < 5e4 at K <= 1000, and
    psi(y1) > -5e-8, which its float rounding (below 1e-10) keeps above
    -2^-21."""
    s = _bound_poly(alphas, rows)
    q = [0.0] + [si / s[0] for si in s[1:]]  # psi(y) = decay y - log(1 + q(y)) - c0
    slopes = [i * c for i, c in enumerate(q)][1:]  # q'
    for _ in range(_EM_NEWTON):
        val = _horner(q, y)
        psi = decay * y - math.log1p(val) - c0
        y, last = max(y - psi / (decay - _horner(slopes, y) / (1.0 + val)), _LOG_EM_HEAD), y
        if not abs(y - last) > 1e-12 * y:
            break
    step = 2.0**-20 * y
    while y < 700.0 and decay * y - math.log1p(_horner(q, y)) - c0 < -(2.0**-21):
        y, step = y + step, 2.0 * step
    return max(math.exp(min(y, 700.0)), _EM_HEAD)


def _line_column(lam: np.ndarray) -> Optional[tuple[int, np.ndarray]]:
    """The first line coordinate j and its rows S = {l : lam[l, j] > 0}, or None.

    j qualifies when every row of S is the same after division by its entry
    in column j: always for r = 1, and for any column with one positive
    entry.  Those forms are then lam_lj (n_j + v) with one v for all l in S,
    and no other form depends on n_j.
    """
    m, r = lam.shape
    if r == 1:
        return 0, np.arange(m)
    for j in range(r):
        rows = np.flatnonzero(lam[:, j] > 0.0)
        normed = lam[rows] / lam[rows, j : j + 1]
        if (normed == normed[0]).all():
            return j, rows
    return None


def _line_partial_sum(
    config: ShintaniConfig, pt: ComplexPoint, n_shell: int, tail: float
) -> Optional[tuple[complex, float]]:
    """Partial sum over total degree <= n_shell as Euler–Maclaurin line sums,
    and the bound on their remainders.

    Applies when `_line_column` finds a line coordinate j with rows S and
    theta is a rest times K >= 0 log factors on the config's own forms
    (`log_split`), the rest with residue classes along j (constant or
    periodic); returns None otherwise.  With the rest point rho (the
    other r - 1 coordinates, |rho| <= n_shell, from `_iter_blocks`) and
    b = sum_{l in S} <c_l, s>, the terms along n_j = q k + a (q the period
    of the rest along coordinate j, a < q) are
        rest(rho, a) prod_{l not in S} L_l(rho)^(-beta_l)
        prod_{l in S} (q lam_lj)^(-beta_l) (k + v)^(-b),
    with v = (a + v_rho)/q, v_rho = u_j + sum_{i != j} lam_li (rho_i + u_i)/lam_lj
    for l in S, and k <= (n_shell - |rho| - a)/q.  Log factor i,
    sum_l g_il log L_l(n), is A_i + G_i log(k + v) there, because L_l =
    q lam_lj (k + v) for l in S: G_i = sum_{l in S} g_il and A_i =
    sum_{l in S} g_il log(q lam_lj) + sum_{l not in S} g_il log L_l(rho),
    so the line's weight w becomes the polynomial w prod_i (A_i + G_i y) in
    y = log(k + v), of degree K less its zero top coefficients.
    `_em_line_sums` sums all lines with a remainder bound of at most 2^-60
    times `tail` (times the first terms' scale, sum_a |w_a| v^(-Re b),
    when `tail` is 0 or infinite), so adding it to a finite tail bound
    leaves the float unchanged.  NumericError, before any rest point is
    enumerated, when there are more than _POINT_BUDGET of them.

    The lines of rest points of one degree D are one line, merged before
    any rest point is enumerated, when every form lies in S (so no log
    factor sits off S), the rows of S have equal entries in the rest
    columns (v_rho is then u_j + along (D + sum_i u_i) in exact
    arithmetic) and the rest of theta does not vary with rho (a scalar
    from `residue_classes`).  The line at rho = (D, 0, ..., 0) then carries
    the weight of the C(D + r - 2, r - 2) rest points of degree D.  A
    line's remainder bound and its share of Pbar are linear in |w|, so the
    merged lines have the totals of the lines they replace and the same
    remainder target holds; values move only by rounding.  At r = 2 every
    degree has one rest point and the lines are the unmerged ones.
    """
    line = _line_column(config.lam)
    split = None if line is None else config.theta.log_split(config.lam, config.u)
    classes = None if split is None else split[0].residue_classes(line[0])
    if classes is None:
        return None
    (j, rows), (_, logs), (q, theta_on) = line, split, classes
    lam, r, is_real = config.lam, config.r, pt.is_real
    beta = _exponents(config, pt)
    b_sum = beta[rows].sum()
    scale = np.exp(-(beta[rows] @ np.log(lam[rows, j])) - b_sum * math.log(q))
    others = np.array([l for l in range(config.m) if l not in rows], dtype=np.int64)
    rest = [i for i in range(r) if i != j]
    along = lam[rows[0], rest] / lam[rows[0], j]
    lam_o, off_o = lam[others][:, rest], config.form_offsets[others]
    # per log factor: A_i less its rest-point part, G_i, and the g_il off S
    factors = [(g[rows] @ np.log(q * lam[rows, j]), g[rows].sum(), g[others]) for g in logs]
    no_rest = np.zeros((0, r - 1), dtype=np.int64)
    merged = r > 1 and not others.size and (along == along[0]).all() and np.ndim(theta_on(no_rest, 0)) == 0
    _require_budget(n_shell + 1 if merged else lattice_count(r - 1, n_shell), f"rest points through shell {n_shell}")
    if merged:
        # the line of rho depends on |rho| alone: one line per rest degree D,
        # at the rest point (D, 0, ..., 0), weighted by the C(D + r - 2, r - 2)
        # rest points of degree D (r - 2 running sums of ones, exact below 2^53)
        block = np.zeros((n_shell + 1, r - 1), dtype=np.int64)
        block[:, 0] = np.arange(n_shell + 1)
        counts = np.ones(n_shell + 1)
        for _ in range(r - 2):
            counts = counts.cumsum()
        blocks = [(block, scale * counts)]
    else:
        blocks = ((block, scale) for block, _ in _iter_blocks(r - 1, n_shell))
    parts = []  # (v, k_max, weights) of the lines, block by block and class by class
    for block, block_scale in blocks:
        deg = block.sum(axis=1)
        v_rho = config.u[j] + (block + config.u[rest]) @ along
        forms_o = block @ lam_o.T + off_o
        weight = (block_scale * _form_powers(forms_o, beta[others], is_real))[:, None]
        for a_rows, g_sum, g_o in factors:  # times A_i + G_i y
            a_line = (a_rows + np.log(forms_o) @ g_o)[:, None]
            zero = np.zeros((len(weight), 1))
            weight = np.concatenate((weight * a_line, zero), 1) + np.concatenate((zero, weight * g_sum), 1)
        for a in range(min(q, n_shell + 1)):
            theta_a = theta_on(block, a)  # a scalar, or one value per rest point
            w = weight * (theta_a[:, None] if isinstance(theta_a, np.ndarray) else theta_a)
            k_max = (n_shell - a - deg) // q
            line_v = (a + v_rho) / q
            # a line with a nonzero coefficient, found column by column (fast at any width)
            keep = (k_max >= 0) & functools.reduce(np.logical_or, [col != 0 for col in w.T])
            parts.append((line_v[keep], k_max[keep], w[keep]) if not keep.all() else (line_v, k_max, w))
    v, k_max, w = (np.concatenate(arrays) for arrays in zip(*parts))
    if v.size == 0:
        return 0.0j, 0.0
    if np.iscomplexobj(w) and not w.imag.any():
        w = w.real
    size = tail if 0.0 < tail < math.inf else float((sum(map(np.abs, w.T)) * v ** -b_sum.real).sum())
    return _em_line_sums(complex(b_sum), v, k_max, w, _EM_REL * size)


def _partial_sum(
    config: ShintaniConfig, pt: ComplexPoint, n_shell: int, tail: float
) -> tuple[complex, float]:
    """Partial sum over total degree <= n_shell of a config with no finite
    support, and `tail` plus the line sums' remainder bound where line sums
    apply."""
    lines = _line_partial_sum(config, pt, n_shell, tail)
    if lines is not None:
        value, remainder = lines
        return value, tail + remainder
    if config.theta.support(config.r, 0, 0) is None:
        _require_budget(lattice_count(config.r, n_shell), f"lattice points through shell {n_shell}")
    return _sum_terms(config, pt, _blocks_upto(config, n_shell)), tail


def _require_budget(count: int, what: str) -> None:
    """NumericError when one partial sum would walk more than _POINT_BUDGET
    `what`: lattice points (block route), rest points or head terms (line route)."""
    if count > _POINT_BUDGET:
        raise NumericError(f"the partial sum walks {count} {what}, past the budget of {_POINT_BUDGET}")


def _choose_shell(
    config: ShintaniConfig,
    sigmas: np.ndarray,
    tol: float,
    shell_cap: int,
    support: Optional[tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]] = None,
    sl: Optional[np.ndarray] = None,
) -> list[tuple[int, bool, float]]:
    """(shell, certified, its tail bound) at each row sigma of `sigmas`: the
    smallest shell with tail <= tol, capped by the enumerated-point budget.

    A finite support's tails at every row come from one `_finite_tails`
    table; `support` is its `_finite_support` and `sl` the rows' c @ sigma,
    each formed here when not given.  The budget caps the shell at the
    largest support degree with at most shell_cap support points up to it
    (0 when there is none); the result is the smallest support degree at or
    below that cap whose tail is <= tol, else the cap, uncertified.  Past
    the last degree the tail is exactly 0, so an uncapped choice is always
    certified.
    """
    theta = config.theta
    if theta.support_degree is not None:
        if support is None:
            support = _finite_support(config)
        if sl is None:
            sl = np.array([config.c @ sigma for sigma in sigmas])
        deg = support[1].tolist()
        # (support degree, the support points up to it): the tail there sums
        # the terms past those points
        ends = [i for i in range(1, len(deg) + 1) if i == len(deg) or deg[i] != deg[i - 1]]
        shells = [(deg[i - 1], i) for i in ends if i <= shell_cap] or [(0, deg.count(0))]
        chosen = []
        for tails in _finite_tails(support, sl, [kept for _, kept in shells], tol).tolist():
            j = next((j for j, tail in enumerate(tails) if tail <= tol), len(tails) - 1)
            chosen.append((shells[j][0], tails[j] <= tol, tails[j]))
        return chosen
    sparse = theta.support(config.r, 0, 0) is not None
    n_cap = _cap_from_budget(config.r, shell_cap)
    chosen = []
    for sigma in sigmas:
        if sparse:
            # an unbounded sparse support: one candidate shell per support degree
            for _, n in itertools.islice(_lattice_blocks(config), max(shell_cap, 1)):
                tail = _tail_bound(config, sigma, n)
                if tail <= tol:
                    break
        else:
            n, tail = n_cap, _tail_bound(config, sigma, n_cap)
            if tail <= tol:
                n, tail = _first_admissible(config, sigma, tol, n_cap, tail)
        chosen.append((n, tail <= tol, tail))
    return chosen


def _first_admissible(
    config: ShintaniConfig,
    sigma: np.ndarray,
    tol: float,
    hi: int,
    tail_hi: float,
    lo: int = 0,
    tail_lo: float = math.inf,
) -> tuple[int, float]:
    """The first shell n* in [lo, hi] with `_tail_bound` <= tol, and its
    bound, given tail(hi) = tail_hi <= tol and, when lo > 0, tail(lo - 1) =
    tail_lo > tol.

    Proof that n* is found, and that it is the shell bisection of [lo, hi]
    finds.  Every route of `_tail_bound` is non-increasing in the shell N:
    the poly, separable and nested routes are positive constants times
    (N + a)^(-p) or (floor(N/r) + a)^(-p) with a > 0 and p > 0 (sums of such
    terms for the poly route); the geometric route is inf while its ratio
    rho(N + 1) >= 1, and rho falls with N and bounds the ratio of
    consecutive heads, so once finite the head falls and 1/(1 - rho) falls
    with it.  Their minimum is then non-increasing, so the admissible shells
    form the up-set [n*, inf).  The search keeps the bracket lo <= n* <= hi
    with tail(hi) <= tol < tail(lo - 1) (nothing to check at lo = 0), which
    the arguments give it at the start; each probe c in [lo, hi) sets
    hi = c when tail(c) <= tol and lo = c + 1 otherwise, which keeps the
    invariant and shrinks the bracket, and it stops at lo = hi = n*.  Bisection keeps the same invariant, so it ends on
    the same n*.  The monotonicity is that of the exact formulas, and it
    survives the switch from a route's float pass to its wide pass
    (`_two_pass`), which, once taken at shell N, is taken at every later
    shell: a power that can be subnormal falls with N ((N + a)^(-p),
    (floor(N/r) + a)^(-p), g^t; every other power is constant in N or at
    least 1), a value below 2^-1022 stays below it as the route falls, and
    an overflow is in a constant or in a power or binomial that grows with
    N.  Both passes evaluate the same exact formula, the float pass to a few
    ulps and the wide pass rounded up by its margin (`_Wide`; below a
    relative 2^-30 wherever tests/test_tail_routes.py compares the two), so
    rounding could only matter where consecutive shells' tails differ by
    less than that.

    Probes: from lo = 0, shell 0 first, or, when theta decays geometrically,
    the first shell where the geometric route is finite (`_geometric_start`,
    which needs no tail bound), clamped below hi; below that shell rho >= 1
    makes the geometric route inf.  Then log tail is interpolated linearly in
    log(N + 1) between the shells lo - 1 and hi (every polynomial route's
    leading term is a power of N plus a constant; in N itself when theta
    decays geometrically), and the probe is the first shell at or past the
    crossing of log tol.  An end that two probes in a row leave in place
    has its distance to log tol halved (Illinois), which moves the next
    estimate toward it.  When an interpolated probe fails to halve the
    bracket, or no interpolation is possible (an infinite tail at lo - 1),
    the next probe is the midpoint.  So every interpolated probe that does
    not halve the bracket is followed by one that does, and the count stays
    within twice bisection's, plus the first probe and the one at shell 0.
    """
    log_tol = math.log(tol)

    def excess(tail: float) -> float:
        # log(tail / tol); a tail that rounds to 0 is below 2^-1074 and
        # counts as that
        return math.log(max(tail, 2.0**-1074)) - log_tol

    c: Optional[int] = 0 if lo == 0 else None  # the first probe
    if config.theta.envelope_triple[2] < 1.0:
        to_x, from_x = float, float
        if lo == 0:
            c = min(_geometric_start(config, sigma, hi), max(hi - 1, 0))
    else:
        to_x, from_x = math.log1p, math.expm1
    f_lo, f_hi = excess(tail_lo), excess(tail_hi)  # f_lo at shell lo - 1
    last_low, halve = None, False
    while lo < hi:
        width = hi - lo
        interpolated = False
        if c is None:
            c = (lo + hi) // 2
            if lo == 0:
                c = 0
            elif not halve and math.inf > f_lo > f_hi:
                x_lo = to_x(lo - 1)
                estimate = from_x(x_lo + (to_x(hi) - x_lo) * f_lo / (f_lo - f_hi))
                # rounded down by a relative 2^-40, far above the estimate's own
                # rounding, so that an exact crossing is probed at its shell
                c = min(max(lo, math.ceil(estimate * (1.0 - 2.0**-40))), hi - 1)
                interpolated = True
        tail = _tail_bound(config, sigma, c)
        low = not tail <= tol
        if low:
            lo, f_lo = c + 1, excess(tail)
        else:
            hi, tail_hi, f_hi = c, tail, excess(tail)
        if low == last_low:  # Illinois: an end kept twice weighs half as much
            if low:
                f_hi *= 0.5
            else:
                f_lo *= 0.5
        last_low, c = low, None
        halve = interpolated and 2 * (hi - lo) > width
    return hi, tail_hi


def _cap_from_budget(r: int, shell_cap: int) -> int:
    """The largest shell with at most shell_cap lattice points up to it, or
    0 when there is none (shell_cap itself always has more), and at most
    _LATTICE_MAX: a budget past the int64 lattice is the lattice.  Shell N
    holds N + 1 points at r = 1, so there it is a closed form."""
    if r == 1:
        return max(min(shell_cap - 1, _LATTICE_MAX), 0)
    return max(_last_degree(r, shell_cap, -1, min(shell_cap, _LATTICE_MAX)), 0)


def evaluate(
    config: ShintaniConfig,
    s,
    tol: float = 1e-10,
    shell_cap: int = DEFAULT_SHELL_CAP,
) -> EvalResult:
    """Certified evaluation of the series at s.

    The shell count is the smallest one whose tail bound is <= tol; if the
    enumerated-point budget shell_cap is hit first, the partial sum is
    returned flagged non-certified with the achieved bound.  A partial sum
    that is not finite raises NumericError, and so does one that would walk
    more than _POINT_BUDGET points (`_require_budget`), before it starts.
    This is the one-point case of `evaluate_many`.
    """
    _require_valid(config)
    _require_shell(shell_cap, "shell_cap")
    pt = as_point(s, config.d)
    return _evaluate(config, pt.re[None, :], pt.im[None, :], tol, shell_cap, (pt,))[0]


def evaluate_many(
    config: ShintaniConfig,
    points,
    tol: float = 1e-10,
    shell_cap: int = DEFAULT_SHELL_CAP,
) -> list[EvalResult]:
    """`evaluate` at every point of `points`, a sequence of points or a
    (P, d) complex array, in one call.

    Every field of the i-th result equals evaluate(config, points[i], tol,
    shell_cap) bit for bit, and a bad point raises the error `evaluate`
    raises for it.  The checks run once per call (the region check once per
    distinct Re s), the shell is chosen once per distinct Re s, and a finite
    support is enumerated once for all points.  Nothing is kept between
    calls.
    """
    _require_valid(config)
    _require_shell(shell_cap, "shell_cap")
    re, im = _as_points(points, config.d)
    return _evaluate(config, re, im, tol, shell_cap)


def _as_points(points, d: int) -> tuple[np.ndarray, np.ndarray]:
    """(Re s, Im s), each (P, d), of a sequence of points or a (P, d) array.

    The points are coerced and checked as one array; anything that is not a
    finite (P, d) array is coerced point by point with `as_point`, which
    raises the error `evaluate` raises for a bad point.
    """
    try:
        arr = np.asarray(points, dtype=complex)
    except (TypeError, ValueError):  # ragged, or ComplexPoint items
        arr = None
    if arr is not None:
        if arr.ndim == 0:
            raise ConfigError("points must be a sequence of points or a (P, d) array")
        if arr.ndim == 1 and d == 1:
            arr = arr.reshape(-1, 1)
        if arr.ndim == 2 and arr.shape[1] == d and np.isfinite(arr).all():
            return np.ascontiguousarray(arr.real), np.ascontiguousarray(arr.imag)
    pts = [as_point(s, d) for s in points]
    re = np.array([pt.re for pt in pts]).reshape(len(pts), d)
    im = np.array([pt.im for pt in pts]).reshape(len(pts), d)
    return re, im


def _evaluate(
    config: ShintaniConfig,
    re: np.ndarray,
    im: np.ndarray,
    tol: float,
    shell_cap: int,
    points: Optional[tuple[ComplexPoint, ...]] = None,
    n_shell: Optional[int] = None,
) -> list[EvalResult]:
    """`evaluate_many` at the points Re s = re[p], Im s = im[p] of a valid
    config; `points`, when given, holds them as ComplexPoints.  With
    `n_shell` it is `evaluate_partial`: every point is summed through that
    shell, certified when its tail is finite, and tol and the region go
    unchecked.

    c @ sigma, the region check and the shell depend only on sigma = Re s:
    each is formed once per distinct row of `re` (equal bit for bit), the
    shells by one `_choose_shell` call.  A finite support is enumerated,
    and theta evaluated on it, once, and `_finite_sums` sums every point;
    any other config sums each point's `_partial_sum`.
    """
    if n_shell is None and not tol > 0:
        raise ConfigError(f"tolerance must be positive, got {tol}")
    if not len(re):
        return []
    if len(re) == 1:
        sigmas, inverse = re[:1], [0]
    else:
        rows = re.view(np.dtype((np.void, re.itemsize * re.shape[1])))[:, 0]
        _, first, inverse = np.unique(rows, return_index=True, return_inverse=True)
        sigmas, inverse = re[first], inverse.tolist()
    sl = np.array([config.c @ sigma for sigma in sigmas])
    convergent = config.theta.is_entire or all(_region_holds(config, x) for x in sl)
    if n_shell is None and not convergent:
        raise RegionError("point outside certified convergence region: needs "
                          f"min_l Re<c_l,s> > r/m = {config.r / config.m}")
    support = None if config.theta.support_degree is None else _finite_support(config)
    if n_shell is None:
        shells = _choose_shell(config, sigmas, tol, shell_cap, support, sl)
    else:
        if support is None:
            tails = [_tail_bound(config, sigma, n_shell) for sigma in sigmas]
        else:
            kept = int(np.searchsorted(support[1], n_shell, side="right"))
            tails = _finite_tails(support, sl, [kept])[:, 0].tolist()
        shells = [(n_shell, math.isfinite(tail), tail) for tail in tails]
    if support is None:
        if points is None:  # rows of read-only arrays: no copy per point
            points = tuple(map(ComplexPoint, frozen_array(re), frozen_array(im)))
        sums = [_partial_sum(config, pt, shells[u][0], shells[u][2]) for pt, u in zip(points, inverse)]
    else:
        kept = np.searchsorted(support[1], [n for n, _, _ in shells], side="right").tolist()
        values = _finite_sums(config, support, sl[inverse], im, [kept[u] for u in inverse])
        sums = [(value, shells[u][2]) for value, u in zip(values, inverse)]
    return [_result(v, tail, shells[u][0], shells[u][1]) for (v, tail), u in zip(sums, inverse)]


def _result(value: complex, tail: float, n_shell: int, certified: bool) -> EvalResult:
    """The EvalResult of a partial sum, or NumericError when the sum is not
    finite (its terms overflow): a nan or infinite value is never returned."""
    if not cmath.isfinite(value):
        raise NumericError(f"partial sum through shell {n_shell} is not finite: {value}")
    return EvalResult(value=value, tail_bound=tail, shells_used=n_shell, certified=certified)


def _finite_sums(
    config: ShintaniConfig,
    support: tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray],
    beta_re: np.ndarray,
    im: np.ndarray,
    kept: list[int],
) -> list[complex]:
    """The partial sums of a finite support (its `_finite_support`) at P
    points: at point p, the sum of theta(n) prod_l L_l(n)^(-beta_l) over its
    first kept[p] support points, with Re beta_l = beta_re[p, l] (c @ Re s,
    as the tail bounds form it) and Im s = im[p].

    Each entry is theta(n) exp(x + i y) with the exponent's real and
    imaginary parts formed apart, x = sum_l Re beta_l (-log L_l(n)) and
    y = sum_l Im beta_l (-log L_l(n)) summed over l in index order, with
    Im beta_l = sum_j c_lj Im s_j in index order; theta times the exponential
    is formed from real products.  Every step is a real ufunc or one complex
    exp per entry, so no product is fused or summed by BLAS and an entry
    does not depend on the other points: a point's sum has the same bits
    alone, among other points and in any slice.

    The points are taken by ascending kept, in slices that form their terms
    as one (points x support) array up to the slice's largest kept, at most
    _BLOCK entries (one point's terms if they are more).  Each point's sum
    is a row sum, which numpy takes pairwise as it takes a 1-d sum; adding
    0.0 to it gives the value a fresh `CompensatedSum` has after adding it
    (x + 0.0 folds -0.0 to +0.0 and keeps every other finite x, and the
    compensation stays 0.0), and a sum that is not finite stays so.
    """
    _, _, vals, forms = support
    order = sorted(range(len(kept)), key=kept.__getitem__)
    ks = [kept[p] for p in order]
    # (Re, Im) of beta_l at the points by ascending kept, Im beta_l summed over j
    beta = np.empty((len(ks), config.m, 2))
    beta[:, :, 0] = beta_re[order]
    im = im[order]
    np.multiply(im[:, 0, None], config.c[:, 0], out=beta[:, :, 1])
    for j in range(1, config.d):
        beta[:, :, 1] += im[:, j, None] * config.c[:, j]
    # over the whole support, whatever the call keeps; beta * (-log L) = -(beta log L)
    neg_log = -np.log(forms)[:, :, None]
    step = max(_BLOCK // max(ks[-1], 1), 1)  # kept is 0 where no support point is kept
    sums = np.empty(len(ks), dtype=complex)
    for lo in range(0, len(ks), step):
        hi = min(lo + step, len(ks))
        width = ks[hi - 1]
        # x[i, k] = (Re, Im) of the exponent, then of the term, at support point k
        x = np.multiply(beta[lo:hi, None, 0], neg_log[:width, 0])
        for l in range(1, config.m):
            x += beta[lo:hi, None, l] * neg_log[:width, l]
        terms = x.view(complex)[:, :, 0]
        np.exp(terms, out=terms)
        if np.iscomplexobj(vals):  # (a + ib)(x + iy) = (ax - by) + i(ay + bx)
            b_times = x * vals.imag[:width, None]
            x *= vals.real[:width, None]
            x[:, :, 0] -= b_times[:, :, 1]
            x[:, :, 1] += b_times[:, :, 0]
            del b_times
        else:
            x *= vals[:width, None]
        first = lo
        for i in range(lo + 1, hi + 1):  # runs of equal kept are row ranges
            if i == hi or ks[i] != ks[first]:
                sums[first:i] = terms[first - lo : i - lo, : ks[first]].sum(axis=1)
                first = i
        del x, terms  # one slice's terms in memory at a time
    return [value for _, value in sorted(zip(order, (sums + 0.0).tolist()))]  # callers' order


def evaluate_partial(config: ShintaniConfig, s, n_shell: int) -> EvalResult:
    """Plain partial sum over total degree <= n_shell, with its tail bound;
    NumericError when the sum is not finite or would walk more than
    _POINT_BUDGET points (`_require_budget`), ConfigError past the int64
    lattice.  It is `_evaluate` at that shell, so each config takes the
    summation route `evaluate` takes."""
    _require_valid(config)
    _require_shell(n_shell, top=_LATTICE_MAX)
    pt = as_point(s, config.d)
    return _evaluate(config, pt.re[None, :], pt.im[None, :], math.nan, 0, (pt,), n_shell)[0]


def _require_shell(n_shell, name: str = "shell index", top: Optional[int] = None) -> None:
    """ConfigError unless n_shell is an integer >= 0 (a bool or a float is
    none), and at most `top` when given."""
    if isinstance(n_shell, bool) or not isinstance(n_shell, (int, np.integer)) or n_shell < 0:
        raise ConfigError(f"{name} must be an integer >= 0, got {n_shell!r}")
    if top is not None and n_shell > top:
        raise ConfigError(f"{name} {n_shell} is past the int64 lattice's last shell {top}")


# ---------------------------------------------------------------------------
# Derivative closure
# ---------------------------------------------------------------------------

def differentiate(config: ShintaniConfig, axis: int) -> ShintaniConfig:
    """Config whose evaluation is d/ds_h of the original's, h = axis in 1..d.

    The coefficient picks up the factor sum_q (-c_q,axis) log L_q(n), a
    log_factor whose structural envelope S (offset + log(t + 1)), with
    S = sum_q |c_q,axis|, the tail routes absorb into a power of t + 1.
    Differentiated k times, a line config keeps the line route, with k log
    factors (`CoefficientSpec.log_split`).  A moment of an atom table
    (`distributions.moment`) is the partial sum of the series
    differentiated once per power of each coordinate, and its bound that
    series' tail.
    """
    _require_valid(config)
    if not 1 <= axis <= config.d:
        raise ConfigError(f"axis must be in 1..{config.d}, got {axis}")
    coeffs = tuple((-config.c[:, axis - 1]).tolist())
    logf = CoefficientSpec.log_factor(coeffs, config.lam, config.u)
    return replace(config, theta=config.theta.times(logf))


# ---------------------------------------------------------------------------
# Named constructions
# ---------------------------------------------------------------------------

def _one_form(u: float, theta: CoefficientSpec) -> ShintaniConfig:
    return ShintaniConfig(d=1, m=1, r=1, lam=[[1.0]], u=[float(u)], c=[[1.0]], theta=theta)


SPECIAL_KINDS = (
    "riemann", "hurwitz", "lerch", "lerch_transcendent", "euler_zagier",
    "barnes", "generalized_barnes", "riemann_derivative",
)


def make_special(kind: str, **params) -> ShintaniConfig:
    """Named configurations, one for each of SPECIAL_KINDS: riemann,
    hurwitz(u), lerch(u, v), lerch_transcendent(u, q), euler_zagier(r, u),
    barnes(r, lam, u), generalized_barnes(m, r, lam, u), riemann_derivative."""
    if kind == "riemann":
        _expect_params(kind, params, set())
        return _one_form(1.0, CoefficientSpec.constant(1.0))
    if kind == "hurwitz":
        _expect_params(kind, params, {"u"})
        u = _param(kind, params, "u")
        if not 0.0 < u <= 1.0:
            raise ConfigError(f"hurwitz needs 0 < u <= 1, got {u}")
        return _one_form(u, CoefficientSpec.constant(1.0))
    if kind == "lerch":
        _expect_params(kind, params, {"u", "v"})
        u = _param(kind, params, "u")
        if u <= 0.0:
            raise ConfigError(f"lerch needs u > 0, got {u}")
        v = _param(kind, params, "v")
        q = complex(math.cos(2 * math.pi * v), math.sin(2 * math.pi * v))
        return _one_form(u, CoefficientSpec.geometric((q,)))
    if kind == "lerch_transcendent":
        _expect_params(kind, params, {"u", "q"})
        u = _param(kind, params, "u")
        q = _param(kind, params, "q", complex)
        if u <= 0.0:
            raise ConfigError(f"lerch_transcendent needs u > 0, got {u}")
        if not 0.0 < modulus(q) < 1.0:
            raise ConfigError(f"lerch_transcendent needs 0 < |q| < 1, got |q| = {modulus(q)}")
        return _one_form(u, CoefficientSpec.geometric((q,)))
    if kind == "euler_zagier":
        _expect_params(kind, params, {"r", "u"})
        r = _param(kind, params, "r", int)
        u = _real_array(kind, params, "u")
        if r < 1 or u.shape != (r,):
            raise ConfigError("euler_zagier needs r >= 1 and a length-r u vector")
        # unconstrained-index form: row l sums coordinates j >= l, with
        # shifted offsets u'_l = 1 + u_l - u_(l+1) and u'_r = 1 + u_r
        shifted = 1.0 + u - np.append(u[1:], 0.0)
        if np.any(shifted <= 0.0):
            raise ConfigError("euler_zagier needs 1 + u_l > u_(l+1) for the re-indexed form")
        lam = np.triu(np.ones((r, r)))
        return ShintaniConfig(
            d=r, m=r, r=r, lam=lam, u=shifted, c=np.eye(r),
            theta=CoefficientSpec.constant(1.0),
        )
    if kind == "barnes":
        _expect_params(kind, params, {"r", "lam", "u"})
        r = _param(kind, params, "r", int)
        lam = _real_array(kind, params, "lam")
        u = _param(kind, params, "u")
        if r < 1 or lam.shape != (r,) or np.any(lam <= 0) or u <= 0:
            raise ConfigError("barnes needs r >= 1, positive length-r lam, u > 0")
        offsets = u / (r * lam)  # sum_j lam_j u_j = u
        return ShintaniConfig(
            d=1, m=1, r=r, lam=lam.reshape(1, r), u=offsets,
            c=np.array([[1.0]]), theta=CoefficientSpec.constant(1.0),
        )
    if kind == "generalized_barnes":
        _expect_params(kind, params, {"m", "r", "lam", "u"})
        m, r = _param(kind, params, "m", int), _param(kind, params, "r", int)
        lam = _real_array(kind, params, "lam")
        u = _real_array(kind, params, "u")
        if lam.shape != (m, r) or u.shape != (r,):
            raise ConfigError("generalized_barnes needs lam of shape (m, r), u of length r")
        if np.any(lam <= 0) or np.any(u <= 0):
            raise ConfigError("generalized_barnes needs positive lam and u")
        return ShintaniConfig(
            d=m, m=m, r=r, lam=lam, u=u, c=np.eye(m),
            theta=CoefficientSpec.constant(1.0),
        )
    if kind == "riemann_derivative":
        _expect_params(kind, params, set())
        return differentiate(make_special("riemann"), 1)
    raise ConfigError(f"unknown special kind {kind!r}")


def _expect_params(kind: str, params: dict, required: set, optional: set = frozenset()) -> None:
    extra = set(params) - required - optional
    missing = required - set(params)
    if extra:
        raise ConfigError(f"{kind} got unexpected parameters {sorted(extra)}")
    if missing:
        raise ConfigError(f"{kind} missing parameters {sorted(missing)}")


def _param(kind: str, params: dict, name: str, of: type = float, default=None):
    """params[name] (default where absent) as `of` (int, float or complex);
    ConfigError naming kind and name unless it is a finite number, real
    unless `of` is complex and integral if it is int (a bool is none)."""
    v = params.get(name, default)
    try:
        number = isinstance(v, numbers.Complex if of is complex else numbers.Real)
        z = complex(v) if number and not isinstance(v, bool) else math.nan
    except OverflowError:  # an int past the float range
        z = math.nan
    if cmath.isfinite(z) and (of is not int or z.real.is_integer()):
        return of(v)
    what = {int: "an integer", float: "a finite real number", complex: "a finite number"}[of]
    raise ConfigError(f"{kind} parameter {name!r} must be {what}, got {v!r}")


def _real_array(kind: str, params: dict, name: str) -> np.ndarray:
    """params[name] as a float array, each entry checked by `_param`."""
    items = np.asarray(params[name], dtype=object)
    reals = [_param(kind, {name: x}, name) for x in items.ravel().tolist()]
    return np.array(reals, dtype=float).reshape(items.shape)
