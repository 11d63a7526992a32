"""Multidimensional Shintani zeta configurations and certified evaluation.

A configuration assembles linear forms L_l(n) = sum_j lam_lj (n_j + u_j)
with complex exponents <c_l, s> and a lattice coefficient family theta.
It copies its arrays read-only and validates itself once, when built.
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
`evaluate` is its one-point case.  A finite support is enumerated, and
theta evaluated on it, once per call: each degree's tail is a suffix sum
of one term array per Re s, and one kernel, `_finite_sums`, forms the
partial sums of every point, real or complex, alone or batched, for any
m and d.  Its terms are (points x support) arrays, formed a slice of
points at a time from real products and sums, so that every entry, and a
point's sum, has the same bits whatever else the call evaluates.

Tail certificates come from four routes, any of which may apply:
exact remaining-support sums (finite support), a factorial-ratio majorant
(sparse j^k - 1 support), a geometric-ratio majorant (|q| < 1 decay), and
integral comparison against the total-degree envelope.  The integral route
has two variants: the dense chain for strictly positive lam, and a
matched-coordinate product bound for identity/triangular zero patterns.

The shell choice and its tail bound are the same for every config; only
the partial sum through the chosen shell is computed two ways.  With
constant or periodic theta and a line coordinate j (every form that
contains n_j is the same multiple of one form: always for r = 1, column 0
of euler_zagier, any column of barnes), it is a sum of Euler–Maclaurin
line sums (Johansson 2015), one per rest point of the other r - 1
coordinates and residue class of n_j, all computed in one array kernel.
Their certified remainder, at most 2^-60 times the tail bound, is added to
the reported bound.  Every other config, including any log_factor theta,
enumerates the lattice in blocks.  Rounding error is uncertified on both
routes.
"""

from __future__ import annotations

import cmath
import itertools
import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable, Iterator, Optional

import numpy as np

from . import coefficients as cf
from .coefficients import _LATTICE_MAX, CoefficientSpec
from .errors import CertificationError, ConfigError, NumericError, RegionError
from .summation import CompensatedSum

DEFAULT_SHELL_CAP = 10**6
_BLOCK = 1 << 21


@dataclass(frozen=True)
class ComplexPoint:
    """A point s = sigma + i t in C^d, stored as real and imaginary parts."""

    re: np.ndarray
    im: np.ndarray

    def __post_init__(self) -> None:
        object.__setattr__(self, "re", np.atleast_1d(np.asarray(self.re, dtype=float)))
        object.__setattr__(self, "im", np.atleast_1d(np.asarray(self.im, dtype=float)))
        if self.re.shape != self.im.shape or self.re.ndim != 1:
            raise ConfigError("ComplexPoint needs matching 1-d re and im vectors")
        if not all(map(math.isfinite, self.re.tolist() + self.im.tolist())):
            raise ConfigError(f"point components must be finite, got re {self.re}, im {self.im}")
        self.re.setflags(write=False)
        self.im.setflags(write=False)

    @property
    def d(self) -> int:
        return int(self.re.size)

    @property
    def values(self) -> np.ndarray:
        return self.re + 1j * self.im

    def conj(self) -> "ComplexPoint":
        return ComplexPoint(self.re.copy(), -self.im)

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
            arr = np.array(getattr(self, name), dtype=float)  # a copy the caller cannot write
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)
        # every field is immutable from here on, so the report is computed once
        object.__setattr__(self, "_report", _check_config(self))

    @property
    def form_offsets(self) -> np.ndarray:
        """w_l = sum_j lam_lj u_j, the value of each linear form at n = 0."""
        return self.lam @ self.u


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
    return _region_holds_sigma(config, as_point(s, config.d).re)


def _region_holds_sigma(config: ShintaniConfig, sigma: np.ndarray) -> bool:
    # every Re<c_l, s> above r/m (a nan fails), compared as Python floats:
    # it runs once per evaluation and in three tail routes per tail bound
    bound = config.r / config.m
    return all(x > bound for x in (config.c @ sigma).tolist())


def absolutely_convergent_at(config: ShintaniConfig, s) -> bool:
    """Region membership, or a coefficient family convergent for every s."""
    return _convergent_at_sigma(config, as_point(s, config.d).re)


def _convergent_at_sigma(config: ShintaniConfig, sigma: np.ndarray) -> bool:
    return _region_holds_sigma(config, sigma) or config.theta.is_entire


# ---------------------------------------------------------------------------
# Certified tail bounds
# ---------------------------------------------------------------------------

def _abs_form_powers(forms: np.ndarray, sl: np.ndarray) -> np.ndarray:
    """prod_l forms[:, l]^(-sl[l]) for real exponents."""
    out = np.ones(forms.shape[0])
    for l, b in enumerate(sl):
        out *= forms[:, l] ** (-b)
    return out


def _poly_tail(config: ShintaniConfig, sigma: np.ndarray, n_shell: int) -> float:
    """Integral-comparison bound for strictly positive lam.

    Partitions lattice points of total degree > N by their set of zero
    coordinates and maps each class onto disjoint unit cubes; this keeps the
    convergence proof's integral constant while staying a genuine upper bound
    for every lattice rank.
    """
    if not _region_holds_sigma(config, sigma) or (config.lam <= 0.0).any():
        return math.inf
    r = config.r
    sl = config.c @ sigma
    s_total = float(sl.sum())
    bound, growth, _ = config.theta.envelope_triple
    bound, growth = config.theta.log_weight.absorb(bound, growth, s_total - r - growth)
    big_g = s_total - growth
    if big_g <= r:
        return math.inf
    if bound == 0.0:
        return 0.0
    lam_min = float(config.lam.min())
    ru = r * float(config.u.min())
    k_u = max(1.0, ru ** (-growth)) if growth > 0 else 1.0
    amp = bound * k_u * lam_min ** (-s_total)
    total = 0.0
    for j in range(1, r + 1):  # j = number of free (nonzero) coordinates
        y = max(0.0, n_shell + 1.0 - j)
        total += (
            math.comb(r, r - j)
            * (y + ru) ** (j - big_g)
            / (math.factorial(j - 1) * (big_g - j))
        )
    return amp * total


@lru_cache(maxsize=256)
def _best_matching(lam_bytes: bytes, m: int, r: int) -> Optional[tuple[int, ...]]:
    """Permutation pi with lam[l, pi(l)] > 0 maximizing the weight product."""
    if m != r or r > 7:
        return None
    lam = np.frombuffer(lam_bytes, dtype=float).reshape(m, r)
    best, best_score = None, 0.0
    for perm in itertools.permutations(range(r)):
        score = float(np.prod([lam[l, perm[l]] for l in range(r)]))
        if score > best_score:
            best, best_score = perm, score
    return best


def _separable_tail(config: ShintaniConfig, sigma: np.ndarray, n_shell: int) -> float:
    """Matched-coordinate product bound for zero-pattern lam (m == r).

    Drops every unmatched (nonnegative) term of each form, leaving an
    independent product over coordinates; the tail then splits by which
    coordinate exceeds N/r.
    """
    if config.m != config.r:
        return math.inf
    if not _region_holds_sigma(config, sigma):
        return math.inf
    r = config.r
    perm = _best_matching(config.lam.tobytes(), config.m, config.r)
    if perm is None:
        return math.inf
    env = config.theta.per_coordinate_envelope(r)
    if env is None:
        return math.inf
    sl = config.c @ sigma
    full = np.empty(r)  # F_j: full 1-dim sums
    tails = np.empty(r)  # T_j: 1-dim tails past floor(N/r)
    m_start = n_shell // r
    for l in range(r):
        j = perm[l]
        lam_lj = float(config.lam[l, j])
        u_j = float(config.u[j])
        b_j, eps_j = env[j]
        s_l = float(sl[l])
        decay = s_l - eps_j
        if decay <= 1.0:
            return math.inf
        k_u = max(1.0, u_j ** (-eps_j)) if eps_j > 0 else 1.0
        amp = b_j * k_u * lam_lj ** (-s_l)
        full[j] = amp * (u_j ** (-decay) + u_j ** (1.0 - decay) / (decay - 1.0))
        tails[j] = amp * (m_start + u_j) ** (1.0 - decay) / (decay - 1.0)
    total = 0.0
    for j in range(r):
        others = np.prod(np.delete(full, j)) if r > 1 else 1.0
        total += tails[j] * others
    return float(total)


@lru_cache(maxsize=256)
def _flag_structure(
    lam_bytes: bytes, m: int, r: int
) -> Optional[tuple[tuple[int, ...], tuple[float, ...], tuple[frozenset, ...]]]:
    """Rows ordered by strictly nested supports of sizes r, r-1, ..., 1.

    Triangular patterns (nested multiple sums) have this shape; returns
    (row order, min positive weight per row, supports) or None.
    """
    if m != r:
        return None
    lam = np.frombuffer(lam_bytes, dtype=float).reshape(m, r)
    supports = [frozenset(np.nonzero(lam[l] > 0.0)[0].tolist()) for l in range(m)]
    order = sorted(range(m), key=lambda l: -len(supports[l]))
    chain = [supports[l] for l in order]
    for i, supp in enumerate(chain):
        if len(supp) != r - i:
            return None
        if i > 0 and not supp < chain[i - 1]:
            return None
    mins = [float(lam[l][lam[l] > 0.0].min()) for l in order]
    return tuple(order), tuple(mins), tuple(chain)


def _nested_tail(config: ShintaniConfig, sigma: np.ndarray, n_shell: int) -> float:
    """Tail bound for complete-flag supports via m_l = sum of supported n_j.

    The map n -> (m_1 >= m_2 >= ... >= m_r) is a bijection, m_1 equals the
    total degree, and dropping the ordering constraint splits the tail into a
    one-dimensional tail times full one-dimensional sums.
    """
    flag = _flag_structure(config.lam.tobytes(), config.m, config.r)
    if flag is None or not _region_holds_sigma(config, sigma):
        return math.inf
    order, mins, chain = flag
    sl = config.c @ sigma
    bound, growth, _ = config.theta.envelope_triple
    s_head = float(sl[order[0]])
    bound, growth = config.theta.log_weight.absorb(bound, growth, s_head - 1.0 - growth)
    if bound == 0.0:
        return 0.0
    decay_head = s_head - growth
    if decay_head <= 1.0:
        return math.inf
    v = [float(np.sum(config.u[sorted(supp)])) for supp in chain]
    k_u = max(1.0, v[0] ** (-growth)) if growth > 0 else 1.0
    amp = bound * k_u
    head = (n_shell + v[0]) ** (1.0 - decay_head) / (decay_head - 1.0)
    total = amp * mins[0] ** (-s_head) * head
    for i in range(1, len(order)):
        s_l = float(sl[order[i]])
        if s_l <= 1.0:
            return math.inf
        total *= mins[i] ** (-s_l) * (
            v[i] ** (-s_l) + v[i] ** (1.0 - s_l) / (s_l - 1.0)
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


def _support_abs_terms(vals: np.ndarray, forms: np.ndarray, sl: np.ndarray) -> np.ndarray:
    """|theta(n)| prod_l L_l(n)^(-sl_l) at every support point, sl = c @
    sigma: each tail is the sum of a suffix of these terms."""
    return np.abs(vals) * _abs_form_powers(forms, sl)


def _finite_tail(config: ShintaniConfig, sigma: np.ndarray, n_shell: int) -> float:
    """Exact remaining-support sum for finitely supported coefficients."""
    deg = config.theta.support_degree
    if deg is None:
        return math.inf
    if n_shell >= deg:
        return 0.0
    _, degrees, vals, forms = _finite_support(config)
    terms = _support_abs_terms(vals, forms, config.c @ sigma)
    return float(np.sum(terms[np.searchsorted(degrees, n_shell, side="right"):]))


def _geometric_ratio(config: ShintaniConfig, sl: np.ndarray, usum: float, t0: float) -> float:
    """rho(t0), the ratio-test bound of `_geometric_tail` on consecutive
    heads past degree t0 - 1 (sl = c @ sigma, usum = sum_j u_j); it falls
    as t0 grows."""
    _, growth, g = config.theta.envelope_triple
    rho = g * ((t0 + 2.0) / (t0 + 1.0)) ** growth * (t0 + config.r) / (t0 + 1.0)
    for b in sl:
        if b < 0:
            rho *= ((t0 + 1.0 + usum) / (t0 + usum)) ** (-b)
    return rho * config.theta.log_weight.ratio(t0, t0 + 1.0)


def _geometric_start(config: ShintaniConfig, sigma: np.ndarray, hi: int) -> int:
    """The first shell N <= hi where `_geometric_tail` is finite, that is
    rho(N + 1) < 1 (or the bound is 0), else hi: rho falls with N, so a
    gallop from shell 0 and a bisection of its last step find it without a
    tail bound."""
    if config.theta.envelope_triple[0] == 0.0:
        return 0
    sl = config.c @ sigma
    usum = float(np.sum(config.u))

    def finite(n: int) -> bool:
        return _geometric_ratio(config, sl, usum, float(n + 1)) < 1.0

    lo, n, step = -1, 0, 1  # rho(lo + 1) >= 1 (nothing to check at lo = -1)
    while not finite(n):
        if n >= hi:
            return hi
        lo, n, step = n, min(n + step, hi), 2 * step
    while n - lo > 1:
        mid = (lo + n) // 2
        if finite(mid):
            n = mid
        else:
            lo = mid
    return n


def _geometric_tail(config: ShintaniConfig, sigma: np.ndarray, n_shell: int) -> float:
    """Ratio-test majorant when |theta| decays like g^t with g < 1."""
    bound, growth, g = config.theta.envelope_triple
    weight = config.theta.log_weight
    if g >= 1.0:
        return math.inf
    if bound == 0.0:
        return 0.0
    r = config.r
    sl = config.c @ sigma
    usum = float(np.sum(config.u))
    offsets = config.form_offsets
    row_min = config.lam.min(axis=1)
    row_max = config.lam.max(axis=1)
    full_support = config.lam.min(axis=1) > 0.0

    def lower_base(l: int, t: float) -> float:
        if full_support[l]:
            return row_min[l] * (t + usum)
        return float(offsets[l])  # constant lower bound only

    def head(t: float) -> float:
        pf = 1.0
        for l, b in enumerate(sl):
            base = lower_base(l, t) if b >= 0 else row_max[l] * (t + usum)
            pf *= base ** (-b)
        return (
            bound
            * g**t
            * (t + 1.0) ** growth
            * math.comb(int(t) + r - 1, r - 1)
            * pf
            * weight.at(t)
        )

    t0 = float(n_shell + 1)
    rho = _geometric_ratio(config, sl, usum, t0)
    if not rho < 1.0:
        return math.inf
    return head(t0) / (1.0 - rho)


def _poisson_tail(config: ShintaniConfig, sigma: np.ndarray, n_shell: int) -> float:
    """Factorial-ratio majorant for sparse support on {j^k - 1}."""
    decomp = config.theta.poisson_decomposition
    if decomp is None or config.r != 1:
        return math.inf
    weight = config.theta.log_weight
    base, rate, b_other, eps_other = decomp
    sl = config.c @ sigma
    lam = config.lam[:, 0]
    u0 = float(config.u[0])
    logj = math.log(base)

    def term(k: int) -> float:
        n = float(base) ** k - 1.0
        log_theta = rate * k * logj - math.lgamma(k + 1.0)
        forms = lam * (n + u0)
        pf = float(np.prod(forms ** (-sl)))
        v = math.exp(log_theta) * b_other * (n + 1.0) ** eps_other * pf * weight.at(n)
        if not math.isfinite(v):
            # at sigma < 0 the power overflows to inf where the factorial weight
            # is tiny or 0 (inf * 0 = nan): the term is formed in logarithms
            logs = [math.log(f) if f > 0.0 else -math.inf for f in (b_other, weight.at(n))]
            log_v = log_theta - float(sl @ np.log(forms)) + eps_other * math.log(n + 1.0)
            v = math.exp(log_v + math.fsum(logs))
        return v

    k = 0
    while base**k - 1 <= n_shell:  # exact: past 2^53 a float walk skips a tail point
        k += 1
    total = 0.0
    try:
        for _ in range(100000):
            n = float(base) ** k - 1.0
            n_next = float(base) ** (k + 1) - 1.0
            ratio = (base**rate) * (base**eps_other) / (k + 1.0)
            rl = (n_next + u0) / (n + u0)
            for b in sl:
                if b < 0:
                    ratio *= rl ** (-b)
            ratio *= weight.ratio(n, n_next)
            v = term(k)
            if ratio <= 0.5:
                return total + v + v * ratio / (1.0 - ratio)
            total += v
            k += 1
    except OverflowError:  # a support point or a term past the float range: no bound
        pass
    return math.inf


def _tail_bound(config: ShintaniConfig, sigma: np.ndarray, n_shell: int) -> float:
    """Certified bound on sum |theta(n)| prod_l L_l(n)^(-<c_l, sigma>) over degree
    > n_shell from theta's structural envelope: the least route, inf if none.
    A route that comes out nan (inf * 0 where a power overflows and a
    factor underflows) bounds nothing and is skipped."""
    if config.theta.support_degree is not None:
        return _finite_tail(config, sigma, n_shell)
    routes = []
    if config.theta.poisson_decomposition is not None and config.r == 1:
        routes.append(_poisson_tail(config, sigma, n_shell))
    routes.append(_geometric_tail(config, sigma, n_shell))
    routes.append(_poly_tail(config, sigma, n_shell))
    routes.append(_separable_tail(config, sigma, n_shell))
    routes.append(_nested_tail(config, sigma, n_shell))
    best = math.inf
    for x in routes:
        if x < best:  # false for nan
            best = x
    return float(best)


def tail_bound(config: ShintaniConfig, sigma, n_shell: int) -> float:
    """Certified upper bound on the absolute sum over total degree > n_shell.

    Raises CertificationError when the envelope is too weak relative to
    sum_l <c_l, sigma> - r and no structural route (finite support, geometric
    decay, sparse factorial support) applies.
    """
    _require_valid(config)
    _require_shell(n_shell)
    sig = as_sigma(sigma, config.d)
    out = _tail_bound(config, sig, n_shell)
    if not math.isfinite(out):
        _, growth, _ = config.theta.envelope_triple
        raise CertificationError(
            f"no certified bound available: structural envelope growth {growth} "
            f"(log power {config.theta.log_weight.power}) >= sum_l<c_l,sigma> - r = "
            f"{float(np.sum(config.c @ sig)) - config.r}"
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
    given that lo has it (degree -1, with no points, always does).

    Gallops up from lo by doubling steps, then bisects the last step."""
    step, hi = 1, lo
    while lo < top:
        hi = min(lo + step, top)
        if lattice_count(r, hi) > count:
            break
        lo, step = hi, 2 * step
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if lattice_count(r, mid) <= count:
            lo = mid
        else:
            hi = mid
    return lo


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
    degree, up to the int64 range of lattice points."""
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
    """prod_l forms[:, l]^(-beta_l); real fast path avoids log/exp."""
    if not is_real:
        return np.exp(np.log(forms) @ (-beta))
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
    """The forms L_l(n) at the lattice points `pts` and the terms
    theta(n) prod_l L_l(n)^(-beta_l)."""
    forms = pts @ config.lam.T + config.form_offsets
    terms = _form_powers(forms, beta, is_real)
    if not config.theta.is_one:
        terms = np.asarray(cf.theta_values(config.theta, pts)) * terms
    return forms, terms


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
_EM_MAX_HEAD = 1 << 16  # a line that needs a longer direct head is left to the block route
_EM_REL = 2.0**-60  # remainder target relative to the shell tail bound
_EM_DIRECT = 1 << 9  # lines with at most this many terms in all are summed directly
_EM_ORDERS = np.arange(1, len(_EM_COEFFS) + 1)


def _expm1_ratio(z: np.ndarray) -> np.ndarray:
    """(e^z - 1) / z elementwise, accurate near z = 0 (exactly 1 there)."""
    if np.iscomplexobj(z):
        x, y = z.real, z.imag
        num = np.expm1(x) * np.cos(y) - 2.0 * np.sin(0.5 * y) ** 2 + 1j * (np.exp(x) * np.sin(y))
    else:
        num = np.expm1(z)
    out = np.ones_like(num)
    np.divide(num, z, out=out, where=z != 0)
    return out


def _em_remainder_constants(b: complex) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The orders M that `_em_remainder_bounds` keeps, with log C_M and
    p_M = Re b + 2M - 1 > 0 such that its bound is C_M (h+v)^(-p_M).  The
    last order has log C_M = -inf when the remainder is exactly 0."""
    with np.errstate(divide="ignore"):  # log 0 = -inf for a zero factor
        log_rising = np.cumsum(np.log(np.abs(b + np.arange(2 * _EM_ORDERS.size))))[1::2]
    decay = b.real + 2.0 * _EM_ORDERS - 1.0
    zero = log_rising == -math.inf
    keep = (decay > 0.0) | zero
    if zero.any():
        keep &= _EM_ORDERS <= _EM_ORDERS[zero][0]
        decay = np.where(zero, np.maximum(decay, 1.0), decay)
    log_c = (
        math.log(4.0) + log_rising - _EM_ORDERS * (2.0 * math.log(2.0 * math.pi))
        - np.log(np.where(keep, decay, 1.0))
    )
    return _EM_ORDERS[keep], log_c[keep], decay[keep]


def _em_remainder_bounds(b: complex, v: float, h: int) -> Iterator[tuple[int, float]]:
    """(M, bound) for M = 1..20: the Euler–Maclaurin remainder of
    sum_{k=h}^{K} (k+v)^(-b) with M Bernoulli terms, for every K >= h.

    Proof (Johansson, "Rigorous high-precision computation of the Hurwitz
    zeta function and its derivatives", Numer. Algorithms 2015, Theorem 1,
    with f(x) = (x+v)^(-b), v > 0).  Summation by parts against the periodic
    Bernoulli function B~_2M leaves the remainder
        R = -int_h^K B~_2M(x) / (2M)! f^(2M)(x) dx.
    For even order, |B~_2M(x)| <= |B_2M| = 2 (2M)! zeta(2M) / (2 pi)^(2M),
    and zeta(2M) <= zeta(2) < 2, so |B~_2M| / (2M)! < 4 (2 pi)^(-2M).
    f^(2M)(x) = (b)_2M (x+v)^(-b-2M) with the rising factorial
    (b)_2M = b (b+1) ... (b+2M-1), and |(x+v)^(-b-2M)| = (x+v)^(-Re b-2M)
    because x + v > 0.  When Re b + 2M > 1 the integral over [h, K] is at
    most the one over [h, inf), which gives
        |R| <= 4 |(b)_2M| (2 pi)^(-2M) (h+v)^(1-Re b-2M) / (Re b + 2M - 1).
    Orders with Re b + 2M <= 1 are skipped.  The bound is formed in
    logarithms, so large rising factorials cannot overflow.  A zero factor
    of (b)_2M (b a non-positive integer) makes f a polynomial of degree
    below 2M and the remainder exactly 0.
    """
    orders, log_c, decay = _em_remainder_constants(b)
    return zip(orders.tolist(), np.exp(log_c - decay * math.log(h + v)).tolist())


def _line_powers(x: np.ndarray, b: complex) -> np.ndarray:
    return _form_powers(x.reshape(-1, 1), np.array([b]), b.imag == 0.0)


def _em_sum(
    b: complex, v: np.ndarray, k_max: np.ndarray, weights: np.ndarray,
    h: np.ndarray, order: int,
) -> complex:
    """sum_i weights_i sum_{k=0}^{k_max_i} (k+v_i)^(-b) without remainders:
    line i sums its terms k < h_i directly (all heads in one flat array) and
    the rest by Euler–Maclaurin over [h_i, k_max_i] (the integral, the two
    endpoint halves and `order` Bernoulli terms), all lines at once."""
    acc = CompensatedSum()
    counts = np.minimum(h, k_max + 1)
    lines = np.flatnonzero(counts)
    counts = counts[lines]
    ends = counts.cumsum()
    start = 0
    while start < lines.size:  # heads in chunks of at most _BLOCK terms
        first = int(ends[start] - counts[start])
        stop = max(int(np.searchsorted(ends, first + _BLOCK, side="right")), start + 1)
        rep = counts[start:stop]
        idx = np.repeat(lines[start:stop], rep)
        k = np.arange(first, int(ends[stop - 1])) - np.repeat(ends[start:stop] - rep, rep)
        acc.add_array(weights[idx] * _line_powers(k + v[idx], b))
        start = stop
    em = h <= k_max
    if not em.all():
        if not em.any():
            return acc.value
        h, v, k_max, weights = h[em], v[em], k_max[em], weights[em]
    bb = b.real if b.imag == 0.0 else b
    x0 = h + v
    ends = np.concatenate((x0, k_max + v))  # x0 then x1 of every line
    f = _line_powers(ends, b)
    f0, f1 = f[: x0.size], f[x0.size:]
    log_ratio = np.log1p((k_max - h) / x0)
    # int_x0^x1 x^(-b) dx = x0^(1-b) (e^((1-b) L) - 1) / (1-b), L = log(x1/x0)
    tails = x0 * f0 * log_ratio * _expm1_ratio((1.0 - bb) * log_ratio) + 0.5 * (f0 + f1)
    if order:
        # -f^(2j-1)(x) = (b)_(2j-1) x^(-b-2j+1) = f(x)/x (b)_(2j-1) y^(j-1) with
        # y = 1/x^2: the Bernoulli terms are f/x times a polynomial in y (Horner)
        coeffs, rise = [], bb
        for j in range(order):
            if j:
                rise *= (bb + 2 * j - 1) * (bb + 2 * j)
            coeffs.append(_EM_COEFFS[j] * rise)
        y = 1.0 / (ends * ends)
        poly = coeffs[-1]
        for c in reversed(coeffs[:-1]):
            poly = poly * y + c
        corr = f / ends * poly
        tails += corr[: x0.size] - corr[x0.size:]
    acc.add_array(weights * tails)
    return acc.value


def _em_line_sum(b: complex, v: float, k_max: int, h: int, order: int) -> complex:
    """sum_{k=0}^{k_max} (k+v)^(-b) without its remainder, for one line."""
    return _em_sum(b, np.array([float(v)]), np.array([k_max]), np.array([1.0]), np.array([h]), order)


def _em_line_sums(
    b: complex, v: np.ndarray, k_max: np.ndarray, weights: np.ndarray, target: float
) -> Optional[tuple[complex, float]]:
    """sum_i weights_i sum_{k=0}^{k_max_i} (k+v_i)^(-b), and a bound on the
    Euler–Maclaurin remainders that is at most `target`.

    One Bernoulli order M serves every line.  With W = sum_i |weights_i|, let
    X_M >= _EM_HEAD be the smallest point with W C_M X_M^(-p_M) <= target
    (C_M, p_M from `_em_remainder_constants`).  Euler–Maclaurin starts on
    every line at the first k with k + v_i >= X = min_M X_M, with the first
    order M that reaches it; each line's remainder is then at most
    C_M X^(-p_M), so the weighted total is at most target.  A line's head
    grows with X and never exceeds the line, so no other choice of X has
    fewer head terms.  A line with v_i >= X needs no head; one whose head
    covers it is summed directly with no remainder.  Every line is summed
    directly when the lines hold at most _EM_DIRECT terms in all, when no
    order applies, or when target or W is 0.  Returns None when a line
    needs more than _EM_MAX_HEAD direct terms.
    """
    b = complex(b)
    k_len = k_max + 1
    x, order, log_c, decay = math.inf, 0, 0.0, 1.0  # every line direct
    total_w = float(np.abs(weights).sum())
    if k_len.sum() > _EM_DIRECT and target > 0.0 and total_w > 0.0:
        orders, log_cs, decays = _em_remainder_constants(b)
        if orders.size:
            log_budget = math.log(total_w) - math.log(target * (1.0 - 2.0**-20))
            # exp(-inf) = 0 where the remainder is exactly 0
            xs = np.maximum(np.exp(np.minimum((log_cs + log_budget) / decays, 700.0)), _EM_HEAD)
            i = int(np.argmin(xs))
            x, order, log_c, decay = float(xs[i]), int(orders[i]), float(log_cs[i]), float(decays[i])
    heads = np.minimum(np.maximum(np.ceil(x - v), 0.0), k_len).astype(np.int64)
    if heads.max() > _EM_MAX_HEAD:
        return None
    em = heads <= k_max
    remainder = float((np.abs(weights[em]) * np.exp(log_c - decay * np.log(heads[em] + v[em]))).sum())
    return _em_sum(b, v, k_max, weights, heads, order), remainder


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
    theta has residue classes along j (constant or periodic theta); returns
    None otherwise.  With the rest point rho (the other r - 1 coordinates,
    |rho| <= n_shell, from `_iter_blocks`) and b = sum_{l in S} <c_l, s>,
    the terms along n_j = q k + a (q the period of theta along coordinate j,
    a < q) are
        theta(rho, a) prod_{l not in S} L_l(rho)^(-beta_l)
        prod_{l in S} (q lam_lj)^(-beta_l) (k + v)^(-b),
    with v = (a + v_rho)/q, v_rho = u_j + sum_{i != j} lam_li (rho_i + u_i)/lam_lj
    for l in S, and k <= (n_shell - |rho| - a)/q.  `_em_line_sums` sums all
    lines with a remainder bound of at most 2^-60 times `tail` (times the
    weighted first terms of the lines when `tail` is 0 or infinite), so
    adding it to a finite tail bound leaves the float unchanged.  Also None
    when a line would need more than _EM_MAX_HEAD direct terms (Re b below
    about -38).
    """
    line = _line_column(config.lam)
    if line is None:
        return None
    j, rows = line
    classes = config.theta.residue_classes(j)
    if classes is None:
        return None
    q, theta_on = classes
    lam, r = config.lam, config.r
    is_real = pt.is_real
    beta = _exponents(config, pt)
    b_sum = beta[rows].sum()
    scale = np.exp(-(beta[rows] @ np.log(lam[rows, j])) - b_sum * math.log(q))
    others = np.array([l for l in range(config.m) if l not in rows], dtype=np.int64)
    rest = [i for i in range(r) if i != j]
    along = lam[rows[0], rest] / lam[rows[0], j]
    lam_o, off_o = lam[others][:, rest], config.form_offsets[others]
    vs, ks, ws = [], [], []
    for block, _ in _iter_blocks(r - 1, n_shell):
        deg = block.sum(axis=1)
        v_rho = config.u[j] + (block + config.u[rest]) @ along
        weight = scale * _form_powers(block @ lam_o.T + off_o, beta[others], is_real)
        for a in range(min(q, n_shell + 1)):
            w = weight * theta_on(block, a)
            k_max = (n_shell - a - deg) // q
            line_v = (a + v_rho) / q
            keep = (k_max >= 0) & (w != 0)
            if not keep.all():
                line_v, k_max, w = line_v[keep], k_max[keep], w[keep]
            vs.append(line_v)
            ks.append(k_max)
            ws.append(w)
    v, k_max, w = (np.concatenate(parts or [np.zeros(0)]) for parts in (vs, ks, ws))
    if v.size == 0:
        return 0.0j, 0.0
    if np.iscomplexobj(w) and not w.imag.any():
        w = w.real
    if 0.0 < tail < math.inf:
        target = _EM_REL * tail
    else:
        target = _EM_REL * float((np.abs(w) * v ** -b_sum.real).sum())
    return _em_line_sums(complex(b_sum), v, k_max, w, target)


def _partial_sum(
    config: ShintaniConfig, pt: ComplexPoint, n_shell: int, tail: float
) -> tuple[complex, float]:
    """Partial sum over total degree <= n_shell, and `tail` plus the line
    sums' remainder bound where line sums apply.  A finite support's sum
    comes from `_finite_sums`, as in `evaluate`."""
    if config.theta.support_degree is not None:
        support = _finite_support(config)
        kept = int(np.searchsorted(support[1], n_shell, side="right"))
        (value,) = _finite_sums(config, support, (config.c @ pt.re)[None, :], pt.im[None, :], [kept])
        return value, tail
    lines = _line_partial_sum(config, pt, n_shell, tail)
    if lines is not None:
        value, remainder = lines
        return value, tail + remainder
    return _sum_terms(config, pt, _blocks_upto(config, n_shell)), tail


def _choose_shell(
    config: ShintaniConfig,
    sigma: np.ndarray,
    tol: float,
    shell_cap: int,
    support: Optional[tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]] = None,
) -> tuple[int, bool, float]:
    """Smallest shell with tail <= tol, capped by the enumerated-point budget:
    (shell, certified, its tail bound).  `support`, for a finite support, is
    its `_finite_support`, enumerated here when not given."""
    theta = config.theta
    if theta.support_degree is not None:
        if support is None:
            support = _finite_support(config)
        return _finite_shell(config, sigma, tol, shell_cap, support)
    if theta.support(config.r, 0, 0) is not None:
        # an unbounded sparse support: one candidate shell per support degree
        for _, n in itertools.islice(_lattice_blocks(config), max(shell_cap, 1)):
            tail = _tail_bound(config, sigma, n)
            if tail <= tol:
                return n, True, tail
        return n, False, tail

    n_cap = _cap_from_budget(config.r, shell_cap)
    tail = _tail_bound(config, sigma, n_cap)
    if not tail <= tol:
        return n_cap, False, tail
    n, tail = _first_admissible(config, sigma, tol, n_cap, tail)
    return n, True, tail


def _finite_shell(
    config: ShintaniConfig,
    sigma: np.ndarray,
    tol: float,
    shell_cap: int,
    support: tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray],
) -> tuple[int, bool, float]:
    """`_choose_shell` for a finite support, from its `_finite_support`.

    The tail at a support degree n is the sum of the terms of degree > n, the
    same suffix `_finite_tail` sums.  The budget caps the shell at the
    largest support degree with at most shell_cap support points up to it
    (0 when there is none); the result is the smallest support degree at or
    below that cap whose tail is <= tol, else the cap, uncertified.  Past
    the last degree the tail is exactly 0, so an uncapped choice is always
    certified.
    """
    _, degrees, vals, forms = support
    terms = _support_abs_terms(vals, forms, config.c @ sigma)
    deg = degrees.tolist()
    # (support degree, the support points up to it): the tail there sums the
    # terms past those points
    ends = [i for i in range(1, len(deg) + 1) if i == len(deg) or deg[i] != deg[i - 1]]
    shells = [(deg[i - 1], i) for i in ends if i <= shell_cap] or [(0, deg.count(0))]
    for n, kept in shells:
        tail = float(terms[kept:].sum())
        if tail <= tol:
            break
    return n, tail <= tol, tail


def _first_admissible(
    config: ShintaniConfig, sigma: np.ndarray, tol: float, hi: int, tail_hi: float
) -> tuple[int, float]:
    """The first shell n* <= hi with `_tail_bound` <= tol, and its bound,
    given tail(hi) = tail_hi <= tol.

    Proof that n* is found, and that it is the shell bisection of [0, hi]
    finds.  Every route of `_tail_bound` is non-increasing in the shell N:
    the poly, separable and nested routes are positive constants times
    (N + a)^(-p) or (floor(N/r) + a)^(-p) with a > 0 and p > 0 (sums of such
    terms for the poly route); the geometric route is inf while its ratio
    rho(N + 1) >= 1, and rho falls with N and bounds the ratio of
    consecutive heads, so once finite the head falls and 1/(1 - rho) falls
    with it.  Their minimum is then non-increasing, so the admissible shells
    form the up-set [n*, inf).  The search keeps the bracket lo <= n* <= hi
    with tail(hi) <= tol < tail(lo - 1) (nothing to check at lo = 0); each
    probe c in [lo, hi) sets hi = c when tail(c) <= tol and lo = c + 1
    otherwise, which keeps the invariant and shrinks the bracket, and it
    stops at lo = hi = n*.  Bisection keeps the same invariant, so it ends on
    the same n*.  The monotonicity is that of the exact formulas; rounding
    could only matter where consecutive shells' tails differ by an ulp.

    Probes: shell 0 first, or, when theta decays geometrically, the first
    shell where the geometric route is finite (`_geometric_start`, which
    needs no tail bound), clamped below hi; below that shell rho >= 1 makes
    the geometric route inf.  Then log tail is interpolated linearly in
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

    c: Optional[int] = 0  # the first probe
    if config.theta.envelope_triple[2] < 1.0:
        to_x, from_x = float, float
        c = min(_geometric_start(config, sigma, hi), max(hi - 1, 0))
    else:
        to_x, from_x = math.log1p, math.expm1
    lo, f_lo, f_hi = 0, math.inf, excess(tail_hi)  # f_lo at shell lo - 1
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
    0 when there is none (shell_cap itself always has more)."""
    return max(_last_degree(r, shell_cap, -1, shell_cap), 0)


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
    that is not finite raises NumericError.  This is the one-point case of
    `evaluate_many`.
    """
    _require_valid(config)
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
) -> list[EvalResult]:
    """`evaluate_many` at the points Re s = re[p], Im s = im[p] of a valid
    config; `points`, when given, holds them as ComplexPoints.

    The shell depends only on sigma = Re s, so the region check and the
    shell choice run once for each distinct row of `re` (rows that are equal
    bit for bit).  A finite support is enumerated, and theta evaluated on
    it, once for all points, and `_finite_sums` sums every point through
    the support points up to its shell; every other config sums each
    point's `_partial_sum` through the shell of its sigma.
    """
    if not tol > 0:
        raise ConfigError(f"tolerance must be positive, got {tol}")
    if not len(re):
        return []
    if len(re) == 1:
        sigmas, inverse = [re[0]], [0]
    else:
        rows = re.view(np.dtype((np.void, re.itemsize * re.shape[1])))[:, 0]
        _, first, inverse = np.unique(rows, return_index=True, return_inverse=True)
        sigmas, inverse = list(re[first]), inverse.tolist()
    for sigma in sigmas:
        if not _convergent_at_sigma(config, sigma):
            raise RegionError(
                "point outside certified convergence region: needs "
                f"min_l Re<c_l,s> > r/m = {config.r / config.m}"
            )
    support = None if config.theta.support_degree is None else _finite_support(config)
    shells = [_choose_shell(config, sigma, tol, shell_cap, support) for sigma in sigmas]
    if support is None:
        if points is None:
            points = tuple(map(ComplexPoint, re, im))
        sums = [_partial_sum(config, pt, shells[u][0], shells[u][2]) for pt, u in zip(points, inverse)]
    else:
        kept = np.searchsorted(support[1], [n for n, _, _ in shells], side="right").tolist()
        beta_re = np.array([config.c @ sigma for sigma in sigmas])[inverse]
        values = _finite_sums(config, support, beta_re, im, [kept[u] for u in inverse])
        sums = [(value, shells[u][2]) for value, u in zip(values, inverse)]
    return [
        _result(value, tail, shells[u][0], shells[u][1]) for (value, tail), u in zip(sums, inverse)
    ]


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
    NumericError when the sum is not finite."""
    _require_valid(config)
    _require_shell(n_shell)
    pt = as_point(s, config.d)
    value, tail = _partial_sum(config, pt, n_shell, _tail_bound(config, pt.re, n_shell))
    return _result(value, tail, n_shell, math.isfinite(tail))


def _require_shell(n_shell) -> None:
    if isinstance(n_shell, bool) or not isinstance(n_shell, (int, np.integer)) or n_shell < 0:
        raise ConfigError(f"shell index must be an integer >= 0, got {n_shell!r}")


# ---------------------------------------------------------------------------
# Derivative closure
# ---------------------------------------------------------------------------

def differentiate(config: ShintaniConfig, axis: int) -> ShintaniConfig:
    """Config whose evaluation is d/ds_h of the original's, h = axis in 1..d.

    The coefficient picks up the factor sum_q (-c_q,axis) log L_q(n), a
    log_factor whose structural envelope S (offset + log(t + 1)), with
    S = sum_q |c_q,axis|, the tail routes absorb into a power of t + 1.  A
    moment's certified bound (`distributions.moment`) is the tail of the
    series differentiated once per power of each coordinate.
    """
    _require_valid(config)
    if not 1 <= axis <= config.d:
        raise ConfigError(f"axis must be in 1..{config.d}, got {axis}")
    coeffs = tuple((-config.c[:, axis - 1]).tolist())
    logf = CoefficientSpec.log_factor(coeffs, config.lam, config.u)
    return ShintaniConfig(
        d=config.d,
        m=config.m,
        r=config.r,
        lam=config.lam,
        u=config.u,
        c=config.c,
        theta=config.theta.times(logf),
    )


# ---------------------------------------------------------------------------
# Named constructions
# ---------------------------------------------------------------------------

def _one_form(u: float, theta: CoefficientSpec) -> ShintaniConfig:
    return ShintaniConfig(
        d=1, m=1, r=1, lam=np.array([[1.0]]), u=np.array([float(u)]),
        c=np.array([[1.0]]), theta=theta,
    )


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
        u = float(params["u"])
        if not 0.0 < u <= 1.0:
            raise ConfigError(f"hurwitz needs 0 < u <= 1, got {u}")
        return _one_form(u, CoefficientSpec.constant(1.0))
    if kind == "lerch":
        _expect_params(kind, params, {"u", "v"})
        u = float(params["u"])
        if u <= 0.0:
            raise ConfigError(f"lerch needs u > 0, got {u}")
        v = float(params["v"])
        q = complex(math.cos(2 * math.pi * v), math.sin(2 * math.pi * v))
        return _one_form(u, CoefficientSpec.geometric((q,)))
    if kind == "lerch_transcendent":
        _expect_params(kind, params, {"u", "q"})
        u = float(params["u"])
        q = complex(params["q"])
        if u <= 0.0:
            raise ConfigError(f"lerch_transcendent needs u > 0, got {u}")
        if not 0.0 < abs(q) < 1.0:
            raise ConfigError(f"lerch_transcendent needs 0 < |q| < 1, got |q| = {abs(q)}")
        return _one_form(u, CoefficientSpec.geometric((q,)))
    if kind == "euler_zagier":
        _expect_params(kind, params, {"r", "u"})
        r = int(params["r"])
        u = np.asarray(params["u"], dtype=float)
        if r < 1 or u.shape != (r,):
            raise ConfigError("euler_zagier needs r >= 1 and a length-r u vector")
        # unconstrained-index form: row l sums coordinates j >= l, with
        # shifted offsets u'_l = 1 + u_l - u_(l+1) and u'_r = 1 + u_r
        shifted = np.empty(r)
        shifted[:-1] = 1.0 + u[:-1] - u[1:]
        shifted[-1] = 1.0 + u[-1]
        if np.any(shifted <= 0.0):
            raise ConfigError("euler_zagier needs 1 + u_l > u_(l+1) for the re-indexed form")
        lam = np.zeros((r, r))
        for l in range(r):
            lam[l, l:] = 1.0
        return ShintaniConfig(
            d=r, m=r, r=r, lam=lam, u=shifted, c=np.eye(r),
            theta=CoefficientSpec.constant(1.0),
        )
    if kind == "barnes":
        _expect_params(kind, params, {"r", "lam", "u"})
        r = int(params["r"])
        lam = np.asarray(params["lam"], dtype=float)
        u = float(params["u"])
        if r < 1 or lam.shape != (r,) or np.any(lam <= 0) or u <= 0:
            raise ConfigError("barnes needs r >= 1, positive length-r lam, u > 0")
        offsets = u / (r * lam)  # sum_j lam_j u_j = u
        return ShintaniConfig(
            d=1, m=1, r=r, lam=lam.reshape(1, r), u=offsets,
            c=np.array([[1.0]]), theta=CoefficientSpec.constant(1.0),
        )
    if kind == "generalized_barnes":
        _expect_params(kind, params, {"m", "r", "lam", "u"})
        m, r = int(params["m"]), int(params["r"])
        lam = np.asarray(params["lam"], dtype=float)
        u = np.asarray(params["u"], dtype=float)
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


def _expect_params(kind: str, params: dict, allowed: set) -> None:
    extra = set(params) - allowed
    missing = allowed - set(params)
    if extra:
        raise ConfigError(f"{kind} got unexpected parameters {sorted(extra)}")
    if missing:
        raise ConfigError(f"{kind} missing parameters {sorted(missing)}")
