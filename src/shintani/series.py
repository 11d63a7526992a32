"""Multidimensional Shintani zeta configurations and certified evaluation.

A configuration assembles linear forms L_l(n) = sum_j lam_lj (n_j + u_j)
with complex exponents <c_l, s> and a lattice coefficient family theta.
Evaluation enumerates the lattice by total-degree shells and stops at the
first shell whose certified tail bound drops below the requested tolerance.
Complex powers are always exp(-<c_l, s> log L) with the real log of the
positive base, so no branch cuts arise.

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

import itertools
import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable, Iterator, Optional

import numpy as np

from . import coefficients as cf
from .coefficients import CoefficientSpec
from .errors import CertificationError, ConfigError, RegionError
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
        return bool(np.all(self.im == 0.0))


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
        object.__setattr__(self, "lam", np.asarray(self.lam, dtype=float))
        object.__setattr__(self, "u", np.asarray(self.u, dtype=float))
        object.__setattr__(self, "c", np.asarray(self.c, dtype=float))
        for name in ("lam", "u", "c"):
            getattr(self, name).setflags(write=False)

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
    lattice coordinate must carry at least one positive weight.
    """
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
        problems.extend(cf.validate_spec(config.theta, config.r))
    return ValidationReport(ok=not problems, violations=tuple(problems))


def _require_valid(config: ShintaniConfig) -> None:
    report = validate_config(config)
    if not report.ok:
        raise ConfigError("; ".join(report.violations))


def in_convergence_region(config: ShintaniConfig, s) -> bool:
    """True iff min_l Re<c_l, s> > r/m (the certified absolute-convergence region)."""
    pt = as_point(s, config.d)
    return bool(np.min(config.c @ pt.re) > config.r / config.m)


def _region_holds_sigma(config: ShintaniConfig, sigma: np.ndarray) -> bool:
    return bool(np.min(config.c @ sigma) > config.r / config.m)


def absolutely_convergent_at(config: ShintaniConfig, s) -> bool:
    """Region membership, or a coefficient family convergent for every s."""
    return in_convergence_region(config, s) or cf.is_entire(config.theta)


# ---------------------------------------------------------------------------
# Certified tail bounds
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class _LogWeight:
    """Bound factor scale * (offset + log(t + 1))^power applied to each term."""

    scale: float = 1.0
    offset: float = 0.0
    power: int = 0

    def at(self, t: float) -> float:
        if self.power == 0:
            return self.scale
        return self.scale * (self.offset + math.log(t + 1.0)) ** self.power

    def ratio(self, t_from: float, t_to: float) -> float:
        """Upper bound for at(t_to)/at(t_from), valid for all t >= t_from."""
        if self.power == 0:
            return 1.0
        lo = self.offset + math.log(t_from + 1.0)
        hi = self.offset + math.log(t_to + 1.0)
        if lo <= 0.0:
            return math.inf
        return (hi / lo) ** self.power


_NO_WEIGHT = _LogWeight()


def _abs_form_powers(forms: np.ndarray, sl: np.ndarray) -> np.ndarray:
    """prod_l forms[:, l]^(-sl[l]) for real exponents."""
    out = np.ones(forms.shape[0])
    for l, b in enumerate(sl):
        out *= forms[:, l] ** (-b)
    return out


def _poly_tail(
    config: ShintaniConfig, sigma: np.ndarray, n_shell: int, weight: _LogWeight
) -> float:
    """Integral-comparison bound for strictly positive lam.

    Partitions lattice points of total degree > N by their set of zero
    coordinates and maps each class onto disjoint unit cubes; this keeps the
    convergence proof's integral constant while staying a genuine upper bound
    for every lattice rank.
    """
    if not _region_holds_sigma(config, sigma) or np.any(config.lam <= 0.0):
        return math.inf
    r = config.r
    sl = config.c @ sigma
    s_total = float(np.sum(sl))
    bound, growth, _ = cf.envelope_triple(config.theta)
    bound *= weight.scale
    if weight.power > 0:
        eps0 = min(0.05, (s_total - r - growth) / (2.0 * weight.power))
        if eps0 <= 0.0:
            return math.inf
        bound *= (weight.offset + 1.0 / (math.e * eps0)) ** weight.power
        growth = growth + weight.power * eps0
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


def _separable_tail(
    config: ShintaniConfig, sigma: np.ndarray, n_shell: int, weight: _LogWeight
) -> float:
    """Matched-coordinate product bound for zero-pattern lam (m == r).

    Drops every unmatched (nonnegative) term of each form, leaving an
    independent product over coordinates; the tail then splits by which
    coordinate exceeds N/r.
    """
    if weight.power > 0 or config.m != config.r:
        return math.inf
    if not _region_holds_sigma(config, sigma):
        return math.inf
    r = config.r
    perm = _best_matching(config.lam.tobytes(), config.m, config.r)
    if perm is None:
        return math.inf
    env = cf.per_coordinate_envelope(config.theta, r)
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
    return weight.scale * float(total)


def _flag_structure(
    lam: np.ndarray,
) -> Optional[tuple[list[int], list[float], list[frozenset]]]:
    """Rows ordered by strictly nested supports of sizes r, r-1, ..., 1.

    Triangular patterns (nested multiple sums) have this shape; returns
    (row order, min positive weight per row, supports) or None.
    """
    m, r = lam.shape
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
    return order, mins, chain


def _nested_tail(
    config: ShintaniConfig, sigma: np.ndarray, n_shell: int, weight: _LogWeight
) -> float:
    """Tail bound for complete-flag supports via m_l = sum of supported n_j.

    The map n -> (m_1 >= m_2 >= ... >= m_r) is a bijection, m_1 equals the
    total degree, and dropping the ordering constraint splits the tail into a
    one-dimensional tail times full one-dimensional sums.
    """
    flag = _flag_structure(config.lam)
    if flag is None or not _region_holds_sigma(config, sigma):
        return math.inf
    order, mins, chain = flag
    sl = config.c @ sigma
    bound, growth, _ = cf.envelope_triple(config.theta)
    bound *= weight.scale
    s_head = float(sl[order[0]])
    if weight.power > 0:
        eps0 = min(0.05, (s_head - 1.0 - growth) / (2.0 * weight.power))
        if eps0 <= 0.0:
            return math.inf
        bound *= (weight.offset + 1.0 / (math.e * eps0)) ** weight.power
        growth = growth + weight.power * eps0
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


def _finite_tail(
    config: ShintaniConfig, sigma: np.ndarray, n_shell: int, weight: _LogWeight
) -> float:
    """Exact remaining-support sum for finitely supported coefficients."""
    deg = cf.support_degree(config.theta)
    if deg is None:
        return math.inf
    if n_shell >= deg:
        return 0.0
    pts = cf.support_points(config.theta, config.r, n_shell + 1, deg)
    if pts.size == 0:
        return 0.0
    vals = np.abs(np.asarray(cf.theta_values(config.theta, pts)))
    forms = pts @ config.lam.T + config.form_offsets
    sl = config.c @ sigma
    terms = vals * _abs_form_powers(forms, sl)
    if weight.power > 0:
        terms = terms * np.array([weight.at(float(t)) for t in pts.sum(axis=1)])
    else:
        terms = terms * weight.scale
    return float(np.sum(terms))


def _geometric_tail(
    config: ShintaniConfig, sigma: np.ndarray, n_shell: int, weight: _LogWeight
) -> float:
    """Ratio-test majorant when |theta| decays like g^t with g < 1."""
    bound, growth, g = cf.envelope_triple(config.theta)
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
    rho = g * ((t0 + 2.0) / (t0 + 1.0)) ** growth * (t0 + r) / (t0 + 1.0)
    for b in sl:
        if b < 0:
            rho *= ((t0 + 1.0 + usum) / (t0 + usum)) ** (-b)
    rho *= weight.ratio(t0, t0 + 1.0)
    if not rho < 1.0:
        return math.inf
    return head(t0) / (1.0 - rho)


def _poisson_tail(
    config: ShintaniConfig, sigma: np.ndarray, n_shell: int, weight: _LogWeight
) -> float:
    """Factorial-ratio majorant for sparse support on {j^k - 1}."""
    decomp = cf.poisson_decomposition(config.theta)
    if decomp is None or config.r != 1:
        return math.inf
    base, rate, b_other, eps_other = decomp
    sl = config.c @ sigma
    lam = config.lam[:, 0]
    u0 = float(config.u[0])
    logj = math.log(base)

    def term(k: int) -> float:
        n = float(base) ** k - 1.0
        theta_p = math.exp(rate * k * logj - math.lgamma(k + 1.0))
        forms = lam * (n + u0)
        pf = float(np.prod(forms ** (-sl)))
        return theta_p * b_other * (n + 1.0) ** eps_other * pf * weight.at(n)

    k = 0
    while float(base) ** k - 1.0 <= n_shell:
        k += 1
    total = 0.0
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
    return math.inf


def _tail_bound(
    config: ShintaniConfig,
    sigma: np.ndarray,
    n_shell: int,
    weight: _LogWeight = _NO_WEIGHT,
) -> float:
    if cf.support_degree(config.theta) is not None:
        return _finite_tail(config, sigma, n_shell, weight)
    routes = []
    if cf.poisson_decomposition(config.theta) is not None and config.r == 1:
        routes.append(_poisson_tail(config, sigma, n_shell, weight))
    routes.append(_geometric_tail(config, sigma, n_shell, weight))
    routes.append(_poly_tail(config, sigma, n_shell, weight))
    routes.append(_separable_tail(config, sigma, n_shell, weight))
    routes.append(_nested_tail(config, sigma, n_shell, weight))
    return min(routes)


def tail_bound(config: ShintaniConfig, sigma, n_shell: int) -> float:
    """Certified upper bound on the absolute sum over total degree > n_shell.

    Raises CertificationError when the envelope is too weak relative to
    sum_l <c_l, sigma> - r and no structural route (finite support, geometric
    decay, sparse factorial support) applies.
    """
    _require_valid(config)
    sig = as_sigma(sigma, config.d)
    out = _tail_bound(config, sig, n_shell)
    if not math.isfinite(out):
        sl = config.c @ sig
        raise CertificationError(
            "no certified bound available: envelope growth "
            f"{config.theta.envelope.growth} >= sum_l<c_l,sigma> - r = "
            f"{float(np.sum(sl)) - config.r}"
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
    which keeps both orders.
    """
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


def shell_size(r: int, t: int) -> int:
    return math.comb(t + r - 1, r - 1)


def lattice_count(r: int, n_shell: int) -> int:
    """Number of lattice points with total degree <= n_shell."""
    return math.comb(n_shell + r, r)


def _iter_blocks(r: int, n_shell: int) -> Iterator[np.ndarray]:
    """Lattice points of degree <= n_shell in blocks, ascending degree; a
    block ends at the first shell that brings it to _BLOCK points."""
    if r == 0:
        yield np.zeros((1, 0), dtype=np.int64)
        return
    lo = 0
    while lo <= n_shell:
        if r == 1:
            hi = min(lo + _BLOCK - 1, n_shell)
        else:
            hi, count = lo, shell_size(r, lo)
            while count < _BLOCK and hi < n_shell:
                hi += 1
                count += shell_size(r, hi)
        yield _shells(lo, hi, r)
        lo = hi + 1


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


def _prewarm_theta(theta: CoefficientSpec, max_coord: int) -> None:
    from .arithmetic import coefficient_array

    if theta.family == "multiplicative_product":
        for rules in theta.params["coords"]:
            coefficient_array(tuple(rules), max(max_coord + 1, 2))
    elif theta.family == "product_of_families":
        for factor in theta.params["factors"]:
            _prewarm_theta(factor, max_coord)


def _sum_terms(
    config: ShintaniConfig, pt: ComplexPoint, blocks: Iterable[np.ndarray]
) -> complex:
    beta = config.c @ pt.values  # (m,) complex exponents <c_l, s>
    is_real = pt.is_real
    lam_t = config.lam.T
    offsets = config.form_offsets
    theta = config.theta
    trivial_theta = theta.family == "constant" and theta.params["value"] == 1.0
    acc = CompensatedSum()
    for pts in blocks:
        forms = pts @ lam_t + offsets
        powers = _form_powers(forms, beta, is_real)
        if trivial_theta:
            acc.add_array(powers)
        else:
            acc.add_array(np.asarray(cf.theta_values(theta, pts)) * powers)
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
# the work of a plan in head terms: 8 + 2M per Euler–Maclaurin line and, for
# the array operations each Bernoulli order adds, 64 per order
_EM_LINE_COST = 8
_EM_ORDER_COST = 64
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

    One Bernoulli order M serves every line.  With W = sum_i |weights_i|,
    Euler–Maclaurin starts on every line at the first k with k + v_i >= X,
    where X >= _EM_HEAD is the smallest point with W C_M X^(-p_M) <= target
    (C_M, p_M from `_em_remainder_constants`); each line's remainder is then
    at most C_M X^(-p_M), so the weighted total is at most target.  A line
    with v_i >= X needs no head; one whose head covers it is summed directly
    with no remainder.  The orders are priced from the largest X down (head
    terms, plus _EM_LINE_COST + 2M per Euler–Maclaurin line and
    _EM_ORDER_COST per order) until the price rises; the cheapest plan wins,
    summing every line directly included.  Returns None when every plan
    needs more than _EM_MAX_HEAD direct terms on some line.
    """
    b = complex(b)
    k_len = k_max + 1
    direct_cost = float(k_len.sum()) if k_len.max() <= _EM_MAX_HEAD else math.inf
    plan = (direct_cost, math.inf, 0, 0.0, 1.0)  # (cost, X, M, log C_M, p_M): all direct
    total_w = float(np.abs(weights).sum())
    if target > 0.0 and total_w > 0.0:
        log_budget = math.log(total_w) - math.log(target * (1.0 - 2.0**-20))
        orders, log_c, decay = _em_remainder_constants(b)
        # exp(-inf) = 0 where the remainder is exactly 0
        xs = np.maximum(np.exp(np.minimum((log_c + log_budget) / decay, 700.0)), _EM_HEAD)
        # X falls with M to a smallest value, and later orders only cost more;
        # as X falls the heads shrink and the other work grows
        rising = np.flatnonzero(xs[1:] >= xs[:-1])
        last = rising[0] + 1 if rising.size else xs.size
        top = float((v + k_len).max())  # from X = top up every line is summed directly
        near_v, near_len, prev = v, k_len, math.inf  # the lines with v < X
        for i in np.flatnonzero(xs[:last] < top):
            x = float(xs[i])
            near = near_v < x
            near_v, near_len = near_v[near], near_len[near]
            heads = np.minimum(np.ceil(x - near_v), near_len)
            if heads.size and heads.max() > _EM_MAX_HEAD:
                continue
            n_em = v.size - np.count_nonzero(heads == near_len)
            cost = heads.sum() + n_em * (_EM_LINE_COST + 2 * orders[i]) + _EM_ORDER_COST * orders[i]
            if cost >= prev:
                break
            prev = cost
            if cost < plan[0]:
                plan = (cost, x, int(orders[i]), float(log_c[i]), float(decay[i]))
    cost, x, order, log_c, decay = plan
    if cost == math.inf:
        return None
    heads = np.minimum(np.maximum(np.ceil(x - v), 0.0), k_len).astype(np.int64)
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

    Applies to constant or periodic theta when `_line_column` finds a line
    coordinate j with rows S; returns None otherwise.  With the rest point
    rho (the other r - 1 coordinates, |rho| <= n_shell, from `_iter_blocks`)
    and b = sum_{l in S} <c_l, s>, the terms along n_j = q k + a (q the
    period of coordinate j, a < q) are
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
    theta = config.theta
    if theta.family not in ("constant", "periodic"):
        return None
    line = _line_column(config.lam)
    if line is None:
        return None
    j, rows = line
    lam, r = config.lam, config.r
    is_real = pt.is_real
    beta = config.c @ (pt.re if is_real else pt.values)
    b_sum = beta[rows].sum()
    if theta.family == "periodic":
        q, value = theta.params["mods"][j], None
    else:
        q, value = 1, complex(theta.params["value"])
        value = value if value.imag else value.real  # keeps real lines in real arithmetic
    scale = np.exp(-(beta[rows] @ np.log(lam[rows, j])) - b_sum * math.log(q))
    others = np.array([l for l in range(config.m) if l not in rows], dtype=np.int64)
    rest = [i for i in range(r) if i != j]
    along = lam[rows[0], rest] / lam[rows[0], j]
    lam_o, off_o = lam[others][:, rest], config.form_offsets[others]
    vs, ks, ws = [], [], []
    for block in _iter_blocks(r - 1, n_shell):
        deg = block.sum(axis=1)
        v_rho = config.u[j] + (block + config.u[rest]) @ along
        weight = scale * _form_powers(block @ lam_o.T + off_o, beta[others], is_real)
        for a in range(min(q, n_shell + 1)):
            if value is not None:
                w = weight * value
            else:
                w = weight * cf.theta_values(theta, np.insert(block, j, a, axis=1))
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


def _rank1_partial_sum(
    config: ShintaniConfig, pt: ComplexPoint, n_shell: int, tail: float
) -> Optional[tuple[complex, float]]:
    """`_line_partial_sum` for lattice rank 1, whose q residue classes are q
    lines; None for every other rank."""
    if config.r != 1:
        return None
    return _line_partial_sum(config, pt, n_shell, tail)


def _partial_sum(
    config: ShintaniConfig, pt: ComplexPoint, n_shell: int, tail: float
) -> tuple[complex, float]:
    """Partial sum over total degree <= n_shell, and `tail` plus the line
    sums' remainder bound where line sums apply."""
    route = _rank1_partial_sum if config.r == 1 else _line_partial_sum
    lines = route(config, pt, n_shell, tail)
    if lines is None:
        return _sum_terms(config, pt, _blocks_upto(config, n_shell)), tail
    value, remainder = lines
    return value, tail + remainder


def _choose_shell(
    config: ShintaniConfig,
    sigma: np.ndarray,
    tol: float,
    shell_cap: int,
) -> tuple[int, bool]:
    """Smallest shell with tail <= tol, capped by the enumerated-point budget."""
    if cf.is_sparse(config.theta):
        deg = cf.support_degree(config.theta)
        if deg is not None:
            pts = cf.support_points(config.theta, config.r, 0, deg)
            degrees = [int(t) for t in pts.sum(axis=1)]
            if len(degrees) > shell_cap:
                n_cap = degrees[shell_cap - 1]
                return n_cap, bool(_tail_bound(config, sigma, n_cap) <= tol)
            for n in sorted(set(degrees)):
                if _tail_bound(config, sigma, n) <= tol:
                    return n, True
            return deg, True  # tail past the support is exactly zero
        base = cf.sparse_anchor(config.theta).params["base"]
        for k in range(max(shell_cap, 1)):
            n = base**k - 1
            if _tail_bound(config, sigma, n) <= tol:
                return n, True
        n = base ** max(shell_cap - 1, 0) - 1
        return n, bool(_tail_bound(config, sigma, n) <= tol)

    n_cap = _cap_from_budget(config.r, shell_cap)
    if _tail_bound(config, sigma, n_cap) > tol:
        return n_cap, False
    lo, hi = 0, n_cap  # tail(hi) <= tol; find the first such shell
    while lo < hi:
        mid = (lo + hi) // 2
        if _tail_bound(config, sigma, mid) <= tol:
            hi = mid
        else:
            lo = mid + 1
    return lo, True


def _cap_from_budget(r: int, shell_cap: int) -> int:
    lo, hi = 0, 1
    while lattice_count(r, hi) <= shell_cap:
        hi *= 2
    while lo < hi:
        mid = (lo + hi + 1) // 2
        if lattice_count(r, mid) <= shell_cap:
            lo = mid
        else:
            hi = mid - 1
    return lo


def evaluate(
    config: ShintaniConfig,
    s,
    tol: float = 1e-10,
    shell_cap: int = DEFAULT_SHELL_CAP,
) -> EvalResult:
    """Certified evaluation of the series at s.

    The shell count is the smallest one whose tail bound is <= tol; if the
    enumerated-point budget shell_cap is hit first, the partial sum is
    returned flagged non-certified with the achieved bound.
    """
    _require_valid(config)
    pt = as_point(s, config.d)
    if tol <= 0:
        raise ConfigError(f"tolerance must be positive, got {tol}")
    if not absolutely_convergent_at(config, pt):
        raise RegionError(
            "point outside certified convergence region: needs "
            f"min_l Re<c_l,s> > r/m = {config.r / config.m}"
        )
    sigma = pt.re
    n_used, certified = _choose_shell(config, sigma, tol, shell_cap)
    value, achieved = _partial_sum(config, pt, n_used, _tail_bound(config, sigma, n_used))
    return EvalResult(
        value=value, tail_bound=achieved, shells_used=n_used, certified=certified
    )


def evaluate_partial(config: ShintaniConfig, s, n_shell: int) -> EvalResult:
    """Plain partial sum over total degree <= n_shell, with its tail bound."""
    _require_valid(config)
    pt = as_point(s, config.d)
    value, tail = _partial_sum(config, pt, n_shell, _tail_bound(config, pt.re, n_shell))
    return EvalResult(
        value=value, tail_bound=tail, shells_used=n_shell, certified=math.isfinite(tail)
    )


def _blocks_upto(config: ShintaniConfig, n_shell: int) -> Iterable[np.ndarray]:
    if cf.is_sparse(config.theta):
        pts = cf.support_points(config.theta, config.r, 0, n_shell)
        return (pts,) if pts.size else ()
    _prewarm_theta(config.theta, n_shell)
    return _iter_blocks(config.r, n_shell)


# ---------------------------------------------------------------------------
# Derivative closure
# ---------------------------------------------------------------------------

def differentiate(config: ShintaniConfig, axis: int) -> ShintaniConfig:
    """Config whose evaluation is d/ds_h of the original's, h = axis in 1..d.

    The coefficient picks up the factor sum_q (-c_q,axis) log L_q(n), which
    stays in the class with the envelope exponent raised by the
    log-absorption constant.
    """
    _require_valid(config)
    if not 1 <= axis <= config.d:
        raise ConfigError(f"axis must be in 1..{config.d}, got {axis}")
    coeffs = tuple((-config.c[:, axis - 1]).tolist())
    logf = CoefficientSpec.log_factor(coeffs, config.lam, config.u)
    if config.theta.family == "product_of_families":
        factors = config.theta.params["factors"] + (logf,)
    else:
        factors = (config.theta, logf)
    return ShintaniConfig(
        d=config.d,
        m=config.m,
        r=config.r,
        lam=config.lam,
        u=config.u,
        c=config.c,
        theta=CoefficientSpec.product(factors),
    )


# ---------------------------------------------------------------------------
# Named constructions
# ---------------------------------------------------------------------------

def _one_form(u: float, theta: CoefficientSpec) -> ShintaniConfig:
    return ShintaniConfig(
        d=1, m=1, r=1, lam=np.array([[1.0]]), u=np.array([float(u)]),
        c=np.array([[1.0]]), theta=theta,
    )


def make_special(kind: str, **params) -> ShintaniConfig:
    """Named configurations: riemann, hurwitz(u), lerch(u, v),
    lerch_transcendent(u, q), euler_zagier(r, u), barnes(r, lam, u),
    generalized_barnes(m, r, lam, u), riemann_derivative."""
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
