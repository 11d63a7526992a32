"""Shintani zeta probability distributions on R^d.

A definite-sign coefficient family and an in-region sigma induce a discrete
law: atom locations are -(sum_l c_l log L_l(n)) per lattice point, masses
are the normalized summands, and the characteristic function is the ratio
of two certified series evaluations.  Atom tables are truncated at a
certified unenumerated-mass bound delta and sampled by inverse CDF; a
table's own characteristic function is the same ratio for the partial sum
through its last shell.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import coefficients as cf
from .arithmetic import frozen_array
from .coefficients import CoefficientSpec
from .errors import CertificationError, ConfigError, NumericError, RegionError
from .series import (
    DEFAULT_SHELL_CAP,
    ComplexPoint,
    EvalResult,
    ShintaniConfig,
    _cap_from_budget,
    _expect_params,
    _first_admissible,
    _lattice_blocks,
    _param,
    _require_shell,
    _require_valid,
    _tail_bound,
    _terms,
    absolutely_convergent_at,
    as_sigma,
    differentiate,
    evaluate_many,
    evaluate_partial,
)
from .summation import CompensatedSum, exact_real_sum

_GROW_BLOCK = 1 << 15
_STOP_MARGIN = 2.0**-20  # relative slack of a skipped stop test (_next_stop_test)
# atom_cf_grid: atoms per block and grid points per run (a 2^15-entry power
# table), and how far a grid point may sit off t_0 + k h, in eps * max|t|
_CF_ATOMS = 1 << 10
_CF_RUN = 32
_CF_EVEN_EPS = 8
# the most draws `sample` and points a config's t grid take.  Each count is
# allocated at once (a draw holds 16 + 8d bytes, a grid point 8 and its cf
# value 16), about 0.4 GiB at d = 1; past it they raise ConfigError before
# allocating anything
_COUNT_MAX = 1 << 24


@dataclass(frozen=True)
class ZetaDistribution:
    """Enumerated atom table with a certified unenumerated-mass bound.

    `atom_cf` and `moment` read the table's config, sigma, shells and
    normalizer, not its atoms: a table whose atoms were edited
    (`dataclasses.replace`) needs `atom_cf_grid` or an explicit sum over
    its atoms."""

    config: ShintaniConfig
    sigma: np.ndarray
    normalizer: EvalResult
    locations: np.ndarray  # (k, d)
    masses: np.ndarray  # (k,), nonnegative, summing to 1 within tail_mass_bound
    tail_mass_bound: float
    shells_used: int

    def __post_init__(self) -> None:
        for name in ("sigma", "locations", "masses"):
            object.__setattr__(self, name, frozen_array(getattr(self, name)))

    @property
    def d(self) -> int:
        return int(self.locations.shape[1])

    @property
    def atom_count(self) -> int:
        return int(self.masses.size)

    def mass_at(self, location, tol: float = 0.0) -> float:
        """Total mass within tol of a location (exact match by default)."""
        loc = np.atleast_1d(np.asarray(location, dtype=float))
        dist = np.max(np.abs(self.locations - loc), axis=1)
        return float(np.sum(self.masses[dist <= tol]))

    def as_table(self) -> tuple[list[str], np.ndarray]:
        header = [f"loc_{j + 1}" for j in range(self.d)] + ["mass"]
        return header, np.column_stack([self.locations, self.masses])


@dataclass(frozen=True)
class SampleBatch:
    """Inverse-CDF samples drawn from a truncated atom table.

    `atoms` and `counts` group the rows of `points`: each row of `points`
    equals one row of `atoms`, and counts[k] rows equal atoms[k].  Omitted,
    they are `points` and ones, so a batch built from its points alone
    needs no sort; `sample` fills them from its draws."""

    points: np.ndarray  # (count, d)
    seed: int
    count: int
    truncation: float  # total-variation bias bound inherited from the table
    atoms: np.ndarray | None = None  # (k, d) locations of the rows of points
    counts: np.ndarray | None = None  # (k,) how many rows sit at each

    def __post_init__(self) -> None:
        points = frozen_array(self.points)
        atoms = points if self.atoms is None else frozen_array(self.atoms)
        if self.counts is None:
            counts = np.ones(len(points), dtype=np.int64)
            counts.setflags(write=False)
        else:
            counts = frozen_array(self.counts, np.int64)
            if not np.array_equal(counts, self.counts):
                raise ConfigError("counts must be integers")
        if points.ndim != 2 or atoms.ndim != 2 or atoms.shape[1] != points.shape[1]:
            raise ConfigError(
                f"points and atoms must be (rows, d) arrays of one d, got shapes "
                f"{points.shape} and {atoms.shape}"
            )
        if self.count != points.shape[0]:
            raise ConfigError(f"count {self.count} is not the number of rows {points.shape[0]}")
        if counts.shape != (atoms.shape[0],) or np.any(counts < 0):
            raise ConfigError("counts must hold one nonnegative integer per row of atoms")
        if int(np.sum(counts)) != self.count:
            raise ConfigError(f"counts sum to {int(np.sum(counts))}, not count {self.count}")
        for name, arr in (("points", points), ("atoms", atoms), ("counts", counts)):
            object.__setattr__(self, name, arr)

    def as_table(self) -> tuple[list[str], np.ndarray]:
        header = [f"x_{j + 1}" for j in range(self.points.shape[1])]
        return header, self.points


@dataclass(frozen=True)
class CharFnValue:
    value: complex
    error_bound: float


@dataclass(frozen=True)
class MomentValue:
    value: float
    tail_bound: float


@dataclass(frozen=True)
class SpecialDistribution:
    """A named construction plus its closed-form characteristic function."""

    kind: str
    config: ShintaniConfig
    sigma: float
    cf: Callable[[float], complex]
    closed_form: str
    params: dict


def _definite_sign(config: ShintaniConfig) -> str:
    cls = config.theta.sign_class()
    if cls not in (cf.NONNEGATIVE, cf.NONPOSITIVE):
        raise ConfigError(
            f"distribution needs a nonnegative or nonpositive theta, got sign class {cls!r}"
        )
    return cls


def build_distribution(
    config: ShintaniConfig,
    sigma,
    delta: float = 1e-6,
    shell_cap: int = DEFAULT_SHELL_CAP,
) -> ZetaDistribution:
    """Enumerate shells until the unenumerated mass is certified <= delta.

    Atoms landing on the same location are merged; every mass is checked
    nonnegative, which catches sign-class misclassification at run time.

    The table ends with the first block of shells whose end N passes the
    stop test tail(N) <= delta |S_N|, with tail = `_tail_bound` and S_N the
    running compensated sum, so the blocks' growth fixes its atoms: rank 1
    doubles from _GROW_BLOCK points, rank >= 2 takes one shell per block.
    Rank 1 tests every block end, O(log N) tests.  At rank >= 2, with no
    enumerable support, a failed test at k skips, with no tail call, every
    block end that provably fails (`_next_stop_test`).
    """
    _require_valid(config)
    _require_shell(shell_cap, "shell_cap")
    if not delta > 0:
        raise ConfigError(f"delta must be positive, got {delta}")
    _definite_sign(config)
    sig = as_sigma(sigma, config.d)
    pt = ComplexPoint(sig, np.zeros_like(sig))
    if not absolutely_convergent_at(config, pt):
        raise RegionError(
            f"sigma outside convergence region: needs min_l<c_l,sigma> > "
            f"{config.r / config.m}"
        )
    sl = config.c @ sig
    loc_blocks: list[np.ndarray] = []
    weight_blocks: list[np.ndarray] = []
    z_acc = CompensatedSum()
    count = 0
    n_done = -1
    bound = math.inf
    size, grow = (_GROW_BLOCK, 2) if config.r == 1 else (1, 1)
    # a bracket needs one shell per block and the monotone routes of
    # `_first_admissible`, which are those of a support it cannot enumerate
    bracketed = grow == 1 and config.theta.support(config.r, 0, 0) is None
    last_shell = _cap_from_budget(config.r, shell_cap) + 1  # where the cap raises
    tails = _Tails(config, sig)
    next_test = 0
    for pts, n_complete in _lattice_blocks(config, None, size, grow):
        forms, weights = _terms(config, pts, sl, True)
        log_forms = np.log(forms)
        weights = weights.real
        keep = weights != 0.0
        if not np.all(keep):
            weights = weights[keep]
            log_forms = log_forms[keep]
        loc_blocks.append(-(log_forms @ config.c))
        weight_blocks.append(weights)
        z_acc.add_array(weights)
        count += int(pts.shape[0])
        n_done = n_complete
        running = z_acc.value.real
        if running != 0.0 and n_done >= next_test:
            bound = tails[n_done]
            if bound <= delta * abs(running):
                break
            if bracketed:
                next_test = _next_stop_test(tails, n_done, abs(running), delta, last_shell)
        if count > shell_cap:
            if running != 0.0:
                bound = tails[n_done]
            raise CertificationError(
                f"delta={delta} unreachable within shell_cap={shell_cap} "
                f"(best bound {bound:.3e} at degree {n_done})"
            )
    weights_all = np.concatenate(weight_blocks)
    locs_all = np.vstack(loc_blocks) + 0.0  # folds -0.0 into +0.0
    z_value = z_acc.value.real
    masses = weights_all / z_value
    if np.any(masses < 0.0):
        raise ConfigError(
            "negative atom mass encountered: theta is not definite over the "
            "enumerated support"
        )
    if config.r == 1 and np.any(np.abs(np.sum(config.c, axis=0)) > 0.0):
        # all forms share log(n + u): some location coordinate is strictly
        # monotone in n, so no two lattice points collide
        locs, masses = locs_all, masses
    else:
        locs, masses = _merge_atoms(locs_all, masses)
    tail_mass = bound / abs(z_value)
    for arr in (locs, masses):  # made here: handed over as is, not copied
        arr.setflags(write=False)
    normalizer = EvalResult(
        value=complex(z_value), tail_bound=bound, shells_used=n_done, certified=True
    )
    return ZetaDistribution(
        config=config,
        sigma=sig,
        normalizer=normalizer,
        locations=locs,
        masses=masses,
        tail_mass_bound=tail_mass,
        shells_used=n_done,
    )


class _Tails(dict):
    """`_tail_bound(config, sigma, n)` by shell n, each computed once."""

    def __init__(self, config: ShintaniConfig, sigma: np.ndarray) -> None:
        super().__init__()
        self.config, self.sigma = config, sigma

    def __missing__(self, n: int) -> float:
        self[n] = _tail_bound(self.config, self.sigma, n)
        return self[n]


def _next_stop_test(tails: _Tails, k: int, size: float, delta: float, last: int) -> int:
    """The first shell past k whose stop test can pass, given a failed test
    at k with the running sum's size |S_k| = `size` there, and the cap's
    shell `last`; last + 1 when no shell up to it can.

    Proof that every shell n in (k, n*) fails.  theta has a definite sign,
    so |S_n| <= |S_inf| <= |S_k| + tail(k) for n > k, and the test at n
    fails when tail(n) > limit = delta (|S_k| + tail(k)) (1 + _STOP_MARGIN).
    The margin covers the rounding of the compensated sums (a few ulps
    relative for terms of one sign), of delta |S| and of the tail routes,
    so a test that rounding could pass is never skipped.  Every route of
    `_tail_bound` is non-increasing in the shell (`_first_admissible`'s
    proof), so the shells with tail <= limit form an up-set [n*, inf).  When
    tail(last) > limit no shell up to `last` passes; otherwise
    `_first_admissible` finds n* in [k + 1, last], bracketed by the failed
    shell k and `last`.  With one shell per block, the block ending at n* is
    the next to test, and its tail is already in `tails`.
    """
    limit = delta * (size + tails[k]) * (1.0 + _STOP_MARGIN)
    if not 0.0 < limit < math.inf or tails[k] <= limit:
        return k + 1
    if not tails[last] <= limit:
        return last + 1
    n, tail_n = _first_admissible(tails.config, tails.sigma, limit, last, tails[last], k + 1, tails[k])
    tails[n] = tail_n
    return n


def _merge_atoms(locations: np.ndarray, masses: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Sum masses of coincident locations (distinct lattice points can map to
    one point of R^d); output sorted lexicographically by location.

    Masses are added in input order, so the merged sums do not depend on
    how the sort orders equal rows."""
    order = np.lexsort(locations.T[::-1])
    ordered = locations[order]
    first = np.ones(ordered.shape[0], dtype=bool)
    np.any(ordered[1:] != ordered[:-1], axis=1, out=first[1:])
    if first.all():  # injective: each merged sum would be 0.0 + one mass, exactly
        return ordered, masses[order]
    inverse = np.empty_like(order)
    inverse[order] = np.cumsum(first) - 1
    merged = np.zeros(int(np.count_nonzero(first)))
    np.add.at(merged, inverse, masses)
    return ordered[first], merged


def char_fn(
    config: ShintaniConfig,
    sigma,
    t,
    tol: float = 1e-9,
    shell_cap: int = DEFAULT_SHELL_CAP,
) -> CharFnValue:
    """f_sigma(t) as the ratio of two certified evaluations, made in one
    `evaluate_many` call (one shell choice, as both share Re s = sigma).

    The error bound combines both truncation bounds through the quotient
    rule; it is infinite only if the normalizer cannot be separated from 0.
    """
    sig = as_sigma(sigma, config.d)
    t_arr = as_sigma(t, config.d)
    num, den = evaluate_many(
        config, [ComplexPoint(sig, t_arr), ComplexPoint(sig, np.zeros_like(sig))],
        tol=tol, shell_cap=shell_cap,
    )
    if abs(den.value) <= den.tail_bound:
        raise NumericError(
            "normalizer indistinguishable from zero at working precision"
        )
    value = num.value / den.value
    bound = (num.tail_bound + abs(value) * den.tail_bound) / (
        abs(den.value) - den.tail_bound
    )
    return CharFnValue(value=value, error_bound=bound)


# ---------------------------------------------------------------------------
# Closed-form special constructions
# ---------------------------------------------------------------------------

SPECIAL_DISTRIBUTION_KINDS = ("delta", "binomial", "poisson")


def make_special_distribution(kind: str, check: bool = True, **params) -> SpecialDistribution:
    """One of SPECIAL_DISTRIBUTION_KINDS: delta(lam, u, c, theta0, sigma),
    binomial(j, big_k, phi, sigma), poisson(j, rate, sigma); check=False
    lifts the stated sigma ranges (any sigma with absolute convergence works
    for these)."""
    if kind == "delta":
        _expect_params(kind, params, {"sigma"}, {"lam", "u", "c", "theta0"})
        names = ("lam", "u", "c", "theta0")
        lam, u, c, theta0 = (_param(kind, params, name, default=1.0) for name in names)
        sigma = _param(kind, params, "sigma")
        if lam <= 0 or u <= 0:
            raise ConfigError("delta needs lam > 0 and u > 0")
        if theta0 == 0.0:
            raise ConfigError("delta needs theta0 != 0")
        if check and c * sigma <= 1.0:
            raise ConfigError(
                f"delta construction wants sigma with c*sigma > 1, got c*sigma={c * sigma}"
            )
        config = ShintaniConfig(
            d=1, m=1, r=1,
            lam=np.array([[lam]]), u=np.array([u]), c=np.array([[c]]),
            theta=CoefficientSpec.finite_support({(0,): theta0}),
        )
        location = -c * math.log(lam * u)
        return SpecialDistribution(
            kind=kind, config=config, sigma=sigma,
            cf=lambda t: complex(math.cos(location * t), math.sin(location * t)),
            closed_form=f"exp(i t a) with a = -c log(lam u) = {location!r}",
            params={"lam": lam, "u": u, "c": c, "theta0": theta0, "sigma": sigma},
        )
    if kind == "binomial":
        _expect_params(kind, params, {"j", "big_k", "phi", "sigma"})
        j, big_k = _param(kind, params, "j", int), _param(kind, params, "big_k", int)
        phi, sigma = _param(kind, params, "phi"), _param(kind, params, "sigma")
        if j < 2 or big_k < 1 or phi <= 0:
            raise ConfigError("binomial needs j >= 2, big_k >= 1, phi > 0")
        if big_k * math.log2(j) > 60:
            raise ConfigError("binomial support j^K exceeds the integer lattice range")
        if check and sigma >= -math.log(j):
            raise ConfigError(
                f"binomial construction wants sigma < -log j = {-math.log(j)}"
            )
        c = -1.0 / math.log(j)
        entries = {
            (j**k - 1,): math.comb(big_k, k) * phi**k for k in range(big_k + 1)
        }
        config = ShintaniConfig(
            d=1, m=1, r=1,
            lam=np.array([[1.0]]), u=np.array([1.0]), c=np.array([[c]]),
            theta=CoefficientSpec.finite_support(entries),
        )
        x = phi * math.exp(sigma)  # phi * j^(sigma/log j)
        p = x / (1.0 + x)
        return SpecialDistribution(
            kind=kind, config=config, sigma=sigma,
            cf=lambda t: (p * np.exp(1j * t) + (1.0 - p)) ** big_k,
            closed_form=f"(p e^(it) + q)^K with p = {p!r}, K = {big_k}",
            params={"j": j, "big_k": big_k, "phi": phi, "sigma": sigma, "p": p},
        )
    if kind == "poisson":
        _expect_params(kind, params, {"j", "sigma"}, {"rate"})
        j, sigma = _param(kind, params, "j", int), _param(kind, params, "sigma")
        rate = _param(kind, params, "rate", default=0.0)
        if j < 2:
            raise ConfigError("poisson needs j >= 2")
        if check and sigma >= -math.log(j):
            raise ConfigError(
                f"poisson construction wants sigma < -log j = {-math.log(j)}"
            )
        c = -1.0 / math.log(j)
        config = ShintaniConfig(
            d=1, m=1, r=1,
            lam=np.array([[1.0]]), u=np.array([1.0]), c=np.array([[c]]),
            theta=CoefficientSpec.poisson_powers(j, rate),
        )
        mean = j**rate * math.exp(sigma)  # j^(rate + sigma/log j)
        return SpecialDistribution(
            kind=kind, config=config, sigma=sigma,
            cf=lambda t: np.exp(mean * (np.exp(1j * t) - 1.0)),
            closed_form=f"exp(mu (e^(it) - 1)) with mu = {mean!r}",
            params={"j": j, "rate": rate, "sigma": sigma, "mean": mean},
        )
    raise ConfigError(f"unknown special distribution kind {kind!r}")


# ---------------------------------------------------------------------------
# Sampling, moments, empirical characteristic function
# ---------------------------------------------------------------------------

def sample(dist: ZetaDistribution, seed: int, count: int) -> SampleBatch:
    """Inverse-CDF draws from the renormalized truncated atom table;
    the seed fully determines the batch.  The batch's `atoms` are the
    drawn atoms of the table, in table order, and `counts` how often
    each was drawn."""
    _require_shell(seed, "sample seed")
    _require_shell(count, "sample count")
    if count < 1:
        raise ConfigError(f"sample count must be >= 1, got {count}")
    if count > _COUNT_MAX:
        raise ConfigError(f"sample count {count} is past the limit of {_COUNT_MAX} draws")
    masses = dist.masses / np.sum(dist.masses)
    cdf = np.cumsum(masses)
    cdf[-1] = 1.0
    rng = np.random.default_rng(seed)
    u = rng.random(count)
    idx = np.searchsorted(cdf, u, side="right")
    del u
    points = dist.locations[idx]
    counts = np.bincount(idx, minlength=dist.atom_count)
    drawn = np.flatnonzero(counts)
    atoms, counts = dist.locations[drawn], counts[drawn]
    for arr in (points, atoms, counts):  # made here: handed over as is, not copied
        arr.setflags(write=False)
    return SampleBatch(
        points=points, seed=seed, count=count, truncation=dist.tail_mass_bound,
        atoms=atoms, counts=counts,
    )


def moment(dist: ZetaDistribution, k, cap: int = 8) -> MomentValue:
    """Mixed moment E[prod_j X_j^(k_j)] of the atom table, as a partial sum
    of the series, plus a certified bound for the unenumerated part.

    X_j = -sum_l c_lj log L_l(n) at atom n is exactly the log factor that
    each `differentiate(config, j)` multiplies theta by, so the table's
    moment is Z_N^(k)(sigma) / Z_N: `evaluate_partial` of the config
    differentiated k_j times along each axis j, through the table's last
    shell N = `shells_used`, over Z_N = `normalizer`.  It reads `config`,
    `sigma`, `shells_used` and `normalizer`, never the atoms, as `atom_cf`
    does, and takes the route `evaluate` takes: one Euler–Maclaurin line
    sum over K = |k| log factors where the config has a line coordinate,
    a walk of the lattice through shell N otherwise.  The bound is that
    partial sum's: the certified tail of the differentiated series past
    shell N (plus the line sums' remainder, at most 2^-60 of it), over
    |Z_N|.  Rounding is uncertified, as in `evaluate`."""
    k = tuple(k) if np.ndim(k) else (k,)
    if len(k) != dist.d:
        raise ConfigError(f"moment multi-index must be {dist.d} nonnegative integers, got {k!r}")
    for x in k:
        _require_shell(x, "moment multi-index entry")
    k = tuple(map(int, k))
    if sum(k) > cap:
        raise ConfigError(f"moment order {sum(k)} exceeds cap {cap}")
    config = dist.config
    for axis, kj in enumerate(k, start=1):
        for _ in range(kj):
            config = differentiate(config, axis)
    part = evaluate_partial(config, dist.sigma, dist.shells_used)
    z = dist.normalizer.value.real
    return MomentValue(value=part.value.real / z, tail_bound=part.tail_bound / abs(z))


def _phases(points: np.ndarray, t: np.ndarray) -> np.ndarray:
    """<x, t> for each row x of points (k, d), as column products summed in
    index order.  At d = 1 this has the bits of the matvec points @ t, which
    forms 0.0 + x t: adding 0.0 folds -0.0 as it does."""
    if t.size != points.shape[1]:
        raise ConfigError(f"t has dimension {t.size}, the points have {points.shape[1]}")
    phases = points[:, 0] * t[0]
    for j in range(1, t.size):
        phases += points[:, j] * t[j]
    phases += 0.0
    return phases


def empirical_cf(batch: SampleBatch, t) -> complex:
    """(1/N) sum_j exp(i <t, x_j>) over the N rows x_j of the batch, as
    (1/N) sum_k c_k exp(i <t, x_k>) over its distinct locations x_k
    (`atoms`) with their multiplicities c_k (`counts`): O(atoms) work per
    t, not O(N).

    Each part, with f = cos or sin, is `exact_real_sum` of exact products
    whose sum is sum_k c_k f(p_k), p_k = <t, x_k> from `_phases`:

    - Veltkamp's split (Dekker, Numer. Math. 18, 1971) with the factor
      2^27 + 1 writes each f(p_k) as hi + lo exactly, hi and lo of at most
      26 significant bits each; underflow does not break the split (Boldo,
      IJCAR 2006), and nothing overflows at |f| <= 1.
    - c_k = a 2^27 + b with 0 <= b < 2^27 and a < 2^26, as c_k <= N < 2^53.
      So b hi, b lo, a hi and a lo are products of at most 27 + 26 = 53
      bits, exact, and so is the scaling of a hi and a lo by 2^27: their
      sum is exactly c_k f(p_k).

    Regrouping.  `_phases` works row by row and adds 0.0 last, so a row
    at -0.0 and one at 0.0 get the same phase; the rows grouped into x_k
    all give p_k, and the exact sum of the products equals the exact sum
    of f over the rows, for any grouping of equal rows and any order.
    `exact_real_sum` returns that exact sum S minus its truncation R,
    |R| < 2^(E-70) with 2^E above the largest product, correctly rounded;
    so a batch, its row permutations and its regroupings give the same
    bits whenever R = 0 (every product a multiple of the last fold's grid)
    or S - R and S - R' round alike, and otherwise differ by one rounding
    of S.

    A t that is not finite raises ConfigError, as in `atom_cf`."""
    t = np.atleast_1d(np.asarray(t, dtype=float))
    if not np.all(np.isfinite(t)):
        raise ConfigError(f"t must be finite, got {t!r}")
    if batch.points.size == 0:
        raise ConfigError("empty sample batch")
    phases = _phases(batch.atoms, t)
    high, low = np.divmod(batch.counts, 1 << 27)
    high, low = high * 2.0**27, low.astype(float)
    total = complex(
        _weighted_sum(np.cos(phases), low, high), _weighted_sum(np.sin(phases), low, high)
    )
    return total / batch.count


def _weighted_sum(values: np.ndarray, low: np.ndarray, high: np.ndarray) -> float:
    """`exact_real_sum` of the exact products of `empirical_cf`'s proof:
    values split as hi + lo, each times low and high (count = low + high)."""
    scaled = values * (2.0**27 + 1.0)
    hi = scaled - (scaled - values)
    lo = values - hi
    return exact_real_sum(np.concatenate((low * hi, low * lo, high * hi, high * lo)))


def atom_cf_grid(dist: ZetaDistribution, axis: int, ts) -> np.ndarray:
    """The atom table's characteristic function sum_x m_x e^(i t x) at
    t e_axis for each t of `ts` (axis in 1..d), an evenly spaced grid;
    `atom_cf` is the partial-sum path for one point.

    With h = (t_(n-1) - t_0) / (n - 1), every t_k must lie within
    _CF_EVEN_EPS * eps * max|t| of t_0 + k h (arange and linspace grids lie
    within 2), else ConfigError; a phase t x or h x past the float range
    raises NumericError.  The atoms go in blocks of at most
    B = _CF_ATOMS and the grid in runs of K = _CF_RUN points.  A block forms
    w = e^(ihx) and its powers p_j = p_(j-1) w, j < K.  A run from t_k0
    forms the anchor a = m e^(i t_k0 x) and adds the block's sum of p_j a,
    which is m e^(i (t_k0 + j h) x), to the value at t_(k0+j); the block
    sums are added in block order.  Each atom so costs one cos and one sin
    per K grid points, and no working array holds more than K B = 2^15
    entries.

    Error bound.  Let u = 2^-53, M = sum m, X = max|x|, T = max|t|,
    nb = ceil(atoms / B) and D = max_k |t_k - t_0 - k h| in exact
    arithmetic, and take cos and sin to err by at most one ulp, 2u.  Then
    every value is within

        u M (6 K + 3 B + nb) + (3 u T + 2 D) M X

    of sum_x m_x e^(i t_k x), and the grid check gives D <= 20 u T, so
    this is at most u M (6 K + 3 B + nb + 43 T X).  Proof, at one atom and
    the output t_k = t_(k0+j):

    - Phase.  The run sums m e^(i (phi + j psi)) with phi = fl(t_k0 x) and
      psi = fl(h x): |phi - t_k0 x| <= u T |x|, and j |psi - h x| <=
      u j |h| |x| <= u (2 T + 2 D) |x|, since j h is t_(k0+j) - t_k0 up to
      2 D, which also bounds |t_k0 + j h - t_k|.  As |e^(ia) - e^(ib)| <=
      |a - b|, the phase costs at most (3 u T + 2 D (1 + u)) X m.
    - Anchor and step.  cos, sin and the two products by m put the anchor
      within 3 sqrt(2) u m of m e^(i phi), and w within 2 sqrt(2) u of
      e^(i psi).
    - Powers.  A complex product errs by at most sqrt(5) u relative to its
      exact value (Brent, Percival and Zimmermann, Math. Comp. 76, 2007),
      so by induction |p_j - e^(i j psi)| <= j (2 sqrt(2) + sqrt(5)) u
      (1 + 6 K u) <= 5.1 (K - 1) u (1 + 6 K u).
    - Block sums.  The real and the imaginary part of the sum of p_j a over
      a block are real dot products of length 2 B, which err by at most
      gamma_2B = 2 B u / (1 - 2 B u) times their sums of |products| in any
      order and with any fused operations (Higham, Accuracy and Stability
      of Numerical Algorithms, 2002, section 3.1), so the complex sum errs
      by at most sqrt(2) gamma_2B sum |p_j| |a| <= 2.9 B u M (1 + 6 K u).
      Adding the nb block sums in order errs by at most gamma_nb times the
      sum of their moduli, nb u M (1 + 6 K u).
    - The rounding parts add to (4.3 + 5.1 (K - 1) + 2.9 B + nb) u M
      (1 + 6 K u) <= (6 K + 3 B + nb) u M, at K = 32 and B = 1024.
    - Grid check.  It passes when fl(|t_k - fl(t_0 + fl(k h))|) <= 16 u T.
      The two roundings inside move t_0 + k h by at most
      u (|k h| + T + D) (1 + 2 u), and |k h| <= 2 T + D, so
      D <= 16 u T (1 + u) + u (3 T + 2 D) (1 + 2 u), which gives D <= 20 u T.
    """
    if not 1 <= axis <= dist.d:
        raise ConfigError(f"t axis must be in 1..{dist.d}, got {axis}")
    ts = np.asarray(ts, dtype=float).ravel()
    n = ts.size
    values = np.zeros(n, dtype=complex)
    if n == 0:
        return values
    h = (ts[-1] - ts[0]) / (n - 1) if n > 1 else 0.0
    with np.errstate(over="ignore", invalid="ignore"):  # a t that is not finite fails the test
        off_grid = np.abs(ts - (ts[0] + np.arange(n) * h))
        even = np.all(off_grid <= _CF_EVEN_EPS * np.finfo(float).eps * np.max(np.abs(ts)))
    if not even:
        raise ConfigError(
            f"atom_cf_grid needs an evenly spaced grid of finite t, got a deviation of "
            f"{np.max(off_grid)!r} from t_0 + k h"
        )
    locs = dist.locations[:, axis - 1]
    x_max = max(float(np.max(locs, initial=0.0)), -float(np.min(locs, initial=0.0)))  # no copy
    reach = max(abs(h), float(np.max(np.abs(ts)))) * x_max
    if not math.isfinite(reach):
        raise NumericError("atom_cf_grid: a phase t x or h x passes the float range")
    rows, width = min(_CF_RUN, n), min(_CF_ATOMS, max(dist.atom_count, 1))
    powers = np.empty((rows, width), dtype=complex)
    powers[0] = 1.0
    anchor = np.empty(width, dtype=complex)
    phases = np.empty(width)
    for lo in range(0, dist.atom_count, width):
        x = locs[lo : lo + width]
        m = dist.masses[lo : lo + width]
        p, a, phase = powers[:, : x.size], anchor[: x.size], phases[: x.size]
        if rows > 1:
            np.multiply(h, x, out=phase)
            np.cos(phase, out=p[1].real)
            np.sin(phase, out=p[1].imag)
        for j in range(2, rows):
            np.multiply(p[j - 1], p[1], out=p[j])
        for k0 in range(0, n, rows):
            np.multiply(ts[k0], x, out=phase)
            np.cos(phase, out=a.real)
            np.sin(phase, out=a.imag)
            a.real *= m
            a.imag *= m
            k1 = min(k0 + rows, n)
            values[k0:k1] += p[: k1 - k0] @ a
    return values


def atom_cf(dist: ZetaDistribution, t) -> complex:
    """Characteristic function of the truncated atom table itself,
    sum_x m_x e^(i <t, x>), as a partial sum of the series.

    A table from `build_distribution` holds the nonzero terms of shells
    0..N, N = `shells_used`, with masses theta(n) L(n)^(-sigma) / Z_N, where
    Z_N = `normalizer` is their sum; merging coincident atoms does not
    change the cf.  At the atom x = -sum_l c_l log L_l(n), m e^(i <t, x>) is
    theta(n) prod_l L_l(n)^(-<c_l, sigma + it>) / Z_N.  So the value is
    `evaluate_partial(config, sigma + it, N)` over Z_N: it reads `config`,
    `sigma`, `shells_used` and `normalizer`, never the atoms, and costs one
    partial sum (O(lines) work on the line route).  A table whose atoms
    were edited is no longer that partial sum: use `atom_cf_grid` or sum
    its atoms explicitly.

    Error against the table's own sum: the line sums' certified remainder,
    at most 2^-60 times the tail bound at shell N (0 on the other routes),
    over |Z_N|, plus the rounding of both sums, an estimate (rounding is
    uncertified, as in `evaluate`)."""
    t = np.atleast_1d(np.asarray(t, dtype=float))
    if t.shape != (dist.d,):
        raise ConfigError(f"t has dimension {t.size}, the table has {dist.d}")
    s = ComplexPoint(dist.sigma, t)
    return evaluate_partial(dist.config, s, dist.shells_used).value / dist.normalizer.value.real
