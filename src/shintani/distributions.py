"""Shintani zeta probability distributions on R^d.

A definite-sign coefficient family and an in-region sigma induce a discrete
law: atom locations are -(sum_l c_l log L_l(n)) per lattice point, masses
are the normalized summands, and the characteristic function is the ratio
of two certified series evaluations.  Atom tables are truncated at a
certified unenumerated-mass bound delta and sampled by inverse CDF.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import coefficients as cf
from .coefficients import CoefficientSpec
from .errors import CertificationError, ConfigError, NumericError, RegionError
from .series import (
    DEFAULT_SHELL_CAP,
    ComplexPoint,
    EvalResult,
    ShintaniConfig,
    _lattice_blocks,
    _require_valid,
    _tail_bound,
    _terms,
    absolutely_convergent_at,
    as_sigma,
    differentiate,
    evaluate_many,
)
from .summation import CompensatedSum, exact_real_sum

_GROW_BLOCK = 1 << 15
# atom_cf_grid: atoms per block and grid points per run (a 2^15-entry power
# table), and how far a grid point may sit off t_0 + k h, in eps * max|t|
_CF_ATOMS = 1 << 10
_CF_RUN = 32
_CF_EVEN_EPS = 8


@dataclass(frozen=True)
class ZetaDistribution:
    """Enumerated atom table with a certified unenumerated-mass bound."""

    config: ShintaniConfig
    sigma: np.ndarray
    normalizer: EvalResult
    locations: np.ndarray  # (k, d)
    masses: np.ndarray  # (k,), nonnegative, summing to 1 within tail_mass_bound
    tail_mass_bound: float
    shells_used: int

    def __post_init__(self) -> None:
        object.__setattr__(self, "sigma", np.asarray(self.sigma, dtype=float))
        object.__setattr__(self, "locations", np.asarray(self.locations, dtype=float))
        object.__setattr__(self, "masses", np.asarray(self.masses, dtype=float))
        for name in ("sigma", "locations", "masses"):
            getattr(self, name).setflags(write=False)

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
    """Inverse-CDF samples drawn from a truncated atom table."""

    points: np.ndarray  # (count, d)
    seed: int
    count: int
    truncation: float  # total-variation bias bound inherited from the table

    def __post_init__(self) -> None:
        object.__setattr__(self, "points", np.asarray(self.points, dtype=float))
        self.points.setflags(write=False)

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
    """
    _require_valid(config)
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
    # the table ends with the first block whose tail bound meets delta, so
    # the blocks' growth fixes its atoms: rank 1 doubles from _GROW_BLOCK
    # points, rank >= 2 takes one shell per block
    size, grow = (_GROW_BLOCK, 2) if config.r == 1 else (1, 1)
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
        if running != 0.0:
            bound = _tail_bound(config, sig, n_done)
            if bound <= delta * abs(running):
                break
        if count > shell_cap:
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
        lam = float(params.pop("lam", 1.0))
        u = float(params.pop("u", 1.0))
        c = float(params.pop("c", 1.0))
        theta0 = float(params.pop("theta0", 1.0))
        sigma = float(_required(kind, params, "sigma"))
        _no_extra(kind, params)
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
        j = int(_required(kind, params, "j"))
        big_k = int(_required(kind, params, "big_k"))
        phi = float(_required(kind, params, "phi"))
        sigma = float(_required(kind, params, "sigma"))
        _no_extra(kind, params)
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
        j = int(_required(kind, params, "j"))
        rate = float(params.pop("rate", 0.0))
        sigma = float(_required(kind, params, "sigma"))
        _no_extra(kind, params)
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


def _required(kind: str, params: dict, name: str):
    """Pop a parameter the construction cannot default."""
    if name not in params:
        raise ConfigError(f"{kind} needs the parameter {name!r}")
    return params.pop(name)


def _no_extra(kind: str, params: dict) -> None:
    if params:
        raise ConfigError(f"{kind} got unexpected parameters {sorted(params)}")


# ---------------------------------------------------------------------------
# Sampling, moments, empirical characteristic function
# ---------------------------------------------------------------------------

def sample(dist: ZetaDistribution, seed: int, count: int) -> SampleBatch:
    """Inverse-CDF draws from the renormalized truncated atom table;
    the seed fully determines the batch."""
    if count < 1:
        raise ConfigError(f"sample count must be >= 1, got {count}")
    if seed < 0:
        raise ConfigError(f"sample seed must be >= 0, got {seed}")
    masses = dist.masses / np.sum(dist.masses)
    cdf = np.cumsum(masses)
    cdf[-1] = 1.0
    rng = np.random.default_rng(seed)
    u = rng.random(count)
    idx = np.searchsorted(cdf, u, side="right")
    return SampleBatch(
        points=dist.locations[idx], seed=seed, count=count,
        truncation=dist.tail_mass_bound,
    )


def moment(dist: ZetaDistribution, k, cap: int = 8) -> MomentValue:
    """Mixed moment E[prod_j X_j^(k_j)] over the atom table plus a certified
    bound for the unenumerated part.

    The moment is d^k Z(sigma) / Z(sigma) with Z the normalizing series, and
    X_j = -sum_l c_lj log L_l(n) at atom n is exactly the log factor that
    each `differentiate(config, j)` multiplies theta by.  So the bound is the
    certified tail of the series differentiated k_j times along each axis j,
    past the table's last shell, over |Z|."""
    if isinstance(k, (int, np.integer)):
        k = (int(k),)
    k = tuple(int(x) for x in k)
    if len(k) != dist.d or any(x < 0 for x in k):
        raise ConfigError(f"moment multi-index must be {dist.d} nonnegative integers")
    order = sum(k)
    if order > cap:
        raise ConfigError(f"moment order {order} exceeds cap {cap}")
    powers = np.ones(dist.atom_count)
    for j, kj in enumerate(k):
        if kj:
            powers *= dist.locations[:, j] ** kj
    value = exact_real_sum(powers * dist.masses)
    if order == 0:
        return MomentValue(value=value, tail_bound=dist.tail_mass_bound)
    config = dist.config
    for axis, kj in enumerate(k, start=1):
        for _ in range(kj):
            config = differentiate(config, axis)
    raw = _tail_bound(config, dist.sigma, dist.shells_used)
    return MomentValue(value=value, tail_bound=raw / abs(dist.normalizer.value.real))


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
    """(1/N) sum_j exp(i <t, x_j>)."""
    if batch.points.size == 0:
        raise ConfigError("empty sample batch")
    phases = _phases(batch.points, np.atleast_1d(np.asarray(t, dtype=float)))
    total = complex(exact_real_sum(np.cos(phases)), exact_real_sum(np.sin(phases)))
    return total / batch.count


def atom_cf_grid(dist: ZetaDistribution, axis: int, ts) -> np.ndarray:
    """The atom table's characteristic function sum_x m_x e^(i t x) at
    t e_axis for each t of `ts` (axis in 1..d), an evenly spaced grid;
    `atom_cf` is the order-independent path for one point.

    With h = (t_(n-1) - t_0) / (n - 1), every t_k must lie within
    _CF_EVEN_EPS * eps * max|t| of t_0 + k h (arange and linspace grids lie
    within 2), else ConfigError.  The atoms go in blocks of at most
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
    """Characteristic function of the truncated atom table itself."""
    phases = _phases(dist.locations, np.atleast_1d(np.asarray(t, dtype=float)))
    return complex(
        exact_real_sum(dist.masses * np.cos(phases)),
        exact_real_sum(dist.masses * np.sin(phases)),
    )
