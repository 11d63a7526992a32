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
from .coefficients import CoefficientSpec, _log_offsets
from .errors import CertificationError, ConfigError, NumericError, RegionError
from .series import (
    DEFAULT_SHELL_CAP,
    ComplexPoint,
    EvalResult,
    ShintaniConfig,
    _LogWeight,
    _lattice_blocks,
    _require_valid,
    _tail_bound,
    _terms,
    absolutely_convergent_at,
    as_sigma,
    evaluate,
)
from .summation import CompensatedSum, exact_real_sum

_GROW_BLOCK = 1 << 15


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
    if delta <= 0:
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
    """f_sigma(t) as the ratio of two certified evaluations.

    The error bound combines both truncation bounds through the quotient
    rule; it is infinite only if the normalizer cannot be separated from 0.
    """
    sig = as_sigma(sigma, config.d)
    t_arr = as_sigma(t, config.d)
    num = evaluate(config, ComplexPoint(sig, t_arr), tol=tol, shell_cap=shell_cap)
    den = evaluate(config, ComplexPoint(sig, np.zeros_like(sig)), tol=tol, shell_cap=shell_cap)
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

def make_special_distribution(kind: str, check: bool = True, **params) -> SpecialDistribution:
    """delta(lam, u, c, theta0, sigma), binomial(j, big_k, phi, sigma),
    poisson(j, rate, sigma); check=False lifts the stated sigma ranges
    (any sigma with absolute convergence works for these)."""
    if kind == "delta":
        lam = float(params.pop("lam", 1.0))
        u = float(params.pop("u", 1.0))
        c = float(params.pop("c", 1.0))
        theta0 = float(params.pop("theta0", 1.0))
        sigma = float(params.pop("sigma"))
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
        j = int(params.pop("j"))
        big_k = int(params.pop("big_k"))
        phi = float(params.pop("phi"))
        sigma = float(params.pop("sigma"))
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
        j = int(params.pop("j"))
        rate = float(params.pop("rate", 0.0))
        sigma = float(params.pop("sigma"))
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
    bound for the unenumerated part (log factors absorbed into the envelope)."""
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
    a_bound = float(np.max(_log_offsets(config.lam, config.u)))
    c_col = np.sum(np.abs(config.c), axis=0)
    scale = 1.0
    for j, kj in enumerate(k):
        scale *= float(c_col[j]) ** kj
    weight = _LogWeight(scale=scale, offset=a_bound, power=order)
    raw = _tail_bound(config, dist.sigma, dist.shells_used, weight)
    return MomentValue(value=value, tail_bound=raw / abs(dist.normalizer.value.real))


def empirical_cf(batch: SampleBatch, t) -> complex:
    """(1/N) sum_j exp(i <t, x_j>)."""
    if batch.points.size == 0:
        raise ConfigError("empty sample batch")
    t_arr = np.atleast_1d(np.asarray(t, dtype=float))
    if t_arr.size != batch.points.shape[1]:
        raise ConfigError(
            f"t has dimension {t_arr.size}, samples have {batch.points.shape[1]}"
        )
    phases = batch.points @ t_arr
    total = complex(exact_real_sum(np.cos(phases)), exact_real_sum(np.sin(phases)))
    return total / batch.count


def atom_cf_grid(dist: ZetaDistribution, axis: int, ts) -> np.ndarray:
    """The atom table's characteristic function at t e_axis for each t of
    `ts` (axis in 1..d), one plain `np.sum` over the atoms per t; `atom_cf`
    is the order-independent path for single points."""
    if not 1 <= axis <= dist.d:
        raise ConfigError(f"t axis must be in 1..{dist.d}, got {axis}")
    locs = dist.locations[:, axis - 1]
    return np.array([np.sum(dist.masses * np.exp(1j * t * locs)) for t in ts], dtype=complex)


def atom_cf(dist: ZetaDistribution, t) -> complex:
    """Characteristic function of the truncated atom table itself."""
    t_arr = np.atleast_1d(np.asarray(t, dtype=float))
    phases = dist.locations @ t_arr
    return complex(
        exact_real_sum(dist.masses * np.cos(phases)),
        exact_real_sum(dist.masses * np.sin(phases)),
    )
