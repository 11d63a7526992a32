"""Zero location for series values and characteristic functions.

Characteristic-function zeros are scanned on a grid along one t axis, then
refined by damped complex Newton iterations on the analytic continuation in
the complexified grid variable, with the exact derivative of the series
along the slice (the series differentiated along each axis the slice
moves, `differentiate`).  Rectangle counts use the argument
principle on one-complex-parameter affine slices: a walk over refinement
levels halves every boundary segment whose phase step is not below pi/2,
and gives None for a zero on the boundary, where the rectangle grows.  A
confirmed zero's multiplicity is such a count, on a small square of the
scan's own slice.  One slice evaluator maps an array of w to series values
in one `evaluate_many` call, so a rectangle's initial samples and each
level's midpoints are one call each, and a Newton step's derivative is one
call per axis of the slice.
A confirmed zero yields a non-infinite-divisibility certificate: an
infinitely divisible law has a nonvanishing characteristic function.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np
import yaml

from .arithmetic import frozen_array
from .distributions import ZetaDistribution, atom_cf_grid, build_distribution
from .errors import ConfigError, NumericError, RegionError
from .series import (
    DEFAULT_SHELL_CAP,
    ComplexPoint,
    ShintaniConfig,
    as_sigma,
    differentiate,
    evaluate,
    evaluate_many,
    in_convergence_region,
)
from .config_io import shintani_to_dict

TWO_PI = 2.0 * math.pi
_GRID_DELTA = 1e-4  # atom-table truncation behind the scan grid
_MAX_DEPTH = 40  # bisections of one contour segment
_MAX_PERTURB = 6  # rectangle growths before a boundary zero is an error
_INIT_SAMPLES = 16  # initial contour samples per rectangle edge


@dataclass(frozen=True)
class SliceSpec:
    """Affine one-complex-parameter slice s(w) = base + w * direction with a
    rectangular w domain (re_lo, re_hi, im_lo, im_hi)."""

    base: ComplexPoint
    direction: np.ndarray
    rect: tuple[float, float, float, float]

    def __post_init__(self) -> None:
        object.__setattr__(self, "direction", frozen_array(np.atleast_1d(self.direction), complex))
        if not np.isfinite(self.direction).all():
            raise ConfigError(f"slice direction must be finite, got {self.direction}")
        re_lo, re_hi, im_lo, im_hi = self.rect
        if not (all(map(math.isfinite, self.rect)) and re_lo < re_hi and im_lo < im_hi):
            raise ConfigError(f"degenerate or unbounded slice rectangle {self.rect}")

    def at(self, w: complex) -> ComplexPoint:
        s = self.base.values + w * self.direction
        return ComplexPoint(s.real, s.imag)

    def corners(self) -> list[complex]:
        re_lo, re_hi, im_lo, im_hi = self.rect
        return [
            complex(re_lo, im_lo),
            complex(re_hi, im_lo),
            complex(re_hi, im_hi),
            complex(re_lo, im_hi),
        ]


@dataclass(frozen=True)
class ZeroCandidate:
    location: complex
    residual: float
    status: str  # confirmed / unconfirmed / refine_failed
    multiplicity: Optional[int] = None


@dataclass(frozen=True)
class ZeroReport:
    candidates: tuple[ZeroCandidate, ...]
    rectangle_counts: tuple[tuple[tuple[float, float, float, float], int], ...]
    certificate: bool
    axis: int
    sigma: tuple[float, ...]
    tol: float

    @property
    def confirmed(self) -> tuple[ZeroCandidate, ...]:
        return tuple(c for c in self.candidates if c.status == "confirmed")

    def as_table(self) -> tuple[list[str], np.ndarray]:
        rows = np.array(
            [[c.location.real, c.location.imag, c.residual] for c in self.candidates]
        ).reshape(len(self.candidates), 3)
        return ["re", "im", "residual"], rows


def _slice_valid(config: ShintaniConfig, spec: SliceSpec) -> bool:
    """Re<c_l, s(w)> is affine in (Re w, Im w): corner checks cover the box."""
    if config.theta.is_entire:
        return True
    return all(
        in_convergence_region(config, spec.at(w)) for w in spec.corners()
    )


# ---------------------------------------------------------------------------
# Characteristic-function zero scan
# ---------------------------------------------------------------------------

def scan_cf_zeros(
    config: ShintaniConfig,
    sigma,
    t_axis: int = 1,
    t_range: tuple[float, float] = (-20.0, 20.0),
    step: float = 0.05,
    tol: float = 1e-9,
    trigger: float = 0.2,
    eval_tol: float = 1e-10,
    shell_cap: int = DEFAULT_SHELL_CAP,
) -> ZeroReport:
    """Grid scan of |f_sigma| along one t axis, Newton refinement of minima.

    Grid values come from the truncated atom table (error <= ~2*_GRID_DELTA,
    plenty below the trigger); refinement evaluates the series ratio
    directly at each iterate, complexifying t to handle tangential zeros.
    A confirmed zero w gets its multiplicity from `count_zeros_rectangle`
    on a small square around w in the same slice s(w) = sigma + i w e_axis.
    """
    if not (math.isfinite(step) and step > 0 and trigger > 0):
        raise ConfigError(f"scan step (finite) and trigger must be positive: {step}, {trigger}")
    sig = as_sigma(sigma, config.d)
    if not 1 <= t_axis <= config.d:
        raise ConfigError(f"t_axis must be in 1..{config.d}, got {t_axis}")
    lo, hi = t_range
    if not (math.isfinite(lo) and math.isfinite(hi) and lo <= hi):
        raise ConfigError(f"scan t_range needs finite ends with lo <= hi, got {t_range}")
    delta = min(_GRID_DELTA, trigger / 50)
    dist = build_distribution(config, sig, delta=delta, shell_cap=shell_cap)
    ts = np.arange(lo, hi + step / 2, step)
    # abs per value: np.abs of the array rounds some values differently
    grid_abs = np.array([abs(v) for v in atom_cf_grid(dist, t_axis, ts)])
    base = ComplexPoint(sig, np.zeros_like(sig))
    direction = np.zeros(config.d, dtype=complex)
    direction[t_axis - 1] = 1j
    f, slope = _cf_on_slice(config, base, direction, eval_tol, shell_cap)
    candidates: list[ZeroCandidate] = []
    rect_counts: list[tuple[tuple[float, float, float, float], int]] = []
    for i in range(1, len(ts) - 1):
        if grid_abs[i] >= trigger:
            continue
        if grid_abs[i] <= grid_abs[i - 1] and grid_abs[i] <= grid_abs[i + 1]:
            cand = _refine_zero(f, slope, complex(ts[i]), tol, max(step, 1e-3))
            if cand is None:
                candidates.append(
                    ZeroCandidate(complex(ts[i]), float(grid_abs[i]), "refine_failed")
                )
                continue
            w, resid = cand
            if resid < tol:
                radius = max(1e-4, 10 * abs(w) * 1e-9)
                square = (w.real - radius, w.real + radius, w.imag - radius, w.imag + radius)
                mult = count_zeros_rectangle(
                    config, SliceSpec(base, direction, square), eval_tol, shell_cap
                )
                rect_counts.append((square, mult))
                candidates.append(ZeroCandidate(w, resid, "confirmed", mult))
            else:
                candidates.append(ZeroCandidate(w, resid, "unconfirmed"))
    dedup = _dedup_candidates(candidates, step / 2)
    return ZeroReport(
        candidates=tuple(dedup),
        rectangle_counts=tuple(rect_counts),
        certificate=any(c.status == "confirmed" for c in dedup),
        axis=t_axis,
        sigma=tuple(float(x) for x in sig),
        tol=tol,
    )


def _series_on_slice(
    config: ShintaniConfig, base: ComplexPoint, direction: np.ndarray, eval_tol: float,
    shell_cap: int,
) -> Callable[[np.ndarray], list[complex]]:
    """The series at s(w) = base + w * direction, as a function of an array
    of w answered by one `evaluate_many` call."""

    def values(ws: np.ndarray) -> list[complex]:
        pts = base.values + ws[:, None] * direction
        return [r.value for r in evaluate_many(config, pts, tol=eval_tol, shell_cap=shell_cap)]

    return values


def _cf_on_slice(
    config: ShintaniConfig, base: ComplexPoint, direction: np.ndarray, eval_tol: float,
    shell_cap: int,
) -> tuple[Callable[[np.ndarray], list[complex]], Callable[[np.ndarray], list[complex]]]:
    """f(w) = Z(base + w * direction) / Z(base) for a real base and its
    derivative f'(w) = sum_j direction_j (d_j Z)(base + w * direction) /
    Z(base), each as a function of an array of w; d_j Z is the series of
    `differentiate(config, j)`, one `evaluate_many` call per axis j with
    direction_j != 0.  With direction i e_axis, f is the characteristic
    function continued to complex t."""
    den = evaluate(config, base, tol=eval_tol, shell_cap=shell_cap)
    if den.value == 0:
        raise NumericError("normalizer vanishes; cannot form a characteristic function")
    values = _series_on_slice(config, base, direction, eval_tol, shell_cap)
    axes = [
        (dj, _series_on_slice(differentiate(config, j), base, direction, eval_tol, shell_cap))
        for j, dj in enumerate(direction.tolist(), start=1) if dj
    ]

    def slope(ws: np.ndarray) -> list[complex]:
        total = sum(dj * np.array(g(ws)) for dj, g in axes)
        return [v / den.value for v in total.tolist()]

    return (lambda ws: [v / den.value for v in values(ws)]), slope


def _at(f: Callable[[np.ndarray], list[complex]], w: complex) -> complex:
    """f at the one point w."""
    return f(np.array([w]))[0]


def _refine_zero(
    f: Callable[[np.ndarray], list[complex]],
    slope: Callable[[np.ndarray], list[complex]],
    w0: complex,
    tol: float,
    scale: float,
    max_iter: int = 60,
) -> Optional[tuple[complex, float]]:
    """Damped Newton from w0 with the exact derivative `slope`; f and slope
    map an array of w to a list of values.  None when the derivative cannot
    be evaluated or is 0."""
    w = w0
    fw = _at(f, w)
    for _ in range(max_iter):
        if abs(fw) < tol * 1e-2:
            break
        try:
            df = _at(slope, w)
        except (RegionError, NumericError):
            return None
        if df == 0:
            return None
        step = fw / df
        if abs(step) > 10 * scale:
            step *= 10 * scale / abs(step)
        damp = 1.0
        for _ in range(40):
            try:
                cand = _at(f, w - damp * step)
            except (RegionError, NumericError):
                damp /= 2.0
                continue
            if abs(cand) < abs(fw):
                w = w - damp * step
                fw = cand
                break
            damp /= 2.0
        else:
            break
        if abs(damp * step) < 1e-14 * max(1.0, abs(w)):
            break
    return w, abs(fw)


def _dedup_candidates(
    candidates: list[ZeroCandidate], radius: float
) -> list[ZeroCandidate]:
    out: list[ZeroCandidate] = []
    for cand in sorted(candidates, key=lambda c: c.residual):
        if all(abs(cand.location - kept.location) > radius for kept in out):
            out.append(cand)
    return sorted(out, key=lambda c: (c.location.real, c.location.imag))


# ---------------------------------------------------------------------------
# Argument-principle rectangle counts
# ---------------------------------------------------------------------------

def count_zeros_rectangle(
    config: ShintaniConfig,
    slice_spec: SliceSpec,
    eval_tol: float = 1e-9,
    shell_cap: int = DEFAULT_SHELL_CAP,
) -> int:
    """Winding number of the slice restriction around 0 (zeros counted with
    multiplicity), from `_winding_rect`.  Where the walk returns None (a
    zero on the boundary, or a phase jump no halving resolves) the
    rectangle grows by 1e-3 of its spans per retry, at most _MAX_PERTURB =
    6 times; a persistent one raises NumericError, and a grown rectangle
    that leaves the convergence region raises RegionError."""
    if slice_spec.base.d != config.d or slice_spec.direction.size != config.d:
        raise ConfigError(
            f"slice base and direction need {config.d} components, got "
            f"{slice_spec.base.d} and {slice_spec.direction.size}"
        )
    if not _slice_valid(config, slice_spec):
        raise RegionError("slice rectangle leaves the certified convergence region")
    g = _series_on_slice(config, slice_spec.base, slice_spec.direction, eval_tol, shell_cap)
    rect = slice_spec.rect
    spans = (rect[1] - rect[0], rect[3] - rect[2])
    for attempt in range(_MAX_PERTURB + 1):
        grow = 1e-3 * attempt
        rect_try = (
            rect[0] - grow * spans[0],
            rect[1] + grow * spans[0],
            rect[2] - grow * spans[1],
            rect[3] + grow * spans[1],
        )
        spec_try = SliceSpec(slice_spec.base, slice_spec.direction, rect_try)
        if not _slice_valid(config, spec_try):
            raise RegionError("perturbed rectangle leaves the convergence region")
        winding = _winding_rect(g, spec_try)
        if winding is not None:
            return winding
    raise NumericError(
        f"zero persists on the rectangle boundary after {_MAX_PERTURB} perturbations"
    )


def _winding_rect(
    g: Callable[[np.ndarray], list[complex]], spec: SliceSpec
) -> Optional[int]:
    """Phase tracking around the boundary of the slice rectangle, one level
    of segment halving at a time; g maps an array of w to a list of values.

    Each edge starts from a dense sample grid, evaluated in one call:
    endpoint deltas alone can hide a full 2 pi wrap, which halving then
    never detects.  The pending segments are four arrays (w0, z0, w1, z1),
    first the _INIT_SAMPLES segments per edge.  Each level tests them all:
    a value below the floor, 1e-11 of the largest initial |value|, is a
    zero on the boundary; a phase step angle(z1 / z0) below pi/2 is added
    to the total; every other segment is halved, and all midpoints of the
    level are one call of g.  A boundary zero, or a segment unresolved
    after _MAX_DEPTH halvings (a jump no halving separates from a zero),
    returns None.  The steps around the closed contour sum to a whole
    number of turns up to rounding whatever they are, so the sample
    spacing, not the total, is the guard against a missed wrap.
    """
    corners = np.array(spec.corners())
    frac = np.arange(_INIT_SAMPLES) / _INIT_SAMPLES
    edges = corners[:, None] + (np.roll(corners, -1) - corners)[:, None] * frac
    w = np.append(edges.ravel(), corners[0])
    values = g(w)
    scale = max(abs(z) for z in values)
    if scale == 0.0:
        return None
    floor = 1e-11 * scale
    z = np.array(values, dtype=complex)
    w0, z0, w1, z1 = w[:-1], z[:-1], w[1:], z[1:]
    total = 0.0
    for depth in range(_MAX_DEPTH + 1):
        if (np.abs(z0) < floor).any() or (np.abs(z1) < floor).any():
            return None
        dphi = np.angle(z1 / z0)
        split = np.abs(dphi) >= math.pi / 2
        total += float(dphi[~split].sum())
        if not split.any():
            break
        if depth == _MAX_DEPTH:
            return None
        w0, z0, w1, z1 = w0[split], z0[split], w1[split], z1[split]
        wm = (w0 + w1) / 2.0
        zm = np.array(g(wm), dtype=complex)
        w0, z0, w1, z1 = (
            np.concatenate((w0, wm)), np.concatenate((z0, zm)),
            np.concatenate((wm, w1)), np.concatenate((zm, z1)),
        )
    return round(total / TWO_PI)


# ---------------------------------------------------------------------------
# Certificates
# ---------------------------------------------------------------------------

def non_id_certificate(report: ZeroReport, dist: ZetaDistribution) -> str:
    """Structured statement that the law is not infinitely divisible, with a
    machine-checkable re-verification recipe."""
    confirmed = report.confirmed
    if not confirmed:
        raise NumericError("no confirmed zero in the report")
    zero = min(confirmed, key=lambda c: c.residual)
    recipe = {
        "function": shintani_to_dict(dist.config),
        "action": {
            "sigma": [float(x) for x in report.sigma],
            "scan": {
                "axis": report.axis,
                "lo": float(zero.location.real) - 0.5,
                "hi": float(zero.location.real) + 0.5,
                "step": 0.01,
                "trigger": 0.5,
            },
            "tol": report.tol,
        },
    }
    lines = [
        "NON-INFINITE-DIVISIBILITY CERTIFICATE",
        "",
        f"sigma: {list(report.sigma)}",
        f"t axis: {report.axis}",
        f"zero location (complexified t): {zero.location.real!r} + {zero.location.imag!r}i",
        f"residual |f_sigma|: {zero.residual!r}",
        f"tolerance: {report.tol!r}",
    ]
    if zero.multiplicity is not None:
        lines.append(f"multiplicity (winding count on a small rectangle): {zero.multiplicity}")
    lines += [
        "",
        "conclusion: the characteristic function f_sigma vanishes at the point",
        "above; characteristic functions of infinitely divisible laws have no",
        "zeros, so this distribution is NOT infinitely divisible.",
        "",
        "re-verify by scanning the attached configuration near the zero:",
        "",
        yaml.safe_dump(recipe, sort_keys=False, default_flow_style=None).rstrip(),
        "",
    ]
    return "\n".join(lines)
