"""Zero location for series values and characteristic functions.

Characteristic-function zeros are scanned on a grid along one t axis, then
refined by damped complex Newton iterations on the analytic continuation in
the complexified grid variable.  Rectangle counts use the argument
principle on one-complex-parameter affine slices, with adaptive boundary
subdivision keeping every phase step below pi/2.  The functions on a slice
take an array of w, so a rectangle's initial samples and a Newton step's
central-difference pair are one `evaluate_many` call each.  A confirmed zero yields a
non-infinite-divisibility certificate: an infinitely divisible law has a
nonvanishing characteristic function.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np
import yaml

from .distributions import ZetaDistribution, atom_cf_grid, build_distribution
from .errors import ConfigError, NumericError, RegionError
from .series import (
    DEFAULT_SHELL_CAP,
    ComplexPoint,
    ShintaniConfig,
    as_sigma,
    evaluate,
    evaluate_many,
    in_convergence_region,
)
from .config_io import shintani_to_dict

TWO_PI = 2.0 * math.pi


@dataclass(frozen=True)
class SliceSpec:
    """Affine one-complex-parameter slice s(w) = base + w * direction with a
    rectangular w domain (re_lo, re_hi, im_lo, im_hi)."""

    base: ComplexPoint
    direction: np.ndarray
    rect: tuple[float, float, float, float]

    def __post_init__(self) -> None:
        object.__setattr__(
            self, "direction", np.atleast_1d(np.asarray(self.direction, dtype=complex))
        )
        self.direction.setflags(write=False)
        re_lo, re_hi, im_lo, im_hi = self.rect
        if not (re_lo < re_hi and im_lo < im_hi):
            raise ConfigError(f"degenerate slice rectangle {self.rect}")

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
    grid_delta: float = 1e-4,
    eval_tol: float = 1e-10,
    shell_cap: int = DEFAULT_SHELL_CAP,
    multiplicity: bool = True,
) -> ZeroReport:
    """Grid scan of |f_sigma| along one t axis, Newton refinement of minima.

    Grid values come from the truncated atom table (error <= ~2*grid_delta,
    plenty below the trigger); refinement evaluates the series ratio
    directly at each iterate, complexifying t to handle tangential zeros.
    """
    if not (step > 0 and trigger > 0):
        raise ConfigError(f"scan step and trigger must be positive, got {step} and {trigger}")
    sig = as_sigma(sigma, config.d)
    if not 1 <= t_axis <= config.d:
        raise ConfigError(f"t_axis must be in 1..{config.d}, got {t_axis}")
    lo, hi = t_range
    if not (math.isfinite(lo) and math.isfinite(hi) and lo <= hi):
        raise ConfigError(f"scan t_range needs finite ends with lo <= hi, got {t_range}")
    dist = build_distribution(config, sig, delta=min(grid_delta, trigger / 50), shell_cap=shell_cap)
    ts = np.arange(lo, hi + step / 2, step)
    # abs per value: np.abs of the array rounds some values differently
    grid_abs = np.array([abs(v) for v in atom_cf_grid(dist, t_axis, ts)])
    f = _cf_on_slice(config, sig, t_axis, eval_tol, shell_cap)
    candidates: list[ZeroCandidate] = []
    rect_counts: list[tuple[tuple[float, float, float, float], int]] = []
    for i in range(1, len(ts) - 1):
        if grid_abs[i] >= trigger:
            continue
        if grid_abs[i] <= grid_abs[i - 1] and grid_abs[i] <= grid_abs[i + 1]:
            cand = _refine_zero(f, complex(ts[i]), tol, max(step, 1e-3))
            if cand is None:
                candidates.append(
                    ZeroCandidate(complex(ts[i]), float(grid_abs[i]), "refine_failed")
                )
                continue
            w, resid = cand
            if resid < tol:
                mult = None
                if multiplicity:
                    radius = max(1e-4, 10 * abs(w) * 1e-9)
                    mult = _winding_count(f, w, radius)
                    rect_counts.append(
                        (
                            (w.real - radius, w.real + radius,
                             w.imag - radius, w.imag + radius),
                            mult,
                        )
                    )
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


def _cf_on_slice(
    config: ShintaniConfig,
    sig: np.ndarray,
    t_axis: int,
    eval_tol: float,
    shell_cap: int,
) -> Callable[[np.ndarray], np.ndarray]:
    """f(w) = Z(sigma + i w e_axis) / Z(sigma), continued to complex w, as a
    function of an array of w."""
    den = evaluate(
        config, ComplexPoint(sig, np.zeros_like(sig)), tol=eval_tol, shell_cap=shell_cap
    )
    if den.value == 0:
        raise NumericError("normalizer vanishes; cannot form a characteristic function")
    unit = np.zeros(config.d)
    unit[t_axis - 1] = 1.0

    def f(ws: np.ndarray) -> np.ndarray:
        # s = sigma + i w e_axis continued to complex w: Re s = sigma - Im w e_axis
        pts = np.empty((len(ws), config.d), dtype=complex)
        pts.real = sig - ws.imag[:, None] * unit
        pts.imag = ws.real[:, None] * unit
        return np.array(
            [v / den.value for v in _series_values(config, pts, eval_tol, shell_cap)]
        )

    return f


def _series_values(
    config: ShintaniConfig, pts: np.ndarray, tol: float, shell_cap: int
) -> list[complex]:
    """The series values at the rows of `pts`, from one `evaluate_many` call."""
    return [r.value for r in evaluate_many(config, pts, tol=tol, shell_cap=shell_cap)]


def _at(f: Callable[[np.ndarray], np.ndarray], w: complex) -> complex:
    """f at the one point w."""
    return f(np.array([w]))[0].item()


def _refine_zero(
    f: Callable[[np.ndarray], np.ndarray],
    w0: complex,
    tol: float,
    scale: float,
    max_iter: int = 60,
) -> Optional[tuple[complex, float]]:
    """Damped Newton with a central-difference derivative; f maps an array
    of w to an array of values."""
    w = w0
    fw = _at(f, w)
    for _ in range(max_iter):
        if abs(fw) < tol * 1e-2:
            break
        h = 1e-7 * max(1.0, abs(w))
        try:
            f_plus, f_minus = f(np.array([w + h, w - h])).tolist()
        except (RegionError, NumericError):
            return None
        df = (f_plus - f_minus) / (2.0 * h)
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

class _BoundaryZero(Exception):
    pass


def count_zeros_rectangle(
    config: ShintaniConfig,
    slice_spec: SliceSpec,
    eval_tol: float = 1e-9,
    shell_cap: int = DEFAULT_SHELL_CAP,
    max_depth: int = 40,
    max_perturb: int = 6,
) -> int:
    """Winding number of the slice restriction around 0 (zeros counted with
    multiplicity).  Boundary zeros trigger automatic rectangle perturbation;
    persistent ones raise NumericError."""
    if slice_spec.base.d != config.d or slice_spec.direction.size != config.d:
        raise ConfigError(
            f"slice base and direction need {config.d} components, got "
            f"{slice_spec.base.d} and {slice_spec.direction.size}"
        )
    if not _slice_valid(config, slice_spec):
        raise RegionError("slice rectangle leaves the certified convergence region")

    def g(ws: np.ndarray) -> np.ndarray:
        pts = slice_spec.base.values + ws[:, None] * slice_spec.direction
        return np.array(_series_values(config, pts, eval_tol, shell_cap))

    rect = slice_spec.rect
    spans = (rect[1] - rect[0], rect[3] - rect[2])
    for attempt in range(max_perturb + 1):
        grow = 1e-3 * attempt
        rect_try = (
            rect[0] - grow * spans[0],
            rect[1] + grow * spans[0],
            rect[2] - grow * spans[1],
            rect[3] + grow * spans[1],
        )
        try:
            spec_try = SliceSpec(slice_spec.base, slice_spec.direction, rect_try)
            if not _slice_valid(config, spec_try):
                raise RegionError("perturbed rectangle leaves the convergence region")
            return _winding_rect(g, rect_try, max_depth)
        except _BoundaryZero:
            continue
    raise NumericError(
        f"zero persists on the rectangle boundary after {max_perturb} perturbations"
    )


def _winding_rect(
    g: Callable[[np.ndarray], np.ndarray],
    rect: tuple[float, float, float, float],
    max_depth: int,
    init_samples: int = 16,
) -> int:
    """Phase tracking around the rectangle boundary; g maps an array of w to
    an array of values.

    Each edge starts from a dense sample grid, evaluated in one call:
    endpoint deltas alone can hide a full 2 pi wrap, which adaptive
    bisection then never detects.
    """
    re_lo, re_hi, im_lo, im_hi = rect
    corners = [
        complex(re_lo, im_lo),
        complex(re_hi, im_lo),
        complex(re_hi, im_hi),
        complex(re_lo, im_hi),
    ]
    samples: list[complex] = []
    for i in range(4):
        w0, w1 = corners[i], corners[(i + 1) % 4]
        for k in range(init_samples):
            samples.append(w0 + (w1 - w0) * (k / init_samples))
    samples.append(corners[0])
    values = g(np.array(samples)).tolist()
    scale = max(abs(z) for z in values)
    if scale == 0.0:
        raise _BoundaryZero
    floor = 1e-11 * scale
    total = 0.0
    for i in range(len(samples) - 1):
        total += _track_segment(
            g, samples[i], values[i], samples[i + 1], values[i + 1], floor, max_depth
        )
    winding = round(total / TWO_PI)
    if abs(total / TWO_PI - winding) > 0.25:
        raise NumericError(
            f"argument tracking inconsistent: total phase {total / TWO_PI:.3f} turns"
        )
    return int(winding)


def _track_segment(
    g: Callable[[np.ndarray], np.ndarray],
    w0: complex,
    z0: complex,
    w1: complex,
    z1: complex,
    floor: float,
    depth: int,
) -> float:
    """Accumulated phase change with per-step increments < pi/2."""
    if abs(z0) < floor or abs(z1) < floor:
        raise _BoundaryZero
    dphi = np.angle(z1 / z0)
    if abs(dphi) < math.pi / 2:
        return float(dphi)
    if depth <= 0:
        raise _BoundaryZero  # cannot separate the phase jump from a zero
    mid = (w0 + w1) / 2.0
    zm = _at(g, mid)
    return _track_segment(g, w0, z0, mid, zm, floor, depth - 1) + _track_segment(
        g, mid, zm, w1, z1, floor, depth - 1
    )


def _winding_count(f: Callable[[np.ndarray], np.ndarray], center: complex, radius: float) -> int:
    """Zero multiplicity via a small square around a refined location."""
    rect = (
        center.real - radius,
        center.real + radius,
        center.imag - radius,
        center.imag + radius,
    )
    for attempt in range(5):
        try:
            return _winding_rect(f, rect, max_depth=30)
        except _BoundaryZero:
            rect = (
                rect[0] - radius * 0.37,
                rect[1] + radius * 0.41,
                rect[2] - radius * 0.39,
                rect[3] + radius * 0.43,
            )
    raise NumericError("could not separate the zero from the counting contour")


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
