"""Ops, their oracles and their output digests.

An op is one call the benchmark times.  Its oracle is fixed before timing
starts: a reference value computed independently (mpmath or a closed form),
a polynomial-root or closed-form characteristic-function oracle, an expected
exit code or an expected certificate flag.
"""

from __future__ import annotations

import cmath
import dataclasses
import hashlib
import math
from dataclasses import dataclass
from typing import Any, Callable

from measure import Outcome, failed

# Values are compared with their reference up to the returned tail bound plus
# this share of a bound on sum |terms|.  Double-precision summation of up to
# 1e8 terms (pairwise within blocks, compensated across them) and libm pow/exp
# on each term stay far below it; every requested tolerance is above 1e-10.
ROUNDING_REL = 1e-12


@dataclass
class Op:
    name: str
    run: Callable[[dict], Any]  # ctx -> result; ctx holds earlier results of the pass
    check: Callable[[Any, dict], Outcome]
    key: str = ""  # when set, the result is stored as ctx[key] for later ops
    known_defect: str = ""  # non-empty: fails at the parent commit, for this reason


# fields that are not part of an output: the input config, and CLI error
# text (the CSV bytes and the exit code are what must repeat)
_NOT_OUTPUTS = {"config", "stderr"}


def digest(obj) -> str:
    """Hash of every bit of a result: arrays by bytes, floats exactly."""
    h = hashlib.sha256()
    _feed(h, obj)
    return h.hexdigest()


def _feed(h, obj) -> None:
    if hasattr(obj, "tobytes") and hasattr(obj, "dtype"):
        h.update(f"array{obj.shape}{obj.dtype}".encode())
        h.update(obj.tobytes())
    elif dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        h.update(type(obj).__name__.encode())
        for f in dataclasses.fields(obj):
            if f.name in _NOT_OUTPUTS:
                continue
            _feed(h, getattr(obj, f.name))
    elif isinstance(obj, (list, tuple)):
        h.update(b"[")
        for item in obj:
            _feed(h, item)
        h.update(b"]")
    elif isinstance(obj, dict):
        for k in sorted(obj):
            h.update(repr(k).encode())
            _feed(h, obj[k])
    elif isinstance(obj, complex):
        h.update(f"{obj.real.hex()},{obj.imag.hex()}".encode())
    elif isinstance(obj, float):
        h.update(obj.hex().encode())
    elif callable(obj):
        return
    else:
        h.update(repr(obj).encode())


# ---------------------------------------------------------------------------
# Oracles
# ---------------------------------------------------------------------------

def within(value: complex, ref: complex, bound: float, scale: float) -> tuple[bool, str]:
    err = abs(complex(value) - complex(ref))
    allowed = bound + ROUNDING_REL * scale
    return err <= allowed, f"|value - ref| = {err:.3e}, allowed {allowed:.3e}"


def check_eval(res, ref: complex, tol: float, scale: float) -> Outcome:
    """A series evaluation: value within its tail bound of the reference, and
    a certified flag only where the bound meets the requested tolerance."""
    ok, detail = within(res.value, ref, res.tail_bound, scale)
    certified = bool(res.certified) and res.tail_bound <= tol
    if res.certified and not res.tail_bound <= tol:
        return failed(f"certified with bound {res.tail_bound:.3e} > tol {tol:.1e}", True)
    if not ok:
        return failed(detail, True)
    note = "" if certified else f"bound {res.tail_bound:.3e} > tol {tol:.1e} at the point cap"
    return Outcome(ok=True, certifiable=True, certified=certified, detail=note or detail)


def check_close(value: complex, ref: complex, bound: float, scale: float = 1.0) -> Outcome:
    ok, detail = within(value, ref, bound, scale)
    return Outcome(ok=True, detail=detail) if ok else failed(detail)


def expect(condition: bool, detail: str, certifiable: bool = False) -> Outcome:
    if condition:
        return Outcome(ok=True, certifiable=certifiable, certified=certifiable, detail=detail)
    return failed(detail, certifiable)


def quadratic_roots(a: float, b: float, c: float) -> tuple[complex, complex]:
    """Roots of a x^2 + b x + c with the cancellation-free formula."""
    disc = cmath.sqrt(b * b - 4 * a * c)
    q = -0.5 * (b + disc if (b.real * disc.real + b.imag * disc.imag) >= 0 else b - disc)
    return q / a, c / q


def rect_boundary_distance(z: complex, rect) -> float:
    re_lo, re_hi, im_lo, im_hi = rect
    if re_lo <= z.real <= re_hi and im_lo <= z.imag <= im_hi:
        return min(z.real - re_lo, re_hi - z.real, z.imag - im_lo, im_hi - z.imag)
    dx = max(re_lo - z.real, 0.0, z.real - re_hi)
    dy = max(im_lo - z.imag, 0.0, z.imag - im_hi)
    return math.hypot(dx, dy)


LOG2 = math.log(2.0)
PERIOD = 2 * math.pi / LOG2
MARGIN = 0.1


def poly_zeros(a0: float, a1: float, a3: float, im_span: float = 40.0) -> list[complex]:
    """Zeros in s: x = 2^-s solves a3 x^2 + a1 x + a0 = 0, repeating with period
    2 pi i / log 2."""
    out = []
    for x in quadratic_roots(a3, a1, a0):
        re = -math.log2(abs(x))
        im0 = -cmath.phase(x) / LOG2
        k_max = int(im_span / PERIOD) + 2
        out.extend(complex(re, im0 + k * PERIOD) for k in range(-k_max, k_max + 1))
    return out


def draw_poly_rect(g) -> tuple[tuple[float, float, float], tuple, int]:
    """A 3-term Dirichlet polynomial and a rectangle whose contour stays
    MARGIN away from every zero, with the number of zeros inside."""
    while True:
        a0, a1, a3 = g.uniform(0.5, 2.0), g.uniform(-3.0, 3.0), g.uniform(0.5, 2.0)
        re_lo = g.uniform(-3.0, -0.5)
        im_lo = g.uniform(-6.0, 4.0)
        rect = (re_lo, re_lo + g.uniform(1.5, 4.0), im_lo, im_lo + g.uniform(2.0, 8.0))
        if abs(a1 * a1 - 4 * a0 * a3) < 0.05:
            continue  # near-double root: the count is ill-conditioned
        zs = poly_zeros(a0, a1, a3)
        if any(rect_boundary_distance(z, rect) < MARGIN for z in zs):
            continue  # a zero on the contour has no well-defined count
        inside = sum(rect[0] < z.real < rect[1] and rect[2] < z.imag < rect[3] for z in zs)
        return (a0, a1, a3), rect, inside
