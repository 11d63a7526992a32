"""Zero scanning, argument-principle rectangle counts, and certificates."""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from shintani import zeros
from shintani.coefficients import CoefficientSpec
from shintani.distributions import build_distribution, make_special_distribution
from shintani.errors import ConfigError, NumericError, RegionError
from shintani.series import ComplexPoint, ShintaniConfig, evaluate, make_special
from shintani.zeros import (
    SliceSpec,
    count_zeros_rectangle,
    non_id_certificate,
    scan_cf_zeros,
)

LOG2 = math.log(2.0)
PERIOD = 2 * math.pi / LOG2  # zero spacing of 1 - 2*2^-s along the imaginary axis


def dirichlet_poly(values: dict[int, float]) -> ShintaniConfig:
    """Z(s) = sum_n values[n] * (n+1)^{-s} as a finite-support configuration."""
    theta = CoefficientSpec.finite_support({(n,): v for n, v in values.items()})
    return ShintaniConfig(
        d=1, m=1, r=1, lam=np.array([[1.0]]), u=np.array([1.0]),
        c=np.array([[1.0]]), theta=theta,
    )


def real_axis_slice(rect) -> SliceSpec:
    return SliceSpec(
        base=ComplexPoint([0.0], [0.0]), direction=np.array([1.0 + 0j]), rect=rect
    )


class TestScan:
    def test_binomial_half_zero_at_pi(self):
        sd = make_special_distribution("binomial", j=2, big_k=1, phi=math.e, sigma=-1.0)
        report = scan_cf_zeros(sd.config, sd.sigma, t_range=(0.5, 6.0), step=0.05, tol=1e-10)
        assert report.certificate
        zero = report.confirmed[0]
        assert abs(zero.location - math.pi) <= 1e-8
        assert zero.residual < 1e-10
        assert zero.multiplicity == 1

    def test_tangential_zero_multiplicity_two(self):
        sd = make_special_distribution("binomial", j=2, big_k=2, phi=math.e, sigma=-1.0)
        report = scan_cf_zeros(sd.config, sd.sigma, t_range=(0.5, 6.0), step=0.05, tol=1e-9)
        assert report.certificate
        zero = report.confirmed[0]
        assert abs(zero.location - math.pi) <= 1e-4
        assert zero.multiplicity == 2

    @pytest.mark.parametrize("sigma", [-0.9, -1.3])
    def test_newton_takes_the_exact_derivative(self, sigma, monkeypatch):
        # the zero-scan workload's binomial laws (p = 1/2): Newton's slope is
        # the differentiated series (one log factor), not a difference pair
        many = zeros.evaluate_many
        degrees = []

        def spy(config, points, tol, shell_cap):
            degrees.append((config.theta.log_weight.power, len(points)))
            return many(config, points, tol=tol, shell_cap=shell_cap)

        monkeypatch.setattr(zeros, "evaluate_many", spy)
        for big_k, tol, where in ((1, 1e-10, 1e-8), (2, 1e-9, 1e-4)):
            sd = make_special_distribution("binomial", j=2, big_k=big_k, phi=math.exp(-sigma), sigma=sigma)
            report = scan_cf_zeros(sd.config, sd.sigma, t_range=(0.5, 6.0), step=0.05, tol=tol)
            (zero,) = [c for c in report.confirmed if abs(c.location - math.pi) <= where]
            assert zero.multiplicity == big_k
        assert (1, 1) in degrees and not any(n == 2 for _, n in degrees)

    def test_delta_no_zeros(self):
        sd = make_special_distribution("delta", lam=2.0, u=1.0, c=1.0, theta0=1.0, sigma=2.0)
        report = scan_cf_zeros(sd.config, sd.sigma, t_range=(-10, 10), step=0.1, tol=1e-9)
        assert not report.candidates

    def test_riemann_zero_free(self):
        # oracle: |log f| <= 2 * (total Levy mass) bounds |f| away from zero
        from shintani.euler import levy_measure

        mass = levy_measure(2.0, 10**4, 40).total_mass + 1e-3  # + crude tail
        floor = math.exp(-2.0 * mass)
        assert floor > 0.3
        report = scan_cf_zeros(
            make_special("riemann"), 2.0, t_range=(-20, 20), step=0.05,
            tol=1e-8, trigger=0.3,
        )
        assert not report.candidates
        assert not report.certificate

    def test_step_positive(self):
        with pytest.raises(Exception):
            scan_cf_zeros(make_special("riemann"), 2.0, step=0.0)

    @pytest.mark.parametrize("t_range", [
        (math.nan, 1.0), (0.0, math.nan), (0.0, math.inf), (-math.inf, 1.0), (2.0, 1.0),
    ])
    def test_bad_t_range_rejected(self, t_range):
        sd = make_special_distribution("binomial", j=2, big_k=1, phi=math.e, sigma=-1.0)
        with pytest.raises(ConfigError, match="t_range"):
            scan_cf_zeros(sd.config, sd.sigma, t_range=t_range)

    @pytest.mark.parametrize("step, t_range", [
        (1e-12, (-20.0, 20.0)), (1e-300, (-20.0, 20.0)), (5e-324, (0.0, 1.0)), (1.0, (-1e308, 1e308)),
    ])
    def test_grid_past_the_limit_rejected(self, step, t_range):
        # a step of 1e-12 raised MemoryError (291 TiB) and one of 1e-300
        # ValueError from numpy; refused before the atom table or grid is formed
        sd = make_special_distribution("binomial", j=2, big_k=1, phi=math.e, sigma=-1.0)
        tracemalloc.start()
        try:
            with pytest.raises(ConfigError, match="past the limit"):
                scan_cf_zeros(sd.config, sd.sigma, t_range=t_range, step=step)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2**20

    def test_t_axis_out_of_range_rejected(self):
        sd = make_special_distribution("binomial", j=2, big_k=1, phi=math.e, sigma=-1.0)
        for axis in (0, sd.config.d + 1):
            with pytest.raises(ConfigError, match="t_axis"):
                scan_cf_zeros(sd.config, sd.sigma, t_axis=axis)

    def test_nan_step_and_trigger_rejected(self):
        # a nan trigger made the zero-free law at sigma = -1 "confirm" zeros
        # at +-pi - i with certificate=True; an infinite step had no grid
        sd = make_special_distribution("binomial", j=2, big_k=1, phi=1.0, sigma=-1.0)
        for kw in ({"step": math.nan}, {"trigger": math.nan}, {"step": math.inf}):
            with pytest.raises(ConfigError, match="positive"):
                scan_cf_zeros(sd.config, sd.sigma, t_range=(-4.0, 4.0), **kw)


class TestRectangles:
    def test_unit_count(self):
        cfg = dirichlet_poly({0: 1.0, 1: -2.0})
        assert count_zeros_rectangle(cfg, real_axis_slice((0.0, 2.0, -1.0, 1.0))) == 1

    def test_shifted_period(self):
        cfg = dirichlet_poly({0: 1.0, 1: -2.0})
        assert count_zeros_rectangle(cfg, real_axis_slice((0.0, 2.0, 8.0, 10.0))) == 1
        # oracle: the zero there is exactly 1 + i * 2 pi / log 2
        assert 8.0 < PERIOD < 10.0

    def test_riemann_region_zero_free(self):
        cfg = make_special("riemann")
        count = count_zeros_rectangle(
            cfg, real_axis_slice((1.5, 3.0, -1.0, 1.0)), eval_tol=1e-6
        )
        assert count == 0

    def test_region_violation(self):
        cfg = make_special("riemann")
        with pytest.raises(RegionError):
            count_zeros_rectangle(cfg, real_axis_slice((0.5, 2.0, -1.0, 1.0)))

    def test_slice_dimension_checked(self):
        cfg = dirichlet_poly({0: 1.0, 1: -2.0})
        rect = (0.0, 2.0, -1.0, 1.0)
        for base, direction in (
            (ComplexPoint([0.0], [0.0]), np.array([1.0, 0.0], dtype=complex)),
            (ComplexPoint([0.0, 0.0], [0.0, 0.0]), np.array([1.0 + 0j])),
        ):
            with pytest.raises(ConfigError, match="components"):
                count_zeros_rectangle(cfg, SliceSpec(base=base, direction=direction, rect=rect))

    @pytest.mark.parametrize("rect, direction", [
        ((1.5, 3.0, -1.0, math.inf), 1.0 + 0j),
        ((-math.inf, 3.0, -1.0, 1.0), 1.0 + 0j),
        ((1.5, 3.0, -1.0, 1.0), complex(1.0, math.inf)),
    ])
    def test_unbounded_slice_rejected(self, rect, direction):
        # w * direction formed inf * 0 at the corners, a RuntimeWarning
        with pytest.raises(ConfigError, match="slice"):
            count_zeros_rectangle(
                make_special("riemann"),
                SliceSpec(ComplexPoint([0.0], [0.0]), np.array([direction]), rect),
            )

    def test_against_polynomial_roots(self):
        # Z(s) = a0 + a1 2^-s + a3 4^-s is a polynomial in x = 2^-s; its
        # zeros are s = -log2(x) + i k PERIOD, an independent root oracle
        rng = np.random.default_rng(8)
        for _ in range(6):
            a0, a1, a3 = rng.uniform(0.5, 2.0), rng.uniform(-3.0, 3.0), rng.uniform(0.5, 2.0)
            cfg = dirichlet_poly({0: a0, 1: a1, 3: a3})
            roots = np.roots([a3, a1, a0])  # in x = 2^-s
            zeros = []
            for x in roots:
                if abs(x) <= 0:
                    continue
                s_re = -math.log2(abs(x))
                s_im0 = -np.angle(x) / LOG2
                for k in range(-3, 4):
                    zeros.append(complex(s_re, s_im0 + k * PERIOD))
            rect = (-3.0, 3.0, -4.0, 4.0)
            inside = sum(
                1 for z in zeros
                if rect[0] < z.real < rect[1] and rect[2] < z.imag < rect[3]
            )
            got = count_zeros_rectangle(cfg, real_axis_slice(rect))
            assert got == inside

    def test_additivity(self):
        cfg = dirichlet_poly({0: 1.0, 1: -2.0})
        rng = np.random.default_rng(15)
        for _ in range(6):
            re_lo = float(rng.uniform(0.2, 0.7))
            re_hi = float(rng.uniform(1.4, 2.6))
            im_lo = float(rng.uniform(-25.0, -5.0))
            im_hi = im_lo + float(rng.uniform(8.0, 22.0))
            # keep boundaries and split lines away from the lattice of zeros
            if _near_zero_line(im_lo) or _near_zero_line(im_hi):
                continue
            re_mid = 1.0 + float(rng.uniform(0.15, 0.35))
            im_mid = (im_lo + im_hi) / 2
            if _near_zero_line(im_mid):
                im_mid += 0.5
            whole = count_zeros_rectangle(cfg, real_axis_slice((re_lo, re_hi, im_lo, im_hi)))
            parts = 0
            for rl, rh in ((re_lo, re_mid), (re_mid, re_hi)):
                for il, ih in ((im_lo, im_mid), (im_mid, im_hi)):
                    parts += count_zeros_rectangle(cfg, real_axis_slice((rl, rh, il, ih)))
            assert parts == whole

    def test_grown_rectangle_leaving_the_region(self, monkeypatch):
        # the first growth moves Re w below 1, where riemann diverges
        monkeypatch.setattr(zeros, "_winding_rect", lambda g, spec: None)
        with pytest.raises(RegionError, match="perturbed rectangle"):
            count_zeros_rectangle(make_special("riemann"), real_axis_slice((1.0 + 1e-4, 2.0, -1.0, 1.0)))

    def test_boundary_zero_perturbation(self):
        # zero exactly on the right edge: auto-perturbation must resolve it
        cfg = dirichlet_poly({0: 1.0, 1: -2.0})
        count = count_zeros_rectangle(cfg, real_axis_slice((0.0, 1.0, -1.0, 1.0)))
        assert count in (0, 1)  # resolved deterministically, no exception


def _poly_roots(a0: float, a1: float, a3: float, rect, margin: float):
    """Zeros of a0 + a1 2^-s + a3 4^-s inside rect, or None if one lies
    within margin of its boundary."""
    inside = 0
    for x in np.roots([a3, a1, a0]):  # in x = 2^-s
        s_re, s_im0 = -math.log2(abs(x)), -np.angle(x) / LOG2
        k_lo = math.floor((rect[2] - margin - s_im0) / PERIOD)
        for k in range(k_lo, math.ceil((rect[3] + margin - s_im0) / PERIOD) + 1):
            z = complex(s_re, s_im0 + k * PERIOD)
            dx = max(rect[0] - z.real, 0.0, z.real - rect[1])
            dy = max(rect[2] - z.imag, 0.0, z.imag - rect[3])
            if dx == dy == 0.0:
                edge = min(z.real - rect[0], rect[1] - z.real, z.imag - rect[2], rect[3] - z.imag)
                if edge < margin:
                    return None
                inside += 1
            elif math.hypot(dx, dy) < margin:
                return None
    return inside


@settings(deadline=None)
@given(
    st.floats(0.5, 2.0), st.floats(-3.0, 3.0), st.floats(0.5, 2.0),
    st.floats(-3.0, 1.0), st.floats(0.3, 4.0), st.floats(-12.0, 4.0), st.floats(0.3, 12.0),
)
def test_count_matches_polynomial_roots(a0, a1, a3, re_lo, width, im_lo, height):
    """The count on a random rectangle at least 0.05 from every root of a
    random a0 + a1 2^-s + a3 4^-s is the number of roots inside."""
    rect = (re_lo, re_lo + width, im_lo, im_lo + height)
    inside = _poly_roots(a0, a1, a3, rect, 0.05)
    assume(inside is not None)
    cfg = dirichlet_poly({0: a0, 1: a1, 3: a3})
    assert count_zeros_rectangle(cfg, real_axis_slice(rect)) == inside


class TestLevelWalk:
    """`_winding_rect` on synthetic slice functions: its counts and exits."""

    SPEC = real_axis_slice((-1.0, 1.0, -1.0, 1.0))

    @staticmethod
    def recording(fn):
        calls = []

        def g(ws):
            calls.append(ws.copy())
            return [fn(w) for w in ws.tolist()]

        return g, calls

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_power_counts(self, k):
        w0 = 0.2 - 0.3j
        assert zeros._winding_rect(lambda ws: list((ws - w0) ** k), self.SPEC) == k

    @pytest.mark.parametrize("w0", [1.0 + 0j, 1.0 + 0.03j, 0.3 - 1j])
    def test_edge_zero_is_none(self, w0):
        # 1 is an initial sample; the other two are reached by halving
        assert zeros._winding_rect(lambda ws: list(ws - w0), self.SPEC) is None

    def test_unresolvable_jump_is_none(self):
        # g jumps from 1 to -1 across Re w = 0.3: |g| = 1 never meets the
        # floor, and every halving keeps a phase step of pi
        g, calls = self.recording(lambda w: 1.0 + 0j if w.real < 0.3 else -1.0 + 0j)
        assert zeros._winding_rect(g, self.SPEC) is None
        assert len(calls) == 1 + zeros._MAX_DEPTH
        assert all(len(ws) == 2 for ws in calls[1:])  # the two crossing segments

    def test_one_call_per_level(self):
        # a triple zero 0.1 from the right edge: only segments near it halve
        w0 = 0.9 + 0.01j
        g, calls = self.recording(lambda w: (w - w0) ** 3)
        assert zeros._winding_rect(g, self.SPEC) == 3
        assert len(calls[0]) == 4 * zeros._INIT_SAMPLES + 1 and len(calls) > 2
        samples = calls[0]
        steps = np.angle((samples[1:] - w0) ** 3 / (samples[:-1] - w0) ** 3)
        unresolved = np.abs(steps) >= math.pi / 2
        mids = (samples[:-1] + samples[1:]) / 2
        assert sorted(calls[1].tolist(), key=lambda w: (w.real, w.imag)) == sorted(
            mids[unresolved].tolist(), key=lambda w: (w.real, w.imag)
        )
        later = np.concatenate(calls[1:])
        assert np.all(later.real == 1.0)  # no resolved segment is halved
        # each point once, but the first corner, which also closes the contour
        assert len(set(np.concatenate(calls).tolist())) == sum(map(len, calls)) - 1

    def test_resolved_contour_is_one_call(self):
        g, calls = self.recording(lambda w: w - 0.1j)
        assert zeros._winding_rect(g, self.SPEC) == 1
        assert len(calls) == 1


def _near_zero_line(y: float, margin: float = 0.4) -> bool:
    k = round(y / PERIOD)
    return abs(y - k * PERIOD) < margin


class TestCertificates:
    def test_certificate_content(self):
        sd = make_special_distribution("binomial", j=2, big_k=1, phi=math.e, sigma=-1.0)
        report = scan_cf_zeros(sd.config, sd.sigma, t_range=(0.5, 6.0), step=0.05, tol=1e-10)
        dist = build_distribution(sd.config, sd.sigma, delta=1e-10)
        cert = non_id_certificate(report, dist)
        assert "NOT infinitely divisible" in cert
        assert "re-verify" in cert
        assert "3.14159" in cert

    def test_no_zero_error(self):
        report = scan_cf_zeros(
            make_special("riemann"), 2.0, t_range=(-5, 5), step=0.1, tol=1e-8
        )
        dist = build_distribution(make_special("riemann"), 2.0, delta=1e-5)
        with pytest.raises(NumericError, match="no confirmed zero"):
            non_id_certificate(report, dist)

    def test_multiplicity_two_noted(self):
        sd = make_special_distribution("binomial", j=2, big_k=2, phi=math.e, sigma=-1.0)
        report = scan_cf_zeros(sd.config, sd.sigma, t_range=(2.0, 4.0), step=0.05, tol=1e-9)
        dist = build_distribution(sd.config, sd.sigma, delta=1e-10)
        cert = non_id_certificate(report, dist)
        assert "multiplicity" in cert and ": 2" in cert


class TestBatchedContours:
    """The zero finders ask for whole contours and Newton derivatives in one
    `evaluate_many` call.  The reference replaces that call by one
    `evaluate` per point: counts and reports must be identical."""

    @staticmethod
    def per_point(monkeypatch):
        def many(config, points, tol, shell_cap):
            return [evaluate(config, s, tol=tol, shell_cap=shell_cap) for s in points]

        monkeypatch.setattr(zeros, "evaluate_many", many)

    @staticmethod
    def outcome(fn):
        try:
            return fn()
        except NumericError as exc:
            return repr(exc)

    def test_rectangle_counts(self, monkeypatch):
        rng = np.random.default_rng(12)
        cases = []
        for _ in range(10):
            coeffs = {0: rng.uniform(0.5, 2.0), 1: rng.uniform(-3.0, 3.0), 3: rng.uniform(0.5, 2.0)}
            re_lo, im_lo = rng.uniform(-3.0, 1.0), rng.uniform(-12.0, 4.0)
            rect = (re_lo, re_lo + rng.uniform(0.5, 3.0), im_lo, im_lo + rng.uniform(1.0, 8.0))
            cases.append((dirichlet_poly(coeffs), real_axis_slice(rect)))
        batched = [self.outcome(lambda: count_zeros_rectangle(*case)) for case in cases]
        self.per_point(monkeypatch)
        assert batched == [self.outcome(lambda: count_zeros_rectangle(*case)) for case in cases]
        assert sum(isinstance(n, int) and n > 0 for n in batched) >= 3

    def test_binomial_scans(self, monkeypatch):
        scans = []
        for big_k, tol in ((1, 1e-10), (2, 1e-9)):
            sd = make_special_distribution("binomial", j=2, big_k=big_k, phi=math.e, sigma=-1.0)
            scans.append(lambda sd=sd, tol=tol: scan_cf_zeros(
                sd.config, sd.sigma, t_range=(0.5, 6.0), step=0.05, tol=tol
            ))
        batched = [scan() for scan in scans]
        assert [c.multiplicity for r in batched for c in r.confirmed] == [1, 2]
        self.per_point(monkeypatch)
        for report, scan in zip(batched, scans):
            reference = scan()
            assert report == reference
            assert repr(report) == repr(reference)  # repr tells 0.0 from -0.0


class TestFailureOutcomes:
    """The outcomes where a zero finder cannot confirm or count a zero."""

    HALF = dict(j=2, big_k=1, phi=math.e, sigma=-1.0)  # p = 1/2, a zero at t = pi

    def test_unreachable_tol_is_unconfirmed(self):
        sd = make_special_distribution("binomial", **self.HALF)
        report = scan_cf_zeros(sd.config, sd.sigma, t_range=(2.0, 4.0), step=0.05, tol=1e-300)
        (cand,) = report.candidates
        assert cand.status == "unconfirmed" and cand.multiplicity is None
        assert abs(cand.location - math.pi) <= 1e-8 and cand.residual >= 1e-300
        assert not report.certificate and not report.confirmed
        assert report.rectangle_counts == ()
        with pytest.raises(NumericError, match="no confirmed zero"):
            non_id_certificate(report, build_distribution(sd.config, sd.sigma, delta=1e-6))

    def test_failed_refinement_keeps_the_grid_point(self, monkeypatch):
        monkeypatch.setattr(zeros, "_refine_zero", lambda *args, **kwargs: None)
        sd = make_special_distribution("binomial", **self.HALF)
        report = scan_cf_zeros(sd.config, sd.sigma, t_range=(2.0, 4.0), step=0.05, tol=1e-9)
        (cand,) = report.candidates
        assert cand.status == "refine_failed"
        assert cand.location.imag == 0.0 and abs(cand.location.real - math.pi) <= 0.025
        assert cand.residual < 0.2  # the grid |f| that triggered the refinement
        assert not report.certificate and report.rectangle_counts == ()

    # the derivative of a Newton step (once a central-difference pair)

    @staticmethod
    def _ones(ws):
        return [1.0 + 0j for _ in ws]

    def test_refine_error_in_difference_pair(self):
        def slope(ws):
            raise NumericError("derivative")

        assert zeros._refine_zero(lambda ws: [w - 1.0 for w in ws], slope, 0j, 1e-9, 0.1) is None

    def test_refine_region_error_in_difference_pair(self):
        def slope(ws):
            raise RegionError("derivative")

        assert zeros._refine_zero(lambda ws: [w - 1.0 for w in ws], slope, 0j, 1e-9, 0.1) is None

    def test_refine_flat_difference(self):
        flat = lambda ws: [0j for _ in ws]  # noqa: E731
        assert zeros._refine_zero(self._ones, flat, 0j, 1e-9, 0.1) is None

    def test_refine_step_is_clamped(self):
        # the Newton step 1000 is clamped to 10 * scale = 1, which decreases |f|
        slope = lambda ws: [1e-3 + 0j for _ in ws]  # noqa: E731
        w, resid = zeros._refine_zero(lambda ws: [1.0 + 1e-3 * w for w in ws], slope, 0j, 1e-9, 0.1, max_iter=1)
        assert w == -1.0 + 0j
        assert resid == abs(1.0 - 1e-3)

    def test_refine_line_search_errors_exhaust_it(self):
        def f(ws):
            if ws[0] != 0:
                raise NumericError("line search")
            return [w - 1.0 for w in ws]

        assert zeros._refine_zero(f, self._ones, 0j, 1e-9, 0.1) == (0j, 1.0)

    def test_refine_line_search_without_descent(self):
        # |f| grows along the Newton direction at every damping, so w stays put
        f = lambda ws: [1.0 + abs(w) + 0.5 * w for w in ws]  # noqa: E731
        assert zeros._refine_zero(f, lambda ws: [0.5 + 0j for _ in ws], 0j, 1e-9, 0.1) == (0j, 1.0)

    def test_persistent_boundary_zero(self):
        # a series that vanishes everywhere has a zero on every grown boundary
        cfg = dirichlet_poly({0: 0.0})
        with pytest.raises(NumericError, match="persists on the rectangle boundary"):
            count_zeros_rectangle(cfg, real_axis_slice((-1.0, 1.0, -1.0, 1.0)))
