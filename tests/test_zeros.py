"""Zero scanning, argument-principle rectangle counts, and certificates."""

import math

import numpy as np
import pytest

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

    def test_nan_step_and_trigger_rejected(self):
        # a nan trigger made the zero-free law at sigma = -1 "confirm" zeros
        # at +-pi - i with certificate=True
        sd = make_special_distribution("binomial", j=2, big_k=1, phi=1.0, sigma=-1.0)
        for kw in ({"step": math.nan}, {"trigger": math.nan}):
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

    def test_boundary_zero_perturbation(self):
        # zero exactly on the right edge: auto-perturbation must resolve it
        cfg = dirichlet_poly({0: 1.0, 1: -2.0})
        count = count_zeros_rectangle(cfg, real_axis_slice((0.0, 1.0, -1.0, 1.0)))
        assert count in (0, 1)  # resolved deterministically, no exception


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
    """The zero finders ask for whole contours and central-difference pairs
    in one `evaluate_many` call.  The reference replaces that call by one
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
