"""The three library workloads: eval-mix, dist-cf and zero-scan.

Each workload draws its inputs from the seed, builds the library configs
(timed as set-up), computes references with mpmath (untimed, before any
timing) and returns its op list.  Ops call the library through module
attributes, so the traced run's wrappers see every call.
"""

from __future__ import annotations

import cmath
import math
import random

import mpmath as mp
import numpy as np

from shintani import arithmetic, distributions, euler, series, zeros
from shintani.arithmetic import AlphaRule
from shintani.coefficients import CoefficientSpec

from ops import (
    Op,
    check_close,
    check_eval,
    expect,
    draw_poly_rect,
)

mp.mp.dps = 30
CHI4 = [0, 1, 0, -1]


def _c(x) -> complex:
    return complex(x)


class Workload:
    """Inputs drawn from the seed; configure() builds library objects."""

    calibration = ("arrays", "calls")  # kernels that track this workload's speed

    def __init__(self, seed: int) -> None:
        self.rng = random.Random(seed)
        self.draw()

    def draw(self) -> None:
        raise NotImplementedError

    def configure(self) -> None:
        raise NotImplementedError

    def ops(self) -> list[Op]:
        raise NotImplementedError


# ---------------------------------------------------------------------------
# eval-mix
# ---------------------------------------------------------------------------

def _chi4_rule() -> AlphaRule:
    return AlphaRule.character(4, CHI4)


def _zeta_l(s) -> complex:
    return _c(mp.zeta(s) * mp.dirichlet(s, CHI4))


def _barnes3(s, u) -> complex:
    # sum_{n in N^3} (n1+n2+n3+u)^-s = sum_k C(k+2,2) (k+u)^-s, and
    # (k+1)(k+2) = (k+u)^2 + (3-2u)(k+u) + (u-1)(u-2)
    return _c(
        (mp.zeta(s - 2, u) + (3 - 2 * u) * mp.zeta(s - 1, u) + (u - 1) * (u - 2) * mp.zeta(s, u)) / 2
    )


def _mzv2(a: int, b: int) -> float:
    """zeta(a, b) = sum_{m > n >= 1} m^-a n^-b in closed form."""
    z = mp.zeta
    forms = {
        (2, 2): lambda: (z(2) ** 2 - z(4)) / 2,
        (3, 2): lambda: 3 * z(2) * z(3) - mp.mpf(11) / 2 * z(5),
        (2, 3): lambda: mp.mpf(9) / 2 * z(5) - 2 * z(2) * z(3),
        (3, 3): lambda: (z(3) ** 2 - z(6)) / 2,
        (4, 2): lambda: z(3) ** 2 - mp.mpf(4) / 3 * z(6),
        (2, 4): lambda: mp.mpf(25) / 12 * z(6) - z(3) ** 2,
        (4, 3): lambda: 17 * z(7) - 10 * z(2) * z(5),
        (3, 4): lambda: z(3) * z(4) - 18 * z(7) + 10 * z(2) * z(5),
        (4, 4): lambda: (z(4) ** 2 - z(8)) / 2,
    }
    return float(forms[(a, b)]())


EZ_POINTS = ((4.0, 2.0), (4.0, 3.0), (4.0, 4.0))


class EvalMix(Workload):
    """A stream of series.evaluate calls over the special families, mostly
    cheap (enumeration, linear forms, powers, theta and summation at 1e4 to
    1e6 points each) plus the four heavy calls of the ROADMAP baseline table.
    The seed draws s around fixed centres; the families and counts are fixed."""

    name = "eval-mix"

    def draw(self) -> None:
        g = self.rng
        jit = lambda c, w=0.01: c + g.uniform(-w, w)  # noqa: E731
        cplx = lambda c, w=0.01: complex(jit(c, w), g.uniform(1.0, 30.0))  # noqa: E731
        self.plan = []  # (label, family, params, s, tol, cap)

        def add(family, count, s, tol, params=lambda: ()):
            for _ in range(count):
                self.plan.append((family, family, params(), s(), tol, 10**6))

        u = lambda: (g.uniform(0.2, 1.0),)  # noqa: E731
        for family, params in (("riemann", lambda: ()), ("hurwitz", u)):
            add(family, 8, lambda: jit(2.5), 1e-9, params)
            add(family, 2, lambda: jit(3.0), 1e-12, params)
            add(family, 8, lambda: cplx(2.5), 1e-8, params)
            add(family, 2, lambda: cplx(3.0), 1e-10, params)
        add("riemann_derivative", 8, lambda: jit(3.0), 1e-10)
        add("riemann_derivative", 8, lambda: cplx(3.0), 1e-9)
        def lerch():
            return g.uniform(0.3, 1.0), cmath.rect(g.uniform(0.5, 0.9), g.uniform(-math.pi, math.pi))

        add("lerch_transcendent", 6, lambda: jit(2.0, 0.5), 1e-12, lerch)
        add("lerch_transcendent", 6, lambda: cplx(2.0, 0.5), 1e-12, lerch)
        barnes_u = lambda: (g.uniform(0.5, 1.5),)  # noqa: E731
        add("barnes", 6, lambda: jit(6.0, 0.02), 1e-7, barnes_u)
        add("barnes", 4, lambda: cplx(6.0, 0.02), 1e-7, barnes_u)
        for point in EZ_POINTS * 2:
            self.plan.append(("euler_zagier", "euler_zagier", (), point, 1e-8, 10**6))
        add("multiplicative", 6, lambda: jit(3.0), 1e-9)
        add("multiplicative", 6, lambda: cplx(3.0), 1e-9)
        self.euler_points = [jit(2.5), jit(3.0), cplx(2.5), cplx(3.0)]
        # the ROADMAP baseline table; the last two stay uncertified at their caps
        self.plan.append(("heavy riemann", "riemann", (), 2.0, 1e-8, 3 * 10**8))
        heavy_t = g.uniform(4.5, 5.5)
        self.plan.append(("heavy riemann complex", "riemann", (), complex(2.0, heavy_t), 1e-7, 3 * 10**8))
        self.plan.append(("heavy euler_zagier", "euler_zagier", (), (3.0, 2.0), 1e-8, 10**7))
        self.plan.append(("heavy barnes", "barnes", (1.0,), 5.0, 1e-8, 10**7))

    def configure(self) -> None:
        two_rules = CoefficientSpec.multiplicative_product([(AlphaRule.constant(1.0), _chi4_rule())])
        self.product = euler.EulerConfig(
            d=1, m=2, alphas=(AlphaRule.constant(1.0), _chi4_rule()), a=np.array([[1.0], [1.0]])
        )
        self.primes = arithmetic.sieve_primes(10**5)
        one = lambda theta, u=1.0: series.ShintaniConfig(  # noqa: E731
            d=1, m=1, r=1, lam=np.array([[1.0]]), u=np.array([u]), c=np.array([[1.0]]), theta=theta
        )
        self.configs = []
        for label, family, params, s, tol, cap in self.plan:
            if family == "multiplicative":
                cfg = one(two_rules)
            elif family == "hurwitz":
                cfg = series.make_special("hurwitz", u=params[0])
            elif family == "lerch_transcendent":
                cfg = series.make_special("lerch_transcendent", u=params[0], q=params[1])
            elif family == "barnes":
                cfg = series.make_special("barnes", r=3, lam=[1.0, 1.0, 1.0], u=params[0])
            elif family == "euler_zagier":
                cfg = series.make_special("euler_zagier", r=2, u=[0.0, 0.0])
            else:
                cfg = series.make_special(family)
            self.configs.append(cfg)

    def _reference(self, family, params, s):
        """(reference value, bound on sum |terms|) for one plan entry."""
        if isinstance(s, tuple):
            v = _mzv2(int(s[0]), int(s[1]))
            return v, v
        sig = s.real if isinstance(s, complex) else s
        s_mp = mp.mpc(s.real, s.imag) if isinstance(s, complex) else mp.mpf(s)
        if family == "riemann":
            return _c(mp.zeta(s_mp)), float(mp.zeta(sig))
        if family == "hurwitz":
            return _c(mp.zeta(s_mp, params[0])), float(mp.zeta(sig, params[0]))
        if family == "riemann_derivative":
            return _c(mp.zeta(s_mp, 1, 1)), float(-mp.zeta(sig, 1, 1))
        if family == "lerch_transcendent":
            u, q = params
            return _c(mp.lerchphi(mp.mpc(q.real, q.imag), s_mp, u)), float(mp.lerchphi(abs(q), sig, u))
        if family == "barnes":
            return _barnes3(s_mp, mp.mpf(params[0])), float(_barnes3(mp.mpf(sig), mp.mpf(params[0])).real)
        if family == "multiplicative":
            return _zeta_l(s_mp), float(mp.zeta(sig) ** 2)
        raise ValueError(family)

    def ops(self) -> list[Op]:
        ops = []
        for (label, family, params, s, tol, cap), cfg in zip(self.plan, self.configs):
            ref, scale = self._reference(family, params, s)
            point = list(s) if isinstance(s, tuple) else s
            ops.append(Op(
                name=f"evaluate {label} s={s!r} tol={tol:g}",
                run=lambda ctx, cfg=cfg, point=point, tol=tol, cap=cap: series.evaluate(
                    cfg, point, tol=tol, shell_cap=cap
                ),
                check=lambda res, ctx, ref=ref, tol=tol, scale=scale: check_eval(res, ref, tol, scale),
            ))
        for s in self.euler_points:
            s_mp = mp.mpc(s.real, s.imag) if isinstance(s, complex) else mp.mpf(s)
            ref, scale = _zeta_l(s_mp), float(mp.zeta(s.real) ** 2)
            ops.append(Op(
                name=f"evaluate_euler zeta*L(chi_-4) s={s!r}",
                run=lambda ctx, s=s: euler.evaluate_euler(self.product, s, self.primes),
                check=lambda res, ctx, ref=ref, scale=scale: check_close(res.value, ref, res.tail_bound, scale),
            ))
        return ops


# ---------------------------------------------------------------------------
# dist-cf
# ---------------------------------------------------------------------------

SAMPLES = 10**6
# Hoeffding: each coordinate of a mean of N unit phasors strays by more than
# 7/sqrt(N) with probability below 2 exp(-24.5) ~ 5e-11
MC_BOUND = 7.0 * math.sqrt(2.0) / math.sqrt(SAMPLES)


class DistCf(Workload):
    """The distribution pipeline: a 1M-atom r=1 table (no merge), two r=2
    tables that go through the atom merge, cf over atoms on a t grid, samples,
    moments, the empirical cf and the closed-form special laws.  Series
    evaluation appears only in two char_fn calls."""

    name = "dist-cf"

    def draw(self) -> None:
        g = self.rng
        self.sigma = 2.0 + g.uniform(0.0, 0.005)  # keeps the table at 1015808 atoms
        self.ts = sorted(g.uniform(0.3, 10.0) for _ in range(12))
        self.mc_ts = [g.uniform(0.3, 5.0) for _ in range(6)]
        self.sample_seed = g.randrange(2**31)
        self.gb_u = g.uniform(0.8, 1.2)
        self.binom = dict(j=g.choice((2, 3)), big_k=g.randint(2, 4), phi=g.uniform(0.5, 2.0),
                          sigma=-g.uniform(1.2, 2.0))
        self.poisson = dict(j=g.choice((2, 3)), rate=g.uniform(0.0, 0.5), sigma=-g.uniform(1.2, 2.0))
        self.special_ts = [g.uniform(0.2, 6.0) for _ in range(3)]

    def configure(self) -> None:
        self.riemann = series.make_special("riemann")
        self.ez = series.make_special("euler_zagier", r=2, u=[0.0, 0.0])
        self.gb = series.make_special(
            "generalized_barnes", m=2, r=2, lam=[[1.0, 2.0], [2.0, 1.0]], u=[self.gb_u, 0.5]
        )
        self.sd_binom = distributions.make_special_distribution("binomial", **self.binom)
        self.sd_poisson = distributions.make_special_distribution("poisson", **self.poisson)

    def ops(self) -> list[Op]:
        sig = self.sigma
        zeta_s = mp.zeta(sig)
        ratio = lambda t: _c(mp.zeta(mp.mpc(sig, t)) / zeta_s)  # noqa: E731
        ops = [Op(
            name=f"build_distribution riemann sigma={sig!r} delta=1e-6",
            run=lambda ctx: distributions.build_distribution(self.riemann, sig, delta=1e-6),
            check=lambda d, ctx: _check_table(d, 1e-6, float(zeta_s)),
            key="riemann",
        )]
        for t in self.ts:
            ref = ratio(t)
            ops.append(Op(
                name=f"atom_cf riemann t={t!r}",
                run=lambda ctx, t=t: distributions.atom_cf(ctx["riemann"], [t]),
                check=lambda v, ctx, ref=ref: check_close(v, ref, 2 * ctx["riemann"].tail_mass_bound),
            ))
        for t in self.ts[:2]:
            ref = ratio(t)
            ops.append(Op(
                name=f"char_fn riemann t={t!r} tol=1e-6",
                run=lambda ctx, t=t: distributions.char_fn(self.riemann, sig, [t], tol=1e-6),
                check=lambda v, ctx, ref=ref: check_close(v.value, ref, v.error_bound),
            ))
        for k in (1, 2):
            ref = float(mp.zeta(sig, 1, k) / zeta_s)  # E[X^k] with X = -log n
            ops.append(Op(
                name=f"moment riemann k={k}",
                run=lambda ctx, k=k: distributions.moment(ctx["riemann"], k),
                check=lambda v, ctx, ref=ref: check_close(
                    v.value, ref, v.tail_bound + abs(v.value) * ctx["riemann"].tail_mass_bound, abs(ref)
                ),
            ))
        ops.append(Op(
            name=f"sample riemann count={SAMPLES} seed={self.sample_seed}",
            run=lambda ctx: distributions.sample(ctx["riemann"], self.sample_seed, SAMPLES),
            check=lambda b, ctx: expect(
                b.count == SAMPLES and bool(np.all(np.isin(b.points[:1000, 0], ctx["riemann"].locations[:, 0]))),
                "samples are atom locations",
            ),
            key="batch",
        ))
        for t in self.mc_ts:
            ref = ratio(t)
            ops.append(Op(
                name=f"empirical_cf riemann t={t!r}",
                run=lambda ctx, t=t: distributions.empirical_cf(ctx["batch"], [t]),
                check=lambda v, ctx, ref=ref: check_close(v, ref, MC_BOUND + 2 * ctx["riemann"].tail_mass_bound),
            ))
        ez_ref = _mzv2(3, 2)
        ops.append(Op(
            name="build_distribution euler_zagier (3,2) delta=1e-5",
            run=lambda ctx: distributions.build_distribution(self.ez, [3.0, 2.0], delta=1e-5),
            check=lambda d, ctx: _check_table(d, 1e-5, ez_ref),
        ))
        gb_sigma = [2.2, 2.2]
        gb_ref = series.evaluate(self.gb, gb_sigma, tol=1e-9)
        ops.append(Op(
            name=f"build_distribution generalized_barnes u1={self.gb_u!r} delta=1e-5",
            run=lambda ctx: distributions.build_distribution(self.gb, gb_sigma, delta=1e-5),
            check=lambda d, ctx: _check_table(d, 1e-5, gb_ref.value.real, gb_ref.tail_bound),
        ))
        for label, sd in (("binomial", self.sd_binom), ("poisson", self.sd_poisson)):
            key = "special_" + label
            ops.append(Op(
                name=f"build_distribution {label} {sd.params}",
                run=lambda ctx, sd=sd: distributions.build_distribution(sd.config, [sd.sigma], delta=1e-10),
                check=lambda d, ctx: expect(d.tail_mass_bound <= 1e-10, f"tail mass {d.tail_mass_bound:.2e}", True),
                key=key,
            ))
            for t in self.special_ts:
                ref = complex(sd.cf(t))
                ops.append(Op(
                    name=f"atom_cf {label} t={t!r}",
                    run=lambda ctx, t=t, key=key: distributions.atom_cf(ctx[key], [t]),
                    check=lambda v, ctx, ref=ref, key=key: check_close(v, ref, 2 * ctx[key].tail_mass_bound),
                ))
        return ops


def _check_table(dist, delta: float, z_ref: float, z_bound: float = 0.0):
    """Atom table: certified mass bound, normalizer within its tail bound of
    the reference, nonnegative masses summing to one."""
    if not dist.tail_mass_bound <= delta:
        return expect(False, f"tail mass {dist.tail_mass_bound:.2e} > delta {delta:.0e}", True)
    z = dist.normalizer
    out = check_close(z.value.real, z_ref, z.tail_bound + z_bound, abs(z_ref))
    if not out.ok:
        return expect(False, "normalizer: " + out.detail, True)
    total = math.fsum(dist.masses.tolist())
    return expect(
        bool(np.all(dist.masses >= 0)) and abs(total - 1.0) <= 1e-12,
        f"{dist.atom_count} atoms, mass sum - 1 = {total - 1.0:.1e}",
        True,
    )


# ---------------------------------------------------------------------------
# zero-scan
# ---------------------------------------------------------------------------

RECTANGLES = 96


def _poly_config(a0: float, a1: float, a3: float) -> series.ShintaniConfig:
    """a0 + a1 2^-s + a3 4^-s as a finite-support series."""
    theta = CoefficientSpec.finite_support({(0,): a0, (1,): a1, (3,): a3})
    return series.ShintaniConfig(
        d=1, m=1, r=1, lam=np.array([[1.0]]), u=np.array([1.0]), c=np.array([[1.0]]), theta=theta
    )


def _slice(rect) -> "zeros.SliceSpec":
    return zeros.SliceSpec(
        base=series.ComplexPoint([0.0], [0.0]), direction=np.array([1.0 + 0j]), rect=rect
    )


class ZeroScan(Workload):
    """Many cheap evaluate calls at complex s from the argument principle and
    Newton refinement: rectangle counts on 3-term Dirichlet polynomials
    (root oracle), binomial zero scans at pi with multiplicity 1 and 2 and
    their certificates, zero-free riemann and hurwitz(1/2) scans and a
    zero-free riemann rectangle, and the p = 0.444 binomial whose off-axis
    zeros must not yield a certificate."""

    name = "zero-scan"
    calibration = ("calls",)

    def draw(self) -> None:
        g = self.rng
        self.polys = [draw_poly_rect(g) for _ in range(RECTANGLES)]
        self.binom_sigmas = [-g.uniform(0.8, 1.5) for _ in range(2)]
        self.binom_ranges = [(0.5 + g.uniform(0.0, 0.5), 6.0 + g.uniform(0.0, 0.5)) for _ in range(2)]
        self.free_scans = [
            (name, 2.0 + g.uniform(0.0, 0.2), g.uniform(-20.0, 15.0)) for name in ("riemann", "hurwitz")
        ]
        re_lo, im_lo, im_hi = g.uniform(2.5, 2.7), g.uniform(-3.5, -2.5), g.uniform(2.5, 3.5)
        self.free_rect = (re_lo, 4.0, im_lo, im_hi)

    def configure(self) -> None:
        self.poly_cfgs = [_poly_config(*coeffs) for coeffs, _, _ in self.polys]
        self.binoms = [
            distributions.make_special_distribution("binomial", j=2, big_k=k, phi=math.exp(-sig), sigma=sig)
            for k, sig in zip((1, 2), self.binom_sigmas)
        ]
        self.binom_dists = [
            distributions.build_distribution(sd.config, [sd.sigma], delta=1e-6) for sd in self.binoms
        ]
        self.free_cfgs = {
            "riemann": series.make_special("riemann"),
            "hurwitz": series.make_special("hurwitz", u=0.5),
        }
        self.p444 = distributions.make_special_distribution(
            "binomial", check=False, j=2, big_k=1, phi=1.0, sigma=math.log(0.8)
        )

    def ops(self) -> list[Op]:
        ops = []
        for cfg, (coeffs, rect, inside) in zip(self.poly_cfgs, self.polys):
            ops.append(Op(
                name=f"count_zeros_rectangle poly{coeffs!r} rect={rect!r}",
                run=lambda ctx, cfg=cfg, rect=rect: zeros.count_zeros_rectangle(cfg, _slice(rect)),
                check=lambda n, ctx, inside=inside: expect(n == inside, f"counted {n}, roots give {inside}"),
            ))
        for k, sd, dist, t_range in zip((1, 2), self.binoms, self.binom_dists, self.binom_ranges):
            tol, where = (1e-10, 1e-8) if k == 1 else (1e-9, 1e-4)
            key = f"binomial{k}"
            ops.append(Op(
                name=f"scan_cf_zeros binomial p=1/2 K={k} sigma={sd.sigma!r}",
                run=lambda ctx, sd=sd, t_range=t_range, tol=tol: zeros.scan_cf_zeros(
                    sd.config, sd.sigma, t_range=t_range, step=0.05, tol=tol
                ),
                check=lambda rep, ctx, k=k, where=where: _check_pi_zero(rep, k, where),
                key=key,
            ))
            ops.append(Op(
                name=f"non_id_certificate binomial K={k}",
                run=lambda ctx, key=key, dist=dist: zeros.non_id_certificate(ctx[key], dist),
                check=lambda text, ctx, where=where: _check_certificate(text, where),
            ))
        for name, sig, lo in self.free_scans:
            cfg = self.free_cfgs[name]
            ops.append(Op(
                name=f"scan_cf_zeros {name} sigma={sig!r} t=[{lo:.3f}, {lo + 5:.3f}] (zero-free)",
                run=lambda ctx, cfg=cfg, sig=sig, lo=lo: zeros.scan_cf_zeros(
                    cfg, sig, t_range=(lo, lo + 5.0), step=0.05, tol=1e-8, trigger=0.3
                ),
                check=lambda rep, ctx: expect(
                    not rep.certificate and not rep.confirmed, f"{len(rep.candidates)} candidates"
                ),
            ))
        ops.append(Op(
            name=f"count_zeros_rectangle riemann rect={self.free_rect!r} (zero-free)",
            run=lambda ctx: zeros.count_zeros_rectangle(
                self.free_cfgs["riemann"], _slice(self.free_rect), eval_tol=1e-6
            ),
            check=lambda n, ctx: expect(n == 0, f"counted {n} zeros in Re s > 1"),
        ))
        ops.append(Op(
            name="scan_cf_zeros binomial p=0.444 (no zero on the real t-line)",
            run=lambda ctx: zeros.scan_cf_zeros(self.p444.config, self.p444.sigma, tol=1e-9),
            check=lambda rep, ctx: expect(
                not rep.certificate,
                f"certificate={rep.certificate}; min |f| on the real line is 0.111, confirmed at "
                + ", ".join(f"{c.location:.4f}" for c in rep.confirmed[:2]),
            ),
            known_defect="off-axis zeros certified as zeros of f_sigma (ROADMAP item 2)",
        ))
        return ops


def _check_certificate(text: str, where: float):
    """The certificate concludes non-divisibility and names the zero at pi."""
    line = next((ln for ln in text.splitlines() if ln.startswith("zero location")), "")
    re_part = float(line.split(":", 1)[1].split("+")[0]) if line else math.nan
    return expect(
        "NOT infinitely divisible" in text and abs(re_part - math.pi) <= where,
        f"certificate names the zero at {re_part!r}",
        True,
    )


def _check_pi_zero(rep, k: int, where: float):
    hits = [c for c in rep.confirmed if abs(c.location - math.pi) <= where]
    if not rep.certificate or not hits:
        return expect(False, f"no confirmed zero within {where:g} of pi", True)
    mult = hits[0].multiplicity
    return expect(mult == k, f"zero at {hits[0].location:.10f}, multiplicity {mult}", True)


WORKLOADS = {w.name: w for w in (EvalMix, DistCf, ZeroScan)}
