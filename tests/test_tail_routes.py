"""One formula per tail route, evaluated in floats and again in `_Wide`.

Every infinite-support route is one formula over a number kind; `_two_pass`
keeps its float value unless that value is 0 or subnormal, a power in it is
subnormal or a power overflows, and otherwise evaluates the same formula in
the wide type, rounded up.  The property test below runs both passes of
every route on the families of `test_shell_choice.py`: where the float pass
stands, the wide pass must agree with it to rounding, so a formula that
differs between the passes shows as an O(1) gap.

`python -m pytest tests/test_tail_routes.py --hypothesis-profile=ci` runs
the property tests derandomized with more examples (see conftest.py).
"""

from __future__ import annotations

import math

import mpmath as mp
import numpy as np
import pytest
from click.testing import CliRunner
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from shintani import series
from shintani.arithmetic import sieve_primes
from shintani.cli import cli
from shintani.coefficients import CoefficientSpec
from shintani.errors import CertificationError, NumericError, ShintaniError
from shintani.euler import dedekind_euler_config, evaluate_euler, riemann_levy_logcf
from shintani.series import (
    SPECIAL_KINDS,
    ShintaniConfig,
    as_point,
    evaluate,
    evaluate_partial,
    make_special,
    tail_bound,
)
from test_shell_choice import FAMILIES, _family

ROUTES = (
    series._poly_tail, series._separable_tail, series._nested_tail,
    series._geometric_tail, series._poisson_tail,
)
NORMAL_MIN = 2.0**-1022


def _passes(route, config, sigma, n_shell):
    """(the float pass's value, None where it raises; the wide pass's value)."""
    try:
        flt = float(route.formula(series._Float, config, sigma, n_shell))
    except (OverflowError, FloatingPointError):
        flt = None
    try:
        wide = float(route.formula(series._Wide, config, sigma, n_shell))
    except OverflowError:
        wide = math.inf
    return flt, wide


def _same(a: float, b: float) -> bool:
    return a.hex() == b.hex() or (math.isnan(a) and math.isnan(b))


@st.composite
def route_cases(draw):
    config = _family(draw(st.sampled_from(FAMILIES)), draw)
    scale = draw(st.floats(0.1, 2.0)) / float(config.lam.max())
    config = ShintaniConfig(
        d=config.d, m=config.m, r=config.r, lam=config.lam * scale, u=config.u, c=config.c,
        theta=config.theta,
    )
    low = -3.0 if config.theta.is_entire else config.r / config.m
    re = draw(st.floats(low + 0.05, 400.0))
    sigma = as_point([re] * config.d, config.d).re
    n_shell = draw(st.one_of(st.integers(0, 60), st.integers(0, 10**9)))
    return config, sigma, n_shell


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
@pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")
@settings(deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(route_cases())
def test_one_formula_per_route(case):
    config, sigma, n_shell = case
    for route in ROUTES:
        flt, wide = _passes(route, config, sigma, n_shell)
        value = route(config, sigma, n_shell)
        if flt is not None and not flt < NORMAL_MIN:  # the float pass stands
            assert _same(value, flt), route.__name__
            if math.isfinite(flt):
                assert flt * (1.0 - 2.0**-45) <= wide <= flt * (1.0 + 2.0**-30), route.__name__
        else:
            assert _same(value, wide), route.__name__
            assert wide >= 2.0**-1074 or wide == flt == 0.0, route.__name__
            if flt is not None:
                assert wide >= flt, route.__name__
    if config.m == config.r == 1:  # one form on one coordinate: `_nested_tail` alone
        assert series._poly_tail(config, sigma, n_shell) == math.inf
        if _one_form_converges(config, sigma):
            nested = series._nested_tail(config, sigma, n_shell)
            wide = series._nested_tail.formula(series._Wide, config, sigma, n_shell)
            # finite, or a wide value past the float range (not the inf of a refusal)
            assert nested < math.inf or isinstance(wide, series._Wide)


def _one_form_converges(config, sigma) -> bool:
    """Re<c, s> > 1 (the region at m = r = 1) and, under theta's own
    envelope with its log weight absorbed, Re<c, s> - growth > 1."""
    (s_head,) = (config.c @ sigma).tolist()
    bound, growth, _ = config.theta.envelope_triple
    try:
        bound, growth = config.theta.log_weight.absorb(bound, growth, s_head - 1.0 - growth)
    except OverflowError:
        return False
    return s_head > 1.0 and s_head - growth > 1.0 and bound < math.inf


def _tenth(lam: float = 0.1) -> ShintaniConfig:
    # terms (lam (n + 1))^(-s): lam^(-s) leaves the float range at large s
    return ShintaniConfig(d=1, m=1, r=1, lam=[[lam]], u=[1.0], c=[[1.0]],
                          theta=CoefficientSpec.constant(1.0))


SPECIAL_PARAMS = {
    "riemann": {},
    "hurwitz": {"u": 0.5},
    "lerch": {"u": 0.5, "v": 0.25},
    "lerch_transcendent": {"u": 1.0, "q": 0.5},
    "euler_zagier": {"r": 2, "u": (0.0, 0.0)},
    "barnes": {"r": 2, "lam": (1.0, 2.0), "u": 1.0},
    "generalized_barnes": {"m": 2, "r": 2, "lam": [[1.0, 2.0], [2.0, 1.0]], "u": (1.0, 0.5)},
    "riemann_derivative": {},
}
SWEEP = {
    **{kind: make_special(kind, **params) for kind, params in SPECIAL_PARAMS.items()},
    "lam=0.1": _tenth(0.1),
    "lam=0.01": _tenth(0.01),
}


def test_sweep_covers_every_special_kind():
    assert set(SPECIAL_PARAMS) == set(SPECIAL_KINDS)


@pytest.mark.parametrize("config", SWEEP.values(), ids=SWEEP.keys())
@pytest.mark.parametrize("s", [400.0, -400.0, 700.0, -700.0])
def test_only_typed_errors(config, s):
    point = [s] * config.d
    calls = (
        lambda: tail_bound(config, point, 10),
        lambda: evaluate_partial(config, point, 10),
        lambda: evaluate(config, point),
    )
    with np.errstate(over="ignore", invalid="ignore"):
        for call in calls:
            try:
                call()
            except ShintaniError:
                pass


class TestTenthLambda:
    """lam = 0.1 at s = 400: 0.1^(-400) once escaped as OverflowError."""

    def test_tail_bound_is_above_the_tail(self):
        with mp.workdps(40):
            true = mp.mpf(10) ** 400 * mp.zeta(400, 12)  # sum over n > 10, about 2.1e-32
        bound = tail_bound(_tenth(), 400.0, 10)
        assert true <= bound < math.inf
        for route in (series._separable_tail, series._nested_tail):  # one form: no _poly_tail
            assert true <= route(_tenth(), np.array([400.0]), 10) < math.inf, route.__name__

    def test_partial_sums_past_the_float_range_are_numeric_errors(self):
        # the partial sums are about 1e400
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(NumericError):
                evaluate_partial(_tenth(), 400.0, 10)
            with pytest.raises(NumericError):
                evaluate(_tenth(), 400.0)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_cli_exits_3(self, tmp_path):
        cfgp = tmp_path / "config.yaml"
        cfgp.write_text(
            "function: {kind: shintani, d: 1, m: 1, r: 1, lambda: [[0.1]], u: [1.0], c: [[1.0]],\n"
            "  theta: {family: constant, params: {value: 1.0}}}\n"
            f"action: {{s: 400.0}}\noutput: {{dir: '{tmp_path}'}}\n"
        )
        result = CliRunner().invoke(cli, ["eval", "--config", str(cfgp)])
        assert result.exit_code == 3, result.output
        assert isinstance(result.exception, SystemExit)
        assert "Traceback" not in result.output


def _poly_formula(config: ShintaniConfig, s: float, n_shell: int) -> mp.mpf:
    """`_poly_tail`'s formula in mpmath on the route's own float inputs
    (theta = 1: bound 1, growth 0); at m = r = 1 it is `_nested_tail`'s."""
    r = config.r
    ru = mp.mpf(r * float(config.u.min()))
    total = mp.fsum(
        math.comb(r, r - j) * (max(0, n_shell + 1 - j) + ru) ** (j - mp.mpf(s))
        / (math.factorial(j - 1) * (mp.mpf(s) - j))
        for j in range(1, r + 1)
    )
    return mp.mpf(float(config.lam.min())) ** -mp.mpf(s) * total


@pytest.mark.parametrize("config, s", [
    (make_special("barnes", r=3, lam=(1.0, 2.0, 0.5), u=0.7), 204.40160389357862),
    (_tenth(), 198.98037034074775),
])
def test_subnormal_powers_take_the_wide_pass(config, s):
    # one of the float pass's powers is subnormal: its value was about 1% low
    route = series._nested_tail if config.m == config.r == 1 else series._poly_tail
    sigma = np.array([s])
    with pytest.raises(FloatingPointError):
        route.formula(series._Float, config, sigma, 40)
    with mp.workdps(40):
        exact = _poly_formula(config, s, 40)
        bound = route(config, sigma, 40)
        assert exact <= bound <= exact * (1 + mp.mpf(2) ** -30)


def test_separable_products_overflow_without_a_warning():
    # F_j F_k of the matched-coordinate route overflows: as a numpy product it
    # warned, and the RuntimeWarning filter made that an exception escaping
    # tail_bound; as a float product it is inf, and no route certifies
    config = ShintaniConfig(
        d=1, m=3, r=3,
        lam=np.diag([0.1357922219031264, 0.25644071431174476, 0.06601660031750094]),
        u=[1.2013584664910226, 0.6005542273872512, 1.0371446763457943], c=[[1.0]] * 3,
        theta=CoefficientSpec.constant(1.0),
    )
    with pytest.raises(CertificationError) as err:
        tail_bound(config, 179.03527287564694, 3)
    # the envelope (growth 0) is not at fault: the message states data, no inequality
    message = str(err.value)
    assert message.startswith("no certified bound available past shell 3: ")
    assert "envelope growth 0.0, log power 0, sum_l<c_l,sigma> - r = 534.1" in message
    assert ">=" not in message


class TestUnderflowingProductTails:
    """Both once reported tail_bound=0.0 with certified=True."""

    def test_euler_product(self):
        primes = sieve_primes(10**4)
        res = evaluate_euler(dedekind_euler_config(), 400.0, primes)
        with mp.workdps(40):
            # zeta(s) L(s, chi_-4): the factors past P are above 1, so the
            # primes up to 1.1e4 give a lower value of |partial| (F - 1)
            log_factor = mp.mpf(0)
            for p in sieve_primes(11000).primes.tolist():
                if p > 10**4:
                    x = mp.mpf(p) ** -400
                    log_factor -= mp.log1p(-x) + mp.log1p(-(0, 1, 0, -1)[p % 4] * x)
            omitted = abs(res.value) * mp.expm1(log_factor)
        assert omitted > 0
        assert res.certified and res.tail_bound >= 2.0**-1074 and omitted <= res.tail_bound

    def test_levy(self):
        sigma, t = 400.0, 1.0
        res = riemann_levy_logcf(sigma, t, prime_limit=100, power_cutoff=2)
        with mp.workdps(40):
            def term(p, r):
                return mp.mpf(p) ** (-r * sigma) / r * abs(mp.expj(-r * t * mp.log(p)) - 1)

            omitted = mp.fsum(term(p, r) for p in sieve_primes(100).primes.tolist() for r in (3, 4))
            omitted += mp.fsum(term(p, 1) for p in sieve_primes(300).primes.tolist() if p > 100)
        assert omitted > 0
        assert res.certified and res.tail_bound >= 2.0**-1074 and omitted <= res.tail_bound

    def test_euler_product_next_to_one_is_uncertified(self):
        # |log F| is about 990 at s = 1.001 past P = 1e4: exp(990) - 1 once
        # escaped as OverflowError
        res = evaluate_euler(dedekind_euler_config(), 1.001, sieve_primes(10**4))
        assert res.tail_bound == math.inf and not res.certified

    @pytest.mark.parametrize("s", [1.5, 2.0, 3.0, 40.0])
    def test_normal_range_keeps_its_bits(self, s):
        primes = sieve_primes(10**4)
        res = evaluate_euler(dedekind_euler_config(), s, primes)
        p_cut = float(primes.limit)
        log_tail = 0.0
        for _ in range(2):
            log_tail += 1.0 / (1.0 - (p_cut + 1.0) ** (-s)) * p_cut ** (1.0 - s) / (s - 1.0)
        assert res.tail_bound.hex() == (abs(res.value) * math.expm1(log_tail)).hex()
        levy = riemann_levy_logcf(s, 1.0, prime_limit=100, power_cutoff=2) if s > 1.5 else None
        if levy is not None:
            pf = sieve_primes(100).primes.astype(float)
            inner = float(np.sum(2.0 * pf ** (-3 * s) / (3 * (1.0 - pf**-s))))
            outer = 2.0 / (1.0 - 101.0 ** (-s)) * 100.0 ** (1.0 - s) / (s - 1.0)
            assert levy.tail_bound.hex() == (inner + outer).hex()
