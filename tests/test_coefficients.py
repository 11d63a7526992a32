"""Coefficient families: values, envelopes, sign classes, structure queries."""

import math

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from shintani.arithmetic import AlphaRule, chi_minus_4
from shintani.coefficients import (
    COMPLEX,
    MIXED,
    NONNEGATIVE,
    NONPOSITIVE,
    FAMILIES,
    CoefficientSpec,
    theta_values,
)
from shintani.errors import ConfigError
from shintani.euler import EulerConfig
from shintani.series import ShintaniConfig, evaluate, make_special

lattice_points = st.lists(
    st.lists(st.integers(min_value=0, max_value=300), min_size=2, max_size=2),
    min_size=1,
    max_size=40,
)


def check_envelope(spec, pts):
    """|theta(n)| <= B (t+1)^eps g^t (a + log(t+1))^p at t = |n|: the bound
    the tail routes use, from the spec's `envelope_triple` and `log_weight`."""
    pts = np.asarray(pts, dtype=np.int64)
    vals = np.abs(np.asarray(theta_values(spec, pts)))
    t = pts.sum(axis=1).astype(float)
    b, eps, g = spec.envelope_triple
    weight = spec.log_weight
    bound = b * (t + 1.0) ** eps * g**t * (weight.offset + np.log(t + 1.0)) ** weight.power
    assert np.all(vals <= bound * (1 + 1e-12) + 1e-300)


class TestValues:
    def test_constant(self):
        spec = CoefficientSpec.constant(2.5)
        assert spec.values(np.array([(3, 4)]))[0] == 2.5

    def test_finite_support(self):
        spec = CoefficientSpec.finite_support({(0,): 1.0, (3,): -2.0})
        got = theta_values(spec, np.array([[0], [1], [3]]))
        assert got.tolist() == [1.0, 0.0, -2.0]
        assert spec.support_degree == 3

    def test_periodic(self):
        spec = CoefficientSpec.periodic((2, 3), [[1, 2, 3], [4, 5, 6]])
        assert spec.values(np.array([(0, 0)]))[0] == 1
        assert spec.values(np.array([(1, 2)]))[0] == 6
        assert spec.values(np.array([(2, 4)]))[0] == 2

    def test_geometric(self):
        spec = CoefficientSpec.geometric((0.5, 0.25))
        assert spec.values(np.array([(2, 1)]))[0] == pytest.approx(0.25 * 0.25)

    def test_geometric_unimodular(self):
        q = complex(math.cos(0.7), math.sin(0.7))
        spec = CoefficientSpec.geometric((q,))
        assert spec.values(np.array([(5,)]))[0] == pytest.approx(q**5)

    def test_log_factor(self):
        spec = CoefficientSpec.log_factor((2.0, -1.0), [[1.0], [3.0]], (1.0,))
        # theta(n) = 2 log(n+1) - log(3n+3)
        n = 4
        assert spec.values(np.array([(n,)]))[0] == pytest.approx(
            2 * math.log(n + 1.0) - math.log(3.0 * n + 3.0)
        )

    def test_character_product(self):
        spec = CoefficientSpec.character_product(
            [(4, (0, 1, 0, -1), 0, 1)]
        )  # chi_-4 at n+1
        got = [spec.values(np.array([(n,)]))[0].real for n in range(6)]
        assert got == [1, 0, -1, 0, 1, 0]

    CHI5 = (0, 1, 1j, -1j, -1)  # the character mod 5 with chi(2) = i

    @pytest.mark.parametrize("s", [3.0, 2.5 + 4j])
    def test_complex_character_series(self, s):
        # sum chi(n+1) (n+1)^-s is the Dirichlet L-function of chi
        theta = CoefficientSpec.character_product([(5, self.CHI5, 0, 1)])
        cfg = ShintaniConfig(d=1, m=1, r=1, lam=[[1.0]], u=[1.0], c=[[1.0]], theta=theta)
        res = evaluate(cfg, s, tol=1e-8)
        with mp.workdps(30):
            ref = complex(mp.dirichlet(s, list(self.CHI5)))
        assert res.certified and abs(res.value - ref) <= res.tail_bound

    def test_character_product_values_multiply_lookups(self):
        # a real factor before and after a complex one
        factors = [(3, (1.0, -2.0, 0.5), 0, 0), (5, self.CHI5, 1, 1), (2, (1.0, -0.75), 0, 1)]
        spec = CoefficientSpec.character_product(factors)
        pts = np.array([(a, b) for a in range(7) for b in range(7)])
        got = spec.values(pts)
        want = [
            math.prod(complex(tab[(p[coord] + shift) % mod]) for mod, tab, coord, shift in factors)
            for p in pts.tolist()
        ]
        assert np.iscomplexobj(got) and got.tolist() == want

    def test_product(self):
        spec = CoefficientSpec.product(
            [CoefficientSpec.constant(2.0), CoefficientSpec.geometric((0.5,))]
        )
        assert spec.values(np.array([(3,)]))[0] == pytest.approx(2.0 * 0.125)

    def test_multiplicative(self):
        spec = CoefficientSpec.multiplicative_product([(chi_minus_4(),)])
        got = [spec.values(np.array([(n,)]))[0].real for n in range(8)]
        # A(n+1) = chi(n+1), completely multiplicative
        assert got == [1, 0, -1, 0, 1, 0, -1, 0]

    def test_poisson_powers(self):
        spec = CoefficientSpec.poisson_powers(2, 0.0)
        pts = np.array([[0], [1], [2], [3], [7], [8]])
        got = theta_values(spec, pts)
        assert got == pytest.approx([1.0, 1.0, 0.0, 0.5, 1 / 6, 0.0])


class TestEnvelopes:
    """Every family's derived envelope holds at random lattice points."""

    @given(lattice_points, st.complex_numbers(max_magnitude=1e6))
    @settings(max_examples=40, deadline=None)
    def test_constant_envelope(self, pts, value):
        check_envelope(CoefficientSpec.constant(value), pts)

    @given(
        lattice_points,
        st.dictionaries(
            st.tuples(st.integers(0, 300), st.integers(0, 300)),
            st.complex_numbers(max_magnitude=1e6), min_size=1, max_size=10,
        ),
    )
    @settings(max_examples=40, deadline=None)
    def test_finite_support_envelope(self, pts, entries):
        spec = CoefficientSpec.finite_support(entries)
        check_envelope(spec, pts + [list(pt) for pt in entries])  # the support too

    @given(
        lattice_points,
        st.lists(
            st.tuples(st.floats(0.01, 1.0), st.floats(-math.pi, math.pi)), min_size=2, max_size=2
        ),
    )
    @settings(max_examples=40, deadline=None)
    def test_geometric_envelope(self, pts, polar):
        ratios = [mod * complex(math.cos(arg), math.sin(arg)) for mod, arg in polar]
        check_envelope(CoefficientSpec.geometric(ratios), pts)

    @pytest.mark.parametrize("ratio", [
        1.0 + 1e-15,  # admitted past |q| = 1; theta was 1.0000011 at t = 1e9
        complex(math.cos(2.0 * math.pi * 0.3), math.sin(2.0 * math.pi * 0.3)),  # 1.0000407 at 1e12
    ], ids=["real", "unit"])
    def test_geometric_envelope_at_large_degree(self, ratio):
        check_envelope(CoefficientSpec.geometric((ratio,)), [[10**9], [10**12]])

    @given(lattice_points)
    @settings(max_examples=40, deadline=None)
    def test_character_product_envelope(self, pts):
        spec = CoefficientSpec.character_product(
            [(3, (1.0, -2.0, 0.5), 0, 0), (5, TestValues.CHI5, 1, 1), (2, (1.0, -0.75), 0, 1)]
        )
        check_envelope(spec, pts)

    @given(lattice_points)
    @settings(max_examples=40, deadline=None)
    def test_periodic_envelope(self, pts):
        spec = CoefficientSpec.periodic((3, 2), [[0.5, -2], [1, 0], [-0.25, 2]])
        check_envelope(spec, pts)

    @given(lattice_points)
    @settings(max_examples=40, deadline=None)
    def test_log_factor_envelope(self, pts):
        spec = CoefficientSpec.log_factor(
            (1.0, -0.5), [[0.2, 1.4], [2.0, 0.7]], (0.4, 1.3)
        )
        check_envelope(spec, pts)

    @given(lattice_points)
    @settings(max_examples=40, deadline=None)
    def test_product_envelope(self, pts):
        spec = CoefficientSpec.product(
            [
                CoefficientSpec.geometric((0.9, 0.8)),
                CoefficientSpec.log_factor((0.7,), [[1.0, 1.0]], (1.0, 1.0)),
            ]
        )
        check_envelope(spec, pts)

    @given(st.lists(st.integers(min_value=0, max_value=4000), min_size=1, max_size=30))
    @settings(max_examples=30, deadline=None)
    def test_multiplicative_envelope(self, ns):
        spec = CoefficientSpec.multiplicative_product([(chi_minus_4(),)])
        check_envelope(spec, np.asarray(ns).reshape(-1, 1))

    def test_poisson_envelope(self):
        spec = CoefficientSpec.poisson_powers(3, 1.5)
        pts = np.array([[3**k - 1] for k in range(8)])
        check_envelope(spec, pts)

    def test_per_coordinate_envelope(self):
        spec = CoefficientSpec.product(
            [
                CoefficientSpec.geometric((0.9, 0.8)),
                CoefficientSpec.log_factor((0.7,), [[1.0, 1.0]], (1.0, 1.0)),
            ]
        )
        env = spec.per_coordinate_envelope(2)
        rng = np.random.default_rng(0)
        pts = rng.integers(0, 200, size=(50, 2))
        vals = np.abs(np.asarray(theta_values(spec, pts)))
        bound = np.ones(50)
        for j, (b, eps) in enumerate(env):
            bound *= b * (pts[:, j] + 1.0) ** eps
        assert np.all(vals <= bound * (1 + 1e-12))


class TestSignClass:
    def test_basic(self):
        assert CoefficientSpec.constant(1.0).sign_class() == NONNEGATIVE
        assert CoefficientSpec.constant(-2.0).sign_class() == NONPOSITIVE
        assert CoefficientSpec.constant(1j).sign_class() == COMPLEX
        assert CoefficientSpec.finite_support({(0,): 1.0, (1,): -2.0}).sign_class() == MIXED

    def test_geometric(self):
        assert CoefficientSpec.geometric((0.5,)).sign_class() == NONNEGATIVE
        assert CoefficientSpec.geometric((-0.5,)).sign_class() == MIXED

    def test_log_factor_needs_offset_at_least_one(self):
        big = CoefficientSpec.log_factor((-1.0,), [[1.0]], (1.0,))
        assert big.sign_class() == NONPOSITIVE
        small = CoefficientSpec.log_factor((-1.0,), [[1.0]], (0.5,))
        assert small.sign_class() == MIXED

    def test_product_sign(self):
        prod = CoefficientSpec.product(
            [CoefficientSpec.constant(-1.0), CoefficientSpec.geometric((0.5,))]
        )
        assert prod.sign_class() == NONPOSITIVE

    def test_multiplicative_sign(self):
        dedekind = CoefficientSpec.multiplicative_product(
            [(AlphaRule.constant(1.0), chi_minus_4())]
        )
        assert dedekind.sign_class() == NONNEGATIVE
        signs = CoefficientSpec.multiplicative_product([(chi_minus_4(),)])
        assert signs.sign_class() == MIXED


class TestStructure:
    def test_entire(self):
        assert CoefficientSpec.finite_support({(2,): 1.0}).is_entire
        assert CoefficientSpec.geometric((0.5,)).is_entire
        assert CoefficientSpec.poisson_powers(2).is_entire
        assert not CoefficientSpec.constant(1.0).is_entire
        assert not CoefficientSpec.geometric((1.0,)).is_entire  # |q| = 1 boundary

    def test_envelope_triple_product(self):
        spec = CoefficientSpec.product(
            [CoefficientSpec.geometric((0.5,)), CoefficientSpec.constant(3.0)]
        )
        b, eps, g = spec.envelope_triple
        assert g == pytest.approx(0.5)
        assert b == pytest.approx(3.0)

    def test_support_points(self):
        spec = CoefficientSpec.finite_support({(0, 1): 1.0, (2, 2): 1.0, (0, 0): 1.0})
        pts = spec.support(2, 1, 4)
        assert pts.tolist() == [[0, 1], [2, 2]]

    def test_poisson_support(self):
        spec = CoefficientSpec.poisson_powers(2)
        pts = spec.support(1, 0, 40)
        assert pts.ravel().tolist() == [0, 1, 3, 7, 15, 31]
        assert spec.poisson_decomposition == (2, 0.0, 1.0, 0.0)

    def test_sparse_product(self):
        spec = CoefficientSpec.product(
            [CoefficientSpec.poisson_powers(2), CoefficientSpec.constant(2.0)]
        )
        assert spec.support(1, 0, 40) is not None
        base, rate, b_other, eps_other = spec.poisson_decomposition
        assert (base, rate) == (2, 0.0)
        assert b_other == pytest.approx(2.0)

    def test_validate_spec(self):
        spec = CoefficientSpec.periodic((2,), [1.0, -1.0])
        assert spec.validate(1) == []
        assert spec.validate(2)  # wrong rank
        assert CoefficientSpec.poisson_powers(2).validate(2)

    def test_family_class_matches_its_name(self):
        for spec in (CoefficientSpec.constant(1.0), CoefficientSpec.poisson_powers(2)):
            assert FAMILIES[spec.family] is type(spec)
        with pytest.raises(ConfigError, match="unknown coefficient family"):
            CoefficientSpec("constant", {"value": 1.0 + 0j})
        with pytest.raises(ConfigError, match="unknown coefficient family"):
            type(CoefficientSpec.constant(1.0))("periodic", {})

    def test_constructor_errors(self):
        with pytest.raises(ConfigError):
            CoefficientSpec.geometric((1.5,))
        with pytest.raises(ConfigError):
            CoefficientSpec.poisson_powers(1)
        with pytest.raises(ConfigError):
            CoefficientSpec.finite_support({})
        with pytest.raises(ConfigError):
            CoefficientSpec.multiplicative_product([(AlphaRule.constant(1.2),)])
        with pytest.raises(ConfigError):
            CoefficientSpec.constant(math.inf)

    @pytest.mark.parametrize("make, name", [
        pytest.param(lambda: CoefficientSpec.constant(math.nan), "value", id="constant"),
        pytest.param(lambda: CoefficientSpec.constant(complex(1.0, math.inf)), "value", id="constant-inf"),
        # Python's max drops a nan that is not first: the bound once read 1.0
        pytest.param(lambda: CoefficientSpec.finite_support({(0,): 1.0, (1,): math.nan}), "entries",
                     id="finite_support"),
        pytest.param(lambda: CoefficientSpec.periodic((2,), [1.0, math.nan]), "table", id="periodic"),
        pytest.param(lambda: CoefficientSpec.geometric((0.5, math.nan)), "ratio", id="geometric"),
        pytest.param(lambda: CoefficientSpec.log_factor((math.nan,), [[1.0]], (1.0,)), "coeffs",
                     id="log_factor-coeffs"),
        pytest.param(lambda: CoefficientSpec.log_factor((1.0,), [[math.nan]], (1.0,)), "lam",
                     id="log_factor-lam"),
        pytest.param(lambda: CoefficientSpec.log_factor((0.0,), [[1.0]], (math.inf,)), "u",
                     id="log_factor-u"),
        pytest.param(lambda: CoefficientSpec.log_factor((1.0,), [[1e300]], (1e10,)), "offsets",
                     id="log_factor-offset"),
        pytest.param(lambda: CoefficientSpec.character_product([(2, (1.0, math.nan), 0, 0)]), "factors",
                     id="character_product"),
        pytest.param(lambda: CoefficientSpec.product([CoefficientSpec.constant(1e200)] * 2), "factors",
                     id="product"),
        pytest.param(lambda: CoefficientSpec.multiplicative_product([(AlphaRule.constant(1.0),)],
                                                                    growth=math.nan),
                     "growth", id="multiplicative"),
        # theta(0) came out nan
        pytest.param(lambda: CoefficientSpec.poisson_powers(2, rate=-math.inf), "rate", id="poisson_powers"),
        pytest.param(lambda: AlphaRule.constant(math.nan), "value", id="alpha-constant"),
        pytest.param(lambda: AlphaRule.character(2, (1.0, math.inf)), "values", id="alpha-character"),
        pytest.param(lambda: AlphaRule.table({3: math.nan}), "entries", id="alpha-table"),
        pytest.param(lambda: AlphaRule.table({3: 0.5}, default=math.nan), "default", id="alpha-default"),
    ])
    def test_non_finite_parameter_is_named(self, make, name):
        with pytest.raises(ConfigError, match=name):
            make()

    # finite parts, modulus past the float range: Python's abs raised OverflowError
    @pytest.mark.parametrize("make, name", [
        pytest.param(lambda z: CoefficientSpec.constant(z), "value", id="constant"),
        pytest.param(lambda z: CoefficientSpec.finite_support({(0,): 1.0, (1,): z}), "entries",
                     id="finite_support"),
        pytest.param(lambda z: CoefficientSpec.geometric((0.5, z)), "ratio", id="geometric"),
        pytest.param(lambda z: CoefficientSpec.character_product([(2, (1.0, z), 0, 0)]), "factors",
                     id="character_product"),
        pytest.param(lambda z: CoefficientSpec.multiplicative_product([(AlphaRule.constant(z),)]),
                     "alpha", id="multiplicative"),
        pytest.param(lambda z: EulerConfig(1, 1, (AlphaRule.character(2, (1.0, z)),), np.ones((1, 1))),
                     "alpha", id="euler"),
        pytest.param(lambda z: make_special("lerch_transcendent", u=1.0, q=z), "needs 0 < \\|q\\| < 1",
                     id="lerch_transcendent"),
    ])
    def test_complex_parameter_past_the_float_range_is_config_error(self, make, name):
        z = complex(1.5e308, 1.5e308)
        assert AlphaRule.constant(z).max_abs() == math.inf
        with pytest.raises(ConfigError, match=name):
            make(z)

    def test_log_split(self):
        lam, u = np.array([[1.0, 2.0], [0.0, 1.5]]), np.array([0.5, 0.25])
        log = CoefficientSpec.log_factor((-1.0, 0.5), lam, u)
        log2 = CoefficientSpec.log_factor((0.25, 2.0), lam, u)
        periodic = CoefficientSpec.periodic((2, 3), np.arange(6.0).reshape(2, 3))
        pts = np.array([[0, 0], [3, 1], [7, 4]])
        for theta, rest, logs in ((log, CoefficientSpec.constant(1.0), (log,)),
                                  (CoefficientSpec.constant(1.0).times(log), CoefficientSpec.constant(1.0), (log,)),
                                  (periodic.times(log), periodic, (log,)),
                                  (periodic.times(log).times(log2), periodic, (log, log2)),
                                  (log.times(log), CoefficientSpec.constant(1.0), (log, log)),
                                  (periodic, periodic, ()),
                                  (CoefficientSpec.constant(1.0), CoefficientSpec.constant(1.0), ())):
            got, coeffs = theta.log_split(lam, u)
            assert got == rest
            assert coeffs.shape == (len(logs), 2)
            assert coeffs.tolist() == [list(f.params["coeffs"]) for f in logs]
            expect = theta_values(got, pts) * np.prod([theta_values(f, pts) for f in logs], axis=0)
            assert np.allclose(theta_values(theta, pts), expect, rtol=1e-15)
        # a log factor on other forms: no split
        other = CoefficientSpec.log_factor((1.0, 1.0), lam, u + 1.0)
        for theta in (other, periodic.times(log).times(other)):
            assert theta.log_split(lam, u) is None
