"""Coefficient families: values, envelopes, sign classes, structure queries."""

import math

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
    Envelope,
    theta_values,
)
from shintani.errors import ConfigError

lattice_points = st.lists(
    st.lists(st.integers(min_value=0, max_value=300), min_size=2, max_size=2),
    min_size=1,
    max_size=40,
)


def check_envelope(spec, pts):
    pts = np.asarray(pts, dtype=np.int64)
    vals = np.abs(np.asarray(theta_values(spec, pts)))
    t = pts.sum(axis=1)
    bound = spec.envelope.bound * (t + 1.0) ** spec.envelope.growth
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
            CoefficientSpec("constant", {"value": 1.0 + 0j}, Envelope(1.0, 0.0))
        with pytest.raises(ConfigError, match="unknown coefficient family"):
            type(CoefficientSpec.constant(1.0))("periodic", {}, Envelope(1.0, 0.0))

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
            Envelope(-1.0, 0.0)
