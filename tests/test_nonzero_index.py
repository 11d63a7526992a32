"""The block route's points of a multiplicative theta, read from an index.

`arithmetic.coefficient_array` keeps each table's nonzero index next to it
(`coefficient_nonzero`), and a rank-1 multiplicative theta's `support`
reads a degree range from it: two searchsorted calls, and the block route
then evaluates theta only on those points.  The reference is `support`
answering None, under which the block route walks every lattice point and
evaluates `theta_values` on each; every field of `evaluate`,
`evaluate_many`, `evaluate_partial` and `build_distribution` must equal it
bit for bit.

`python -m pytest tests/test_nonzero_index.py --hypothesis-profile=ci`
runs the property test derandomized (see conftest.py).
"""

from __future__ import annotations

from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from shintani import arithmetic, series
from shintani.arithmetic import AlphaRule, chi_minus_4, coefficient_array, coefficient_nonzero
from shintani.coefficients import (
    _LATTICE_MAX, NONNEGATIVE, NONPOSITIVE, CoefficientSpec, _MultiplicativeProduct, theta_values,
)
from shintani.distributions import build_distribution
from shintani.errors import CertificationError, ShintaniError
from shintani.series import ShintaniConfig, differentiate, evaluate, evaluate_many, evaluate_partial

_TABLE = 1 << 15  # one table per example serves every lookup (shells below it)


def _one_form(theta, u=1.0):
    return ShintaniConfig(d=1, m=1, r=1, lam=[[1.0]], u=[u], c=[[1.0]], theta=theta)


def _fields(result):
    """Every field of a result, floats by their bits."""
    if isinstance(result, list):
        return [_fields(x) for x in result]
    if hasattr(result, "locations"):  # a ZetaDistribution
        return (result.locations.tobytes(), result.masses.tobytes(), result.shells_used,
                float(result.tail_mass_bound).hex(), _fields(result.normalizer))
    value = complex(result.value)
    return (value.real.hex(), value.imag.hex(), float(result.tail_bound).hex(),
            result.shells_used, result.certified)


def _outcome(call):
    try:
        return _fields(call())
    except ShintaniError as exc:
        return type(exc).__name__, str(exc)


def _both(call):
    """(outcome with the index, outcome with theta formed on every lattice point)."""
    with_index = _outcome(call)
    with mock.patch.object(_MultiplicativeProduct, "support", CoefficientSpec.support):
        reference = _outcome(call)
    return with_index, reference


unit = st.floats(-1.0, 1.0)
unit_complex = st.builds(
    lambda r, phi: complex(r * np.cos(phi), r * np.sin(phi)), st.floats(0.0, 1.0), st.floats(-3.2, 3.2)
)
PRIMES = [2, 3, 5, 7, 11, 13, 101, 149]


@st.composite
def rule_lists(draw):
    value = st.one_of(unit, unit_complex) if draw(st.booleans()) else unit

    def rule():
        kind = draw(st.sampled_from(["constant", "character", "table"]))
        if kind == "constant":
            return AlphaRule.constant(draw(value))
        if kind == "character":
            mod = draw(st.integers(2, 6))
            return AlphaRule.character(mod, [draw(value) for _ in range(mod)])
        zeros = draw(st.lists(st.sampled_from(PRIMES), max_size=3))  # A(p^k) = 0 at these p
        others = draw(st.dictionaries(st.sampled_from(PRIMES), value, max_size=2))
        return AlphaRule.table({**others, **{p: 0.0 for p in zeros}}, default=draw(value))

    return tuple(rule() for _ in range(draw(st.integers(1, 3))))


NO_ZERO = (AlphaRule.constant(0.5), AlphaRule.constant(-0.25))  # A(p^k) != 0 at every p^k


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@example(rules=NO_ZERO, sigma=3.0, t=2.5, tol=1e-8, n_shell=700)
@example(rules=(AlphaRule.constant(1.0), chi_minus_4()), sigma=3.0, t=0.0, tol=1e-9, n_shell=5000)
@given(rule_lists(), st.floats(2.0, 4.0), st.sampled_from([0.0, 2.5, -17.0]),
       st.sampled_from([1e-5, 1e-8]), st.integers(0, 20_000))
def test_index_route_is_the_reference_bit_for_bit(rules, sigma, t, tol, n_shell):
    arithmetic._COEFF_ARRAY_CACHE.clear()
    coefficient_array(rules, _TABLE)  # the one table every lookup below hits
    config = _one_form(CoefficientSpec.multiplicative_product([rules]))
    points = [complex(sigma, t), complex(sigma, 0.0), complex(sigma + 0.5, -t)]
    calls = [
        lambda: evaluate(config, points[0], tol=tol, shell_cap=20_000),
        lambda: evaluate_many(config, points, tol=tol, shell_cap=20_000),
        lambda: evaluate_partial(config, points[0], n_shell),
        # a product holding the multiplicative factor reads the factor's index
        lambda: evaluate_partial(differentiate(config, 1), points[0], n_shell),
    ]
    if config.theta.sign_class() in (NONNEGATIVE, NONPOSITIVE):
        calls.append(lambda: build_distribution(config, sigma, delta=1e-3, shell_cap=20_000))
    for call in calls:
        with_index, reference = _both(call)
        assert with_index == reference


@pytest.mark.parametrize("rules", [
    (AlphaRule.constant(1.0), chi_minus_4()),
    (AlphaRule.character(3, (0.0, 0.5j, -0.5 + 0.5j)), AlphaRule.table({2: 0.0}, default=0.75)),
], ids=["1,chi4", "complex"])
@pytest.mark.parametrize("s", [3.0, 3.0 + 7.0j])
def test_several_blocks(rules, s):
    # past _BLOCK points the partial sum walks two blocks, each read from the
    # index: no block builds its lattice points
    n_shell = series._BLOCK + 1000
    arithmetic._COEFF_ARRAY_CACHE.clear()
    coefficient_array(rules, n_shell + 1)
    config = _one_form(CoefficientSpec.multiplicative_product([rules]))
    with mock.patch.object(series, "_shells", side_effect=AssertionError("lattice points built")):
        assert len(list(series._blocks_upto(config, n_shell))) == 2
        with_index = _outcome(lambda: evaluate_partial(config, s, n_shell))
    with mock.patch.object(_MultiplicativeProduct, "support", CoefficientSpec.support):
        reference = _outcome(lambda: evaluate_partial(config, s, n_shell))
    assert with_index == reference


def test_index_is_the_tables_nonzero_entries():
    rules = (AlphaRule.constant(1.0), chi_minus_4())
    arithmetic._COEFF_ARRAY_CACHE.clear()
    for limit in (2, 3, 100, 1000, 1024, 1025, 5000):
        index = coefficient_nonzero(rules, limit)
        assert index.tolist() == np.flatnonzero(coefficient_array(rules, limit)).tolist()
        assert not index.flags.writeable


def test_rows_and_values_of_a_block():
    # the support of degrees 37..399 is the block's rows where theta != 0
    spec = CoefficientSpec.multiplicative_product([(AlphaRule.constant(1.0), chi_minus_4())])
    block = np.arange(37, 400, dtype=np.int64).reshape(-1, 1)
    vals = theta_values(spec, block)
    rows = spec.support(1, 37, 399)
    assert rows.tolist() == block[vals != 0].tolist()
    assert theta_values(spec, rows).tobytes() == vals[vals != 0].tobytes()
    assert spec.support(1, 5, 5).tolist() == [] and spec.support(1, 3, 5).tolist() == [[3], [4]]  # A(6) = 0
    # past rank 1 the support is every lattice point
    assert CoefficientSpec.multiplicative_product([(AlphaRule.constant(1.0),)] * 2).support(2, 0, 9) is None


@pytest.mark.parametrize("first", [True, False], ids=["multiplicative-first", "poisson-first"])
def test_product_with_poisson_takes_its_points(first):
    # a product holding a poisson factor is sparse: its support on an
    # unbounded range is the Poisson points, and no table is built
    factors = [CoefficientSpec.multiplicative_product([(AlphaRule.constant(1.0), chi_minus_4())]),
               CoefficientSpec.poisson_powers(2)]
    spec = CoefficientSpec.product(factors if first else factors[::-1])
    assert spec.sparse
    arithmetic._COEFF_ARRAY_CACHE.clear()
    pts = spec.support(1, 0, _LATTICE_MAX)
    assert pts.ravel().tolist() == [2**k - 1 for k in range(64)]  # through 2^63 - 1
    blocks = list(series._lattice_blocks(_one_form(spec), 1000))
    assert [pts.ravel().tolist() for pts, _ in blocks] == [[0, 1, 3, 7, 15, 31, 63, 127, 255, 511]]
    assert not arithmetic._COEFF_ARRAY_CACHE


def test_differentiated_config_takes_the_index_points():
    rules = (AlphaRule.constant(1.0), chi_minus_4())
    config = differentiate(_one_form(CoefficientSpec.multiplicative_product([rules])), 1)
    assert not config.theta.sparse
    arithmetic._COEFF_ARRAY_CACHE.clear()
    with mock.patch.object(series, "_shells", side_effect=AssertionError("lattice points built")):
        [block] = series._blocks_upto(config, 3000)
    assert block.ravel().tolist() == (coefficient_nonzero(rules, 3001) - 1).tolist()


def test_distribution_cap_counts_lattice_points():
    # the cap counts every lattice point through the block's last degree, as
    # it did when the blocks held them all: the fourth block ends at degree
    # 491,519 with 491,520 lattice points, about 110,000 of them nonzero
    config = _one_form(CoefficientSpec.multiplicative_product([(AlphaRule.constant(1.0), chi_minus_4())]))
    assert not config.theta.sparse
    with pytest.raises(CertificationError) as with_index:
        build_distribution(config, 1.2, delta=1e-9, shell_cap=300_000)
    assert str(with_index.value) == (
        "delta=1e-09 unreachable within shell_cap=300000 (best bound 7.571e+01 at degree 491519)"
    )
    with_index, reference = _both(lambda: build_distribution(config, 1.2, delta=1e-9, shell_cap=300_000))
    assert with_index == reference
