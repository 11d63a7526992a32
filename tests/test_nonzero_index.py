"""The block route's nonzero rows of a multiplicative theta, read from an index.

`arithmetic.coefficient_array` keeps each table's nonzero index next to it
(`coefficient_nonzero`), and `CoefficientSpec.nonzero` reads a rank-1 block
of whole shells from it: two searchsorted calls, no theta evaluated on the
block's zero rows.  The reference is the default `nonzero`, which evaluates
`theta_values` on every lattice point and keeps the nonzero ones; every
field of `evaluate`, `evaluate_many`, `evaluate_partial` and
`build_distribution` must equal it bit for bit.

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
from shintani.coefficients import NONNEGATIVE, NONPOSITIVE, CoefficientSpec, _MultiplicativeProduct
from shintani.distributions import build_distribution
from shintani.errors import ShintaniError
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
    with mock.patch.object(_MultiplicativeProduct, "nonzero", CoefficientSpec.nonzero):
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
        # a product holding the multiplicative factor takes the default route
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
    # past _BLOCK points the partial sum walks two blocks, each read from the index
    n_shell = series._BLOCK + 1000
    arithmetic._COEFF_ARRAY_CACHE.clear()
    coefficient_array(rules, n_shell + 1)
    config = _one_form(CoefficientSpec.multiplicative_product([rules]))
    assert len(list(series._blocks_upto(config, n_shell))) == 2
    with_index, reference = _both(lambda: evaluate_partial(config, s, n_shell))
    assert with_index == reference


def test_index_is_the_tables_nonzero_entries():
    rules = (AlphaRule.constant(1.0), chi_minus_4())
    arithmetic._COEFF_ARRAY_CACHE.clear()
    for limit in (2, 3, 100, 1000, 1024, 1025, 5000):
        table, index = coefficient_nonzero(rules, limit)
        assert table.tobytes() == coefficient_array(rules, limit).tobytes()
        assert index.tolist() == np.flatnonzero(table).tolist()
        assert not index.flags.writeable


def test_rows_and_values_of_a_block():
    spec = CoefficientSpec.multiplicative_product([(AlphaRule.constant(1.0), chi_minus_4())])
    block = np.arange(37, 400, dtype=np.int64).reshape(-1, 1)
    rows, vals = spec.nonzero(block, shells=True)
    ref_rows, ref_vals = CoefficientSpec.nonzero(spec, block, False)
    assert rows.tolist() == ref_rows.tolist() and vals.tobytes() == ref_vals.tobytes()
    # without `shells` the rows are any points, and the default takes them
    scattered = np.array([[5], [3], [4], [1]])
    rows, vals = spec.nonzero(scattered, shells=False)
    assert rows.tolist() == [[3], [4], [1]] and vals.tolist() == [1.0, 2.0, 1.0]  # A(6) = 0
