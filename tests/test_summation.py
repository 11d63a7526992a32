"""Reproducible atom-table sums and the sort-based atom merge."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from shintani.distributions import _merge_atoms
from shintani.summation import exact_complex_sum, exact_real_sum


def _mixed(seed: int, n: int, spread: int, cancel: bool) -> np.ndarray:
    """n values with magnitudes over 10^-spread .. 10^spread, optionally
    followed by the negatives of half of them (heavy cancellation)."""
    rng = np.random.default_rng(seed)
    x = rng.standard_normal(n) * 10.0 ** rng.integers(-spread, spread + 1, n)
    if cancel:
        x = np.concatenate([x, -x[: n // 2]])
        rng.shuffle(x)
    return x


def _within_bound(got: float, values: np.ndarray) -> bool:
    """The exact_real_sum docstring bound against math.fsum:
    2^(E-70) + ulp(result)/2 + ulp(fsum)/2 with max|x| < 2^E."""
    ref = math.fsum(values.tolist())
    top = float(np.max(np.abs(values))) if values.size else 0.0
    if top == 0.0:
        return got == ref
    slack = math.ldexp(1.0, math.frexp(top)[1] - 70)
    return abs(got - ref) <= slack + (math.ulp(got) + math.ulp(ref)) / 2


mixed_arrays = st.builds(
    _mixed,
    seed=st.integers(0, 2**32 - 1),
    n=st.one_of(st.integers(0, 64), st.integers(0, 200_000)),
    spread=st.integers(0, 40),
    cancel=st.booleans(),
)


class TestExactRealSum:
    @given(mixed_arrays, st.integers(0, 2**32 - 1))
    @settings(max_examples=40, deadline=None)
    def test_permutation_bit_identical(self, values, seed):
        got = exact_real_sum(values)
        perm = np.random.default_rng(seed).permutation(values.size)
        assert exact_real_sum(values[perm]) == got
        assert exact_real_sum(values[::-1]) == got
        assert _within_bound(got, values)

    @given(st.lists(st.floats(min_value=-1e300, max_value=1e300), max_size=200), st.randoms())
    @settings(max_examples=80, deadline=None)
    def test_small_lists_any_value(self, values, rnd):
        # subnormal, tiny and huge values reach both the binned path and the
        # math.fsum fallback
        arr = np.array(values, dtype=float)
        got = exact_real_sum(arr)
        rnd.shuffle(values)
        assert exact_real_sum(np.array(values, dtype=float)) == got
        assert _within_bound(got, arr)

    def test_edge_cases(self):
        assert exact_real_sum(np.array([])) == 0.0
        assert exact_real_sum(np.zeros(1000)) == 0.0
        for v in (1.0, -3.75, 1e300, 1e-310, math.pi):
            assert exact_real_sum(np.array([v])) == v
        assert exact_real_sum(np.array([1e16, 1.0, -1e16])) == 1.0
        tiny = np.array([1e-300, 3e-301, -2.5e-300, 7e-302])
        assert exact_real_sum(tiny) == math.fsum(tiny.tolist())
        assert exact_real_sum(np.ones(1000)) == 1000.0

    def test_non_finite_as_fsum(self):
        assert exact_real_sum(np.array([1.0, math.inf])) == math.inf
        assert exact_real_sum(np.array([-math.inf, 2.0])) == -math.inf
        assert math.isnan(exact_real_sum(np.array([1.0, math.nan])))
        with pytest.raises(ValueError):
            exact_real_sum(np.array([math.inf, -math.inf]))


class TestExactComplexSum:
    @given(mixed_arrays, mixed_arrays, st.integers(0, 2**32 - 1))
    @settings(max_examples=20, deadline=None)
    def test_permutation_bit_identical(self, re, im, seed):
        n = min(re.size, im.size)
        z = re[:n] + 1j * im[:n]
        got = exact_complex_sum(z)
        perm = np.random.default_rng(seed).permutation(n)
        assert exact_complex_sum(z[perm]) == got
        assert _within_bound(got.real, z.real)
        assert _within_bound(got.imag, z.imag)

    def test_real_input(self):
        assert exact_complex_sum(np.array([1e16, 1.0, -1e16])) == complex(1.0, 0.0)


def _reference_merge(locations, masses):
    uniq, inverse = np.unique(locations, axis=0, return_inverse=True)
    merged = np.zeros(uniq.shape[0])
    np.add.at(merged, inverse.ravel(), masses)
    return uniq, merged


@pytest.mark.parametrize("seed", range(12))
def test_merge_matches_unique_reference(seed):
    rng = np.random.default_rng(seed)
    d = int(rng.integers(1, 4))
    k = int(rng.integers(1, 5000))
    # coarse grid values collide often; continuous ones rarely
    grid = rng.integers(-6, 7, size=(k, d)) / 4.0
    cont = rng.standard_normal((k, d))
    locations = np.where(rng.random((k, d)) < 0.7, grid, cont)
    planted = rng.integers(0, k, size=k // 3)
    locations = np.vstack([locations, locations[planted]])
    locations = locations[rng.permutation(locations.shape[0])] + 0.0
    masses = rng.random(locations.shape[0]) * 10.0 ** rng.integers(-8, 1, locations.shape[0])
    uniq, merged = _merge_atoms(locations, masses)
    ref_uniq, ref_merged = _reference_merge(locations, masses)
    assert np.array_equal(uniq, ref_uniq)
    assert np.array_equal(merged, ref_merged)
    assert uniq.shape[0] < locations.shape[0]
