"""One lattice enumerator for partial sums, tails and atom tables.

`series._iter_blocks` walks the lattice in blocks of whole shells,
`series._lattice_blocks` adds theta's support, and `build_distribution`
chooses only how its blocks grow.  The tests pin the block structure, the
budget search and the atom tables that the growth policy fixes.
"""

from __future__ import annotations

import itertools

import numpy as np
import pytest

from shintani import series
from shintani.coefficients import CoefficientSpec
from shintani.distributions import _GROW_BLOCK, atom_cf, atom_cf_grid, build_distribution
from shintani.series import (
    ShintaniConfig,
    _cap_from_budget,
    _iter_blocks,
    _lattice_blocks,
    _shells,
    lattice_count,
    make_special,
)

# the partial sums' blocks, the atom tables' at rank 1 and at rank >= 2, two small ones
POLICIES = [(series._BLOCK, 1), (_GROW_BLOCK, 2), (1, 1), (3, 2), (7, 1)]


def _one_form(theta):
    return ShintaniConfig(d=1, m=1, r=1, lam=[[1.0]], u=[1.0], c=[[1.0]], theta=theta)


def _check_whole_shells(blocks, r):
    """Each block is every point of the degrees after the previous block's
    last degree through its own; returns the last degree."""
    last = -1
    for pts, hi in blocks:
        assert hi > last
        assert np.array_equal(pts, _shells(last + 1, hi, r))
        if r > 0:
            assert pts.shape[0] > 0 and int(pts.sum(axis=1).max()) == hi
        last = hi
    return last


class TestIterBlocks:
    @pytest.mark.parametrize("r", range(5))
    @pytest.mark.parametrize("size,grow", POLICIES)
    def test_blocks_are_whole_shells(self, r, size, grow):
        for n in (0, 1, 2, 9, 30):
            blocks = list(_iter_blocks(r, n, size, grow))
            last = _check_whole_shells(blocks, r)
            # the walk stops when the points run out: at rank 0, with the
            # one point of degree 0
            assert last == n if r > 0 else last <= n
            got = np.concatenate([pts for pts, _ in blocks])
            assert np.array_equal(got, _shells(0, n, r))

    @pytest.mark.parametrize("r", range(1, 5))
    @pytest.mark.parametrize("size,grow", POLICIES[1:])
    def test_unbounded_walk_is_the_same_walk(self, r, size, grow):
        n = 12
        bounded = list(_iter_blocks(r, n, size, grow))
        unbounded = list(itertools.islice(_iter_blocks(r, None, size, grow), len(bounded)))
        _check_whole_shells(unbounded, r)
        for (a, ha), (b, hb) in zip(bounded[:-1], unbounded):
            assert ha == hb and np.array_equal(a, b)
        assert unbounded[-1][1] >= n

    def test_block_sizes(self):
        # a block closes on the first shell that brings it to `size` points
        sizes = [pts.shape[0] for pts, _ in itertools.islice(_iter_blocks(1, None, 5, 2), 4)]
        assert sizes == [5, 10, 20, 40]
        for pts, hi in itertools.islice(_iter_blocks(2, None, 10, 1), 6):
            assert pts.shape[0] >= 10 and pts.shape[0] - (hi + 1) < 10

    def test_rank_zero_is_one_point(self):
        assert [(pts.shape, hi) for pts, hi in _iter_blocks(0, 4)] == [((1, 0), 4)]


@pytest.mark.parametrize("r", range(1, 5))
def test_cap_from_budget_matches_brute_force(r):
    for cap in range(201):
        fits = [n for n in range(cap + 1) if lattice_count(r, n) <= cap]
        assert _cap_from_budget(r, cap) == max(fits, default=0), cap


def test_cap_from_budget_closed_form_is_the_gallop():
    # r = 1: the gallop from shell -1 it replaced, through caps past the int64 lattice
    for cap in (0, 1, 2, 10, 10**6, 3 * 10**8, 2**62, 2**63 - 1, 2**63, 2**64, 10**40, 10**400):
        gallop = max(series._last_degree(1, cap, -1, min(cap, series._LATTICE_MAX)), 0)
        assert _cap_from_budget(1, cap) == gallop, cap


class TestLatticeBlocks:
    def test_finite_support_is_one_block(self):
        config = _one_form(CoefficientSpec.finite_support({(0,): 1.0, (3,): 2.0, (7,): 1.0}))
        [(pts, hi)] = list(_lattice_blocks(config))
        assert hi == 7 and pts[:, 0].tolist() == [0, 3, 7]
        [(pts, hi)] = list(_lattice_blocks(config, 4))
        assert hi == 4 and pts[:, 0].tolist() == [0, 3]

    def test_sparse_support_is_one_block_per_degree(self):
        config = _one_form(CoefficientSpec.poisson_powers(3))
        first = list(itertools.islice(_lattice_blocks(config), 5))
        assert [hi for _, hi in first] == [0, 2, 8, 26, 80]
        assert all(pts[:, 0].tolist() == [hi] for pts, hi in first)
        [(pts, hi)] = list(_lattice_blocks(config, 30))
        assert hi == 30 and pts[:, 0].tolist() == [0, 2, 8, 26]
        # the walk ends with the last support point an int64 row can hold
        assert list(_lattice_blocks(config))[-1][1] == 3**39 - 1

    def test_dense_support_is_the_lattice(self):
        config = make_special("euler_zagier", r=2, u=[0.0, 0.0])
        got = list(_lattice_blocks(config, 20, 1, 1))
        want = list(_iter_blocks(2, 20, 1, 1))
        assert [hi for _, hi in got] == [hi for _, hi in want] == list(range(21))
        assert all(np.array_equal(a, b) for (a, _), (b, _) in zip(got, want))


class TestAtomTables:
    """The growth policy fixes each table: the build stops after the first
    block whose tail bound meets delta."""

    def test_riemann_table(self):
        dist = build_distribution(make_special("riemann"), 2.0, delta=1e-6)
        assert (dist.atom_count, dist.shells_used) == (1_015_808, 1_015_807)

    def test_euler_zagier_table(self):
        config = make_special("euler_zagier", r=2, u=[0.0, 0.0])
        dist = build_distribution(config, [3.0, 2.0], delta=1e-5)
        assert (dist.atom_count, dist.shells_used) == (218_791, 660)

    def test_cf_grid_matches_exact_atom_cf(self):
        config = make_special("euler_zagier", r=2, u=[0.0, 0.0])
        dist = build_distribution(config, [3.0, 2.0], delta=1e-3)
        ts = np.linspace(-5.0, 5.0, 11)
        for axis in (1, 2):
            grid = atom_cf_grid(dist, axis, ts)
            point = np.zeros(2)
            for t, got in zip(ts, grid):
                point[axis - 1] = t
                assert abs(got - atom_cf(dist, point)) <= 1e-13
