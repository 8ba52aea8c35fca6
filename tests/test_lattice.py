"""Tree geometry, averages, Haar differences, and the one-third covering."""

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dyadlab.lattice import (
    CoverError,
    Cube,
    DyadicTree,
    GridFunction,
    LatticeError,
    ShiftedLattice,
    coarsen_once,
    coarsen_to,
    level_sums,
    one_third_cover,
)

import oracles
from oracles import (
    ancestors,
    average,
    cell_cube,
    cube_contains,
    from_callable,
    haar_difference,
    integral,
    restrict_tree,
)


class TestTreeGeometry:
    def test_partition_exactness_every_level(self):
        tree = DyadicTree(1, 9, 4.0)
        for k in range(tree.depth + 1):
            total = sum(q.volume for q in tree.cubes_at_level(k))
            assert total == tree.root().volume  # exact binary arithmetic

    def test_partition_exactness_2d(self, tree2d):
        for k in range(tree2d.depth + 1):
            total = sum(q.volume for q in tree2d.cubes_at_level(k))
            assert total == tree2d.root().volume

    def test_children_partition_parent(self, tree6):
        q = Cube(tree6, 2, (3,))
        kids = q.children()
        assert len(kids) == 2
        assert sum(k.volume for k in kids) == q.volume
        assert all(k.parent() == q for k in kids)

    def test_cube_validation(self, tree6):
        with pytest.raises(LatticeError):
            Cube(tree6, 2, (4,))
        with pytest.raises(LatticeError):
            Cube(tree6, 9, (0,))
        with pytest.raises(LatticeError):
            tree6.root().parent()

    def test_leaf_has_no_children(self, tree6):
        leaf = cell_cube(tree6, 5)
        assert leaf.is_leaf()
        with pytest.raises(LatticeError):
            leaf.children()


class TestPairSums:
    """Coarsening adds even and odd entries; it must equal the reshape-sum it replaced."""

    @pytest.mark.parametrize("dim,depth", [(1, 0), (1, 5), (2, 1), (2, 4), (3, 1), (3, 3)])
    @pytest.mark.parametrize("rows", [(), (3,), (2, 3)])
    def test_coarsening_matches_reshape_sum(self, dim, depth, rows, rng):
        tree = DyadicTree(dim, depth, 1.0)
        cells = rng.standard_t(3, size=rows + tree.shape)
        want = [cells]
        for _ in range(depth):
            want.append(oracles.reference_coarsen_once(want[-1], dim))
        want = want[::-1]
        got = level_sums(tree, cells)
        assert len(got) == len(want)
        for g, w in zip(got, want):
            assert g.shape == w.shape and np.array_equal(g, w)
        if depth:
            assert np.array_equal(coarsen_once(cells, dim), want[depth - 1])
        if not rows:
            if depth:
                assert np.array_equal(coarsen_once(cells), want[depth - 1])
            for k in range(depth + 1):
                assert np.array_equal(coarsen_to(cells, k), want[k])


class TestAverages:
    def test_constant_function(self, tree6):
        f = GridFunction.constant(tree6, 3.25)
        for q in [tree6.root(), Cube(tree6, 3, (5,)), cell_cube(tree6, 0)]:
            assert average(f, q) == 3.25

    def test_half_mass_indicator(self):
        tree = DyadicTree(1, 5, 0.5)
        f = from_callable(tree, lambda x: (x < 0.0) * 1.0)
        assert average(f, tree.root()) == 0.5

    def test_two_cell_weighted(self):
        name, got, want, tol = oracles.average_two_cell_weighted()
        assert got == pytest.approx(want, rel=tol)

    def test_cube_from_other_tree_rejected(self, tree6):
        other = DyadicTree(1, 4, 1.0)
        f = GridFunction.constant(tree6, 1.0)
        with pytest.raises(LatticeError):
            average(f, other.root())


class TestHaarDifference:
    def test_constant_gives_zero(self, tree6):
        b = GridFunction.constant(tree6, 7.0)
        d = haar_difference(b, Cube(tree6, 2, (1,)))
        assert np.all(d.values == 0.0)

    def test_two_cell_unfold(self):
        name, got, want, tol = oracles.haar_two_cell()
        assert got == pytest.approx(want, rel=tol)

    def test_mean_zero_and_support(self, tree6, rng):
        b = GridFunction(tree6, rng.normal(size=tree6.shape))
        q = Cube(tree6, 3, (6,))
        d = haar_difference(b, q)
        assert abs(integral(d, q)) < 1e-14
        outside = np.ones(tree6.shape, dtype=bool)
        outside[q.cell_slices()] = False
        assert np.all(d.values[outside] == 0.0)

    def test_telescoping(self, tree6, rng):
        b = GridFunction(tree6, rng.normal(size=tree6.shape))
        q0 = Cube(tree6, 1, (1,))
        cell = cell_cube(tree6, int(rng.integers(tree6.n_cells // 2, tree6.n_cells)))
        assert cube_contains(q0, cell)
        total = 0.0
        for q in ancestors(cell, within=q0):  # the chain cell < Q <= q0
            total += float(haar_difference(b, q).values[cell.cell_slices()][0])
        want = float(b.values[cell.cell_slices()][0]) - average(b, q0)
        assert total == pytest.approx(want, abs=1e-12)

    def test_orthogonality(self, tree6, rng):
        b = GridFunction(tree6, rng.normal(size=tree6.shape))
        cubes = [Cube(tree6, 1, (0,)), Cube(tree6, 2, (1,)), Cube(tree6, 3, (7,))]
        for q in cubes:
            for r in cubes:
                if q == r:
                    continue
                inner = float(
                    (haar_difference(b, q).values * haar_difference(b, r).values).sum()
                    * tree6.cell_volume
                )
                assert abs(inner) < 1e-14

    def test_leaf_rejected(self, tree6, rng):
        b = GridFunction(tree6, rng.normal(size=tree6.shape))
        with pytest.raises(LatticeError):
            haar_difference(b, cell_cube(tree6, 0))


class TestOneThirdCover:
    def test_self_cover(self):
        tree = DyadicTree(1, 5, 1.0)
        alpha, cube = one_third_cover(tree, (0.0,), 0.25)
        assert alpha == (Fraction(0),)
        assert cube.corner == (0.0,) and cube.side == 0.25

    def test_exhaustive_oracle(self):
        name, got, want, tol = oracles.one_third_cover_exhaustive()
        assert got == pytest.approx(want, rel=tol)

    def test_random_battery(self):
        name, got, want, tol = oracles.one_third_cover_random_battery()
        assert got == pytest.approx(want, rel=tol)

    def test_two_dimensional_cover(self):
        tree = DyadicTree(2, 5, 1.0)
        alpha, cube = one_third_cover(tree, (0.12, -0.4), 0.3)
        for axis in range(2):
            lo, hi = cube.axis_interval(axis)
            target_lo = Fraction((0.12, -0.4)[axis])
            assert lo <= target_lo and target_lo + Fraction(0.3) <= hi
        assert cube.side <= 3 * 0.3 + 1e-12

    def test_too_small_reports_reason(self):
        tree = DyadicTree(1, 3, 1.0)
        with pytest.raises(CoverError) as err:
            one_third_cover(tree, (0.1,), tree.cell_side / 4.0)
        assert err.value.reason == "too-small"

    def test_root_sized_target_reports_too_large(self):
        """The full window straddles every scale-matched shifted cube."""
        tree = DyadicTree(1, 4, 1.0)
        with pytest.raises(CoverError) as err:
            one_third_cover(tree, (-1.0,), 2.0)
        assert err.value.reason == "too-large"

    @given(st.floats(0.02, 0.4), st.floats(-0.9, 0.45))
    @settings(max_examples=60, deadline=None)
    def test_cover_property(self, side, corner):
        tree = DyadicTree(1, 7, 1.0)
        alpha, cube = one_third_cover(tree, (corner,), side)
        lo, hi = cube.axis_interval(0)
        assert lo <= Fraction(corner) and Fraction(corner) + Fraction(side) <= hi
        assert float(cube.side_frac) <= 3.0 * side


class TestRestrictTree:
    def test_restrict_to_root_is_identity(self, tree6):
        sub = restrict_tree(tree6, tree6.root())
        assert sub == tree6

    def test_restrict_depth_and_cell_count(self):
        tree = DyadicTree(2, 3, 1.0)
        child = Cube(tree, 1, (0, 1))
        sub = restrict_tree(tree, child)
        assert sub.depth == 2
        assert sub.n_cells == 2 ** (2 * 2)

    def test_restrict_then_integrate(self):
        name, got, want, tol = oracles.restrict_then_integrate()
        assert got == pytest.approx(want, rel=tol)


class TestShiftedLattice:
    def test_shifted_levels_nest(self):
        tree = DyadicTree(1, 4, 1.0)
        lattice = ShiftedLattice(tree)
        for alpha in lattice.alphas:
            for level in range(3):
                for cube in lattice.cubes_overlapping_window(alpha, level):
                    lo, hi = cube.axis_interval(0)
                    mid = (lo + hi) / 2
                    finer = lattice.cube_containing(alpha, level + 1, (mid,))
                    flo, fhi = finer.axis_interval(0)
                    assert lo <= flo and fhi <= hi  # refinement respects nesting
