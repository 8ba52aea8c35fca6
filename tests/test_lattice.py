"""Tree geometry, averages, Haar differences, and the one-third covering."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dyadlab.lattice import (
    Cube,
    DyadicTree,
    GridFunction,
    LatticeError,
    coarsen_once,
    coarsen_to,
    level_sums,
    shifted_intervals_1d,
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
    """The one-third lemma on the engine's lattices: a target of side s sits in an
    interval of some shift at every level whose length L has 1.5 s <= L <= 3 s."""

    def test_self_cover(self):
        """A dyadic target is held by its own lattice: [0, 1/4) by its dyadic parent."""
        tree = DyadicTree(1, 5, 1.0)  # positions count sixths of a cell, 1/96
        shifts = oracles.one_third_shifts(tree, np.array([0]), 24)
        assert list(shifts) == [2] and shifts[2].tolist() == [0]

    def test_exhaustive_oracle(self):
        name, got, want, tol = oracles.one_third_cover_exhaustive()
        assert got == want == 0.0
        assert oracles.one_third_cover_misses(3) == (477, 0)
        assert oracles.one_third_cover_misses(7) == (222357, 0)

    def test_random_battery(self, rng):
        """100 random targets at depth 8, corners and sides in 64ths of a sixth of a cell."""
        tree = DyadicTree(1, 8, 1.0)
        half = 64 * 3 * 2**tree.depth
        for _ in range(100):
            side = int(rng.integers(2 * 64 * 6, half // 2 + 1))
            corner = int(rng.integers(-half, half - side + 1))
            shifts = oracles.one_third_shifts(tree, np.array([corner]), side, unit=64)
            assert shifts and all(found[0] >= 0 for found in shifts.values())

    def test_two_dimensional_cover(self):
        """The square [1/8, 7/16) x [-5/48, 5/24): both axes find a shift at the one level
        of length 1/2, so the product of their intervals, of lattice (0, 2/3), holds it."""
        tree = DyadicTree(1, 5, 1.0)  # positions count sixths of a cell, 1/96
        shifts = oracles.one_third_shifts(tree, np.array([12, -10]), 30)
        assert list(shifts) == [2] and shifts[2].tolist() == [0, 2]

    def test_too_small_reports_reason(self):
        """A quarter-cell target: L <= 3 s fails at every level, down to one cell."""
        tree = DyadicTree(1, 3, 1.0)  # positions count twelfths of a cell
        assert oracles.one_third_shifts(tree, np.array([2]), 3, unit=2) == {}

    def test_root_sized_target_reports_too_large(self):
        """The full window needs L >= 1.5 * 2H, beyond the root."""
        tree = DyadicTree(1, 4, 1.0)
        half = 3 * 2**tree.depth
        assert oracles.one_third_shifts(tree, np.array([-half]), 2 * half) == {}

    @given(st.integers(0, 2**20), st.floats(0.0, 1.0))
    @settings(max_examples=60, deadline=None)
    def test_cover_property(self, side_seed, where):
        tree = DyadicTree(1, 7, 1.0)
        unit = 16
        half = unit * 3 * 2**tree.depth
        side = unit * 6 + side_seed % (half // 2 - unit * 6 + 1)  # one cell to H/2
        corner = -half + int(where * (2 * half - side))
        shifts = oracles.one_third_shifts(tree, np.array([corner]), side, unit)
        assert shifts and all(found[0] >= 0 for found in shifts.values())


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
        """Each level-(k+1) interval of a shift lies inside a level-k interval of that shift."""
        for depth in (1, 3, 6):
            families = list(shifted_intervals_1d(DyadicTree(1, depth, 1.0), inside=False))
            assert len(families) == 2 * (depth + 1)  # shifts 1/3 and 2/3; shift 0 is the tree
            for shift in range(2):
                per_level = families[shift * (depth + 1):(shift + 1) * (depth + 1)]
                for (lo, hi), (flo, fhi) in zip(per_level, per_level[1:]):
                    i = np.searchsorted(lo, flo, side="right") - 1
                    assert np.all(i >= 0) and np.all(fhi <= hi[i])
