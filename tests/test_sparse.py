"""Sparse families: verification, packing, the domination constructor, serialization."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dyadlab.lattice import Cube, DyadicTree, GridFunction, LatticeError
from dyadlab.sparse import (
    FULL,
    SparseFamily,
    carleson_from_sparse,
    domination_bound,
    domination_check,
    domination_worst_case,
    family_from_text,
    family_to_text,
    paraproduct_sparse_dominate,
    partial_sum,
    partial_sums,
    pointwise_dominated,
    random_subcollection,
    verify_sparse,
)
from dyadlab.scenarios import (
    ScenarioConfig,
    make_family,
    run_domination,
    shrunken_family_counterexample,
    spiky_field,
)
from dyadlab.weights import Weight, cube_stack, fujii_wilson_ainfty

import oracles


def full_witnesses(cubes):
    return {q: {int(i): FULL for i in q.flat_cells()} for q in cubes}


class TestVerifySparse:
    def test_disjoint_cubes_full_witnesses(self):
        tree = DyadicTree(1, 4, 1.0)
        cubes = [Cube(tree, 2, (0,)), Cube(tree, 2, (2,)), Cube(tree, 3, (3,))]
        fam = SparseFamily(tree, cubes, full_witnesses(cubes), gamma=1.0)
        ok, worst = verify_sparse(fam)
        assert ok and worst == pytest.approx(1.0)

    def test_nested_family_fails_any_gamma(self):
        """Witness sets that must avoid the children leave nothing for non-leaf cubes."""
        tree = DyadicTree(1, 3, 1.0)
        cubes = list(tree.cubes())
        witnesses = {}
        for q in cubes:
            if q.is_leaf():
                witnesses[q] = {int(i): FULL for i in q.flat_cells()}
            else:
                witnesses[q] = {}
        fam = SparseFamily(tree, cubes, witnesses, gamma=0.01)
        ok, worst = verify_sparse(fam)
        assert not ok and worst == 0.0

    def test_witness_escape_detected(self):
        tree = DyadicTree(1, 3, 1.0)
        q = Cube(tree, 1, (0,))
        fam = SparseFamily(tree, [q], {q: {tree.n_cells - 1: FULL}}, gamma=0.5)
        ok, _ = verify_sparse(fam)
        assert not ok

    def test_overlapping_claims_detected(self):
        tree = DyadicTree(1, 3, 1.0)
        a, b = Cube(tree, 1, (0,)), tree.root()
        fam = SparseFamily(tree, [a, b], {a: {0: FULL}, b: {0: FULL}}, gamma=0.01)
        ok, _ = verify_sparse(fam)
        assert not ok


class TestConstructor:
    def test_constant_b_trivial_family(self, tree6, rng):
        f = GridFunction(tree6, rng.normal(size=tree6.shape))
        fam = paraproduct_sparse_dominate(GridFunction.constant(tree6, 1.0), f)
        assert [q.level for q in fam.cubes] == [0]
        ok, worst = verify_sparse(fam)
        assert ok and worst == pytest.approx(1.0)

    def test_hand_case(self):
        name, got, want, tol = oracles.domination_hand_case()
        assert got == pytest.approx(want, rel=tol)

    def test_zero_f_trivial(self, tree6):
        b = GridFunction(tree6, np.arange(tree6.n_cells, dtype=float))
        fam = paraproduct_sparse_dominate(b, GridFunction.constant(tree6, 0.0))
        ok, _ = verify_sparse(fam)
        assert ok

    @pytest.mark.parametrize("dim,depth,trials", [(1, 6, 60), (2, 4, 10)])
    def test_random_battery(self, dim, depth, trials):
        rng = np.random.default_rng(1234 + dim)
        tree = DyadicTree(dim, depth, 1.0)
        gamma = 2.0 ** -(dim + 2)
        for _ in range(trials):
            b = spiky_field(tree, rng, sigma=float(rng.uniform(1.5, 3.5)))
            f = spiky_field(tree, rng, sigma=float(rng.uniform(1.5, 3.5)))
            fam = paraproduct_sparse_dominate(b, f)
            ok, worst = verify_sparse(fam)
            assert ok and worst >= gamma * (1.0 - 1e-12)
            assert fam.stopping_mass_max <= 0.5 + 1e-12
            for _ in range(10):
                sub = random_subcollection(tree, tree.root(), rng)
                ok2, slack = domination_check(partial_sum(b, f, sub), fam, b, f)
                assert ok2, slack

    def test_domination_uniform_over_subcollections(self, tree6):
        """One family serves every sub-collection without reconstruction."""
        rng = np.random.default_rng(99)
        b = spiky_field(tree6, rng, sigma=3.0)
        f = spiky_field(tree6, rng, sigma=3.0)
        fam = paraproduct_sparse_dominate(b, f)
        for _ in range(50):
            sub = random_subcollection(tree6, tree6.root(), rng)
            ok, slack = domination_check(partial_sum(b, f, sub), fam, b, f)
            assert ok, slack

    def test_exact_envelope_dominates_every_collection(self, tree6):
        """The closed-form sup over ALL sub-collections stays below the bound."""
        rng = np.random.default_rng(31)
        for _ in range(40):
            b = spiky_field(tree6, rng, sigma=float(rng.uniform(1.5, 3.8)))
            f = spiky_field(tree6, rng, sigma=float(rng.uniform(1.5, 3.8)))
            fam = paraproduct_sparse_dominate(b, f)
            ok, gap = domination_worst_case(fam, b, f)
            assert ok, gap

    def test_envelope_upper_bounds_sampled_collections(self, tree6):
        """Any concrete sub-collection sits below the per-cell envelope."""
        rng = np.random.default_rng(32)
        b = spiky_field(tree6, rng, sigma=3.0)
        f = spiky_field(tree6, rng, sigma=3.0)
        fam = paraproduct_sparse_dominate(b, f)
        _, env_gap = domination_worst_case(fam, b, f)
        for _ in range(20):
            sub = random_subcollection(tree6, tree6.root(), rng)
            _, gap = domination_check(partial_sum(b, f, sub), fam, b, f)
            assert gap <= env_gap + 1e-12

    @given(st.integers(0, 2**16 - 1), st.sampled_from([0.5, 1.5, 3.0, 6.0]))
    @settings(max_examples=80, deadline=None)
    def test_envelope_property_arbitrary_inputs(self, seed, scale):
        """Sparseness and the all-collections bound hold for arbitrary data,
        not just the heavy-tailed battery."""
        rng = np.random.default_rng(seed)
        tree = DyadicTree(1, 4, 1.0)
        b = GridFunction(tree, scale * rng.standard_t(2, size=tree.shape))
        f = GridFunction(tree, rng.normal(size=tree.shape) ** 3)
        fam = paraproduct_sparse_dominate(b, f)
        ok, ratio = verify_sparse(fam)
        assert ok and ratio >= fam.gamma * (1.0 - 1e-12)
        ok_env, gap = domination_worst_case(fam, b, f)
        assert ok_env, gap

    def test_exact_envelope_on_subtree(self, tree6):
        rng = np.random.default_rng(33)
        b = spiky_field(tree6, rng, sigma=3.0)
        f = spiky_field(tree6, rng, sigma=3.0)
        q0 = Cube(tree6, 1, (0,))
        fam = paraproduct_sparse_dominate(b, f, q0)
        ok, gap = domination_worst_case(fam, b, f, q0=q0)
        assert ok, gap

    def test_subtree_start(self, tree6):
        rng = np.random.default_rng(5)
        b = spiky_field(tree6, rng, sigma=3.0)
        f = spiky_field(tree6, rng, sigma=3.0)
        q0 = Cube(tree6, 1, (1,))
        fam = paraproduct_sparse_dominate(b, f, q0)
        assert all(q0.contains(q) for q in fam.cubes)
        ok, _ = verify_sparse(fam)
        assert ok


class TestPacking:
    def test_disjoint_family_norm_one(self):
        tree = DyadicTree(1, 4, 1.0)
        cubes = [Cube(tree, 2, (i,)) for i in range(4)]
        fam = SparseFamily(tree, cubes, full_witnesses(cubes), gamma=1.0)
        assert carleson_from_sparse(fam) == pytest.approx(1.0)

    def test_half_sparse_family_packs_at_two(self):
        """A nested root/child family with half witnesses packs below 1/gamma = 2."""
        tree = DyadicTree(1, 3, 1.0)
        root = tree.root()
        left, right = root.children()
        witnesses = {
            root: {int(i): FULL for i in right.flat_cells()},
            left: {int(i): FULL for i in left.flat_cells()},
        }
        fam = SparseFamily(tree, [root, left], witnesses, gamma=0.5)
        ok, worst = verify_sparse(fam)
        assert ok and worst == pytest.approx(0.5)
        assert carleson_from_sparse(fam, check=True) == pytest.approx(1.5)

    def test_constructor_families_within_packing_bound(self, tree6):
        rng = np.random.default_rng(7)
        for _ in range(25):
            b = spiky_field(tree6, rng, sigma=3.0)
            f = spiky_field(tree6, rng, sigma=3.0)
            fam = paraproduct_sparse_dominate(b, f)
            value = carleson_from_sparse(fam, check=True)
            assert value <= 1.0 / fam.gamma + 1e-9

    def test_remeasured_packing_under_ainfty_weight(self, tree6):
        """Lebesgue-sparse families stay packed under an A_inf weight, with the relative constant."""
        rng = np.random.default_rng(8)
        w = Weight(tree6, np.exp(rng.normal(size=tree6.shape)))
        bound_factor = fujii_wilson_ainfty(w, None)
        for _ in range(10):
            b = spiky_field(tree6, rng, sigma=3.0)
            f = spiky_field(tree6, rng, sigma=3.0)
            fam = paraproduct_sparse_dominate(b, f)
            value = carleson_from_sparse(fam, measure=w)
            assert value <= bound_factor / fam.gamma * (1.0 + 1e-9)


class TestRegressionGuard:
    def test_shrunken_family_violates(self):
        """Dropping a cube from a needed family must surface as a violation."""
        res = shrunken_family_counterexample(seed=11, depth=5)
        assert res["found"] and res["violation"] > 0.0


class TestSerialization:
    def test_round_trip(self, tree6):
        rng = np.random.default_rng(17)
        b = spiky_field(tree6, rng, sigma=3.0)
        f = spiky_field(tree6, rng, sigma=3.0)
        fam = paraproduct_sparse_dominate(b, f)
        text = family_to_text(fam)
        back = family_from_text(text)
        assert back.gamma == fam.gamma
        assert set(back.cubes) == set(fam.cubes)
        for q in fam.cubes:
            assert back.witnesses[q] == fam.witnesses[q]
        assert family_to_text(back) == text

    def test_half_cell_tokens_survive(self):
        """Families with donated half-cells reserialize exactly."""
        tree = DyadicTree(1, 4, 1.0)
        rng = np.random.default_rng(0)
        for trial in range(200):
            b = spiky_field(tree, rng, sigma=3.5)
            f = spiky_field(tree, rng, sigma=3.5)
            fam = paraproduct_sparse_dominate(b, f)
            if any(kind != FULL for w in fam.witnesses.values() for kind in w.values()):
                back = family_from_text(family_to_text(fam))
                ok, worst = verify_sparse(back)
                assert ok and worst >= fam.gamma * (1.0 - 1e-12)
                return
        pytest.skip("no half-cell donation arose in the battery")

    def test_bad_header_rejected(self):
        with pytest.raises(ValueError):
            family_from_text("# not a family\n0 0 | 1-2\n")


class TestBatchedPartialSums:
    """`partial_sums` runs many sub-collections in one pass, with `partial_sum`'s bits per row."""

    @pytest.mark.parametrize("dim,depth", [(1, 0), (1, 6), (2, 1), (2, 4)])
    def test_rows_equal_partial_sum(self, rng, dim, depth):
        tree = DyadicTree(dim, depth, 1.0)
        b, f = (spiky_field(tree, rng, sigma=2.0) for _ in range(2))
        subs = [random_subcollection(tree, tree.root(), rng) for _ in range(9)]
        rows = partial_sums(b, f, [np.stack(level) for level in zip(*subs)])
        assert rows.shape == (9,) + tree.shape
        for row, sub in zip(rows, subs):
            assert np.array_equal(row, partial_sum(b, f, sub).values)

    def test_stack_without_finest_level(self, rng):
        tree = DyadicTree(1, 5, 1.0)
        b, f = (spiky_field(tree, rng, sigma=2.0) for _ in range(2))
        subs = [random_subcollection(tree, tree.root(), rng)[:-1] for _ in range(3)]
        rows = partial_sums(b, f, [np.stack(level) for level in zip(*subs)])
        for row, sub in zip(rows, subs):
            assert np.array_equal(row, partial_sum(b, f, sub).values)

    def test_rows_must_agree_across_levels(self):
        tree = DyadicTree(1, 3, 1.0)
        stack = [np.zeros((4,) + (2**k,)) for k in range(tree.depth + 1)]
        stack[2] = np.zeros((3, 4))
        with pytest.raises(LatticeError):
            cube_stack(tree, stack)

    @pytest.mark.parametrize("dim,depth", [(1, 5), (2, 3)])
    def test_battery_matches_per_collection_loop(self, tmp_path, dim, depth):
        """run_domination's sampled slack equals the one-collection-at-a-time loop's."""
        cfg = ScenarioConfig(dim=dim, depth=depth, half_width_exponent=0, trials=4,
                             subcollections=7, b_family="spiky", f_family="spiky", seed=3,
                             out_dir=str(tmp_path))
        report = run_domination(cfg)
        rng = np.random.default_rng(cfg.seed)
        tree = cfg.tree()
        worst = -np.inf
        for _ in range(cfg.trials):
            b = make_family(cfg.b_family, tree, 1, rng)[0]
            f = make_family(cfg.f_family, tree, 1, rng)[0]
            family = paraproduct_sparse_dominate(b, f)
            assert verify_sparse(family)[0]
            bound = domination_bound(family, b, f)
            for _ in range(cfg.subcollections):
                sub = random_subcollection(tree, tree.root(), rng)
                worst = max(worst, pointwise_dominated(partial_sum(b, f, sub).values, bound)[1])
        assert report["worst_domination_slack"] == worst
        assert report["failures"] == 0
