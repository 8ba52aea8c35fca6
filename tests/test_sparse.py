"""Sparse families: verification, packing, the domination constructor, serialization."""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dyadlab import sparse
from dyadlab.lattice import Cube, DyadicTree, GridFunction, LatticeError
from dyadlab.norms import discretized_sharp_sup, sharp_maximal_r_norm
from dyadlab.sparse import (
    FULL,
    HI_HALF,
    LO_HALF,
    SparseFamily,
    domination_bound,
    domination_envelope,
    family_from_text,
    family_to_text,
    paraproduct_sparse_dominate,
    partial_sums,
    pointwise_dominated,
    random_subcollection,
    verify_sparse,
)
from dyadlab.scenarios import (
    ScenarioConfig,
    make_family,
    run_domination,
    spiky_field,
)
from dyadlab.weights import Weight, fujii_wilson_ainfty

import oracles
from oracles import carleson_from_sparse, flat_cells, shrunken_family_counterexample


def packed(claims):
    """A witness array from (cell, kind) pairs, in their order."""
    return np.array([cell << 2 | kind for cell, kind in claims], dtype=np.int64)


def whole_cells(cube):
    return packed([(int(i), FULL) for i in flat_cells(cube)])


def full_witnesses(cubes):
    return [whole_cells(q) for q in cubes]


def lebesgue_family(tree, cubes, witnesses, gamma):
    return SparseFamily(tree, cubes, witnesses, gamma, Weight.lebesgue(tree))


class TestVerifySparse:
    def test_disjoint_cubes_full_witnesses(self):
        tree = DyadicTree(1, 4, 1.0)
        cubes = [Cube(tree, 2, (0,)), Cube(tree, 2, (2,)), Cube(tree, 3, (3,))]
        fam = lebesgue_family(tree, cubes, full_witnesses(cubes), gamma=1.0)
        ok, worst = verify_sparse(fam)
        assert ok and worst == pytest.approx(1.0)

    def test_nested_family_fails_any_gamma(self):
        """Witness sets that must avoid the children leave nothing for non-leaf cubes."""
        tree = DyadicTree(1, 3, 1.0)
        cubes = list(tree.cubes())
        witnesses = [whole_cells(q) if q.is_leaf() else packed([]) for q in cubes]
        fam = lebesgue_family(tree, cubes, witnesses, gamma=0.01)
        ok, worst = verify_sparse(fam)
        assert not ok and worst == 0.0

    def test_witness_escape_detected(self):
        tree = DyadicTree(1, 3, 1.0)
        q = Cube(tree, 1, (0,))
        fam = lebesgue_family(tree, [q], [packed([(tree.n_cells - 1, FULL)])], gamma=0.5)
        ok, _ = verify_sparse(fam)
        assert not ok

    def test_overlapping_claims_detected(self):
        tree = DyadicTree(1, 3, 1.0)
        a, b = Cube(tree, 1, (0,)), tree.root()
        fam = lebesgue_family(tree, [a, b], [packed([(0, FULL)])] * 2, gamma=0.01)
        ok, _ = verify_sparse(fam)
        assert not ok

    @pytest.mark.parametrize("n_witnesses", [0, 1, 3])
    def test_witnesses_must_match_the_cubes(self, n_witnesses):
        """Claims are matched to cubes by position, so the two lists have one length."""
        tree = DyadicTree(1, 3, 1.0)
        cubes = [tree.root(), Cube(tree, 1, (0,))]
        with pytest.raises(ValueError):
            lebesgue_family(tree, cubes, [packed([(0, FULL)])] * n_witnesses, gamma=0.1)


def _measures(tree, rng):
    """Lebesgue, two power weights (exact half-cell masses at d = 1) and a density."""
    return [None, Weight.power_weight(tree, 0.7), Weight.power_weight(tree, -0.5),
            Weight(tree, rng.uniform(0.2, 5.0, tree.shape))]


class TestVerifySparseMatchesReference:
    """The array check returns the cell-by-cell reference's (ok, worst) exactly."""

    @staticmethod
    def _assert_same(fam, **tags):
        """`fam` retagged by `tags` (gamma, measure), checked by both.  measure=None is
        Lebesgue measure: src gets `Weight.lebesgue`, the reference its own None path."""
        src = replace(fam, **tags)
        if "measure" in tags and tags["measure"] is None:
            src = replace(src, measure=Weight.lebesgue(fam.tree))
        got = verify_sparse(src)
        want = oracles.reference_verify_sparse(replace(fam, **tags))
        assert got == want
        assert type(got[0]) is bool

    @pytest.mark.parametrize("dim,depth", [(1, 1), (1, 6), (2, 2), (2, 4)])
    def test_paraproduct_families(self, dim, depth):
        """Constructor families carry donated half claims; every gamma and measure."""
        rng = np.random.default_rng(40 + 10 * dim + depth)
        tree = DyadicTree(dim, depth, 2.0)
        halves = 0
        for _ in range(12):
            b, f = (spiky_field(tree, rng, sigma=3.5) for _ in range(2))
            fam = paraproduct_sparse_dominate(b, f)
            halves += sum(int(np.count_nonzero(w & 3 != FULL)) for w in fam.witnesses)
            for measure in _measures(tree, rng):
                for gamma in (fam.gamma, 0.3, 0.9):
                    self._assert_same(fam, gamma=gamma, measure=measure)
        assert halves or depth == 1

    @pytest.mark.parametrize("dim,depth", [(1, 1), (1, 7), (2, 1), (2, 5)])
    def test_sharp_sup_families(self, dim, depth):
        rng = np.random.default_rng(50 + 10 * dim + depth)
        tree = DyadicTree(dim, depth, 4.0)
        nu = Weight.power_weight(tree, 0.5)
        for b in (GridFunction.constant(tree, 1.0), spiky_field(tree, rng, sigma=3.0)):
            fam = discretized_sharp_sup(b, nu, 4.0, sharp_maximal_r_norm(b, nu, 4.0)).certificate
            self._assert_same(fam)
            self._assert_same(fam, measure=None, gamma=0.5)

    @pytest.mark.parametrize("dim", [1, 2])
    def test_claim_order_sets_the_sum(self, dim):
        """Masses add in each witness array's own claim order, not in cell order."""
        rng = np.random.default_rng(60 + dim)
        tree = DyadicTree(dim, 4, 1.0)
        b, f = (spiky_field(tree, rng, sigma=3.5) for _ in range(2))
        fam = paraproduct_sparse_dominate(b, f)
        fam.witnesses = [rng.permutation(w) for w in fam.witnesses]
        for measure in _measures(tree, rng):
            self._assert_same(fam, measure=measure)

    @pytest.mark.parametrize("kinds,ok", [
        ((FULL, FULL), False), ((LO_HALF, LO_HALF), False), ((HI_HALF, HI_HALF), False),
        ((FULL, LO_HALF), False), ((HI_HALF, FULL), False), ((LO_HALF, HI_HALF), True),
        ((HI_HALF, LO_HALF), True),
    ])
    @pytest.mark.parametrize("dim", [1, 2])
    def test_shared_cells(self, dim, kinds, ok):
        """A cell may carry one claim, or one lower and one upper half."""
        tree = DyadicTree(dim, 2, 1.0)
        inner, root = Cube(tree, 1, (0,) * dim), tree.root()
        cell = 0
        witnesses = [packed([(cell, kinds[0]), (1, FULL)]), packed([(cell, kinds[1])])]
        fam = lebesgue_family(tree, [inner, root], witnesses, gamma=0.01)
        for measure in _measures(tree, np.random.default_rng(dim)):
            self._assert_same(fam, measure=measure)
        assert verify_sparse(fam)[0] is ok

    @pytest.mark.parametrize("cell", [-1, 4, 12, 32, 63, 64, 10**6])
    def test_escaping_claims(self, cell):
        """A claim outside its cube (or outside the tree) fails with worst 0.0."""
        tree = DyadicTree(2, 3, 1.0)
        q = Cube(tree, 1, (0, 0))  # cells 0-3, 8-11, 16-19 and 24-27
        fam = lebesgue_family(
            tree, [tree.root(), q],
            [packed([(40, FULL)]), packed([(0, FULL), (cell, FULL), (1, LO_HALF)])], gamma=0.5)
        self._assert_same(fam)
        assert verify_sparse(fam) == (False, 0.0)

    def test_empty_families(self):
        tree = DyadicTree(2, 3, 1.0)
        for fam in (lebesgue_family(tree, [], [], gamma=0.5),
                    lebesgue_family(tree, [tree.root()], [packed([])], gamma=0.5),
                    lebesgue_family(tree, [tree.root()] * 2, [packed([])] * 2, gamma=0.0)):
            for measure in _measures(tree, np.random.default_rng(3)):
                self._assert_same(fam, measure=measure)
        assert verify_sparse(lebesgue_family(tree, [], [], gamma=0.5)) == (True, 1.0)

    def test_repeated_cube_overlaps_itself(self):
        tree = DyadicTree(1, 3, 1.0)
        q = Cube(tree, 1, (1,))
        fam = lebesgue_family(tree, [q, q], [packed([(4, FULL), (5, LO_HALF)])] * 2, gamma=0.1)
        self._assert_same(fam)
        assert not verify_sparse(fam)[0]

    def test_repeated_cube_carries_its_own_claims(self):
        """Each listing of a cube has its own witness entry; disjoint entries pass."""
        tree = DyadicTree(1, 3, 1.0)
        q = Cube(tree, 1, (1,))
        fam = lebesgue_family(tree, [q, q], [packed([(4, FULL)]), packed([(5, FULL)])], gamma=0.25)
        self._assert_same(fam)
        assert verify_sparse(fam) == (True, 0.25)

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

    def test_cube_listed_twice_counts_twice(self, tree6, rng):
        """Each listing of a cube, with its own witness, adds its own term to the bound."""
        q = Cube(tree6, 2, (1,))
        b = GridFunction(tree6, rng.normal(size=tree6.shape))
        f = GridFunction(tree6, rng.normal(size=tree6.shape))
        once = lebesgue_family(tree6, [q], [whole_cells(q)], gamma=1.0)
        twice = lebesgue_family(tree6, [q, q], full_witnesses(q.children()), gamma=0.5)
        assert verify_sparse(twice) == (True, 0.5)
        single = domination_bound(once, b, f)
        assert np.count_nonzero(single) == q.cell_count()
        np.testing.assert_array_equal(domination_bound(twice, b, f), 2.0 * single)

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
            bound = domination_bound(fam, b, f)
            subs = random_subcollection(tree, rng, 10)
            oks, slacks = pointwise_dominated(partial_sums(b, f, subs), bound)
            assert oks.all(), slacks

    def test_domination_uniform_over_subcollections(self, tree6):
        """One family serves every sub-collection without reconstruction."""
        rng = np.random.default_rng(99)
        b = spiky_field(tree6, rng, sigma=3.0)
        f = spiky_field(tree6, rng, sigma=3.0)
        fam = paraproduct_sparse_dominate(b, f)
        bound = domination_bound(fam, b, f)
        subs = random_subcollection(tree6, rng, 50)
        oks, slacks = pointwise_dominated(partial_sums(b, f, subs), bound)
        assert oks.all(), slacks

    def test_exact_envelope_dominates_every_collection(self, tree6):
        """The closed-form sup over ALL sub-collections stays below the bound."""
        rng = np.random.default_rng(31)
        for _ in range(40):
            b = spiky_field(tree6, rng, sigma=float(rng.uniform(1.5, 3.8)))
            f = spiky_field(tree6, rng, sigma=float(rng.uniform(1.5, 3.8)))
            fam = paraproduct_sparse_dominate(b, f)
            ok, gap = pointwise_dominated(domination_envelope(b, f), domination_bound(fam, b, f))
            assert ok, gap

    def test_envelope_upper_bounds_sampled_collections(self, tree6):
        """Any concrete sub-collection sits below the per-cell envelope."""
        rng = np.random.default_rng(32)
        b = spiky_field(tree6, rng, sigma=3.0)
        f = spiky_field(tree6, rng, sigma=3.0)
        fam = paraproduct_sparse_dominate(b, f)
        bound = domination_bound(fam, b, f)
        _, env_gap = pointwise_dominated(domination_envelope(b, f), bound)
        _, gaps = pointwise_dominated(partial_sums(b, f, random_subcollection(tree6, rng, 20)), bound)
        assert (gaps <= env_gap + 1e-12).all()

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
        ok_env, gap = pointwise_dominated(domination_envelope(b, f), domination_bound(fam, b, f))
        assert ok_env, gap


class TestPacking:
    def test_disjoint_family_norm_one(self):
        tree = DyadicTree(1, 4, 1.0)
        cubes = [Cube(tree, 2, (i,)) for i in range(4)]
        fam = lebesgue_family(tree, cubes, full_witnesses(cubes), gamma=1.0)
        assert carleson_from_sparse(fam) == pytest.approx(1.0)

    def test_half_sparse_family_packs_at_two(self):
        """A nested root/child family with half witnesses packs below 1/gamma = 2."""
        tree = DyadicTree(1, 3, 1.0)
        root = tree.root()
        left, right = root.children()
        witnesses = [whole_cells(right), whole_cells(left)]
        fam = lebesgue_family(tree, [root, left], witnesses, gamma=0.5)
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
        bound_factor = fujii_wilson_ainfty(w, Weight.lebesgue(tree6))
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
        assert back.cubes == fam.cubes
        for got, want in zip(back.witnesses, fam.witnesses):
            assert got.dtype == np.int64 and np.array_equal(got, want)
        assert family_to_text(back) == text

    def test_half_cell_tokens_survive(self):
        """Families with donated half-cells reserialize exactly."""
        tree = DyadicTree(1, 4, 1.0)
        rng = np.random.default_rng(0)
        for trial in range(200):
            b = spiky_field(tree, rng, sigma=3.5)
            f = spiky_field(tree, rng, sigma=3.5)
            fam = paraproduct_sparse_dominate(b, f)
            if any(np.any(w & 3 != FULL) for w in fam.witnesses):
                back = family_from_text(family_to_text(fam))
                ok, worst = verify_sparse(back)
                assert ok and worst >= fam.gamma * (1.0 - 1e-12)
                return
        pytest.skip("no half-cell donation arose in the battery")

    def test_bad_header_rejected(self):
        with pytest.raises(ValueError):
            family_from_text("# not a family\n0 0 | 1-2\n")

    HEADER = "# dyadlab sparse family v1 dim=1 depth=3 half_width=1.0 gamma=0.5 measure=lebesgue\n"

    def test_empty_text_rejected(self):
        with pytest.raises(ValueError):
            family_from_text("")

    def test_header_without_dim_rejected(self):
        with pytest.raises(ValueError, match="dim"):
            family_from_text(self.HEADER.replace("dim=1 ", "") + "0 0 | 0-7\n")

    def test_reversed_run_rejected(self):
        with pytest.raises(ValueError, match="reversed"):
            family_from_text(self.HEADER + "0 0 | 5-3\n")

    @pytest.mark.parametrize("token", ["3X", "-1", "3-", "L", "3LH", "2-4H"])
    def test_malformed_token_rejected(self, token):
        with pytest.raises(ValueError, match="malformed"):
            family_from_text(self.HEADER + f"0 0 | 0 {token}\n")

    @pytest.mark.parametrize("gamma", ["nan", "-1.0", "0.0", "1.5"])
    def test_gamma_outside_unit_interval_rejected(self, gamma):
        """A witness of 1/8 of its cube's mass must not pass under gamma = nan or -1."""
        with pytest.raises(ValueError, match="gamma"):
            family_from_text(self.HEADER.replace("gamma=0.5", f"gamma={gamma}") + "0 0 | 0\n")

    @pytest.mark.parametrize("half_width", ["inf", "1e308", "nan", "-1.0", "1e-320"])
    def test_half_width_outside_the_floats_rejected(self, half_width):
        """An infinite root must not pass a witness of 1/8 of it, as inf/inf would."""
        text = self.HEADER.replace("half_width=1.0", f"half_width={half_width}")
        with pytest.raises(ValueError, match="half_width"):
            family_from_text(text + "0 0 | 0\n")

    def test_depth_beyond_guard_rail_rejected(self, monkeypatch):
        def no_tree(*args):
            raise AssertionError("a tree was built for a depth beyond the guard rail")

        monkeypatch.setattr(sparse, "DyadicTree", no_tree)
        header = self.HEADER.replace("depth=3", "depth=40").replace("lebesgue", "power(1.0)")
        with pytest.raises(ValueError, match="guard rail"):
            family_from_text(header + "0 0 | 0\n")

    @pytest.mark.parametrize("dim,depth", [(5, 8), (3, 6)])
    def test_cell_count_beyond_guard_rail_rejected(self, monkeypatch, dim, depth):
        """A header of 2^40 or 2^18 cells is refused before any tree or array exists."""
        def no_tree(*args):
            raise AssertionError("a tree was built beyond the guard rail")

        monkeypatch.setattr(sparse, "DyadicTree", no_tree)
        header = self.HEADER.replace("dim=1 depth=3", f"dim={dim} depth={depth}")
        with pytest.raises(ValueError, match="guard rail"):
            family_from_text(header + "0" + " 0" * dim + " | 0\n")

    @pytest.mark.parametrize("token", ["0-8", "0-4000000000", "4000000000", "8H"])
    def test_cell_beyond_tree_rejected(self, monkeypatch, token):
        arange = np.arange

        def small_arange(start, stop=None, *args, **kwargs):
            assert stop is None or stop - start <= 8, "a run beyond the tree reached np.arange"
            return arange(start, stop, *args, **kwargs)

        monkeypatch.setattr(np, "arange", small_arange)
        with pytest.raises(ValueError, match="beyond the tree"):
            family_from_text(self.HEADER + f"0 0 | 0 {token}\n")

    @pytest.mark.parametrize("tokens,claims,ok", [
        ("3 3", [(3, FULL), (3, FULL)], False),
        ("3L 3L", [(3, LO_HALF), (3, LO_HALF)], False),
        ("2-4 3", [(2, FULL), (3, FULL), (4, FULL), (3, FULL)], False),
        ("3L 3H", [(3, LO_HALF), (3, HI_HALF)], True),
    ])
    def test_repeated_tokens_stay_repeated_claims(self, tokens, claims, ok):
        """Every token is a claim, in order; an overlap is left for verify_sparse to report."""
        fam = family_from_text(self.HEADER + f"0 0 | 0-1 {tokens}\n")
        assert np.array_equal(fam.witnesses[0], packed([(0, FULL), (1, FULL)] + claims))
        got = verify_sparse(replace(fam, gamma=0.1))
        assert got[0] is ok
        assert got == oracles.reference_verify_sparse(fam, gamma=0.1)


class TestBatchedPartialSums:
    """`partial_sums` and `pointwise_dominated` run many sub-collections in one pass,
    with each row's bits the same as its collection's alone."""

    @pytest.mark.parametrize("dim,depth", [(1, 0), (1, 6), (2, 1), (2, 4)])
    def test_rows_equal_partial_sum(self, rng, dim, depth):
        tree = DyadicTree(dim, depth, 1.0)
        b, f = (spiky_field(tree, rng, sigma=2.0) for _ in range(2))
        subs = random_subcollection(tree, rng, 9)
        rows = partial_sums(b, f, subs)
        assert rows.shape == (9,) + tree.shape
        for i, row in enumerate(rows):
            assert np.array_equal(row, partial_sums(b, f, [level[i] for level in subs]))

    def test_rows_must_agree_across_levels(self):
        tree = DyadicTree(1, 3, 1.0)
        b = GridFunction.constant(tree, 1.0)
        stack = [np.zeros((4,) + (2**k,)) for k in range(tree.depth + 1)]
        stack[2] = np.zeros((3, 4))
        with pytest.raises(LatticeError):
            partial_sums(b, b, stack)

    @pytest.mark.parametrize("dim,depth", [(1, 0), (1, 6), (2, 4)])
    def test_row_checks_equal_one_collection_checks(self, rng, dim, depth):
        tree = DyadicTree(dim, depth, 1.0)
        b, f = (spiky_field(tree, rng, sigma=2.0) for _ in range(2))
        bound = domination_bound(paraproduct_sparse_dominate(b, f), b, f)
        rows = partial_sums(b, f, random_subcollection(tree, rng, 7))
        rows[3] *= 1e3  # one row above the bound
        oks, gaps = pointwise_dominated(rows, bound)
        assert oks.shape == gaps.shape == (7,)
        for ok, gap, row in zip(oks, gaps, rows):
            one = pointwise_dominated(row, bound)
            assert ok == one[0] and np.array_equal(gap, one[1])
        none_ok, none_gap = pointwise_dominated(rows[:0], bound)
        assert none_ok.shape == none_gap.shape == (0,)

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
                (lhs,) = partial_sums(b, f, random_subcollection(tree, rng, 1))
                worst = max(worst, pointwise_dominated(lhs, bound)[1])
        assert report["worst_domination_slack"] == worst
        assert report["failures"] == 0
