"""Maximal functions, paraproducts, transforms, and the discrete Hilbert kernel."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dyadlab import operators
from dyadlab.lattice import Cube, DyadicTree, GridFunction, LatticeError, level_sums
from dyadlab.norms import multiplier_norm
from dyadlab.operators import (
    KernelSpec1D,
    commutator,
    commutator_handle,
    commutator_test_pairs,
    hilbert_transform,
    maximal,
    oscillation_levels,
    paraproduct,
    paraproduct_adjoint,
    paraproduct_handle,
    sharp_maximal,
    sharp_window_values,
)
from dyadlab.sparse import partial_sums
from dyadlab.weights import Weight, cube_stack

import oracles
from oracles import (
    commutator_bilinear,
    dict_stack,
    from_callable,
    identity_handle,
    kernel_matrix,
    multiplication_handle,
    reference_sparse_op,
    reference_sparse_op_exponent,
    zero_handle,
)


class TestMaximal:
    def test_nonnegative_constant_fixed(self):
        tree = DyadicTree(1, 5, 1.0)
        f = GridFunction.constant(tree, 2.0)
        np.testing.assert_allclose(maximal(f, Weight.lebesgue(tree)).values, 2.0)

    def test_half_indicator_values(self):
        tree = DyadicTree(1, 5, 0.5)
        f = from_callable(tree, lambda x: (x < 0.0) * 1.0)
        m = maximal(f, Weight.lebesgue(tree))
        half = tree.n_cells // 2
        np.testing.assert_allclose(m.values[:half], 1.0)
        np.testing.assert_allclose(m.values[half:], 0.5)  # the root average

    def test_brute_force_oracle(self):
        name, got, want, tol = oracles.maximal_brute_force()
        assert got <= want + tol

    def test_weighted_maximal_inequality(self):
        name, got, want, tol = oracles.maximal_inequality_battery()
        assert got <= want + tol

    def test_shifted_scope_dominates(self, rng):
        tree = DyadicTree(1, 5, 1.0)
        f = GridFunction(tree, rng.normal(size=tree.shape))
        dy = maximal(f, Weight.lebesgue(tree)).values
        sh = maximal(f, Weight.lebesgue(tree), scope="shifted").values
        assert np.all(sh >= dy - 1e-14)


class TestSharpMaximal:
    def test_constant_is_zero(self):
        tree = DyadicTree(1, 5, 1.0)
        s = sharp_maximal(GridFunction.constant(tree, 4.0), Weight.lebesgue(tree))
        np.testing.assert_allclose(s.values, 0.0)

    def test_two_cell_brute_force(self):
        name, got, want, tol = oracles.sharp_two_cell()
        assert got == pytest.approx(want, rel=tol)

    def test_pointwise_domination_by_weighted_maximal(self, rng):
        """Sharp values sit below twice the nu-maximal of (b - c)/nu, any c."""
        tree = DyadicTree(1, 6, 1.0)
        nu = Weight(tree, rng.uniform(0.5, 2.0, tree.shape))
        b = GridFunction(tree, rng.normal(size=tree.shape))
        sharp = sharp_maximal(b, nu).values
        for c in (0.0, float(b.values.mean()), multiplier_norm(b, nu, 2.0).certificate):
            g = GridFunction(tree, (b.values - c) / nu.density)
            bound = 2.0 * maximal(g, nu).values
            assert np.all(sharp <= bound * (1.0 + 1e-12) + 1e-15)

    def test_ball_tail_decays_in_window_scope(self):
        tree = DyadicTree(1, 9, 4.0)
        b = GridFunction.ball_indicator(tree, 1.0)
        nu = Weight.power_weight(tree, 1.0 / 3.0)
        xs = np.linspace(2.0, 3.9, 7)
        vals = sharp_window_values(b, nu, xs, n_left=128)
        assert np.all(vals > 0.0)
        assert np.all(np.diff(vals) < 0.0)  # strictly decaying across [2, 4)

    def test_shifted_scope_dominates_dyadic(self, rng):
        tree = DyadicTree(1, 5, 1.0)
        nu = Weight.power_weight(tree, 0.25)
        b = GridFunction(tree, rng.normal(size=tree.shape))
        dy = sharp_maximal(b, nu).values
        sh = sharp_maximal(b, nu, scope="shifted").values
        assert np.all(sh >= dy - 1e-14)

    def test_window_scope_extends_shifted(self):
        tree = DyadicTree(1, 6, 4.0)
        b = GridFunction.ball_indicator(tree, 1.0)
        nu = Weight.power_weight(tree, 1.0 / 3.0)
        sh = sharp_maximal(b, nu, scope="shifted").values
        win = sharp_maximal(b, nu, scope="window").values
        assert np.all(win >= sh - 1e-14)
        assert float(win.max()) > 0.0

    def test_window_vs_shifted_comparability_logged(self):
        """The sliding-window surrogate and the shifted-lattice sup stay within
        a moderate measured band; nothing sharper is asserted a priori."""
        tree = DyadicTree(1, 8, 4.0)
        b = GridFunction.ball_indicator(tree, 1.0)
        nu = Weight.power_weight(tree, 1.0 / 3.0)
        sh = sharp_maximal(b, nu, scope="shifted")
        xs = np.linspace(1.5, 3.5, 5)
        win = sharp_window_values(b, nu, xs, n_left=96)
        centers = tree.cell_centers()
        ratios = []
        for x, wv in zip(xs, win):
            cell = int(np.argmin(np.abs(centers - x)))
            if sh.values[cell] > 0.0 and wv > 0.0:
                ratios.append(wv / sh.values[cell])
        assert ratios and 0.2 < min(ratios) and max(ratios) < 5.0


class TestDyadicFoldD2:
    """The dyadic maximal functions at d = 2 against a per-cell maximum over the cubes
    that contain the cell, of the per-cube values read from the level arrays."""

    @staticmethod
    def _brute_max(tree: DyadicTree, levels: list[np.ndarray]) -> np.ndarray:
        out = np.empty(tree.shape)
        for cell in np.ndindex(*tree.shape):
            out[cell] = max(float(levels[k][tuple(i >> (tree.depth - k) for i in cell)])
                            for k in range(tree.depth + 1))
        return out

    @pytest.mark.parametrize("depth", [0, 1, 4])
    def test_sharp_maximal(self, rng, depth):
        tree = DyadicTree(2, depth, 2.0)
        nu = Weight(tree, rng.uniform(0.5, 2.0, tree.shape))
        b = GridFunction(tree, rng.normal(size=tree.shape))
        levels = [osc / mass for osc, mass in zip(oscillation_levels(b), nu.level_masses())]
        np.testing.assert_array_equal(sharp_maximal(b, nu).values, self._brute_max(tree, levels))

    @pytest.mark.parametrize("depth", [0, 1, 4])
    def test_maximal(self, rng, depth):
        tree = DyadicTree(2, depth, 2.0)
        w = Weight(tree, rng.uniform(0.5, 2.0, tree.shape))
        f = GridFunction(tree, rng.normal(size=tree.shape))
        sums = level_sums(tree, np.abs(f.values) * w.cell_mass)
        levels = [s / m for s, m in zip(sums, w.level_masses())]
        np.testing.assert_array_equal(maximal(f, w).values, self._brute_max(tree, levels))


class TestParaproduct:
    def test_constant_b_is_zero(self, rng):
        tree = DyadicTree(1, 5, 1.0)
        f = GridFunction(tree, rng.normal(size=tree.shape))
        out = paraproduct(GridFunction.constant(tree, 5.0), f)
        np.testing.assert_allclose(out.values, 0.0, atol=1e-14)

    def test_hand_case_direct_summation(self):
        name, got, want, tol = oracles.paraproduct_hand_case()
        assert got <= want + tol

    def test_disjoint_subset_additivity(self, rng):
        tree = DyadicTree(1, 5, 1.0)
        b = GridFunction(tree, rng.normal(size=tree.shape))
        f = GridFunction(tree, rng.normal(size=tree.shape))
        cubes = [q for q in tree.cubes() if not q.is_leaf()]
        half = len(cubes) // 2
        parts = [cube_stack(tree, part) for part in (cubes[:half], cubes[half:], cubes)]
        first, second, whole = (partial_sums(b, f, part) for part in parts)
        np.testing.assert_allclose(first + second, whole, atol=1e-13)

    def test_linear_in_both_arguments(self, rng):
        tree = DyadicTree(1, 4, 1.0)
        b1, b2, f = (GridFunction(tree, rng.normal(size=tree.shape)) for _ in range(3))
        lhs = paraproduct(b1 + b2, f).values
        rhs = paraproduct(b1, f).values + paraproduct(b2, f).values
        np.testing.assert_allclose(lhs, rhs, atol=1e-13)

    def test_adjoint_pairing(self, rng):
        tree = DyadicTree(1, 5, 1.0)
        b, f, g = (GridFunction(tree, rng.normal(size=tree.shape)) for _ in range(3))
        lhs = float((paraproduct(b, f).values * g.values).sum())
        rhs = float((f.values * paraproduct_adjoint(b, g).values).sum())
        assert lhs == pytest.approx(rhs, abs=1e-12)

    @pytest.mark.parametrize("dim,half_width", [(1, 0.7), (1, 3.0), (2, 5.0)])
    def test_same_bits_at_every_window(self, rng, dim, half_width):
        """Cube means are sums over cell counts, so both directions read only cell values."""
        values = [rng.normal(size=(2**4,) * dim) for _ in range(2)]
        for op in (paraproduct, paraproduct_adjoint):
            got, want = (op(*(GridFunction(DyadicTree(dim, 4, h), v) for v in values)).values
                         for h in (half_width, 1.0))
            assert np.array_equal(got, want)


class TestSparseOperators:
    """The positive sparse operators live in `oracles` as cube loops; these pin their definitions."""

    def test_constant_b_vanishes(self, rng):
        tree = DyadicTree(1, 4, 1.0)
        f = GridFunction(tree, rng.normal(size=tree.shape))
        b = GridFunction.constant(tree, 3.0)
        cubes = [tree.root(), Cube(tree, 1, (0,))]
        for variant in ("plain", "adjoint"):
            np.testing.assert_allclose(reference_sparse_op(b, f, cubes, variant), 0.0)

    def test_single_cube_hand_eval(self):
        name, got, want, tol = oracles.sparse_op_single_cube()
        assert got <= want + tol

    def test_formal_adjointness(self, rng):
        tree = DyadicTree(1, 5, 1.0)
        b, f, g = (GridFunction(tree, rng.normal(size=tree.shape)) for _ in range(3))
        cubes = [q for q in tree.cubes() if q.level <= 3]
        lhs = float((reference_sparse_op(b, f, cubes, "plain") * g.values).sum())
        rhs = float((f.values * reference_sparse_op(b, g, cubes, "adjoint")).sum())
        assert lhs == pytest.approx(rhs, abs=1e-12)

    def test_exponent_variant_range(self, rng):
        tree = DyadicTree(1, 4, 1.0)
        f = GridFunction(tree, rng.normal(size=tree.shape))
        out = reference_sparse_op_exponent(f, [tree.root()], 0.5)
        want = (float((np.abs(f.values) ** 0.5).sum() * tree.cell_volume) / tree.root().volume**0.5) ** 2
        assert float(out[0]) == pytest.approx(want, rel=1e-12)
        with pytest.raises(ValueError):
            reference_sparse_op_exponent(f, [tree.root()], 1.5)


def _martingale(f: GridFunction, coeffs) -> GridFunction:
    """sum_Q v_Q D_Q f: the partial paraproduct with symbol f and coefficients v, applied to 1."""
    if isinstance(coeffs, dict):
        coeffs = dict_stack(f.tree, coeffs)
    return GridFunction(f.tree, partial_sums(f, GridFunction.constant(f.tree, 1.0), coeffs))


class TestMartingaleTransform:
    def test_all_ones_telescopes(self, rng):
        tree = DyadicTree(1, 6, 1.0)
        f = GridFunction(tree, rng.normal(size=tree.shape))
        out = _martingale(f, [np.ones((2**k,)) for k in range(tree.depth + 1)])
        np.testing.assert_allclose(out.values, f.values - f.values.mean(), atol=1e-12)

    def test_zero_coefficients(self, rng):
        tree = DyadicTree(1, 4, 1.0)
        f = GridFunction(tree, rng.normal(size=tree.shape))
        np.testing.assert_allclose(
            _martingale(f, [np.zeros((2**k,)) for k in range(tree.depth + 1)]).values, 0.0
        )

    def test_dict_and_stack_agree(self, rng):
        tree = DyadicTree(1, 4, 1.0)
        f = GridFunction(tree, rng.normal(size=tree.shape))
        stack = [rng.choice([-1.0, 0.0, 1.0], size=(2**k,)) for k in range(tree.depth + 1)]
        as_dict = {
            Cube(tree, k, (i,)): stack[k][i]
            for k in range(tree.depth)
            for i in range(2**k)
        }
        np.testing.assert_allclose(
            _martingale(f, stack).values,
            _martingale(f, as_dict).values,
            atol=1e-13,
        )

    def test_weak_type_battery(self):
        name, got, want, tol = oracles.burkholder_weak_type_battery()
        assert got <= want + tol


class TestHilbert:
    def test_zero_input(self):
        tree = DyadicTree(1, 5, 1.0)
        np.testing.assert_allclose(hilbert_transform(GridFunction.constant(tree, 0.0)).values, 0.0)

    def test_log_kernel_value(self):
        name, got, want, tol = oracles.hilbert_log_kernel()
        assert got == pytest.approx(want, rel=tol)

    def test_antisymmetry(self, rng):
        tree = DyadicTree(1, 6, 1.0)
        f, g = (GridFunction(tree, rng.normal(size=tree.shape)) for _ in range(2))
        lhs = float((g.values * hilbert_transform(f).values).sum())
        rhs = -float((f.values * hilbert_transform(g).values).sum())
        assert lhs == pytest.approx(rhs, abs=1e-11)

    def test_dimension_guard(self):
        tree = DyadicTree(2, 2, 1.0)
        with pytest.raises(LatticeError):
            hilbert_transform(GridFunction.constant(tree, 1.0))

    def test_kernel_spec_invariants_enforced(self):
        tree = DyadicTree(1, 4, 1.0)
        mat = kernel_matrix(tree)
        np.testing.assert_allclose(mat, -mat.T, atol=1e-15)
        assert np.all(np.diag(mat) == 0.0)
        oversized = KernelSpec1D("oversized", lambda x, y: 3.0 / (x - y))
        with pytest.raises(LatticeError):
            kernel_matrix(tree, oversized)
        lopsided = KernelSpec1D("lopsided", lambda x, y: 1.0 / np.abs(x - y) ** 1.0 * 0.5)
        with pytest.raises(LatticeError):
            kernel_matrix(tree, lopsided)
        symmetric_ok = KernelSpec1D(
            "even", lambda x, y: 0.5 / np.abs(x - y), antisymmetric=False
        )
        assert kernel_matrix(tree, symmetric_ok).shape == mat.shape


class TestCommutator:
    def test_constant_b_exact_zero(self, rng):
        tree = DyadicTree(1, 6, 1.0)
        f = GridFunction(tree, rng.normal(size=tree.shape))
        out = commutator(GridFunction.constant(tree, 5.0), f)
        np.testing.assert_allclose(out.values, 0.0, atol=1e-12)

    def test_off_support_double_sum(self):
        name, got, want, tol = oracles.commutator_double_sum()
        assert got == pytest.approx(want, rel=tol, abs=1e-13)

    def test_split_bump_behaviour(self):
        name, got, want, tol = oracles.commutator_split_bump()
        assert got <= want + tol

    def test_median_split_pairs_measure_finite_constants(self):
        """The fixed median/partner construction always yields usable pairs;
        the achieved domination constant is observed, never asserted."""
        from dyadlab.scenarios import random_haar_sum

        rng = np.random.default_rng(1)
        tree = DyadicTree(1, 8, 4.0)
        measured = []
        for _ in range(40):
            b = random_haar_sum(tree, rng)
            level = int(rng.integers(2, 6))
            q = Cube(tree, level, (int(rng.integers(0, 2**level)),))
            sl = q.cell_slices()
            if np.abs(b.values[sl] - b.values[sl].mean()).max() < 1e-12:
                continue
            pairs, partner, ratio = commutator_test_pairs(b, q)
            for f, g in pairs:
                assert np.abs(f.values).max() <= 1.0 and np.abs(g.values).max() <= 1.0
                assert np.abs(f.values[q.cell_slices()]).sum() == np.abs(f.values).sum()
            assert partner["side"] == q.side
            measured.append(ratio)
        assert measured and all(np.isfinite(measured)) and min(measured) > 0.0

    def test_partner_cube_needs_room(self):
        tree = DyadicTree(1, 6, 1.0)
        b = from_callable(tree, lambda x: np.sign(x + 1e-12))
        with pytest.raises(LatticeError):
            commutator_test_pairs(b, Cube(tree, 1, (0,)))

    def test_test_pairs_hold_no_dense_kernel(self, rng):
        """Both forms come from one FFT apply; one dense 4096 x 4096 kernel alone is 128 MiB."""
        tree = DyadicTree(1, 12, 4.0)
        b = GridFunction(tree, rng.normal(size=tree.shape))
        operators._hilbert_spectrum.cache_clear()
        tracemalloc.start()
        try:
            _, _, ratio = commutator_test_pairs(b, Cube(tree, 3, (2,)))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert np.isfinite(ratio) and ratio > 0.0
        assert peak < 8 * 2**20

    def test_test_pair_ratios_match_dense_forms(self, rng):
        """Oscillation over the summed |forms|, against the per-cube oscillation and the
        dense double sums, on every cube with a partner where b varies."""
        from dyadlab.scenarios import random_haar_sum

        tree = DyadicTree(1, 8, 4.0)
        checked = 0
        for b in (random_haar_sum(tree, rng), GridFunction(tree, rng.normal(size=tree.shape))):
            for q in tree.cubes():
                cells = b.values[q.cell_slices()]
                if not 2 <= q.level <= 7 or cells.min() == cells.max():
                    continue
                pairs, _, ratio = commutator_test_pairs(b, q)
                forms = sum(abs(commutator_bilinear(b, f, g)) for f, g in pairs)
                assert ratio == pytest.approx(oracles.oscillation(b, q) / forms, rel=1e-12)
                checked += 1
        assert checked > 200

    @given(st.integers(0, 2**10 - 1))
    @settings(max_examples=25, deadline=None)
    def test_bilinear_matches_everywhere(self, seed):
        """The double-sum identity holds without support separation."""
        rng = np.random.default_rng(seed)
        tree = DyadicTree(1, 4, 1.0)
        b, f, g = (GridFunction(tree, rng.normal(size=tree.shape)) for _ in range(3))
        lhs = float((g.values * commutator(b, f).values).sum() * tree.cell_volume)
        assert lhs == pytest.approx(commutator_bilinear(b, f, g), abs=1e-11)


class TestKernelFFT:
    """The FFT applies against products with the dense quadrature matrix."""

    @staticmethod
    def _assert_close(got, want):
        assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want)

    @pytest.mark.parametrize("depth", [4, 8, 10])
    def test_hilbert_transform_matches_dense(self, rng, depth):
        tree = DyadicTree(1, depth, 4.0)
        f = GridFunction(tree, rng.normal(size=tree.shape))
        self._assert_close(hilbert_transform(f).values, kernel_matrix(tree) @ f.values)

    @pytest.mark.parametrize("depth", [4, 8, 10])
    def test_commutator_matches_dense(self, rng, depth):
        tree = DyadicTree(1, depth, 4.0)
        b, f = (GridFunction(tree, rng.normal(size=tree.shape)) for _ in range(2))
        mat = kernel_matrix(tree)
        want = b.values * (mat @ f.values) - mat @ (b.values * f.values)
        self._assert_close(commutator(b, f).values, want)

    def test_depth_14_apply_stays_small(self, rng):
        """One apply at 16,384 cells, spectrum build included; a dense N x N
        temporary at this depth would be 2 GiB."""
        tree = DyadicTree(1, 14, 4.0)
        b, f = (GridFunction(tree, rng.normal(size=tree.shape)) for _ in range(2))
        operators._hilbert_spectrum.cache_clear()
        tracemalloc.start()
        try:
            out = commutator(b, f)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert np.all(np.isfinite(out.values))
        assert peak < 16 * 2**20


class TestHandlePairing:
    """<Uf, g> = <f, U*g> in the unweighted pairing, for every handle factory."""

    @staticmethod
    def _pairings(handle, f, g):
        return float((handle.apply(f) * g).sum()), float((f * handle.adjoint(g)).sum())

    @pytest.mark.parametrize("tree", [DyadicTree(1, 5, 1.0), DyadicTree(2, 3, 1.0)],
                             ids=lambda t: f"d{t.dim}")
    @pytest.mark.parametrize("factory", ["identity", "multiply", "paraproduct", "zero"])
    def test_adjoint_pairing(self, rng, tree, factory):
        b = GridFunction(tree, rng.normal(size=tree.shape))
        handle = {
            "identity": identity_handle(tree),
            "multiply": multiplication_handle(b),
            "paraproduct": paraproduct_handle(b),
            "zero": zero_handle(tree),
        }[factory]
        f, g = (rng.normal(size=tree.shape) for _ in range(2))
        lhs, rhs = self._pairings(handle, f, g)
        assert lhs == pytest.approx(rhs, rel=1e-12, abs=1e-12)

    def test_commutator_apply_is_symmetric(self, rng):
        """An antisymmetric kernel makes (b_i - b_j) K_ij symmetric: <Uf, g> = <f, Ug>."""
        tree = DyadicTree(1, 8, 4.0)
        b, f, g = (rng.normal(size=tree.shape) for _ in range(3))
        handle = commutator_handle(GridFunction(tree, b))
        lhs = float((handle.apply(f) * g).sum())
        rhs = float((f * handle.apply(g)).sum())
        assert lhs == pytest.approx(rhs, rel=1e-12)

    @pytest.mark.parametrize("tree", [DyadicTree(1, 5, 1.0), DyadicTree(2, 3, 1.0)],
                             ids=lambda t: f"d{t.dim}")
    @pytest.mark.parametrize("factory", ["identity", "multiply", "paraproduct", "zero"])
    def test_adjoint_pairing_per_row_of_a_stack(self, rng, tree, factory):
        b = GridFunction(tree, rng.normal(size=tree.shape))
        handle = _handles(b)[factory]
        f, g = (rng.normal(size=(5,) + tree.shape) for _ in range(2))
        cells = tuple(range(1, tree.dim + 1))
        lhs = (handle.apply(f) * g).sum(axis=cells)
        rhs = (f * handle.adjoint(g)).sum(axis=cells)
        np.testing.assert_allclose(lhs, rhs, rtol=1e-12, atol=1e-12)

    def test_commutator_apply_is_symmetric_per_row_of_a_stack(self, rng):
        tree = DyadicTree(1, 8, 4.0)
        b = rng.normal(size=tree.shape)
        f, g = (rng.normal(size=(4,) + tree.shape) for _ in range(2))
        handle = commutator_handle(GridFunction(tree, b))
        lhs = (handle.apply(f) * g).sum(axis=1)
        rhs = (f * handle.apply(g)).sum(axis=1)
        np.testing.assert_allclose(lhs, rhs, rtol=1e-12)

    @pytest.mark.xfail(strict=True, reason="commutator adjoint has the wrong sign (ROADMAP item 1)")
    def test_commutator_adjoint_pairing(self, rng):
        tree = DyadicTree(1, 8, 4.0)
        b, f, g = (rng.normal(size=tree.shape) for _ in range(3))
        lhs, rhs = self._pairings(commutator_handle(GridFunction(tree, b)), f, g)
        assert lhs == pytest.approx(rhs, rel=1e-12)


def _handles(b: GridFunction) -> dict:
    tree = b.tree
    out = {
        "identity": identity_handle(tree),
        "multiply": multiplication_handle(b),
        "paraproduct": paraproduct_handle(b),
        "zero": zero_handle(tree),
    }
    if tree.dim == 1:
        out["commutator"] = commutator_handle(b)
    return out


class TestHandleRowStacks:
    """Handles take a stack of rows (..., *tree.shape) and act on each row alone, bit for bit."""

    TREES = [DyadicTree(1, 0, 1.0), DyadicTree(1, 6, 2.0), DyadicTree(2, 0, 1.0),
             DyadicTree(2, 3, 1.0)]

    @pytest.mark.parametrize("tree", TREES, ids=lambda t: f"d{t.dim}-N{t.depth}")
    @pytest.mark.parametrize("side", ["apply", "adjoint"])
    def test_stack_equals_rows(self, rng, tree, side):
        b = GridFunction(tree, rng.normal(size=tree.shape))
        rows = rng.normal(size=(7,) + tree.shape)
        rows[3] = 0.0
        for name, handle in _handles(b).items():
            op = getattr(handle, side)
            stacked = op(rows)
            assert stacked.shape == rows.shape, name
            for row, got in zip(rows, stacked):
                single = op(row)
                assert single.shape == tree.shape, name
                assert np.array_equal(got, single), name

    @pytest.mark.parametrize("tree", TREES, ids=lambda t: f"d{t.dim}-N{t.depth}")
    @pytest.mark.parametrize("side", ["apply", "adjoint"])
    def test_family_rows_are_their_members(self, rng, tree, side):
        """A list of symbols gives `which -> handle`: row i is member which[i]'s operator,
        with the bits of that member's own handle on that row."""
        bs = [GridFunction(tree, rng.normal(size=tree.shape)) for _ in range(3)]
        which = np.array([2, 0, 0, 1, 2])
        rows = rng.normal(size=(len(which),) + tree.shape)
        factories = [paraproduct_handle] + ([commutator_handle] if tree.dim == 1 else [])
        for factory in factories:
            stacked = getattr(factory(bs)(which), side)(rows)
            for k, row, got in zip(which, rows, stacked):
                assert np.array_equal(got, getattr(factory(bs[k]), side)(row)), factory

    @pytest.mark.parametrize("tree", TREES[1::2], ids=lambda t: f"d{t.dim}")
    def test_two_leading_axes(self, rng, tree):
        b = GridFunction(tree, rng.normal(size=tree.shape))
        rows = rng.normal(size=(2, 3) + tree.shape)
        for name, handle in _handles(b).items():
            for op in (handle.apply, handle.adjoint):
                flat = op(rows.reshape((6,) + tree.shape))
                assert np.array_equal(op(rows), flat.reshape(rows.shape)), name

    @pytest.mark.parametrize("tree", TREES, ids=lambda t: f"d{t.dim}-N{t.depth}")
    def test_paraproduct_handle_is_the_paraproduct(self, rng, tree):
        b, f = (GridFunction(tree, rng.normal(size=tree.shape)) for _ in range(2))
        handle = paraproduct_handle(b)
        assert np.array_equal(handle.apply(f.values), paraproduct(b, f).values)
        assert np.array_equal(handle.adjoint(f.values), paraproduct_adjoint(b, f).values)

    def test_commutator_handle_is_the_commutator(self, rng):
        tree = DyadicTree(1, 7, 4.0)
        b, f = (GridFunction(tree, rng.normal(size=tree.shape)) for _ in range(2))
        handle = commutator_handle(b)
        assert np.array_equal(handle.apply(f.values), commutator(b, f).values)
        assert np.array_equal(handle.adjoint(f.values), -commutator(b, f).values)

    @pytest.mark.parametrize("side", ["apply", "adjoint"])
    @pytest.mark.parametrize("form", ["single", "family"])
    @pytest.mark.parametrize("factory,tree", [
        (paraproduct_handle, DyadicTree(1, 6, 2.0)), (paraproduct_handle, DyadicTree(1, 10, 4.0)),
        (paraproduct_handle, DyadicTree(2, 3, 1.0)), (commutator_handle, DyadicTree(1, 6, 2.0)),
        (commutator_handle, DyadicTree(1, 10, 4.0)),
    ], ids=["paraproduct-d1", "paraproduct-d1-N10", "paraproduct-d2", "commutator-d1",
            "commutator-d1-N10"])
    def test_linear_on_row_stacks(self, rng, factory, tree, form, side):
        """U(a x + y) = a Ux + Uy row by row, to 1e-12 of the row's largest |a Ux| + |Uy|:
        the norm estimator takes a trial's image Uv + s Ug by this linearity."""
        a = np.array([1.0, -0.37, 1e-3, 2.5e2, 0.5 ** 40]).reshape((-1,) + (1,) * tree.dim)
        x, y = (rng.normal(size=(len(a),) + tree.shape) for _ in range(2))
        if form == "single":
            op = getattr(factory(GridFunction(tree, rng.normal(size=tree.shape))), side)
        else:
            bs = [GridFunction(tree, rng.normal(size=tree.shape)) for _ in range(3)]
            op = getattr(factory(bs)(np.array([2, 0, 1, 1, 0])), side)
        ux, uy = op(x.copy()), op(y.copy())
        lhs, rhs = op(a * x + y), a * ux + uy
        scale = (np.abs(a * ux) + np.abs(uy)).reshape(len(a), -1).max(axis=1)
        gap = np.abs(lhs - rhs).reshape(len(a), -1).max(axis=1)
        assert np.all(gap <= 1e-12 * scale), gap / scale

    def test_paraproduct_handle_keeps_b_levels(self, rng, monkeypatch):
        """b's level averages are taken when the handle is built, not on each apply."""
        tree = DyadicTree(1, 5, 1.0)
        b = GridFunction(tree, rng.normal(size=tree.shape))
        handle = paraproduct_handle(b)
        seen = []
        original = operators._averages_by_level
        monkeypatch.setattr(operators, "_averages_by_level",
                            lambda f, w=None: seen.append(f) or original(f, w))
        rows = rng.normal(size=(3,) + tree.shape)
        handle.apply(rows)
        handle.adjoint(rows)
        assert seen == []
