"""Weight masses, characteristics, joint constants, and the spec grammar."""

import numpy as np
import pytest

from dyadlab import weights
from dyadlab.lattice import Cube, DyadicTree, GridFunction
from dyadlab.norms import lp_norm, multiplier_objective
from dyadlab.operators import maximal
from dyadlab.weights import (
    BloomTriple,
    ExponentConfig,
    Weight,
    ap_characteristic,
    divergence_flag,
    dual_weight,
    fujii_wilson_ainfty,
    lower_joint_characteristic,
    parse_weight,
    power_interval_mass,
    power_weight_cube_lower_bound,
    upper_joint_characteristic,
)

import oracles
from oracles import (
    carleson_norm,
    dict_stack,
    factor_power_weights,
    relative_ainfty_carleson_ratio,
)


def power_triple(tree, a, b, p, q):
    cfg = ExponentConfig(p, q, tree.dim)
    return BloomTriple(Weight.power_weight(tree, a), Weight.power_weight(tree, b), cfg)


class TestMasses:
    def test_power_total_closed_form(self):
        tree = DyadicTree(1, 7, 1.0)
        w = Weight.power_weight(tree, 0.5)
        assert float(w.cell_mass.sum()) == pytest.approx(2.0 / 1.5, rel=1e-14)

    def test_mass_additivity(self):
        tree = DyadicTree(1, 6, 2.0)
        w = Weight.power_weight(tree, 1.0 / 3.0)
        for k in range(tree.depth):
            parent = w.level_masses()[k]
            child_sums = w.level_masses()[k + 1].reshape(-1, 2).sum(axis=1)
            np.testing.assert_allclose(parent, child_sums, rtol=1e-15)

    def test_singular_flag_and_positive_masses(self):
        tree = DyadicTree(1, 5, 1.0)
        w = Weight.power_weight(tree, -1.5)
        assert w.singular
        assert np.all(w.cell_mass > 0.0)

    def test_interval_mass_matches_quadrature(self):
        tree = DyadicTree(1, 8, 1.0)
        w = Weight.power_weight(tree, 0.4)
        got = power_interval_mass(0.13, 0.77, w.power)
        xs = np.linspace(0.13, 0.77, 20001)
        want = np.trapezoid(np.abs(xs) ** 0.4, xs)
        assert got == pytest.approx(want, rel=1e-6)

    def test_d2_power_mass(self):
        tree = DyadicTree(2, 2, 1.0)
        w = Weight.power_weight(tree, 2.0)
        assert float(w.cell_mass.sum()) == pytest.approx(8.0 / 3.0, rel=1e-8)

    def test_d2_masses_refine_consistently(self):
        """Total planar mass is depth-independent within the quadrature tolerance."""
        totals = [float(Weight.power_weight(DyadicTree(2, n, 1.0), 0.7).cell_mass.sum())
                  for n in (3, 4, 5)]
        assert max(totals) == pytest.approx(min(totals), rel=1e-7)

    def test_d2_inside_window_stabilizes(self):
        values = [
            ap_characteristic(Weight.power_weight(DyadicTree(2, n, 1.0), 0.7), 2.0)
            for n in (3, 4, 5)
        ]
        assert max(values) / min(values) < 1.05  # window in d=2 reaches to (p-1)d = 2


PLAN_GAMMAS = [1.0, 1.0 / 3.0, -1.0 / 3.0, 0.0, -0.0, -1.0, -1.7, -2.0, -2.5, 2.3]


def _assert_reference_power(tree, gamma):
    """Density, masses and flag of the resident-plan quadrature equal the per-call one.

    gamma = 0 of either sign is Lebesgue measure exactly, with no quadrature.
    """
    if gamma == 0.0:
        density, mass, singular = np.ones(tree.shape), np.full(tree.shape, tree.cell_volume), False
    else:
        density, mass, singular = oracles.reference_power_weight(tree, gamma)
    w = Weight.power_weight(tree, gamma)
    assert np.array_equal(w.density, density)
    assert np.array_equal(w.cell_mass, mass)
    assert w.singular == singular


@pytest.fixture
def plan_builds():
    """Count quadrature-plan builds, as cache misses from an empty plan cache."""
    weights._quadrature_plan.cache_clear()
    return lambda: weights._quadrature_plan.cache_info().misses


class TestQuadraturePlan:
    @pytest.mark.parametrize("depth", [1, 2, 3, 4, 5])
    @pytest.mark.parametrize("half_width", [1.0, 4.0])
    @pytest.mark.parametrize("gamma", PLAN_GAMMAS)
    def test_d2_matches_per_call_quadrature(self, depth, half_width, gamma):
        _assert_reference_power(DyadicTree(2, depth, half_width), gamma)

    @pytest.mark.parametrize("gamma", PLAN_GAMMAS)
    def test_d3_matches_per_call_quadrature(self, gamma):
        _assert_reference_power(DyadicTree(3, 2, 1.0), gamma)

    def test_tree_sequence_rebuilds_only_on_change(self, plan_builds):
        a, b = DyadicTree(2, 3, 1.0), DyadicTree(2, 3, 4.0)
        for tree in (a, a, b, a):
            for gamma in (1.0, -1.0 / 3.0, -2.5):
                _assert_reference_power(tree, gamma)
        assert plan_builds() == 3
        weights._quadrature_plan(a)  # the resident plan is a's
        assert plan_builds() == 3

    def test_one_build_per_report_tree(self, plan_builds, rng):
        """Every d = 2 power-weight path of a norm report reuses the resident plan."""
        tree = DyadicTree(2, 4, 4.0)
        mu, lam = parse_weight("power(1.0)", tree), parse_weight("lebesgue", tree)
        t = BloomTriple(mu, lam, ExponentConfig(4.0, 2.0, 2))
        multiplier_objective(GridFunction(tree, rng.normal(size=tree.shape)), t.nu, t.cfg.r)(0.0)
        power_weight_cube_lower_bound(tree, t.nu.power, scope="dyadic")
        parse_weight("product(power(0.5),dual(power(0.5),2))", tree)
        assert plan_builds() == 1

    def test_d1_builds_no_plan(self, plan_builds):
        Weight.power_weight(DyadicTree(1, 5, 1.0), 0.5)
        assert plan_builds() == 0

    @pytest.mark.filterwarnings("ignore:divide by zero encountered in power:RuntimeWarning")
    @pytest.mark.parametrize("half_width", [1.0, 4.0])
    @pytest.mark.parametrize("gamma", [g for g in PLAN_GAMMAS if g != 0.0])
    def test_d2_depth_zero(self, half_width, gamma):
        """The one cell is the origin cell, on no mirror pair of rows.  Its midpoint is the
        origin, so the plan's density is 0 or infinite (a `Weight` refuses the 0); the
        plan is checked, not the weight."""
        tree = DyadicTree(2, 0, half_width)
        plan = weights._quadrature_plan(tree)
        assert plan.rows.tolist() == [0] and plan.folded == 0
        density, mass, _ = oracles.reference_power_weight(tree, gamma)
        got = plan.evaluate(gamma)
        assert np.array_equal(got[0], density) and np.array_equal(got[1], mass)

    @pytest.mark.parametrize("depth,half_width,folded", [(5, 3.0, 7), (6, 3.0, 23), (4, 0.3, 0)])
    @pytest.mark.parametrize("gamma", PLAN_GAMMAS)
    def test_d2_rows_off_their_mirror(self, depth, half_width, folded, gamma):
        """At a non-dyadic H some or all negative rows' nodes are not their mirror's
        negated bit for bit; those rows take products of their own."""
        tree = DyadicTree(2, depth, half_width)
        assert weights._quadrature_plan(tree).folded == folded
        _assert_reference_power(tree, gamma)

    @pytest.mark.parametrize("gamma", [1.0, -1.0 / 3.0, -2.5])
    def test_d3_depth_three(self, gamma):
        _assert_reference_power(DyadicTree(3, 3, 4.0), gamma)

    @pytest.mark.parametrize("gamma", [1.0, -1.0])
    def test_norms_d2_tree(self, gamma):
        """The benchmark's d = 2 tree, at mu's exponent and at the multiplier's."""
        tree = DyadicTree(2, 8, 4.0)
        assert weights._quadrature_plan(tree).folded == 127  # row 127 is off row 128's mirror
        _assert_reference_power(tree, gamma)


class TestQuadratureBlocks:
    @pytest.mark.parametrize("block_cells", [1, 24, 40, 10**6])
    @pytest.mark.parametrize("dim,depth", [(2, 3), (3, 2)])
    def test_blocks_keep_the_bits(self, monkeypatch, dim, depth, block_cells):
        """Blocks of one row, of uneven row counts and of the whole tree all give the
        per-call quadrature's bits."""
        weights._quadrature_plan.cache_clear()
        monkeypatch.setattr(weights, "_BLOCK_CELLS", block_cells)
        for gamma in (0.7, -1.0 / 3.0, -2.5):
            _assert_reference_power(DyadicTree(dim, depth, 4.0), gamma)

    @pytest.mark.parametrize("rows_per_block", [1, 3])
    @pytest.mark.parametrize("dim,depth", [(2, 5), (3, 3)])
    def test_orthant_blocks_keep_the_bits(self, monkeypatch, dim, depth, rows_per_block):
        """Blocks of one row, and of three rows (the first straddling the rows with products
        of their own and the folded rows, the last shorter) give the per-call bits."""
        weights._quadrature_plan.cache_clear()
        tree = DyadicTree(dim, depth, 4.0)
        plan = weights._quadrature_plan(tree)
        assert len(plan.rows) - plan.folded == 2 and len(plan.rows) % 3 != 0
        monkeypatch.setattr(weights, "_BLOCK_CELLS", rows_per_block * len(plan.rows) ** (dim - 1))
        for gamma in (0.7, -1.0 / 3.0, -2.5):
            _assert_reference_power(tree, gamma)


class TestApCharacteristic:
    def test_lebesgue_is_one(self):
        tree = DyadicTree(1, 5, 1.0)
        for p in (1.5, 2.0, 3.0):
            assert ap_characteristic(Weight.lebesgue(tree), p) == pytest.approx(1.0)

    def test_two_cell_brute_force(self):
        name, got, want, tol = oracles.ap_two_cell()
        assert got == pytest.approx(want, rel=tol)

    def test_inside_window_stabilizes(self):
        values = [
            ap_characteristic(Weight.power_weight(DyadicTree(1, n, 1.0), 0.5), 2.0)
            for n in range(5, 11)
        ]
        assert max(values) / min(values) < 1.01
        assert not divergence_flag(values)

    def test_outside_window_grows(self):
        values = [
            ap_characteristic(Weight.power_weight(DyadicTree(1, n, 1.0), 1.2), 2.0)
            for n in range(5, 13)
        ]
        assert all(b > a for a, b in zip(values, values[1:]))  # monotone growth
        assert values[-1] > 2.0 * values[1]  # unbounded under refinement

    def test_shifted_scope_at_least_dyadic(self):
        tree = DyadicTree(1, 6, 1.0)
        w = Weight.power_weight(tree, 0.5)
        assert ap_characteristic(w, 2.0, scope="shifted") >= ap_characteristic(w, 2.0)

    def test_jensen_floor(self, rng):
        tree = DyadicTree(1, 6, 1.0)
        w = Weight(tree, rng.uniform(0.1, 5.0, tree.shape))
        assert ap_characteristic(w, 2.5) >= 1.0


class TestFujiiWilson:
    def test_self_ratio_is_one(self, rng):
        tree = DyadicTree(1, 5, 1.0)
        w = Weight(tree, rng.uniform(0.5, 2.0, tree.shape))
        assert fujii_wilson_ainfty(w, w) == pytest.approx(1.0)

    def test_lebesgue(self):
        tree = DyadicTree(1, 5, 1.0)
        lebesgue = Weight.lebesgue(tree)
        assert fujii_wilson_ainfty(lebesgue, lebesgue) == pytest.approx(1.0)

    def test_exhaustive_oracle(self):
        name, got, want, tol = oracles.fujii_wilson_two_cell()
        assert got == pytest.approx(want, rel=tol)


class TestCarleson:
    def test_single_cube_norm_one(self):
        tree = DyadicTree(1, 4, 1.0)
        w = Weight.power_weight(tree, 0.5)
        stack = dict_stack(tree, {Cube(tree, 2, (1,)): 1.0})
        assert carleson_norm(stack, w, tree) == pytest.approx(1.0)

    def test_all_ones_closed_form(self):
        name, got, want, tol = oracles.carleson_all_ones()
        assert got == pytest.approx(want, rel=tol)

    def test_embedding_battery(self):
        name, got, want, tol = oracles.carleson_embedding_battery()
        assert got <= want + tol

    def test_relative_ainfty_sampled(self, rng):
        tree = DyadicTree(1, 5, 1.0)
        w = Weight(tree, rng.uniform(0.2, 4.0, tree.shape))
        ratio = relative_ainfty_carleson_ratio(w, None, seed=3)
        assert 1.0 <= ratio <= fujii_wilson_ainfty(w, Weight.lebesgue(tree)) * (1.0 + 1e-9)

    def test_relative_ainfty_identity_weight(self, rng):
        tree = DyadicTree(1, 4, 1.0)
        w = Weight(tree, rng.uniform(0.2, 4.0, tree.shape))
        assert relative_ainfty_carleson_ratio(w, w, seed=5) == pytest.approx(1.0)


class TestDuality:
    def test_lebesgue_self_dual(self):
        tree = DyadicTree(1, 4, 1.0)
        d = dual_weight(Weight.lebesgue(tree), 2.5)
        np.testing.assert_allclose(d.density, 1.0)

    def test_p2_reciprocal(self, rng):
        tree = DyadicTree(1, 4, 1.0)
        w = Weight(tree, rng.uniform(0.5, 2.0, tree.shape))
        np.testing.assert_allclose(dual_weight(w, 2.0).density, 1.0 / w.density, rtol=1e-15)

    @pytest.mark.parametrize("p", [1.5, 2.0, 3.0, 4.0])
    def test_duality_identity(self, p, rng):
        tree = DyadicTree(1, 6, 1.0)
        pc = p / (p - 1.0)
        for w in (Weight.power_weight(tree, 0.4), Weight(tree, rng.uniform(0.2, 3.0, tree.shape))):
            lhs = ap_characteristic(w, p) ** (1.0 / p)
            rhs = ap_characteristic(dual_weight(w, p), pc) ** (1.0 / pc)
            assert lhs == pytest.approx(rhs, rel=1e-9)

    def test_monotonicity(self, rng):
        tree = DyadicTree(1, 6, 1.0)
        w = Weight(tree, rng.uniform(0.2, 3.0, tree.shape))
        chars = [ap_characteristic(w, p) for p in (1.5, 2.0, 3.0, 4.0)]
        assert all(a >= b * (1.0 - 1e-12) for a, b in zip(chars, chars[1:]))


class TestBuckley:
    def test_single_battery_constant(self, rng):
        """One constant covers every randomized (f, w) instance."""
        tree = DyadicTree(1, 7, 1.0)
        worst = 0.0
        for _ in range(40):
            p = float(rng.uniform(1.4, 3.5))
            w = Weight(tree, np.exp(rng.normal(size=tree.shape)))
            f = GridFunction(tree, rng.normal(size=tree.shape))
            lhs = lp_norm(maximal(f, Weight.lebesgue(tree)), w, p)
            rhs = ap_characteristic(w, p) ** (1.0 / (p - 1.0)) * lp_norm(f, w, p)
            worst = max(worst, lhs / rhs)
        assert worst <= 8.0  # battery-wide constant, frozen


class TestBloomTriple:
    def test_identity_collapse(self, rng):
        tree = DyadicTree(1, 5, 1.0)
        w = Weight(tree, rng.uniform(0.5, 2.0, tree.shape))
        t = BloomTriple(w, w, ExponentConfig(2.5, 2.5))
        np.testing.assert_allclose(t.nu.density, 1.0, atol=1e-13)

    def test_power_exponent_oracle(self):
        name, got, want, tol = oracles.bloom_power_exponent_arithmetic()
        assert got == pytest.approx(want, rel=tol)

    def test_power_factorization_reproduces_weight(self):
        cfg = ExponentConfig(4.0, 2.0)
        tree = DyadicTree(1, 5, 1.0)
        gamma = 1.0 / 3.0
        a, b = factor_power_weights(gamma, cfg)
        assert -1.0 < a < (cfg.p - 1.0) and -1.0 < b < (cfg.q - 1.0)
        t = power_triple(tree, a, b, cfg.p, cfg.q)
        assert t.nu.power == pytest.approx(gamma, rel=1e-12)

    def test_factorization_rejects_outside_window(self):
        cfg = ExponentConfig(4.0, 2.0)
        two_r_conj = 2.0 * cfg.r_conj
        with pytest.raises(ValueError):
            factor_power_weights((two_r_conj - 1.0) + 0.5, cfg)


class TestJointCharacteristics:
    def test_trivial_ones(self):
        tree = DyadicTree(1, 4, 1.0)
        t = BloomTriple(Weight.lebesgue(tree), Weight.lebesgue(tree), ExponentConfig(2.0, 2.0))
        assert upper_joint_characteristic(t) == pytest.approx(1.0)
        assert lower_joint_characteristic(t) == pytest.approx(1.0)

    def test_brute_force_oracle(self):
        name, got, want, tol = oracles.joint_characteristics_brute_force()
        assert got == pytest.approx(want, rel=tol)

    def test_bounded_by_separate_characteristics(self, rng):
        tree = DyadicTree(1, 6, 1.0)
        for _ in range(25):
            p, q = float(rng.uniform(1.4, 4.0)), float(rng.uniform(1.4, 4.0))
            a = float(rng.uniform(-0.8, p - 1.2))
            b = float(rng.uniform(-0.8, q - 1.2))
            t = power_triple(tree, a, b, p, q)
            bound = (
                ap_characteristic(t.mu, p) ** (1.0 / p)
                * ap_characteristic(t.lam, q) ** (1.0 / q)
            )
            assert upper_joint_characteristic(t) <= bound * (1.0 + 1e-9)
            assert lower_joint_characteristic(t) <= bound * (1.0 + 1e-9)

    def test_bloom_class_bound(self, rng):
        """[nu] at exponent 2r' is controlled by the separate characteristics."""
        tree = DyadicTree(1, 6, 1.0)
        for _ in range(15):
            q = float(rng.uniform(1.4, 2.5))
            p = q + float(rng.uniform(0.5, 2.0))
            a = float(rng.uniform(-0.8, p - 1.2))
            b = float(rng.uniform(-0.8, q - 1.2))
            t = power_triple(tree, a, b, p, q)
            rc = t.cfg.r_conj
            lhs = ap_characteristic(t.nu, 2.0 * rc)
            rhs = (
                ap_characteristic(t.mu, p) ** (rc / p)
                * ap_characteristic(t.lam, q) ** (rc / q)
            )
            assert lhs <= rhs * (1.0 + 1e-9)

    def test_relative_ainfty_constant_four(self, rng):
        """Relative A_inf of mu and lambda' against the fourth power of the joint constant."""
        tree = DyadicTree(1, 5, 1.0)
        for _ in range(10):
            q = float(rng.uniform(1.4, 2.5))
            p = q + float(rng.uniform(0.5, 1.5))
            t = power_triple(
                tree, float(rng.uniform(-0.5, p - 1.3)), float(rng.uniform(-0.5, q - 1.3)), p, q
            )
            joint = lower_joint_characteristic(t)
            assert fujii_wilson_ainfty(t.mu, t.nu) <= 4.0 * joint**t.cfg.p * (1.0 + 1e-9)
            assert fujii_wilson_ainfty(t.lam_dual, t.nu) <= 4.0 * joint**t.cfg.q_conj * (1.0 + 1e-9)


class TestCubeLowerBound:
    def test_flat_weight_constant_one(self):
        tree = DyadicTree(1, 5, 1.0)
        assert power_weight_cube_lower_bound(tree, 0.0) == pytest.approx(1.0, rel=1e-12)

    def test_stable_under_refinement(self):
        name, got, want, tol = oracles.cube_lower_bound_depth_stable()
        assert got == pytest.approx(want, rel=tol)

    def test_third_power_uniform(self):
        values = [
            power_weight_cube_lower_bound(DyadicTree(1, n, 1.0), 1.0 / 3.0)
            for n in (4, 6, 8)
        ]
        assert max(values) < 4.0


class TestDivergenceFlag:
    def test_flat_series_clear(self):
        assert not divergence_flag([2.0, 2.01, 2.0, 2.02, 2.0])

    def test_growing_series_flagged(self):
        assert divergence_flag([1.0, 1.2, 1.5, 1.9, 2.4, 3.1])

    def test_needs_enough_points(self):
        assert not divergence_flag([1.0, 10.0])


class TestWeightGrammar:
    def test_power(self):
        tree = DyadicTree(1, 4, 1.0)
        w = parse_weight("power(0.5)", tree)
        assert w.power == 0.5

    def test_dual_and_product(self):
        tree = DyadicTree(1, 4, 1.0)
        w = parse_weight("product(power(0.5),dual(power(0.5),2))", tree)
        assert w.power == pytest.approx(0.0)

    def test_piecewise_roundtrip(self, tmp_path, rng):
        tree = DyadicTree(1, 3, 1.0)
        dens = rng.uniform(0.5, 2.0, tree.n_cells)
        path = tmp_path / "w.csv"
        path.write_text("\n".join(repr(float(x)) for x in dens) + "\n")
        w = parse_weight(f"piecewise({path})", tree)
        np.testing.assert_allclose(w.density, dens.reshape(tree.shape))

    def test_piecewise_size_mismatch(self, tmp_path):
        tree = DyadicTree(1, 3, 1.0)
        path = tmp_path / "w.csv"
        path.write_text("1.0\n2.0\n")
        with pytest.raises(ValueError):
            parse_weight(f"piecewise({path})", tree)

    def test_unknown_spec(self):
        with pytest.raises(ValueError):
            parse_weight("gaussian(1)", DyadicTree(1, 3, 1.0))
