"""Scalar functionals: norms, multiplier infima, discretized suprema, testing conditions."""

import json

import numpy as np
import pytest

from dyadlab import norms
from dyadlab.lattice import Cube, DyadicTree, GridFunction, LatticeError
from dyadlab.norms import (
    NormReport,
    ProbePair,
    abs_power,
    bmo_alpha_norm,
    discretized_sharp_sup,
    empirical_operator_norm,
    golden_section,
    lp_norm,
    multiplier_norm,
    q_ge_p_testing,
    sequential_testing_functional,
    sharp_maximal_r_norm,
    signed_power,
    weight_necessity_bound,
)
from dyadlab.operators import OperatorHandle, paraproduct_handle
from dyadlab.scenarios import half_split, random_haar_sum
from dyadlab.sparse import SparseFamily
from dyadlab.weights import (
    BloomTriple,
    ExponentConfig,
    Weight,
    upper_joint_characteristic,
)

import oracles
from oracles import (
    cell_cube,
    fefferman_stein_check,
    from_callable,
    identity_handle,
    trace_is_convex,
    zero_handle,
)


class TestLpNorm:
    def test_unit_constant(self):
        tree = DyadicTree(1, 4, 0.5)
        one = GridFunction.constant(tree, 1.0)
        assert lp_norm(one, Weight.lebesgue(tree), 2.0) == pytest.approx(1.0)

    def test_half_indicator_l2(self):
        tree = DyadicTree(1, 4, 0.5)
        f = from_callable(tree, lambda x: (x < 0.0) * 1.0)
        assert lp_norm(f, Weight.lebesgue(tree), 2.0) == pytest.approx(2.0**-0.5)

    def test_power_mass_oracle(self):
        name, got, want, tol = oracles.lp_power_mass()
        assert got == pytest.approx(want, rel=tol)

    def test_rejects_bad_exponent(self):
        tree = DyadicTree(1, 3, 1.0)
        with pytest.raises(ValueError):
            lp_norm(GridFunction.constant(tree, 1.0), Weight.lebesgue(tree), 0.0)


def _rows_with_zeros(rng, tree, k=3):
    """k normal rows on `tree`, with a 0.0 and a -0.0 in every row."""
    rows = rng.normal(size=(k,) + tree.shape)
    rows.reshape(k, -1)[:, 0] = 0.0
    rows.reshape(k, -1)[:, -1] = -0.0
    return rows


def _bits(a):
    return np.asarray(a).view(np.int64)


KERNEL_TREES = [DyadicTree(1, 6, 4.0), DyadicTree(2, 4, 4.0)]


class TestPowerKernels:
    """`abs_power` and `signed_power` against numpy's |a|**e and |a|**e * sign(a)."""

    @pytest.mark.parametrize("tree", KERNEL_TREES, ids=["d1", "d2"])
    @pytest.mark.parametrize("e", [1.0, 2.0, 3.0, 4.0])
    def test_whole_exponents_are_within_four_ulps(self, rng, tree, e):
        a = _rows_with_zeros(rng, tree)
        np.testing.assert_array_max_ulp(abs_power(a, e), np.abs(a) ** e, maxulp=4)
        np.testing.assert_array_max_ulp(signed_power(a, e), np.abs(a) ** e * np.sign(a),
                                        maxulp=4)

    @pytest.mark.parametrize("tree", KERNEL_TREES, ids=["d1", "d2"])
    @pytest.mark.parametrize("e", [0.5, 1.5, 2.5, 5.0])
    def test_other_exponents_keep_numpys_bits(self, rng, tree, e):
        a = _rows_with_zeros(rng, tree)
        assert np.array_equal(_bits(abs_power(a, e)), _bits(np.abs(a) ** e))
        assert np.array_equal(_bits(signed_power(a, e)), _bits(np.abs(a) ** e * np.sign(a)))

    @pytest.mark.parametrize("e", [0.5, 1.0, 1.5, 2.0, 2.5, 3.0, 4.0, 5.0])
    def test_out_matches_a_fresh_result(self, rng, e):
        a = _rows_with_zeros(rng, KERNEL_TREES[1])
        for kernel in (abs_power, signed_power):
            out = a.copy()
            assert kernel(out, e, out=out) is out
            assert np.array_equal(_bits(out), _bits(kernel(a, e)))
            other = np.empty_like(a)
            assert kernel(a, e, out=other) is other
            assert np.array_equal(_bits(other), _bits(out))
        before = a.copy()
        signed_power(a, 1.0)
        assert np.array_equal(_bits(a), _bits(before))  # no `out`: the input is left alone

    @pytest.mark.parametrize("e", [0.5, 1.0, 1.5, 2.0, 2.5, 3.0, 4.0, 5.0])
    def test_zeros_give_zero(self, e):
        zeros = np.array([[0.0, -0.0, 0.0, -0.0]])
        for value in (abs_power(zeros, e), signed_power(zeros, e)):
            assert not np.isnan(value).any()
            assert np.all(value == 0.0)

    def test_q2_dual_keeps_its_bits(self, rng):
        """At q = 2 the gradient's dual lam * sgn(u)|u| is lam * u: the bits of
        lam * |u| ** 1.0 * sign(u), up to the sign of a zero where u is -0.0."""
        tree = KERNEL_TREES[1]
        u = _rows_with_zeros(rng, tree)
        lamm = Weight.power_weight(tree, 1.0).cell_mass
        got, want = lamm * signed_power(u, 1.0), lamm * np.abs(u) ** 1.0 * np.sign(u)
        assert np.array_equal(got, want)
        signed_zero = (u == 0.0) & np.signbit(u)
        assert np.array_equal(_bits(got[~signed_zero]), _bits(want[~signed_zero]))


class TestBmoNorm:
    def test_constant_zero(self):
        tree = DyadicTree(1, 4, 1.0)
        assert bmo_alpha_norm(GridFunction.constant(tree, 9.0), Weight.lebesgue(tree), 0.0) == 0.0

    def test_half_split_brute_force(self):
        name, got, want, tol = oracles.bmo_half_split()
        assert got == pytest.approx(want, rel=tol)

    def test_half_split_power_weight_closed_form(self):
        """The sup sits at the split cube: |Q| over the alpha-adjusted mass."""
        tree = DyadicTree(1, 6, 1.0)
        nu = Weight.power_weight(tree, 1.0 / 3.0)
        cfg = ExponentConfig(2.0, 3.0)  # p < q, alpha > 0
        q = Cube(tree, 1, (1,))
        b = half_split(tree, q)
        got = bmo_alpha_norm(b, nu, cfg.alpha)
        want = q.volume / nu.mass(q) ** (1.0 + cfg.alpha)
        assert got == pytest.approx(want, rel=1e-12)


class TestSharpNorm:
    def test_constant_zero(self):
        tree = DyadicTree(1, 4, 1.0)
        rep = sharp_maximal_r_norm(GridFunction.constant(tree, 1.0), Weight.lebesgue(tree), 2.0)
        assert rep.value == 0.0

    def test_certificate_reevaluates(self, rng):
        tree = DyadicTree(1, 5, 1.0)
        nu = Weight.power_weight(tree, 0.25)
        b = GridFunction(tree, rng.normal(size=tree.shape))
        rep = sharp_maximal_r_norm(b, nu, 3.0)
        again = lp_norm(GridFunction(tree, rep.certificate), nu, 3.0)
        assert again == pytest.approx(rep.value, rel=1e-9)

    def test_ball_norm_converges_with_depth(self):
        values = [
            sharp_maximal_r_norm(
                GridFunction.ball_indicator(DyadicTree(1, n, 4.0), 1.0),
                Weight.power_weight(DyadicTree(1, n, 4.0), 1.0 / 3.0),
                4.0,
            ).value
            for n in (7, 9, 11)
        ]
        assert abs(values[-1] - values[-2]) < 0.05 * values[-2]


class TestMultiplierNorm:
    def test_constant_b_zero_at_its_value(self):
        tree = DyadicTree(1, 5, 1.0)
        rep = multiplier_norm(GridFunction.constant(tree, 2.5), Weight.lebesgue(tree), 2.0)
        assert rep.value == pytest.approx(0.0, abs=1e-12)
        assert rep.certificate == pytest.approx(2.5, abs=1e-6)

    def test_quadratic_closed_form(self):
        name, got, want, tol = oracles.multiplier_quadratic()
        assert got == pytest.approx(want, rel=tol)

    def test_trace_is_convex(self, rng):
        tree = DyadicTree(1, 6, 1.0)
        nu = Weight.power_weight(tree, 0.2)
        b = GridFunction(tree, rng.normal(size=tree.shape))
        rep = multiplier_norm(b, nu, 3.0)
        assert trace_is_convex(rep.trace)

    def test_golden_section_beats_grid(self, rng):
        tree = DyadicTree(1, 6, 1.0)
        nu = Weight.power_weight(tree, 0.2)
        b = GridFunction(tree, rng.normal(size=tree.shape))
        from dyadlab.norms import multiplier_objective

        h = multiplier_objective(b, nu, 3.0)
        rep = multiplier_norm(b, nu, 3.0)
        grid_best = min(h(c) for c in np.linspace(b.values.min(), b.values.max(), 33))
        assert rep.details["objective"] <= grid_best * (1.0 + 1e-9)

    def test_bloom_wrapper_guards_regime(self, rng):
        """A Bloom triple's multiplier norm is taken at its r, which is infinite unless q < p."""
        tree = DyadicTree(1, 4, 1.0)
        w = Weight.lebesgue(tree)
        b = GridFunction(tree, rng.normal(size=tree.shape))
        t_bad = BloomTriple(w, w, ExponentConfig(2.0, 2.0))
        with pytest.raises(ValueError):
            multiplier_norm(b, t_bad.nu, t_bad.cfg.r)
        t_ok = BloomTriple(w, w, ExponentConfig(4.0, 2.0))
        assert multiplier_norm(b, t_ok.nu, t_ok.cfg.r).value >= 0.0


class TestDiscretizedSup:
    def test_constant_b_empty(self):
        tree = DyadicTree(1, 4, 1.0)
        b, nu = GridFunction.constant(tree, 3.0), Weight.lebesgue(tree)
        rep = discretized_sharp_sup(b, nu, 2.0, sharp_maximal_r_norm(b, nu, 2.0))
        assert rep.value == 0.0

    def test_depth_one_brute_force(self):
        name, got, want, tol = oracles.discretized_sup_depth_one()
        assert got == pytest.approx(want, rel=tol)

    def test_random_battery_two_sided(self, rng):
        """Ratio against the sharp norm stays in a positive battery interval."""
        tree = DyadicTree(1, 6, 1.0)
        nu = Weight.power_weight(tree, 0.25)
        gamma, r = 0.25, 2.0
        ratios = []
        for _ in range(20):
            b = GridFunction(tree, rng.normal(size=tree.shape))
            rep = discretized_sharp_sup(b, nu, r, sharp_maximal_r_norm(b, nu, r), gamma=gamma)
            if not rep.details["sparse_ok"]:
                continue
            ratios.append(rep.value / rep.details["sharp_norm"])
        assert len(ratios) >= 15
        assert min(ratios) > 0.25  # battery lower edge, frozen
        assert max(ratios) <= gamma ** (-1.0 / r) * (1.0 + 1e-9)

    def test_too_small_sharp_report_is_refused(self, rng):
        """A verified family's value above gamma^(-1/r) times the handed sharp norm raises."""
        tree = DyadicTree(1, 5, 1.0)
        nu = Weight.power_weight(tree, 0.25)
        b = GridFunction(tree, rng.normal(size=tree.shape))
        sharp = sharp_maximal_r_norm(b, nu, 2.0)
        rep = discretized_sharp_sup(b, nu, 2.0, sharp)
        assert rep.details["sparse_ok"] == 1.0 and rep.value > 0.0
        small = NormReport(sharp.value * 1e-3, sharp.method, sharp.certificate)
        with pytest.raises(AssertionError, match="exceeded its certified bound"):
            discretized_sharp_sup(b, nu, 2.0, small)

    def test_certificate_is_verified_family(self, rng):
        tree = DyadicTree(1, 5, 1.0)
        nu = Weight.lebesgue(tree)
        b = GridFunction(tree, rng.normal(size=tree.shape))
        rep = discretized_sharp_sup(b, nu, 2.0, sharp_maximal_r_norm(b, nu, 2.0))
        assert isinstance(rep.certificate, SparseFamily)


class TestEmpiricalNorm:
    def test_identity(self):
        tree = DyadicTree(1, 5, 1.0)
        rep = empirical_operator_norm(identity_handle(tree), None, None, 2.0, 2.0, tree,
                                      restarts=6, iterations=25)
        assert rep.value == pytest.approx(1.0, abs=1e-6)

    def test_hoelder_extremizer(self):
        name, got, want, tol = oracles.empirical_vs_hoelder()
        assert got == pytest.approx(want, rel=tol)

    def test_constant_b_paraproduct_zero(self):
        tree = DyadicTree(1, 5, 1.0)
        rep = empirical_operator_norm(
            paraproduct_handle(GridFunction.constant(tree, 1.0)), None, None, 2.0, 2.0, tree,
            restarts=4, iterations=10,
        )
        assert rep.value == pytest.approx(0.0, abs=1e-12)

    def test_trace_monotone(self, rng):
        tree = DyadicTree(1, 5, 1.0)
        b = GridFunction(tree, rng.normal(size=tree.shape))
        rep = empirical_operator_norm(paraproduct_handle(b), None, None, 3.0, 2.0, tree,
                                      restarts=8, iterations=20)
        assert all(x <= y + 1e-15 for x, y in zip(rep.trace, rep.trace[1:]))

    def test_certificate_reevaluates_to_value(self, rng):
        tree = DyadicTree(1, 5, 1.0)
        mu = Weight(tree, rng.uniform(0.5, 2.0, tree.shape))
        lam = Weight(tree, rng.uniform(0.5, 2.0, tree.shape))
        b = GridFunction(tree, rng.normal(size=tree.shape))
        handle = paraproduct_handle(b)
        rep = empirical_operator_norm(handle, mu, lam, 3.0, 2.0, tree, restarts=6, iterations=25)
        again = lp_norm(GridFunction(tree, handle.apply(rep.certificate)), lam, 2.0) / lp_norm(
            GridFunction(tree, rep.certificate), mu, 3.0
        )
        assert again == pytest.approx(rep.value, rel=1e-9)

    def test_report_serializes(self, rng):
        tree = DyadicTree(1, 4, 1.0)
        b = GridFunction(tree, rng.normal(size=tree.shape))
        rep = empirical_operator_norm(paraproduct_handle(b), None, None, 2.0, 2.0, tree,
                                      restarts=4, iterations=10)
        payload, files = rep.serialize("paraproduct_norm")
        assert json.loads(json.dumps(payload)) == payload
        assert payload["value"] == rep.value
        assert payload["certificate-ref"] == "certificate_paraproduct_norm.csv"
        assert list(files) == ["certificate_paraproduct_norm.csv"]
        assert files["certificate_paraproduct_norm.csv"].count("\n") == tree.n_cells

    def test_certificate_csv_bytes(self):
        """One repr per cell, in C order; integer certificates print as floats."""
        cert = np.array([[0.1, -0.0], [1e-310, 2.0**60], [np.inf, -1.0 / 3.0]])
        _, files = NormReport(1.0, "gradient-ascent", certificate=cert).serialize("u")
        assert files == {"certificate_u.csv": "".join(repr(float(x)) + "\n" for x in cert.ravel())}
        _, files = NormReport(1.0, "x", certificate=np.arange(3)).serialize("u")
        assert files == {"certificate_u.csv": "0.0\n1.0\n2.0\n"}

    @pytest.mark.parametrize("iterations", [0, 1, 6])
    @pytest.mark.parametrize("group", ["one", "all"])
    def test_one_forward_apply_per_trial(self, rng, monkeypatch, group, iterations):
        """The forward applies cover each live start once and each nonzero gradient once,
        and the adjoint applies cover each gradient once: a line-search trial takes its
        image by linearity, and applies nothing.  `ratio_evals` still counts the trials."""
        tree = DyadicTree(1, 5, 4.0)
        monkeypatch.setattr(norms, "_GROUP_CELLS", tree.n_cells * (1 if group == "one" else 100))
        inner = paraproduct_handle(GridFunction(tree, rng.normal(size=tree.shape)))
        rows = {"apply": 0, "adjoint": 0}

        def counted(name, op):
            def call(v):
                rows[name] += len(v) if v.shape != tree.shape else 1
                return op(v)
            return call

        U = OperatorHandle("counted", counted("apply", inner.apply),
                           counted("adjoint", inner.adjoint))
        args = (U, Weight.power_weight(tree, 1.0), None, 3.0, 2.0, tree)
        kwargs = dict(restarts=14, iterations=iterations, extra_starts=[np.zeros(tree.shape)])
        got = empirical_operator_norm(*args, **kwargs)
        applied, adjoined = rows["apply"], rows["adjoint"]
        rows.update(apply=0, adjoint=0)
        want = oracles.reference_empirical_operator_norm(*args, **kwargs)
        assert (got.value, got.trace, got.details) == (want.value, want.trace, want.details)
        live = len(got.trace)  # the starts of nonzero norm
        # a random b's paraproduct has no zero gradient here, so every gradient is applied
        assert applied == live + adjoined == rows["apply"]
        # the sequential ascent takes its gradients one row at a time, one adjoint each
        assert adjoined == rows["adjoint"]
        assert (adjoined > 0) == (iterations > 0)
        rows.update(apply=0, adjoint=0)
        per_trial = oracles.reference_empirical_operator_norm_per_trial(*args, **kwargs)
        assert per_trial.details == got.details
        assert rows["apply"] == live + got.details["ratio_evals"]


class TestSequentialTesting:
    def test_zero_operator(self):
        tree = DyadicTree(1, 4, 1.0)
        nu = Weight.lebesgue(tree)
        s = Cube(tree, 1, (0,))
        ind = GridFunction.indicator(tree, s)
        pair = ProbePair(s, ind, ind, (s.corner, s.side), (s.corner, s.side))
        assert sequential_testing_functional(zero_handle(tree), [pair], nu, 4.0) == 0.0

    def test_single_cube_oracle(self):
        name, got, want, tol = oracles.sequential_single_cube()
        assert got == pytest.approx(want, rel=tol)

    def test_paraproduct_dominates_discretized_sum(self, rng):
        """Sign-adapted cube pairs recover half the oscillation per family cube."""
        tree = DyadicTree(1, 6, 1.0)
        nu = Weight.lebesgue(tree)
        r = 4.0
        b = random_haar_sum(tree, rng)
        u = paraproduct_handle(b)
        rep = discretized_sharp_sup(b, nu, r, sharp_maximal_r_norm(b, nu, r), gamma=0.25)
        family = rep.certificate
        pairs = []
        total = 0.0
        for s in family.cubes:
            ind = GridFunction.indicator(tree, s)
            g_vals = np.sign(u.apply(ind.values)) * ind.values
            pairs.append(ProbePair(s, ind, GridFunction(tree, g_vals), (s.corner, s.side), (s.corner, s.side)))
            sl = s.cell_slices()
            osc = float(np.abs(b.values[sl] - b.values[sl].mean()).sum() * tree.cell_volume)
            total += (0.5 * osc / nu.mass(s)) ** r * nu.mass(s)
        got = sequential_testing_functional(u, pairs, nu, r)
        assert got >= total ** (1.0 / r) * (1.0 - 1e-9)

    def test_geometry_violations_rejected(self):
        tree = DyadicTree(1, 5, 1.0)
        nu = Weight.lebesgue(tree)
        s = cell_cube(tree, 0)
        far = GridFunction.indicator(tree, cell_cube(tree, tree.n_cells - 1))
        box = (cell_cube(tree, tree.n_cells - 1).corner, s.side)
        with pytest.raises(LatticeError):
            sequential_testing_functional(
                paraproduct_handle(far), [ProbePair(s, far, far, box, box)], nu, 2.0
            )


class TestQgePTesting:
    def test_zero_operator(self):
        tree = DyadicTree(1, 4, 1.0)
        w = Weight.lebesgue(tree)
        t = BloomTriple(w, w, ExponentConfig(2.0, 2.0))
        assert q_ge_p_testing(zero_handle(tree), t).value == 0.0

    def test_half_split_floor(self):
        """Testing the paraproduct on its own split cube returns at least 1/2."""
        tree = DyadicTree(1, 5, 0.5)
        w = Weight.lebesgue(tree)
        t = BloomTriple(w, w, ExponentConfig(2.0, 2.0))
        b = half_split(tree, tree.root())
        rep = q_ge_p_testing(paraproduct_handle(b), t)
        assert rep.value >= 0.5 - 1e-12

    def test_brute_force_oracle(self):
        name, got, want, tol = oracles.q_ge_p_testing_brute_force()
        assert got == pytest.approx(want, rel=tol)

    def test_bounded_by_joint_characteristic_times_norm(self, rng):
        """Per instance: testing <= lower joint constant times the indicator norm sup."""
        from dyadlab.weights import lower_joint_characteristic

        tree = DyadicTree(1, 4, 1.0)
        for _ in range(5):
            mu = Weight(tree, rng.uniform(0.5, 2.0, tree.shape))
            lam = Weight(tree, rng.uniform(0.5, 2.0, tree.shape))
            t = BloomTriple(mu, lam, ExponentConfig(2.0, 2.5))
            b = GridFunction(tree, rng.normal(size=tree.shape))
            rep = q_ge_p_testing(paraproduct_handle(b), t)
            bound = lower_joint_characteristic(t) * rep.details["max_indicator_ratio"]
            assert rep.value <= bound * (1.0 + 1e-9)

    def test_regime_guard(self):
        tree = DyadicTree(1, 3, 1.0)
        w = Weight.lebesgue(tree)
        t = BloomTriple(w, w, ExponentConfig(3.0, 2.0))
        with pytest.raises(ValueError):
            q_ge_p_testing(zero_handle(tree), t)


class TestWeightNecessity:
    def test_hand_arithmetic(self):
        name, got, want, tol = oracles.weight_necessity_hand()
        assert got == pytest.approx(want, rel=tol)

    def test_flat_triple_consistent(self):
        tree = DyadicTree(1, 4, 1.0)
        w = Weight.lebesgue(tree)
        t = BloomTriple(w, w, ExponentConfig(2.0, 2.0))
        rep = weight_necessity_bound(1.0, t, tree.root())
        assert rep.value == pytest.approx(1.0)
        assert rep.details["consistent"] == 1.0

    def test_power_battery_below_joint_characteristic(self, rng):
        tree = DyadicTree(1, 6, 1.0)
        cfg = ExponentConfig(4.0, 2.0)
        for _ in range(10):
            a = float(rng.uniform(-0.5, 2.5))
            c = float(rng.uniform(-0.5, 0.8))
            t = BloomTriple(Weight.power_weight(tree, a), Weight.power_weight(tree, c), cfg)
            level = int(rng.integers(0, tree.depth - 1))
            q = Cube(tree, level, (int(rng.integers(0, 2**level)),))
            rep = weight_necessity_bound(10.0, t, q)
            assert rep.value <= upper_joint_characteristic(t) * (1.0 + 1e-9)

    def test_sharp_norm_of_half_split_controlled(self):
        """The canonical test function's sharp norm obeys the r'-scaled mass bound."""
        tree = DyadicTree(1, 6, 1.0)
        cfg = ExponentConfig(4.0, 2.0)
        nu = Weight.power_weight(tree, 1.0 / 3.0)
        rc = cfg.r / (cfg.r - 1.0)
        for level, index in ((1, 1), (2, 2), (3, 5)):
            q = Cube(tree, level, (index,))
            b = half_split(tree, q)
            phi = sharp_maximal_r_norm(b, nu, cfg.r).value
            assert phi <= rc * q.volume / nu.mass(q) ** cfg.bloom_exponent * (1.0 + 1e-9)

    def test_leaf_rejected(self):
        tree = DyadicTree(1, 3, 1.0)
        w = Weight.lebesgue(tree)
        t = BloomTriple(w, w, ExponentConfig(2.0, 2.0))
        with pytest.raises(LatticeError):
            weight_necessity_bound(1.0, t, cell_cube(tree, 0))


@pytest.fixture(scope="module")
def setting():
    tree = DyadicTree(1, 6, 1.0)
    cfg = ExponentConfig(4.0, 2.0)
    mu = Weight.power_weight(tree, 1.0)
    lam = Weight.power_weight(tree, 0.25)
    return tree, cfg, BloomTriple(mu, lam, cfg)


class TestTwoSidedEstimateShadows:
    """Battery-wide shadows of the two-sided weighted estimates (q < p).

    Empirical operator norms are certified lower bounds, so each shadow is
    an inequality against a frozen battery constant from the first
    calibration run, with the observed slack logged via the tolerance.
    """

    def test_sparse_operator_bloom_bound(self, setting, rng):
        from dyadlab.scenarios import spiky_field
        from dyadlab.sparse import paraproduct_sparse_dominate
        from dyadlab.weights import ap_characteristic

        tree, cfg, t = setting
        cap = (
            ap_characteristic(t.mu, cfg.p) ** max(1.0, 1.0 / (cfg.p - 1.0))
            * ap_characteristic(t.lam, cfg.q) ** max(1.0, 1.0 / (cfg.q - 1.0))
        )
        for _ in range(20):
            b = spiky_field(tree, rng, 2.0)
            f = spiky_field(tree, rng, 2.0)
            fam = paraproduct_sparse_dominate(
                spiky_field(tree, rng, 2.5), spiky_field(tree, rng, 2.5)
            )
            phi = sharp_maximal_r_norm(b, t.nu, cfg.r).value
            if phi == 0.0:
                continue
            out = GridFunction(tree, oracles.reference_sparse_op(b, f, fam.cubes, "adjoint"))
            ratio = lp_norm(out, t.lam, cfg.q) / (lp_norm(f, t.mu, cfg.p) * phi)
            assert ratio <= 1.0 * cap  # battery constant frozen at 1.0

    def test_paraproduct_upper_shadow(self, setting, rng):
        from dyadlab.scenarios import make_family
        from dyadlab.weights import fujii_wilson_ainfty, upper_joint_characteristic

        tree, cfg, t = setting
        rhs_chars = (
            upper_joint_characteristic(t)
            * fujii_wilson_ainfty(t.mu_dual, Weight.lebesgue(tree)) ** (1.0 / cfg.p)
            * fujii_wilson_ainfty(t.lam, Weight.lebesgue(tree)) ** (1.0 / cfg.q_conj)
            * fujii_wilson_ainfty(t.nu, Weight.lebesgue(tree)) ** (1.0 / cfg.r)
        )
        for i, b in enumerate(make_family("random-haar", tree, 8, rng)):
            phi = sharp_maximal_r_norm(b, t.nu, cfg.r).value
            if phi == 0.0:
                continue
            pp = empirical_operator_norm(
                paraproduct_handle(b), t.mu, t.lam, cfg.p, cfg.q, tree,
                restarts=8, iterations=35, seed=i,
            ).value
            assert pp <= 2.0 * rhs_chars * phi  # battery constant frozen at 2.0

    def test_necessity_shadow(self, setting, rng):
        from dyadlab.scenarios import make_family
        from dyadlab.weights import fujii_wilson_ainfty, lower_joint_characteristic

        tree, cfg, t = setting
        rhs_chars = (
            lower_joint_characteristic(t)
            * fujii_wilson_ainfty(t.mu, t.nu) ** (1.0 / cfg.p_conj)
            * fujii_wilson_ainfty(t.lam_dual, t.nu) ** (1.0 / cfg.q)
        )
        slacks = []
        for i, b in enumerate(make_family("random-haar", tree, 8, rng)):
            ds = discretized_sharp_sup(b, t.nu, cfg.r, sharp_maximal_r_norm(b, t.nu, cfg.r), gamma=0.25)
            if not ds.details["sparse_ok"] or ds.value == 0.0:
                continue
            pp = empirical_operator_norm(
                paraproduct_handle(b), t.mu, t.lam, cfg.p, cfg.q, tree,
                restarts=8, iterations=35, seed=100 + i,
            ).value
            bound = 2.0 * rhs_chars * pp  # battery constant frozen at 2.0
            assert ds.value <= bound
            slacks.append(bound / ds.value)
        assert slacks and min(slacks) >= 1.0  # slack logged, never below one


class TestFeffermanStein:
    def test_constant_b_both_zero(self):
        tree = DyadicTree(1, 5, 1.0)
        rep = fefferman_stein_check(GridFunction.constant(tree, 1.0), Weight.lebesgue(tree), 4.0)
        assert rep["sharp_norm"] == 0.0 and rep["multiplier_norm"] == pytest.approx(0.0, abs=1e-10)

    def test_flat_weight_classical_ratio(self):
        """Unweighted comparability: both directions bounded for a rough b."""
        tree = DyadicTree(1, 7, 1.0)
        rng = np.random.default_rng(4)
        b = GridFunction(tree, rng.normal(size=tree.shape))
        rep = fefferman_stein_check(b, Weight.lebesgue(tree), 4.0)
        assert 0.05 < rep["ratio_sharp_over_mult"] < 20.0
        assert rep["chain_increments"][-1] <= rep["chain_increments"][0] + 10.0  # diagnostics exist

    def test_inside_class_depth_stable(self):
        """nu inside the r'-window: the two-direction ratios settle with depth."""
        vals = []
        for n in (6, 8, 10):
            tree = DyadicTree(1, n, 4.0)
            b = GridFunction.ball_indicator(tree, 1.0)
            rep = fefferman_stein_check(b, Weight.power_weight(tree, 0.1), 4.0)
            vals.append(rep["ratio_mult_over_sharp"])
        assert max(vals) / min(vals) < 1.35
