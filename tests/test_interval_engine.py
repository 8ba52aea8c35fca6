"""The d = 1 interval engine against the Fraction references in `oracles`.

Power weights and Lebesgue measure reproduce the references bit for bit:
the engine sums the same overlap rows in the same order.  Two cases agree
to rounding only (relative 1e-12): other weights, whose partial cells get
their cell mass times the covered fraction where the reference multiplies
density by overlap; and functionals that raise whole arrays to a power,
where numpy's vectorized power may differ from the scalar one by an ulp.
"""

from fractions import Fraction

import numpy as np
import pytest

from dyadlab.lattice import DyadicTree, GridFunction, LatticeError, shifted_intervals_1d
from dyadlab.norms import bmo_alpha_norm, sharp_maximal_r_norm
from dyadlab.operators import maximal, sharp_maximal, sharp_window_values
from dyadlab.weights import Weight, ap_characteristic, power_weight_cube_lower_bound

import oracles

DEPTHS = (0, 1, 3, 6)
WEIGHTS = ("power(1/3)", "power(-0.5)", "power(-1.2)", "piecewise")
CASES = [(d, s) for d in DEPTHS for s in WEIGHTS]


def _weight(tree: DyadicTree, spec: str) -> Weight:
    if spec == "piecewise":
        rng = np.random.default_rng(tree.depth + 11)
        return Weight.from_density(tree, rng.uniform(0.2, 3.0, tree.shape))
    gamma = {"power(1/3)": 1.0 / 3.0, "power(-0.5)": -0.5, "power(-1.2)": -1.2}[spec]
    return Weight.power_weight(tree, gamma)


def _field(tree: DyadicTree) -> GridFunction:
    rng = np.random.default_rng(100 + tree.depth)
    return GridFunction(tree, rng.normal(size=tree.shape))


def _assert_matches(got, want, exact: bool):
    if exact:
        np.testing.assert_array_equal(got, want)
    else:
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=0.0)


@pytest.mark.parametrize("depth", DEPTHS)
def test_integer_endpoints_are_the_lattice_endpoints(depth):
    tree = DyadicTree(1, depth, 4.0)
    sixth = Fraction(tree.cell_side) / 6
    families = list(shifted_intervals_1d(tree))
    reference = list(oracles.reference_shifted_intervals(tree))
    assert len(families) == len(reference)
    for (lo, hi), (_, _, pairs) in zip(families, reference):
        assert lo.dtype.kind == "i" and hi.dtype.kind == "i"
        got = [(int(a) * sixth, int(b) * sixth) for a, b in zip(lo, hi)]
        assert got == pairs


@pytest.mark.parametrize("depth, spec", CASES)
def test_shifted_sharp_maximal(depth, spec):
    tree = DyadicTree(1, depth, 4.0)
    b, nu = _field(tree), _weight(tree, spec)
    dyadic = sharp_maximal(b, nu).values
    got = sharp_maximal(b, nu, scope="shifted").values
    want = np.maximum(dyadic, oracles.reference_shifted_sharp_sup(b, nu))
    _assert_matches(got, want, exact=spec != "piecewise")


@pytest.mark.parametrize("depth, spec", CASES)
def test_window_sharp_maximal(depth, spec):
    tree = DyadicTree(1, depth, 4.0)
    b, nu = _field(tree), _weight(tree, spec)
    shifted = sharp_maximal(b, nu, scope="shifted").values
    got = sharp_maximal(b, nu, scope="window").values
    want = np.maximum(shifted, oracles.reference_sliding_sharp_sup(b, nu))
    _assert_matches(got, want, exact=spec != "piecewise")


@pytest.mark.parametrize("depth, spec", CASES)
def test_sharp_window_values(depth, spec):
    tree = DyadicTree(1, depth, 4.0)
    b, nu = _field(tree), _weight(tree, spec)
    xs = np.array([-3.7, -0.3, 0.0, 1.1, 2.5, 3.9])
    got = sharp_window_values(b, nu, xs, n_left=24)
    want = oracles.reference_sharp_window_values(b, nu, xs, n_left=24)
    _assert_matches(got, want, exact=spec != "piecewise")


@pytest.mark.parametrize("depth, spec", [(d, None) for d in DEPTHS] + CASES)
def test_shifted_maximal(depth, spec):
    tree = DyadicTree(1, depth, 4.0)
    f = _field(tree)
    w = Weight.lebesgue(tree) if spec is None else _weight(tree, spec)
    got = maximal(f, w, scope="shifted").values
    want = np.maximum(maximal(f, w).values, oracles.reference_shifted_average_sup(f.abs(), w))
    _assert_matches(got, want, exact=True)


@pytest.mark.parametrize("depth, spec", CASES)
def test_shifted_bmo_alpha(depth, spec):
    tree = DyadicTree(1, depth, 4.0)
    b, nu = _field(tree), _weight(tree, spec)
    got = bmo_alpha_norm(b, nu, -0.25, scope="shifted")
    want = max(bmo_alpha_norm(b, nu, -0.25), oracles.reference_bmo_shifted(b, nu, -0.25))
    _assert_matches(got, want, exact=False)


@pytest.mark.parametrize("depth, spec", CASES)
def test_shifted_ap_characteristic(depth, spec):
    tree = DyadicTree(1, depth, 4.0)
    w = _weight(tree, spec)
    got = ap_characteristic(w, 2.5, scope="shifted")
    want = max(ap_characteristic(w, 2.5), oracles.reference_ap_shifted(w, 2.5))
    _assert_matches(got, want, exact=False)


@pytest.mark.parametrize(
    "depth, gamma", [(d, g) for d in DEPTHS for g in (0.0, 1.0 / 3.0, 1.5)]
)
def test_shifted_cube_lower_bound(depth, gamma):
    tree = DyadicTree(1, depth, 4.0)
    got = power_weight_cube_lower_bound(tree, gamma)
    want = max(
        power_weight_cube_lower_bound(tree, gamma, scope="dyadic"),
        oracles.reference_cube_lower_bound_shifted(tree, gamma),
    )
    _assert_matches(got, want, exact=False)


class TestCubeLowerBoundScope:
    def test_unknown_scope_is_refused(self):
        with pytest.raises(ValueError, match="unknown scope"):
            power_weight_cube_lower_bound(DyadicTree(1, 4, 1.0), 0.5, scope="bogus")

    def test_shifted_scope_is_refused_above_d1(self):
        with pytest.raises(LatticeError, match="d=1 only"):
            power_weight_cube_lower_bound(DyadicTree(2, 3, 1.0), 0.5)

    def test_dyadic_scope_runs_in_d2(self):
        assert power_weight_cube_lower_bound(DyadicTree(2, 3, 1.0), 0.5, scope="dyadic") > 0.0


# every scoped functional, as (b, nu, scope) -> its value or its cell array
SCOPED = {
    "maximal": lambda b, nu, scope: maximal(b, nu, scope=scope).values,
    "sharp_maximal": lambda b, nu, scope: sharp_maximal(b, nu, scope).values,
    "sharp_maximal_r_norm": lambda b, nu, scope: sharp_maximal_r_norm(b, nu, 2.0, scope).value,
    "bmo_alpha_norm": lambda b, nu, scope: bmo_alpha_norm(b, nu, 0.25, scope),
    "ap_characteristic": lambda b, nu, scope: ap_characteristic(nu, 2.5, scope),
}


class TestScopeVocabulary:
    """Every scoped functional takes the same three scopes and refuses the same way."""

    @pytest.mark.parametrize("name", SCOPED)
    def test_unknown_scope_is_refused(self, name):
        tree = DyadicTree(1, 4, 1.0)
        with pytest.raises(ValueError, match="unknown scope"):
            SCOPED[name](_field(tree), _weight(tree, "power(1/3)"), "bogus")

    @pytest.mark.parametrize("scope", ["shifted", "window"])
    @pytest.mark.parametrize("name", SCOPED)
    def test_non_dyadic_scope_is_refused_above_d1(self, name, scope):
        tree = DyadicTree(2, 3, 1.0)
        b = GridFunction(tree, np.random.default_rng(5).normal(size=tree.shape))
        with pytest.raises(LatticeError, match="d=1 only"):
            SCOPED[name](b, Weight.power_weight(tree, 0.5), scope)

    @pytest.mark.parametrize("name", SCOPED)
    def test_values_grow_with_the_scope(self, name):
        """dyadic <= shifted <= window, cell by cell for the maximal functions."""
        tree = DyadicTree(1, 6, 4.0)
        b, nu = _field(tree), _weight(tree, "power(-0.5)")
        dyadic, shifted, window = (np.asarray(SCOPED[name](b, nu, scope))
                                   for scope in ("dyadic", "shifted", "window"))
        assert np.all(dyadic <= shifted) and np.all(shifted <= window)
        assert np.any(dyadic < window)
