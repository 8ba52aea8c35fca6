"""The lockstep operator-norm estimator against the sequential ascent, bit for bit.

`norms.empirical_operator_norm` runs its starts in lockstep groups;
`oracles.reference_empirical_operator_norm` runs the same ascent one start
at a time.  Value, certificate, trace and details must be equal, not close.
"""

import numpy as np
import pytest

from dyadlab import norms
from dyadlab.lattice import DyadicTree, GridFunction
from dyadlab.norms import empirical_operator_norm
from dyadlab.operators import (
    OperatorHandle,
    commutator_handle,
    identity_handle,
    multiplication_handle,
    paraproduct_handle,
    zero_handle,
)
from dyadlab.weights import Weight

from oracles import reference_empirical_operator_norm

pytestmark = pytest.mark.filterwarnings("error")

TREES = {"d1": DyadicTree(1, 5, 4.0), "d2": DyadicTree(2, 3, 2.0)}


def _handle(name: str, tree: DyadicTree, rng) -> OperatorHandle:
    if name == "identity":
        return identity_handle(tree)
    if name == "zero":
        return zero_handle(tree)
    b = GridFunction(tree, rng.normal(size=tree.shape))
    return {
        "paraproduct": paraproduct_handle,
        "multiply": multiplication_handle,
        "commutator": commutator_handle,
    }[name](b)


def _assert_same(got, want):
    assert got.value == want.value
    assert np.array_equal(got.certificate, want.certificate)
    assert got.trace == want.trace
    assert got.details == want.details
    assert got.method == want.method


def _both(U, mu, lam, p, q, tree, **kwargs):
    return (empirical_operator_norm(U, mu, lam, p, q, tree, **kwargs),
            reference_empirical_operator_norm(U, mu, lam, p, q, tree, **kwargs))


@pytest.mark.parametrize("pq", [(4.0, 2.0), (2.0, 3.0)], ids=["q<p", "p<q"])
@pytest.mark.parametrize("weights", ["lebesgue", "power"])
@pytest.mark.parametrize("name,dim", [
    ("paraproduct", "d1"), ("paraproduct", "d2"), ("commutator", "d1"),
    ("multiply", "d1"), ("multiply", "d2"), ("identity", "d1"), ("zero", "d2"),
])
def test_matches_sequential_ascent(rng, name, dim, weights, pq):
    tree = TREES[dim]
    U = _handle(name, tree, rng)
    mu = Weight.power_weight(tree, 1.0) if weights == "power" else None
    lam = Weight.power_weight(tree, -0.5) if weights == "power" else None
    got, want = _both(U, mu, lam, *pq, tree, restarts=14, iterations=10, seed=3)
    _assert_same(got, want)
    if name == "zero":
        assert got.value == 0.0 and got.details["ratio_evals"] == 0.0


@pytest.mark.parametrize("iterations", [0, 1, 7])
def test_zero_and_extra_starts(rng, iterations):
    """An all-zero start adds no trace entry; extras run in their place among the starts."""
    tree = TREES["d1"]
    U = _handle("paraproduct", tree, rng)
    extras = [np.zeros(tree.shape), rng.normal(size=tree.shape), np.zeros(tree.shape)]
    got, want = _both(U, None, None, 3.0, 2.0, tree, restarts=16, iterations=iterations,
                      extra_starts=extras)
    _assert_same(got, want)
    assert len(got.trace) == got.details["restarts"] - 2
    if iterations == 0:
        assert got.details["ratio_evals"] == 0.0


@pytest.mark.parametrize("cells_per_group", [1, 3, 7, 10_000])
@pytest.mark.parametrize("dim", ["d1", "d2"])
def test_uneven_groups(rng, monkeypatch, dim, cells_per_group):
    """Groups of 1, 3 and 7 starts split the 16 to 30 starts unevenly; one group holds all."""
    tree = TREES[dim]
    monkeypatch.setattr(norms, "_GROUP_CELLS", cells_per_group * tree.n_cells)
    U = _handle("paraproduct", tree, rng)
    extras = [np.zeros(tree.shape)]
    got, want = _both(U, Weight.power_weight(tree, 1.0), None, 4.0, 2.0, tree,
                      restarts=16, iterations=8, extra_starts=extras)
    _assert_same(got, want)


def test_counterexample_depth_ten_member():
    """The counterexample's depth-10 paraproduct estimate, where an array power of the
    per-start norms moves the value's last bit."""
    tree = DyadicTree(1, 10, 4.0)
    b = GridFunction.ball_indicator(tree, 1.0)
    mu = Weight.power_weight(tree, 1.0)
    extra = (np.abs(b.values - 0.5) + 0.25) * mu.density ** (-0.5)
    got, want = _both(paraproduct_handle(b), mu, Weight.lebesgue(tree), 4.0, 2.0, tree,
                      restarts=8, iterations=35, seed=1, extra_starts=[extra])
    _assert_same(got, want)


def test_handle_sees_every_call_as_a_stack(rng):
    """The estimator calls the handle it is given, a stack of rows at a time, in fewer calls."""
    tree = TREES["d1"]
    inner = _handle("paraproduct", tree, rng)
    shapes = []

    def counted(op):
        def call(v):
            shapes.append(v.shape)
            return op(v)
        return call

    U = OperatorHandle("counted", counted(inner.apply), counted(inner.adjoint))
    got = empirical_operator_norm(U, None, None, 3.0, 2.0, tree, restarts=12, iterations=6)
    lockstep_calls = len(shapes)
    assert all(len(s) == 2 and s[1:] == tree.shape for s in shapes)
    assert max(s[0] for s in shapes) > 1
    shapes.clear()
    want = reference_empirical_operator_norm(U, None, None, 3.0, 2.0, tree, restarts=12,
                                             iterations=6)
    _assert_same(got, want)
    assert lockstep_calls < len(shapes)
