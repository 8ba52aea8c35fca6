"""Peak memory of the d = 2 norm-report steps, measured with tracemalloc.

At d = 2, depth 8 (65,536 cells) one float per cell is 0.5 MiB.  The
quadrature's node norms, held for every cell at once, would be 50 MiB;
every step here must stay a small multiple of the cell count instead.
"""

import tracemalloc

import numpy as np
import pytest

from dyadlab import norms, weights
from dyadlab.lattice import DyadicTree, GridFunction
from dyadlab.norms import (
    discretized_sharp_sup,
    empirical_operator_norm,
    empirical_operator_norms,
    sharp_maximal_r_norm,
)
from dyadlab.operators import OperatorHandle, paraproduct_handle
from dyadlab.scenarios import make_family
from dyadlab.sparse import verify_sparse
from dyadlab.weights import Weight

MIB = 2**20


def _traced(fn, *args, **kwargs):
    """fn's result, the memory traced that it still holds, and the peak while it ran."""
    tracemalloc.start()
    try:
        out = fn(*args, **kwargs)
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return out, held, peak


def test_d2_power_weight_from_an_empty_plan_cache():
    """The plan build and one exponent at 65,536 cells stay below 8 MiB."""
    weights._quadrature_plan.cache_clear()
    tree = DyadicTree(2, 8, 4.0)
    w, _, peak = _traced(Weight.power_weight, tree, 1.0)
    assert w.cell_mass.shape == tree.shape
    assert peak < 8 * MIB


def test_estimator_peak_does_not_grow_with_restarts(rng):
    """With a one-row pool, tripling the starts adds no held rows."""
    tree = DyadicTree(2, 6, 4.0)
    assert norms._GROUP_CELLS // tree.n_cells == 1
    U = paraproduct_handle(GridFunction(tree, rng.normal(size=tree.shape)))
    mu = Weight.power_weight(tree, 1.0)
    peaks = []
    for restarts in (30, 90):
        report, _, peak = _traced(empirical_operator_norm, U, mu, None, 4.0, 2.0, tree,
                                  restarts=restarts, iterations=2)
        assert report.details["restarts"] == restarts
        peaks.append(peak)
    row = tree.n_cells * 8
    assert peaks[1] < peaks[0] + 4 * row


@pytest.mark.parametrize("depth,rows", [(8, 16), (12, 1)])
def test_estimator_pool_stays_within_its_cap(rng, depth, rows):
    """No stack the estimator hands to a handle exceeds max(1, _GROUP_CELLS // n_cells)
    rows, however many members share the pool, and the pool fills up to that cap."""
    tree = DyadicTree(1, depth, 4.0)
    assert max(1, norms._GROUP_CELLS // tree.n_cells) == rows
    inner = paraproduct_handle([GridFunction(tree, rng.normal(size=tree.shape)) for _ in range(3)])
    stacks = []

    def handle_for(which):
        handle = inner(which)

        def counted(op):
            def call(v):
                assert v.shape == (len(which),) + tree.shape
                stacks.append(len(v))
                return op(v)
            return call

        return OperatorHandle(handle.name, counted(handle.apply), counted(handle.adjoint))

    reports = empirical_operator_norms(handle_for, Weight.power_weight(tree, 1.0),
                                       Weight.lebesgue(tree), 4.0, 2.0,
                                       restarts=10, iterations=3, seeds=[1, 2, 3])
    assert [r.details["restarts"] for r in reports] == [10.0] * 3
    assert max(stacks) == rows


def test_verify_sparse_on_a_one_cube_sharp_sup_family():
    """The 65,536-claim family of `discretized_sharp_sup` checks in under 6 MiB."""
    tree = DyadicTree(2, 8, 4.0)
    b, nu = GridFunction.constant(tree, 1.0), Weight.power_weight(tree, 0.5)
    family = discretized_sharp_sup(b, nu, 4.0, sharp_maximal_r_norm(b, nu, 4.0)).certificate
    assert family.cubes == [tree.root()] and len(family.witnesses[0]) == tree.n_cells
    (ok, worst), _, peak = _traced(verify_sparse, family)
    assert ok and worst >= family.gamma
    assert peak < 6 * MIB


def test_sharp_sup_of_the_norms_d2_member():
    """M#_nu b and the sparse supremum of the d = 2, depth 8 member of the norm report
    together peak below 6 MiB; the supremum's report holds < 1 MiB.

    The certificate's witness is one packed int64 claim per cell (0.5 MiB
    at 65,536 cells).  The first call fills the module caches that every
    later call reuses (`sparse._draw_order`), so the second one is measured.
    """
    tree = DyadicTree(2, 8, 4.0)
    b = make_family("random-haar", tree, 1, np.random.default_rng(1))[0]
    nu = Weight.power_weight(tree, 1.0 / 3.0)

    def both():
        return discretized_sharp_sup(b, nu, 4.0, sharp_maximal_r_norm(b, nu, 4.0))

    both()
    report, held, peak = _traced(both)
    assert report.details["sparse_ok"] == 1.0
    assert sum(len(w) for w in report.certificate.witnesses) == tree.n_cells
    assert peak < 6 * MIB
    assert held < 1 * MIB
