"""The lockstep operator-norm estimator against the sequential ascent, bit for bit.

`norms.empirical_operator_norms` streams the starts of a family of
operators through one row pool, and `norms.empirical_operator_norm` is its
one-member call; `oracles.reference_empirical_operator_norm` runs the same
ascent one start of one operator at a time.  Value, certificate, trace and
details must be equal, not close.  Against
`oracles.reference_empirical_operator_norm_per_trial`, which applies U to
every line-search trial instead of taking its image by linearity, they
must agree to float reordering.
"""

import numpy as np
import pytest

from dyadlab import norms, scenarios
from dyadlab.lattice import DyadicTree, GridFunction
from dyadlab.norms import empirical_operator_norm, empirical_operator_norms, lp_norm
from dyadlab.operators import OperatorHandle, commutator_handle, paraproduct_handle
from dyadlab.scenarios import ScenarioConfig, make_family, run_bloom_comparability
from dyadlab.weights import Weight

from oracles import (
    identity_handle,
    multiplication_handle,
    reference_empirical_operator_norm,
    reference_empirical_operator_norm_per_trial,
    zero_handle,
)

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


# the handles, weights and exponents of the sequential match and of its drift guard
ASCENT_CASES = pytest.mark.parametrize("pq", [(4.0, 2.0), (2.0, 3.0)], ids=["q<p", "p<q"])
ASCENT_WEIGHTS = pytest.mark.parametrize("weights", ["lebesgue", "power"])
ASCENT_HANDLES = pytest.mark.parametrize("name,dim", [
    ("paraproduct", "d1"), ("paraproduct", "d2"), ("commutator", "d1"),
    ("multiply", "d1"), ("multiply", "d2"), ("identity", "d1"), ("zero", "d2"),
])


def _ascent_case(rng, name, dim, weights):
    tree = TREES[dim]
    U = _handle(name, tree, rng)
    mu = Weight.power_weight(tree, 1.0) if weights == "power" else None
    lam = Weight.power_weight(tree, -0.5) if weights == "power" else None
    return U, mu, lam, tree


@ASCENT_CASES
@ASCENT_WEIGHTS
@ASCENT_HANDLES
def test_matches_sequential_ascent(rng, name, dim, weights, pq):
    U, mu, lam, tree = _ascent_case(rng, name, dim, weights)
    got, want = _both(U, mu, lam, *pq, tree, restarts=14, iterations=10, seed=3)
    _assert_same(got, want)
    if name == "zero":
        assert got.value == 0.0 and got.details["ratio_evals"] == 0.0


def _assert_within_reordering(got, want):
    """Value and every trace entry within 1e-12 relative; the same trials and starts."""
    for a, b in zip([got.value] + got.trace, [want.value] + want.trace, strict=True):
        assert abs(a - b) <= 1e-12 * max(abs(a), abs(b)), (a, b)
    assert got.details == want.details


@ASCENT_CASES
@ASCENT_WEIGHTS
@ASCENT_HANDLES
def test_stays_within_reordering_of_one_apply_per_trial(rng, name, dim, weights, pq):
    """Trial images by linearity move the ascent by float reordering only: against the
    ascent that applies U to every trial, the value and each trace entry agree to 1e-12
    relative, and `ratio_evals` and `restarts` are equal."""
    U, mu, lam, tree = _ascent_case(rng, name, dim, weights)
    got = empirical_operator_norm(U, mu, lam, *pq, tree, restarts=14, iterations=10, seed=3)
    _assert_within_reordering(got, reference_empirical_operator_norm_per_trial(
        U, mu, lam, *pq, tree, restarts=14, iterations=10, seed=3))


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
    """Pools of 1, 3 and 7 rows refill as the 16 to 30 starts finish; one pool holds all."""
    tree = TREES[dim]
    monkeypatch.setattr(norms, "_GROUP_CELLS", cells_per_group * tree.n_cells)
    U = _handle("paraproduct", tree, rng)
    extras = [np.zeros(tree.shape)]
    got, want = _both(U, Weight.power_weight(tree, 1.0), None, 4.0, 2.0, tree,
                      restarts=16, iterations=8, extra_starts=extras)
    _assert_same(got, want)


def _counterexample_depth_ten():
    tree = DyadicTree(1, 10, 4.0)
    b = GridFunction.ball_indicator(tree, 1.0)
    mu = Weight.power_weight(tree, 1.0)
    extra = (np.abs(b.values - 0.5) + 0.25) * mu.density ** (-0.5)
    return (paraproduct_handle(b), mu, Weight.lebesgue(tree), 4.0, 2.0, tree), dict(
        restarts=8, iterations=35, seed=1, extra_starts=[extra])


def test_counterexample_depth_ten_member():
    """The counterexample's depth-10 paraproduct estimate, where an array power of the
    per-start norms moves the value's last bit."""
    args, kwargs = _counterexample_depth_ten()
    _assert_same(*_both(*args, **kwargs))


def test_counterexample_depth_ten_member_stays_within_reordering():
    """The depth-10 member's 35 iterations carry Uv through every accepted trial by
    linearity; it stays within 1e-12 of the ascent that applies U to every trial."""
    args, kwargs = _counterexample_depth_ten()
    _assert_within_reordering(empirical_operator_norm(*args, **kwargs),
                              reference_empirical_operator_norm_per_trial(*args, **kwargs))


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


# -- one pool for a family of operators -------------------------------------------------

FAMILY_HANDLES = {"paraproduct": paraproduct_handle, "commutator": commutator_handle}


def _recording(handle_for, calls: list):
    """handle_for, recording the members of the rows of every stack it is handed."""
    def record(which):
        inner = handle_for(which)

        def counted(op):
            def call(v):
                assert len(v) == len(which)
                calls.append(list(which))
                return op(v)
            return call

        return OperatorHandle(inner.name, counted(inner.apply), counted(inner.adjoint))
    return record


@pytest.mark.parametrize("iterations", [0, 1, 7])
@pytest.mark.parametrize("rows", [3, None], ids=["3-rows", "cap"])
@pytest.mark.parametrize("name,dim", [
    ("paraproduct", "d1"), ("commutator", "d1"), ("paraproduct", "d2"),
])
def test_family_matches_each_member_alone(rng, monkeypatch, name, dim, rows, iterations):
    """Every member's report equals its own sequential ascent: per-member seeds and
    extras (zero-norm ones among them), a constant b whose operator is zero, and random
    starts past the structured ones.  With 3 rows a member's starts span refills and
    members share stacks; at the default cap every start of a member fits at once."""
    tree = TREES[dim]
    if rows is not None:
        monkeypatch.setattr(norms, "_GROUP_CELLS", rows * tree.n_cells)
    bs = [GridFunction(tree, rng.normal(size=tree.shape)) for _ in range(3)]
    bs.insert(1, GridFunction.constant(tree, 2.0))
    seeds = [3, 8, 5, 21]
    extras = [[], [np.zeros(tree.shape)], [rng.normal(size=tree.shape), np.zeros(tree.shape)], []]
    restarts = len(list(norms._structured_starts(tree))) + 5
    mu, lam = Weight.power_weight(tree, 1.0), Weight.power_weight(tree, -0.5)
    make = FAMILY_HANDLES[name]
    calls: list = []
    got = empirical_operator_norms(_recording(make(bs), calls), mu, lam, 4.0, 2.0,
                                   restarts=restarts, iterations=iterations, seeds=seeds,
                                   extra_starts=extras)
    assert len(got) == len(bs)
    for k, b in enumerate(bs):
        want = reference_empirical_operator_norm(make(b), mu, lam, 4.0, 2.0, tree,
                                                 restarts=restarts, iterations=iterations,
                                                 seed=seeds[k], extra_starts=extras[k])
        _assert_same(got[k], want)
        assert got[k].details["restarts"] == restarts
    assert got[1].value == 0.0
    assert any(len(set(which)) > 1 for which in calls)
    if rows is not None:
        assert max(len(which) for which in calls) == rows


@pytest.mark.parametrize("dim,depth", [(1, 5), (2, 3)])
def test_bloom_pools_match_each_member_alone(tmp_path, monkeypatch, dim, depth):
    """bloom runs one pool per operator family (the commutator's at d = 1 only).  Every
    member's norms equal its own `empirical_operator_norm` calls exactly, and every
    certificate re-evaluates to its value within 1e-12."""
    cfg = ScenarioConfig(dim=dim, depth=depth, family_size=4, b_family="mixed", mu="power(1.0)",
                         restarts=12, iterations=6, seed=7, out_dir=str(tmp_path))
    family, pools = [], []

    def spy_family(*args):
        family.extend(make_family(*args))
        return family

    def spy_pool(handle_for, *args, **kwargs):
        reports = empirical_operator_norms(handle_for, *args, **kwargs)
        pools.append((handle_for, reports))
        return reports

    monkeypatch.setattr(scenarios, "make_family", spy_family)
    monkeypatch.setattr(scenarios, "empirical_operator_norms", spy_pool)
    members = run_bloom_comparability(cfg)["members"]

    tree = cfg.tree()
    mu, lam = Weight.power_weight(tree, 1.0), Weight.lebesgue(tree)
    kinds = [("paraproduct_norm", paraproduct_handle), ("commutator_norm", commutator_handle)]
    assert len(pools) == (2 if dim == 1 else 1)
    for (key, make), (handle_for, reports) in zip(kinds, pools):
        for i, (b, member, rep) in enumerate(zip(family, members, reports, strict=True)):
            alone = empirical_operator_norm(make(b), mu, lam, cfg.p, cfg.q, tree,
                                            restarts=cfg.restarts, iterations=cfg.iterations,
                                            seed=cfg.seed + i)
            assert member[key] == rep.value == alone.value
            v = rep.certificate
            u = handle_for(np.array([i])).apply(v[None])[0]
            value = lp_norm(GridFunction(tree, u), lam, cfg.q) / lp_norm(GridFunction(tree, v),
                                                                       mu, cfg.p)
            assert abs(value - rep.value) <= 1e-12 * max(abs(rep.value), 1e-300)
    if dim == 2:
        assert [m["commutator_norm"] for m in members] == [None] * len(members)


def test_bloom_round_structure_is_pinned(tmp_path, monkeypatch):
    """The pool's rounds on bloom.cfg with 6 members at seed 1 (the bloom-d1 benchmark
    workload): 196 apply calls carrying 2,698 rows and 193 adjoint calls carrying 2,578,
    over the paraproduct's and the commutator's pools.  They pin the round: one adjoint
    call for the rows that want a gradient, the refill of the free slots, one apply call
    for the nonzero gradients and the fresh rows, then each row's whole line search on
    images alone.  So the apply rows are the 120 live starts and the 2,578 gradients, where
    one apply per line-search trial made them 7,874 in 553 calls; the adjoint rows did not
    move.  Boyd's power method (ROADMAP item 1) replaces the line search and will change
    these counts on purpose."""
    cfg = ScenarioConfig(name="bloom-q-lt-p", dim=1, half_width_exponent=2, depth=8, p=4.0,
                         q=2.0, b_family="mixed", family_size=6, restarts=10, iterations=45,
                         mu="power(1.0)", lam="lebesgue", seed=1, out_dir=str(tmp_path))
    counts = {"apply": [0, 0], "adjoint": [0, 0]}

    def counting(handle_for):
        def counted_for(which):
            inner = handle_for(which)

            def counted(kind, op):
                def call(v):
                    counts[kind][0] += 1
                    counts[kind][1] += len(v)
                    return op(v)
                return call

            return OperatorHandle(inner.name, counted("apply", inner.apply),
                                  counted("adjoint", inner.adjoint))
        return counted_for

    def spy_pool(handle_for, *args, **kwargs):
        return empirical_operator_norms(counting(handle_for), *args, **kwargs)

    monkeypatch.setattr(scenarios, "empirical_operator_norms", spy_pool)
    run_bloom_comparability(cfg)
    assert counts == {"apply": [196, 2698], "adjoint": [193, 2578]}


def test_counterexample_certificates_reevaluate(tmp_path, monkeypatch):
    """counterexample.cfg as shipped at seed 1 (the counterexample-d1 benchmark workload):
    depths 4-12, 8 restarts, 35 iterations.  Each depth's paraproduct and commutator
    estimates carry Uv by linearity through up to 35 accepted trials; all 10 certificates
    re-evaluate through their handles to their values within 1e-12."""
    cfg = ScenarioConfig(name="counterexample", dim=1, half_width_exponent=2, depth=12,
                         depth_min=4, p=4.0, q=2.0, restarts=8, iterations=35, seed=1,
                         out_dir=str(tmp_path))
    estimates = []

    def spy(U, mu, lam, p, q, tree, **kwargs):
        rep = empirical_operator_norm(U, mu, lam, p, q, tree, **kwargs)
        estimates.append((U, mu, lam, p, q, tree, rep))
        return rep

    monkeypatch.setattr(scenarios, "empirical_operator_norm", spy)
    scenarios.run_counterexample(cfg)
    assert [e[5].depth for e in estimates] == [4, 4, 6, 6, 8, 8, 10, 10, 12, 12]
    for U, mu, lam, p, q, tree, rep in estimates:
        v = rep.certificate
        value = lp_norm(GridFunction(tree, U.apply(v)), lam, q) / lp_norm(GridFunction(tree, v),
                                                                           mu, p)
        assert abs(value - rep.value) <= 1e-12 * rep.value, (tree.depth, U.name)
