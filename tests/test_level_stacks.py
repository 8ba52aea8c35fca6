"""Cube collections as per-level stacks, and the one-pass level sums.

The top-down pass adds each cell's terms in the order the per-level
broadcast loops in `oracles` did, so paraproduct, adjoint, martingale
transform (the paraproduct with symbol f and a coefficient stack, applied
to 1), envelope, oscillation levels and the Fujii-Wilson constant must
match those references bit for bit.  Operators taking a cube collection
are checked against per-cube loops built on `haar_difference` and slice
means, to relative 1e-12; the sparse operators, which exist only as such
loops, are checked against the level stacks they integrate to.  The sets
drawn by `random_subcollection` must select the cubes of the cube-by-cube
walks and leave the generator where those walks leave it.
"""

import numpy as np
import pytest

from dyadlab.lattice import Cube, DyadicTree, GridFunction, level_sums
from dyadlab.norms import discretized_sharp_sup, sharp_maximal_r_norm
from dyadlab.operators import (
    _averages_by_level,
    oscillation_levels,
    paraproduct,
    paraproduct_adjoint,
)
from dyadlab.scenarios import ScenarioConfig, make_family
from dyadlab.sparse import (
    FULL,
    SparseFamily,
    domination_bound,
    domination_envelope,
    family_from_text,
    family_to_text,
    paraproduct_sparse_dominate,
    partial_sums,
    random_subcollection,
    verify_sparse,
)
from dyadlab.weights import (
    BloomTriple,
    Weight,
    cube_stack,
    fujii_wilson_ainfty,
    parse_weight,
)

import oracles
from oracles import cell_cube

SHAPES = [(1, n) for n in (0, 1, 6, 12)] + [(2, n) for n in (1, 4, 7)]


def _fields(dim: int, depth: int, count: int, seed: int = 0) -> list[GridFunction]:
    tree = DyadicTree(dim, depth, 2.0)
    rng = np.random.default_rng(seed + 10 * dim + depth)
    return [GridFunction(tree, rng.standard_t(3, size=tree.shape)) for _ in range(count)]


def _assert_close(got: np.ndarray, want: np.ndarray):
    scale = max(float(np.abs(want).max(initial=0.0)), 1e-300)
    assert float(np.abs(got - want).max(initial=0.0)) <= 1e-12 * scale


# -- one-pass level sums, bit for bit ----------------------------------------------------


@pytest.mark.parametrize("dim,depth", SHAPES)
def test_paraproduct_and_adjoint_bit_identical(dim, depth):
    b, f = _fields(dim, depth, 2)
    assert np.array_equal(paraproduct(b, f).values, oracles.reference_paraproduct(b, f))
    assert np.array_equal(
        paraproduct_adjoint(b, f).values, oracles.reference_paraproduct_adjoint(b, f)
    )


@pytest.mark.parametrize("dim,depth", SHAPES)
def test_martingale_stack_bit_identical(dim, depth):
    (f,) = _fields(dim, depth, 1)
    rng = np.random.default_rng(depth)
    coeffs = [rng.choice([-1.0, 0.0, 0.5, 1.0], size=(2**k,) * dim) for k in range(depth + 1)]
    got = partial_sums(f, GridFunction.constant(f.tree, 1.0), coeffs)
    assert np.array_equal(got, oracles.reference_martingale_stack(f, coeffs))


@pytest.mark.parametrize("dim,depth", SHAPES)
def test_envelope_bit_identical(dim, depth):
    b, f = _fields(dim, depth, 2)
    want = oracles.reference_envelope(b, f, b.tree.root())
    assert np.array_equal(domination_envelope(b, f), want)


@pytest.mark.parametrize("dim,depth", SHAPES)
def test_oscillation_levels_bit_identical(dim, depth):
    (b,) = _fields(dim, depth, 1)
    got, want = oscillation_levels(b), oracles.reference_oscillation_levels(b)
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert np.array_equal(g, w)


@pytest.mark.parametrize("dim,depth", SHAPES)
def test_fujii_wilson_bit_identical(dim, depth):
    tree = DyadicTree(dim, depth, 2.0)
    rng = np.random.default_rng(depth + 7 * dim)
    w = Weight(tree, np.exp(rng.normal(size=tree.shape)))
    mu = Weight(tree, np.exp(rng.normal(size=tree.shape)))
    assert fujii_wilson_ainfty(w, mu) == oracles.reference_fujii_wilson(w, mu)
    # the reference keeps the scalar Lebesgue volumes
    assert fujii_wilson_ainfty(w, Weight.lebesgue(tree)) == oracles.reference_fujii_wilson(w, None)


# -- cube collections against per-cube loops ---------------------------------------------


def _collections(tree: DyadicTree) -> dict[str, list[Cube]]:
    rng = np.random.default_rng(tree.depth)
    every = list(tree.cubes())
    some = [every[i] for i in rng.choice(len(every), size=min(len(every), 9), replace=False)]
    leaf = cell_cube(tree, tree.n_cells - 1)
    return {
        "empty": [],
        "random": some,
        "repeated": some + some[:3] + [tree.root()],
        "leaves": [leaf, cell_cube(tree, 0), leaf],
        "all": every,
    }


COLLECTION_SHAPES = [(1, 0), (1, 1), (1, 6), (2, 1), (2, 4)]


@pytest.mark.parametrize("dim,depth", COLLECTION_SHAPES)
def test_partial_paraproduct_against_cube_loop(dim, depth):
    b, f = _fields(dim, depth, 2, seed=1)
    for cubes in _collections(b.tree).values():
        want = oracles.reference_partial_paraproduct(b, f, cubes)
        _assert_close(partial_sums(b, f, cube_stack(b.tree, cubes)), want)
    leaves = cube_stack(b.tree, _collections(b.tree)["leaves"])
    assert np.array_equal(partial_sums(b, f, leaves), np.zeros(b.tree.shape))


@pytest.mark.parametrize("dim,depth", COLLECTION_SHAPES)
@pytest.mark.parametrize("variant", ["plain", "adjoint"])
def test_sparse_op_against_cube_loop(dim, depth, variant):
    """<S(b, f), 1> and <S*(b, 1), f> both equal sum_Q m_Q osc_Q(b) <f>_Q."""
    b, f = _fields(dim, depth, 2, seed=2)
    tree = b.tree
    one = GridFunction.constant(tree, 1.0)
    oscs, favg = oscillation_levels(b), _averages_by_level(f)
    for cubes in _collections(tree).values():
        if variant == "plain":
            got = oracles.reference_sparse_op(b, f, cubes, variant).sum()
        else:
            got = (oracles.reference_sparse_op(b, one, cubes, variant) * f.values).sum()
        want = sum(float((m * o * a).sum()) for m, o, a in zip(cube_stack(tree, cubes), oscs, favg))
        _assert_close(np.array(got * tree.cell_volume), np.array(want))


@pytest.mark.parametrize("dim,depth", COLLECTION_SHAPES)
@pytest.mark.parametrize("s", [0.5, 1.0])
def test_sparse_op_exponent_against_cube_loop(dim, depth, s):
    """<S_s(f), 1> = sum_Q m_Q |Q| (|Q|^-s int_Q |f|^s)^(1/s), from the level sums of |f|^s."""
    (f,) = _fields(dim, depth, 1, seed=3)
    tree = f.tree
    sums = level_sums(tree, np.abs(f.values) ** s)
    for cubes in _collections(tree).values():
        got = oracles.reference_sparse_op_exponent(f, cubes, s).sum() * tree.cell_volume
        want = sum(
            float((m * tree.volume(k) * (sums[k] * tree.cell_volume / tree.volume(k) ** s)
                   ** (1.0 / s)).sum())
            for k, m in enumerate(cube_stack(tree, cubes))
        )
        _assert_close(np.array(got), np.array(want))


@pytest.mark.parametrize("dim,depth", COLLECTION_SHAPES)
def test_martingale_dict_against_cube_loop(dim, depth):
    (f,) = _fields(dim, depth, 1, seed=4)
    rng = np.random.default_rng(depth)
    one = GridFunction.constant(f.tree, 1.0)
    for cubes in _collections(f.tree).values():
        coeffs = {q: float(rng.normal()) for q in cubes}
        want = oracles.reference_martingale_dict(f, coeffs)
        _assert_close(partial_sums(f, one, oracles.dict_stack(f.tree, coeffs)), want)


@pytest.mark.parametrize("dim,depth", COLLECTION_SHAPES)
def test_domination_rhs_against_cube_loop(dim, depth):
    b, f = _fields(dim, depth, 2, seed=5)
    tree = b.tree
    for cubes in _collections(tree).values():
        distinct = list(dict.fromkeys(cubes))  # a family holds each cube once
        family = SparseFamily(tree, distinct, [np.zeros(0, dtype=np.int64)] * len(distinct),
                              gamma=1.0, measure=Weight.lebesgue(tree))
        want = oracles.reference_domination_rhs(distinct, b, f)
        _assert_close(domination_bound(family, b, f) / 2.0 ** (dim + 5), want)


def test_stack_of_wrong_shape_is_refused():
    (f,) = _fields(1, 3, 1)
    no_finest_level = [np.zeros(2**k) for k in range(3)]
    for stack in ([np.zeros(1), np.zeros(3)], no_finest_level):
        with pytest.raises(ValueError):
            partial_sums(f, f, stack)


# -- the random sub-collection keeps the generator's stream ------------------------------


@pytest.mark.parametrize("dim,depth", [(1, 6), (1, 1), (1, 0), (2, 4), (2, 1), (2, 0)])
@pytest.mark.parametrize("seed", [0, 1, 7, 2024])
def test_random_subcollection_matches_cube_walk(dim, depth, seed):
    """One draw of `count` sets selects the cubes of `count` walks, at depth 0 too."""
    tree = DyadicTree(dim, depth, 1.0)
    rng, ref = np.random.default_rng(seed), np.random.default_rng(seed)
    for count in (0, 1, 3):
        stack = random_subcollection(tree, rng, count)
        want = [cube_stack(tree, oracles.reference_random_subcollection(tree, tree.root(), ref))
                for _ in range(count)]
        assert [level.shape for level in stack] == [
            (count,) + (2**k,) * dim for k in range(depth + 1)]
        for row, collection in enumerate(want):
            for got_level, want_level in zip(stack, collection):
                assert np.array_equal(got_level[row], want_level)
        assert rng.random() == ref.random()


# -- sparse-family text keeps its measure ------------------------------------------------


def _norms_family(dim: int, depth: int, mu: str) -> SparseFamily:
    """The nu-sparse family `run_norms` writes, built the way it builds it."""
    cfg = ScenarioConfig(dim=dim, depth=depth, mu=mu, b_family="random-haar")
    tree = cfg.tree()
    triple = BloomTriple(parse_weight(cfg.mu, tree), parse_weight(cfg.lam, tree), cfg.exponents())
    b = make_family(cfg.b_family, tree, 1, np.random.default_rng(cfg.seed))[0]
    r = cfg.exponents().r
    return discretized_sharp_sup(b, triple.nu, r, sharp_maximal_r_norm(b, triple.nu, r)).certificate


@pytest.mark.parametrize("dim,depth,mu", [(1, 8, "lebesgue"), (1, 8, "power(1.0)"),
                                          (2, 4, "power(1.0)")])
def test_sparse_text_round_trips_its_measure(dim, depth, mu):
    family = _norms_family(dim, depth, mu)
    assert family.measure.power is not None
    text = family_to_text(family)
    assert f"measure=power({family.measure.power!r})" in text.splitlines()[0]
    back = family_from_text(text)
    assert back.measure.power == family.measure.power
    assert np.array_equal(back.measure.cell_mass, family.measure.cell_mass)
    assert verify_sparse(back) == verify_sparse(family)
    assert family_to_text(back) == text


def test_lebesgue_family_reloads_lebesgue():
    """Lebesgue measure is written as `power(0.0)`; a `lebesgue` header still loads."""
    tree = DyadicTree(1, 5, 1.0)
    rng = np.random.default_rng(3)
    b, f = (GridFunction(tree, rng.normal(size=tree.shape)) for _ in range(2))
    family = paraproduct_sparse_dominate(b, f)
    text = family_to_text(family)
    assert text.splitlines()[0].endswith("measure=power(0.0)")
    old = text.replace("measure=power(0.0)", "measure=lebesgue")
    for back in (family_from_text(text), family_from_text(old)):
        assert back.measure.power == 0.0
        assert np.array_equal(back.measure.cell_mass, family.measure.cell_mass)
        assert verify_sparse(back) == verify_sparse(family)
        assert family_to_text(back) == text


def test_unnamed_measure_is_refused_on_reload():
    tree = DyadicTree(1, 3, 1.0)
    root = tree.root()
    density = np.linspace(1.0, 2.0, tree.n_cells)
    family = SparseFamily(tree, [root], [np.array([0 << 2 | FULL])], gamma=0.1,
                          measure=Weight.from_density(tree, density))
    text = family_to_text(family)
    assert text.splitlines()[0].endswith("measure=unnamed")
    with pytest.raises(ValueError):
        family_from_text(text)
