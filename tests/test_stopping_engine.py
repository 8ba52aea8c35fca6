"""The one top-down stopping pass against the recursive constructors it replaced.

`paraproduct_sparse_dominate` and `discretized_sharp_sup` both build their
principal cubes with `sparse.principal_cubes`.  They must give what the
cube-by-cube walks kept in `oracles` give: the same cubes in the same
order, the same witness claims in the same order, the same stopping-mass
ratio, report value and details, and the same sparse-family text.
"""

import numpy as np
import pytest

from dyadlab.lattice import DyadicTree, GridFunction
from dyadlab.norms import discretized_sharp_sup, sharp_maximal_r_norm
from dyadlab.operators import oscillation_levels
from dyadlab.scenarios import random_haar_sum, spiky_field
from dyadlab.sparse import (
    FULL,
    family_to_text,
    paraproduct_sparse_dominate,
    principal_cubes,
    verify_sparse,
)
from dyadlab.weights import Weight, parse_weight

import oracles

SHAPES = [(1, n) for n in (0, 1, 6, 10)] + [(2, n) for n in (1, 4, 6)]
# a random Haar sum needs a non-leaf cube
CASES = [(d, n, kind) for d, n in SHAPES for kind in ("constant", "spiky", "random-haar")
         if n or kind != "random-haar"]


def _field(kind: str, tree: DyadicTree, rng: np.random.Generator) -> GridFunction:
    if kind == "constant":
        return GridFunction.constant(tree, 1.5)
    if kind == "spiky":
        return spiky_field(tree, rng, sigma=3.0)
    return random_haar_sum(tree, rng)


def _assert_same_family(got, want):
    assert got.cubes == want.cubes
    assert len(got.witnesses) == len(want.witnesses)
    for mine, ref in zip(got.witnesses, want.witnesses):
        assert mine.dtype == np.int64 and np.array_equal(mine, ref)
    assert got.stopping_mass_max == want.stopping_mass_max
    assert got.gamma == want.gamma
    assert family_to_text(got) == family_to_text(want)
    assert verify_sparse(got) == verify_sparse(want)


@pytest.mark.parametrize("dim,depth,b_kind", CASES)
@pytest.mark.parametrize("f_kind", ["spiky", "zero"])
def test_paraproduct_family_matches_recursive_walk(dim, depth, b_kind, f_kind):
    tree = DyadicTree(dim, depth, 2.0)
    rng = np.random.default_rng(100 * dim + depth)
    for _ in range(3):
        b = _field(b_kind, tree, rng)
        f = GridFunction.constant(tree, 0.0)
        if f_kind == "spiky":
            f = spiky_field(tree, rng, sigma=3.0)
        _assert_same_family(
            paraproduct_sparse_dominate(b, f), oracles.reference_paraproduct_sparse_dominate(b, f))


# a power weight vanishes on the one cell of depth 0; the non-dyadic H = 3 checks
# that a constant cube's level-array oscillation is exactly 0 there too
SHARP_CASES = [case + (m, h) for case in CASES for m in ("lebesgue", "power(1.0)")
               for h in (2.0, 3.0) if case[1] or m == "lebesgue"]
SHARP_IDS = ["-".join(map(str, c[:4])) + ("" if c[4] == 2.0 else f"-H{c[4]:g}")
             for c in SHARP_CASES]


@pytest.mark.parametrize("dim,depth,b_kind,measure,half_width", SHARP_CASES, ids=SHARP_IDS)
def test_sharp_sup_matches_recursive_walk(dim, depth, b_kind, measure, half_width):
    """Cubes, witnesses and details exactly; the value to float reordering, since the
    oscillations come from the level arrays and the reference sums each cube's cells."""
    tree = DyadicTree(dim, depth, half_width)
    nu = Weight.lebesgue(tree) if measure == "lebesgue" else parse_weight(measure, tree)
    rng = np.random.default_rng(10 * dim + depth)
    for _ in range(2):
        b = _field(b_kind, tree, rng)
        got = discretized_sharp_sup(b, nu, 4.0, sharp_maximal_r_norm(b, nu, 4.0))
        want = oracles.reference_discretized_sharp_sup(b, nu, 4.0)
        assert (got.method, got.details) == (want.method, want.details)
        assert got.value == pytest.approx(want.value, rel=1e-12, abs=0.0)
        _assert_same_family(got.certificate, want.certificate)


def _piecewise_constant(tree: DyadicTree, rng: np.random.Generator, level: int = 2) -> GridFunction:
    values = rng.standard_normal((2**level,) * tree.dim)
    for axis in range(tree.dim):
        values = np.repeat(values, 2 ** (tree.depth - level), axis=axis)
    return GridFunction(tree, values)


@pytest.mark.parametrize("dim,depth", [(1, 10), (2, 6)])
@pytest.mark.parametrize("half_width", [3.0, 5.0])
def test_constant_b_skip_is_exact(dim, depth, half_width):
    """b constant on a cube has a zero oscillation, at an H that is not a power of two.

    Cube means are level sums over cell counts, so a constant block's mean
    is its value and `oscillation_levels` is exactly 0 on every level-2
    cube; the constructor stops nothing inside them.
    """
    tree = DyadicTree(dim, depth, half_width)
    rng = np.random.default_rng(dim + depth)
    misread = 0
    for _ in range(8):
        b = _piecewise_constant(tree, rng)
        f = spiky_field(tree, rng, sigma=3.0)
        misread += int(np.count_nonzero(oscillation_levels(b)[2]))
        _assert_same_family(
            paraproduct_sparse_dominate(b, f), oracles.reference_paraproduct_sparse_dominate(b, f))
    assert misread == 0


@pytest.mark.parametrize("dim,depth", [(d, n) for d in (1, 2) for n in range(6)])
@pytest.mark.parametrize("rate", [0.1, 0.5, 0.9])
def test_witnesses_partition_the_cells(dim, depth, rate):
    """Under random stop masks every finest cell is claimed exactly once, whole, by the
    deepest principal cube that contains it, and each witness lists its cells ascending."""
    tree = DyadicTree(dim, depth, 2.0)
    rng = np.random.default_rng(1000 * dim + 10 * depth + int(10 * rate))
    stops = [np.ones((1,) * dim, dtype=bool)] + [
        rng.random((2**j,) * dim) < rate for j in range(1, depth + 1)]
    cubes, witnesses = principal_cubes(
        tree, lambda j: (np.zeros((2**j,) * dim),), lambda j, state: (stops[j], state))

    assert sorted((c.level, c.index) for c in cubes) == sorted(
        (j, tuple(int(i) for i in idx)) for j, mask in enumerate(stops) for idx in np.argwhere(mask))
    assert len(witnesses) == len(cubes)
    deepest = np.full(tree.n_cells, -1)
    for pos in sorted(range(len(cubes)), key=lambda i: cubes[i].level):
        deepest[oracles.flat_cells(cubes[pos])] = pos
    claimed = np.zeros(tree.n_cells, dtype=int)
    for pos, claims in enumerate(witnesses):
        assert claims.dtype == np.int64
        assert np.all(claims & 3 == FULL)
        cells = claims >> 2
        assert np.all(np.diff(cells) > 0)
        assert np.all(deepest[cells] == pos)
        claimed[cells] += 1
    assert np.all(claimed == 1)
