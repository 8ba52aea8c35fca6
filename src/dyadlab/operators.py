"""Concrete operators on grid functions.

Maximal functions and the weighted sharp maximal function are one
downward sweep each; paraproducts are exact level sums; the discrete
Hilbert transform is the midpoint-quadrature kernel sum with the diagonal
cell excluded, so the off-support bilinear identities hold exactly at
matched quadrature nodes.  That kernel sum is a Toeplitz product, applied
by FFT on its circulant embedding.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Iterable, Sequence

import numpy as np

from .lattice import (
    Cube,
    DyadicTree,
    GridFunction,
    LatticeError,
    as_blocks,
    coarsen_once,
    coarsen_to,
    level_sums,
    per_block,
    refine_once,
    scope_batches,
    window_batches,
)
from .weights import Weight, batch_cell_masses, batch_masses


def _level_averages(
    tree: DyadicTree, rows: np.ndarray, levels: int | None = None
) -> list[np.ndarray]:
    """Per-level averages over every cube of levels 0 .. levels - 1 (all levels by default),
    for cell arrays shaped (..., *tree.shape): each cube's sum over its cell count."""
    sums = level_sums(tree, rows)[:levels]
    return [s / 2 ** (tree.dim * (tree.depth - k)) for k, s in enumerate(sums)]


def _averages_by_level(f: GridFunction) -> list[np.ndarray]:
    """Per-level arrays of the averages of f over every cube."""
    return _level_averages(f.tree, f.values)


def _top_down(terms: Iterable[np.ndarray], dim: int | None = None, op=np.add) -> np.ndarray:
    """Fold of per-level arrays, each broadcast onto its subcubes, at the last one's level:
    sums by default, per-cell maxima over the containing cubes with `op=np.maximum`.

    Each term lies one level below the one before; acc = op(refine_once(acc), term).
    """
    terms = iter(terms)
    acc = 0.0 + next(terms)
    for term in terms:
        acc = op(refine_once(acc, dim), term)
    return acc


def maximal(f: GridFunction, weight: Weight, scope: str = "dyadic") -> GridFunction:
    """Running supremum of |f|-averages in `weight` over the cubes of `scope` at each cell."""
    tree = f.tree
    batches = scope_batches(tree, scope)
    g = f.abs()
    sums = level_sums(tree, g.values * weight.cell_mass)
    out = _top_down((s / m for s, m in zip(sums, weight.level_masses())), op=np.maximum)
    for batch in batches:
        masses = batch_cell_masses(weight, batch)
        means = (g.values[batch.cells] * masses).sum(axis=1) / masses.sum(axis=1)
        batch.max_onto_full_cells(out, means)
    return GridFunction(tree, out)


def oscillation_levels(b: GridFunction) -> list[np.ndarray]:
    """Per-level arrays of int_Q |b - <b>_Q| dx for every cube Q."""
    tree = b.tree
    avgs = _averages_by_level(b)
    out = []
    for k in range(tree.depth + 1):
        dev = np.abs(as_blocks(b.values, k) - per_block(avgs[k])).reshape(tree.shape)
        out.append(coarsen_to(dev, k) * tree.cell_volume)
    return out


def sharp_maximal(b: GridFunction, nu: Weight, scope: str = "dyadic") -> GridFunction:
    """Weighted sharp maximal function: sup over the cubes of `scope` of oscillation over nu-mass.

    The oscillation in the numerator is the plain Lebesgue integral
    int_Q |b - <b>_Q| dx; only the normalization uses nu.
    """
    tree = b.tree
    batches = scope_batches(tree, scope)
    oscs = zip(oscillation_levels(b), nu.level_masses())
    out = _top_down((osc / mass for osc, mass in oscs), op=np.maximum)
    for batch in batches:
        batch.max_onto_full_cells(out, batch.oscillations(b.values) / batch_masses(nu, batch))
    return GridFunction(tree, out)


def sharp_window_values(
    b: GridFunction,
    nu: Weight,
    points: Sequence[float],
    n_left: int = 256,
) -> np.ndarray:
    """Sliding-window sharp-maximal values at sample points (d=1 diagnostic).

    For each point the sup runs over windows [a, x + cell) with a on an
    n_left-point grid across the window; this approximates the
    generic-cube supremum far better than lattice cubes do near a bump.
    """
    tree = b.tree
    if tree.dim != 1:
        raise LatticeError("window diagnostics are one-dimensional")
    h, edges = tree.half_width, tree.cell_edges()
    points = np.asarray(points, dtype=float)
    lefts = np.linspace(-h, points, n_left, endpoint=False, axis=1).ravel()
    lo = edges[np.searchsorted(edges, lefts, side="right") - 1]
    hi = np.repeat(np.minimum(h, points + tree.cell_side), n_left)
    vals = np.zeros(len(lo))
    for batch in window_batches(tree, lo, hi):
        vals[batch.rows] = batch.oscillations(b.values) / batch_masses(nu, batch)
    return vals.reshape(len(points), n_left).max(axis=1, initial=0.0)


# -- paraproduct family --------------------------------------------------------
#
# A cube collection enters as a per-level stack (`sparse.partial_sums`), and a
# level sum sum_Q c_Q D_Q a is one top-down pass: the level-k term lives on
# the children of the level-k cubes, and the running sum is refined once per
# level, so each cell adds its terms coarse to fine.  Every array here may
# carry leading row axes before its cube axes; `dim` names the cube axes.


def _haar_differences(avg: Sequence[np.ndarray]) -> list[np.ndarray]:
    """avg[k + 1] - avg[k] on level k + 1, for k = 0 .. depth - 1."""
    return [avg[k + 1] - refine_once(avg[k]) for k in range(len(avg) - 1)]


def _haar_terms(
    diffs: Sequence[np.ndarray], coeffs: Sequence[np.ndarray], dim: int | None = None
) -> list[np.ndarray]:
    """diffs[k] coeffs[k] on level k + 1: Haar differences times their cubes' coefficients."""
    return [d * refine_once(c, dim) for d, c in zip(diffs, coeffs)]


def _paraproduct_rows(
    tree: DyadicTree, bdiffs: Sequence[np.ndarray], rows: np.ndarray, cubes: Sequence | None = None
) -> np.ndarray:
    """The paraproduct of b's Haar differences `bdiffs` on rows shaped (..., *tree.shape).

    A per-level stack `cubes` with leading row axes gives one partial sum per row.
    The finest level carries no Haar term, so its averages are not taken
    (a depth-0 tree keeps its root level, which gives the zero sum its shape).
    """
    favg = _level_averages(tree, rows, max(1, tree.depth))
    if cubes is not None:
        favg = [c * a for c, a in zip(cubes, favg)]
    terms = _haar_terms(bdiffs, favg, tree.dim)
    if not terms:
        return np.zeros(favg[0].shape[:favg[0].ndim - tree.dim] + tree.shape)
    return _top_down(terms, tree.dim)


def _paraproduct_adjoint_rows(
    tree: DyadicTree, bavg: Sequence[np.ndarray], rows: np.ndarray
) -> np.ndarray:
    """The paraproduct adjoint for b's level averages `bavg`, on rows shaped (..., *tree.shape)."""
    if tree.depth == 0:
        return np.zeros(rows.shape)
    gsum = level_sums(tree, rows)
    terms = [
        (coarsen_once(bavg[k + 1] * gsum[k + 1], tree.dim) - bavg[k] * gsum[k])
        / 2 ** (tree.dim * (tree.depth - k))
        for k in range(tree.depth)
    ]
    return refine_once(_top_down(terms, tree.dim), tree.dim)


def paraproduct(b: GridFunction, f: GridFunction) -> GridFunction:
    """Sum over every non-leaf tree cube of (difference of b-averages) times the f-average.

    Partial sums over a cube collection are `sparse.partial_sums`.  Linear
    in both arguments; exact finite sums.
    """
    tree = b.tree
    if f.tree != tree:
        raise LatticeError("b and f live on different trees")
    bdiffs = _haar_differences(_averages_by_level(b))
    return GridFunction(tree, _paraproduct_rows(tree, bdiffs, f.values))


def paraproduct_adjoint(b: GridFunction, g: GridFunction) -> GridFunction:
    """Adjoint of the paraproduct in the unweighted pairing: sum_Q <D_Q b, g> / |Q| on Q."""
    return GridFunction(b.tree, _paraproduct_adjoint_rows(b.tree, _averages_by_level(b), g.values))


# -- singular kernels, Hilbert transform, commutator (d=1) ------------------------


@dataclass(frozen=True)
class KernelSpec1D:
    """A convolution kernel K(x, y) = k(x - y), midpoint quadrature, diagonal cells excluded.

    On the uniform grid of cell centers a convolution kernel depends only
    on the lag i - j, so it is built as one vector of 2N - 1 lags
    (`kernel_lags`), and the Hilbert kernel is applied by FFT on the
    circulant embedding of its lags.  `size_constant` asserts
    the usual decay |K(x,y)| <= C/|x-y| when the lags are built;
    antisymmetric kernels make the discrete bilinear identities exact at
    matched nodes.
    """

    name: str
    evaluate: Callable[[np.ndarray, np.ndarray], np.ndarray]
    size_constant: float = 1.0
    antisymmetric: bool = True


HILBERT_KERNEL = KernelSpec1D("hilbert", lambda x, y: 1.0 / (x - y))


def kernel_lags(tree: DyadicTree, spec: KernelSpec1D = HILBERT_KERNEL) -> np.ndarray:
    """Quadrature weights K(x_i, x_j) * vol by lag: entry m + N - 1 is lag m = i - j, |m| < N.

    The kernel is evaluated at K(x_m, x_0) and K(x_0, x_m) only, and its
    invariants are checked on those 2N - 1 values.
    """
    if tree.dim != 1:
        raise LatticeError("kernel quadrature is one-dimensional")
    x = tree.cell_centers()
    with np.errstate(divide="ignore", invalid="ignore"):
        below = np.asarray(spec.evaluate(x, x[0]), dtype=float)  # lags 0 .. N-1
        above = np.asarray(spec.evaluate(x[0], x), dtype=float)  # lags 0 .. -(N-1)
    below[0] = above[0] = 0.0
    dist = x - x[0]
    if np.any(np.maximum(np.abs(below), np.abs(above)) * dist > spec.size_constant * (1.0 + 1e-12)):
        raise LatticeError(f"kernel {spec.name!r} violates its declared size bound")
    if spec.antisymmetric and not np.allclose(below, -above, atol=1e-14):
        raise LatticeError(f"kernel {spec.name!r} is not antisymmetric")
    return np.concatenate([above[:0:-1], below]) * tree.cell_volume


@lru_cache(maxsize=1)
def _hilbert_spectrum(tree: DyadicTree) -> np.ndarray:
    """The rfft of the length-2N circulant embedding of the Hilbert lags, resident for one tree."""
    n = tree.n_cells
    lags = kernel_lags(tree)
    # first column of the circulant: lags 0 .. N-1, one zero, lags -(N-1) .. -1
    return np.fft.rfft(np.concatenate([lags[n - 1:], [0.0], lags[:n - 1]]))


def _hilbert_apply(tree: DyadicTree, rows: np.ndarray) -> np.ndarray:
    """The lags' Toeplitz matrix times every row of `rows`, by one batched rfft/irfft pair.

    The products are circular convolutions with the circulant embedding of the lags.
    """
    n = tree.n_cells
    spectra = np.fft.rfft(rows, 2 * n)
    spectra *= _hilbert_spectrum(tree)
    return np.fft.irfft(spectra, 2 * n)[..., :n]


def hilbert_transform(f: GridFunction) -> GridFunction:
    return GridFunction(f.tree, _hilbert_apply(f.tree, f.values))


def _commutator_rows(tree: DyadicTree, b: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """b * Hf - H(b f) for every row f of `rows`, b's cell values broadcast against them;
    all Hf and H(bf) share one FFT pair."""
    hf, hbf = _hilbert_apply(tree, np.stack([rows, b * rows]))
    return b * hf - hbf


def commutator(b: GridFunction, f: GridFunction) -> GridFunction:
    """b * Hf - H(b f) with the discrete Hilbert transform; Hf and H(bf) share one FFT pair."""
    if b.tree != f.tree:
        raise LatticeError("b and f live on different trees")
    return GridFunction(b.tree, _commutator_rows(b.tree, b.values, f.values))


def commutator_test_pairs(b: GridFunction, cube: Cube):
    """Median-split test pairs for the Hilbert commutator at one cube (d=1).

    The partner cube sits two side lengths away (flipped near the window
    edge), and each pair splits its cube at the median of b so the kernel
    sign cannot cancel the oscillation wholesale.  Returns the pairs plus
    the measured ratio of the oscillation to the bilinear forms, both
    forms taken from one FFT apply of the stacked f's; the domination
    constant is an observation, not an asserted bound.
    """
    tree = b.tree
    if tree.dim != 1:
        raise LatticeError("commutator test pairs are one-dimensional")
    span = 2 ** (tree.depth - cube.level)
    start = cube.index[0] * span
    offset = 2 * span
    if start + offset + span <= tree.shape[0]:
        t_start = start + offset
    elif start - offset >= 0:
        t_start = start - offset
    else:
        raise LatticeError("no room for a separated partner cube in the window")
    q_cells = slice(start, start + span)
    t_cells = slice(t_start, t_start + span)

    med_q = float(np.median(b.values[q_cells]))
    med_t = float(np.median(b.values[t_cells]))
    f_rows = np.zeros((2,) + tree.shape)
    g_rows = np.zeros((2,) + tree.shape)
    for row, (f_side, g_side) in enumerate(((1.0, -1.0), (-1.0, 1.0))):
        f_rows[row, q_cells] = (b.values[q_cells] - med_q) * f_side >= 0.0
        g_rows[row, t_cells] = (b.values[t_cells] - med_t) * g_side > 0.0
        if not g_rows[row].any():
            g_rows[row, t_cells] = 1.0  # constant partner side: any test function works
    pairs = [(GridFunction(tree, f), GridFunction(tree, g)) for f, g in zip(f_rows, g_rows)]

    osc = float(oscillation_levels(b)[cube.level][cube.index])
    comm = _commutator_rows(tree, b.values, f_rows)
    forms = np.abs((g_rows * comm).sum(axis=-1)) * tree.cell_volume
    total = float(forms.sum())
    measured = osc / total if total > 0.0 else math.inf
    corner = (-tree.half_width + t_start * tree.cell_side,)
    partner = {"corner": corner, "side": cube.side}
    return pairs, partner, measured


# -- operator handles (for norm estimation) -------------------------------------


@dataclass
class OperatorHandle:
    """A linear operator on cell arrays with its unweighted-pairing adjoint.

    `apply` and `adjoint` take one cell array (`tree.shape`) or a stack of
    rows (`(..., *tree.shape)`), and act on each row alone, with the same
    bits as on that row by itself.  They leave their input as it was, and
    return a new array or, where they act as the identity, the input
    itself: the norm estimator writes into what they return, and reads the
    gradients it applied after the apply.  Both are linear,
    U(a x + y) = a Ux + Uy to float rounding: the norm estimator applies
    each gradient g once and takes the image of a trial v + s g as
    Uv + s Ug.
    """

    name: str
    apply: Callable[[np.ndarray], np.ndarray]
    adjoint: Callable[[np.ndarray], np.ndarray]


def _symbols(b: GridFunction | Sequence[GridFunction]) -> list[GridFunction]:
    return [b] if isinstance(b, GridFunction) else list(b)


def paraproduct_handle(
    b: GridFunction | Sequence[GridFunction],
) -> OperatorHandle | Callable[[np.ndarray], OperatorHandle]:
    """The paraproduct with symbol b; b's level averages and Haar differences are taken once.

    Given a list of symbols, returns `which -> OperatorHandle`: the handle
    whose row i is the paraproduct of symbol `which[i]` (an index array, or
    one index for every row), gathering each level of the symbols' stacks
    per row.
    """
    bs = _symbols(b)
    levels = [_averages_by_level(x) for x in bs]
    bavg = [np.stack(level) for level in zip(*levels)]
    bdiffs = [np.stack(level) for level in zip(*map(_haar_differences, levels))]

    def handle_for(which) -> OperatorHandle:
        tree = bs[0].tree
        return OperatorHandle(
            "paraproduct",
            lambda v: _paraproduct_rows(tree, [d[which] for d in bdiffs], v),
            lambda v: _paraproduct_adjoint_rows(tree, [a[which] for a in bavg], v),
        )

    return handle_for(0) if isinstance(b, GridFunction) else handle_for


def commutator_handle(
    b: GridFunction | Sequence[GridFunction],
) -> OperatorHandle | Callable[[np.ndarray], OperatorHandle]:
    """The Hilbert commutator with symbol b, or `which -> OperatorHandle` for a list of
    symbols, as `paraproduct_handle`."""
    bs = _symbols(b)
    bvals = np.array([x.values for x in bs])

    def handle_for(which) -> OperatorHandle:
        tree = bs[0].tree
        return OperatorHandle(
            "hilbert-commutator",
            lambda v: _commutator_rows(tree, bvals[which], v),
            lambda v: -_commutator_rows(tree, bvals[which], v),
        )

    return handle_for(0) if isinstance(b, GridFunction) else handle_for
