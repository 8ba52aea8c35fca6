"""Concrete operators on grid functions.

Maximal functions and the weighted sharp maximal function are one
downward sweep each; paraproducts and martingale transforms are exact
level sums; the discrete Hilbert transform is the midpoint-quadrature
kernel sum with the diagonal cell excluded, so the off-support bilinear
identities hold exactly at matched quadrature nodes.  That kernel sum is
a Toeplitz product, applied by FFT on its circulant embedding.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

import numpy as np

from .lattice import (
    Cube,
    DyadicTree,
    GridFunction,
    IntervalBatch,
    LatticeError,
    as_blocks,
    coarsen_once,
    coarsen_to,
    per_block,
    refine_once,
    shifted_batches,
    window_batches,
)
from .weights import (
    Weight,
    batch_cell_masses,
    batch_masses,
    coeff_stack,
    cube_stack,
    level_masses_or_lebesgue,
)


def _averages_by_level(f: GridFunction, weight: Weight | None = None) -> list[np.ndarray]:
    """Per-level arrays of weighted averages of f over every cube."""
    tree = f.tree
    masses = level_masses_or_lebesgue(tree, weight)
    if weight is None:
        sums = f.level_sums()
        return [sums[k] * tree.cell_volume / masses[k] for k in range(tree.depth + 1)]
    weighted = GridFunction(tree, f.values * weight.cell_mass / tree.cell_volume)
    sums = weighted.level_sums()
    return [sums[k] * tree.cell_volume / masses[k] for k in range(tree.depth + 1)]


def maximal(f: GridFunction, weight: Weight | None = None, scope: str = "dyadic") -> GridFunction:
    """Running supremum of |f|-averages over the cubes containing each cell."""
    tree = f.tree
    avgs = _averages_by_level(f.abs(), weight)
    run = avgs[0]
    for k in range(1, tree.depth + 1):
        run = np.maximum(refine_once(run), avgs[k])
    out = GridFunction(tree, np.array(run, dtype=float).reshape(tree.shape))
    if scope == "shifted":
        out = GridFunction(tree, np.maximum(out.values, _shifted_average_sup(f.abs(), weight)))
    elif scope != "dyadic":
        raise ValueError(f"unknown scope {scope!r}")
    return out


def _shifted_average_sup(f: GridFunction, weight: Weight | None) -> np.ndarray:
    """Sup of weighted averages over shifted-lattice cubes fully inside the window (d=1)."""
    out = np.zeros(f.tree.shape)
    for batch in shifted_batches(f.tree):
        masses = batch_cell_masses(weight, batch)
        means = (f.values[batch.cells] * masses).sum(axis=1) / masses.sum(axis=1)
        batch.max_onto_full_cells(out, means)
    return out


def oscillation_levels(b: GridFunction) -> list[np.ndarray]:
    """Per-level arrays of int_Q |b - <b>_Q| dx for every cube Q."""
    tree = b.tree
    avgs = _averages_by_level(b)
    out = []
    for k in range(tree.depth + 1):
        dev = np.abs(as_blocks(b.values, k) - per_block(avgs[k])).reshape(tree.shape)
        out.append(coarsen_to(dev, k) * tree.cell_volume)
    return out


def oscillation(b: GridFunction, cube: Cube) -> float:
    """int_Q |b - <b>_Q| dx, exact."""
    sl = cube.cell_slices()
    vals = b.values[sl]
    return float(np.abs(vals - vals.mean()).sum() * b.tree.cell_volume)


def sharp_maximal(b: GridFunction, nu: Weight, scope: str = "dyadic") -> GridFunction:
    """Weighted sharp maximal function: sup over cubes of oscillation over nu-mass.

    The oscillation in the numerator is the plain Lebesgue integral
    int_Q |b - <b>_Q| dx; only the normalization uses nu.  scope="shifted"
    adds the three shifted lattices (d=1); scope="window" further adds a
    sliding family of non-lattice intervals at four scales, a diagnostic
    for how far the lattice suprema sit from the generic-cube one.
    """
    tree = b.tree
    oscs = oscillation_levels(b)
    nu_levels = nu.level_masses()
    run = oscs[0] / nu_levels[0]
    for k in range(1, tree.depth + 1):
        run = np.maximum(refine_once(run), oscs[k] / nu_levels[k])
    out = np.array(run, dtype=float).reshape(tree.shape)
    if scope in ("shifted", "window"):
        batches: Iterable[IntervalBatch] = shifted_batches(tree)
        if scope == "window":
            batches = itertools.chain(batches, window_batches(tree, *_sliding_windows(tree)))
        for batch in batches:
            batch.max_onto_full_cells(out, batch.oscillation(b.values) / batch_masses(nu, batch))
    elif scope != "dyadic":
        raise ValueError(f"unknown scope {scope!r}")
    return GridFunction(tree, out)


def _sliding_windows(tree: DyadicTree, n_scales: int = 4) -> tuple[np.ndarray, np.ndarray]:
    """Quarter-stepped sliding windows [lo, hi) at the top n_scales scales (d=1)."""
    lo, hi = [], []
    for j in range(n_scales):
        scale = tree.root_side / 2**j
        start = -tree.half_width + np.arange(4 * 2**j - 3) * (scale / 4)
        lo.append(start)
        hi.append(start + scale)
    return np.concatenate(lo), np.concatenate(hi)


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
        vals[batch.rows] = batch.oscillation(b.values) / batch_masses(nu, batch)
    return vals.reshape(len(points), n_left).max(axis=1, initial=0.0)


# -- paraproduct family --------------------------------------------------------
#
# A cube collection enters as a per-level stack (`weights.cube_stack`), and a
# level sum sum_Q c_Q D_Q a is one top-down pass: the level-k term lives on
# the children of the level-k cubes, and the running sum is refined once per
# level, so each cell adds its terms coarse to fine.


def _top_down(terms: Sequence[np.ndarray]) -> np.ndarray:
    """Sum of per-level arrays, each broadcast onto its subcubes, at the last one's level.

    terms[j + 1] lies one level below terms[j]; acc = refine_once(acc) + term.
    """
    acc = 0.0 + terms[0]
    for term in terms[1:]:
        acc = refine_once(acc) + term
    return acc


def _haar_terms(
    avg: Sequence[np.ndarray], coeffs: Sequence[np.ndarray], start: int = 0
) -> list[np.ndarray]:
    """(avg[k+1] - avg[k]) coeffs[k] on level k + 1, for k = start .. depth - 1."""
    return [(avg[k + 1] - refine_once(avg[k])) * refine_once(coeffs[k])
            for k in range(start, len(avg) - 1)]


def _haar_sum(
    tree: DyadicTree, avg: Sequence[np.ndarray], coeffs: Sequence[np.ndarray]
) -> np.ndarray:
    """sum_Q coeffs_Q (avg_children - avg_Q) on the cells, by one top-down pass."""
    terms = _haar_terms(avg, coeffs)
    return _top_down(terms) if terms else np.zeros(tree.shape)


def paraproduct(b: GridFunction, f: GridFunction, cubes: Iterable | None = None) -> GridFunction:
    """Sum over cubes of (difference of b-averages) times the f-average.

    With cubes=None the sum runs over every non-leaf tree cube; passing an
    explicit collection (`Cube`s, or a per-level stack of multiplicities)
    gives the partial operator used by the domination experiments; leaf
    cubes contribute nothing.  Linear in both arguments; exact finite sums.
    """
    tree = b.tree
    if f.tree != tree:
        raise LatticeError("b and f live on different trees")
    favg = _averages_by_level(f)
    if cubes is not None:
        favg = [c * a for c, a in zip(cube_stack(tree, cubes), favg)]
    return GridFunction(tree, _haar_sum(tree, _averages_by_level(b), favg))


def paraproduct_adjoint(b: GridFunction, g: GridFunction) -> GridFunction:
    """Adjoint of the paraproduct in the unweighted pairing: sum_Q <D_Q b, g> / |Q| on Q."""
    tree = b.tree
    if tree.depth == 0:
        return GridFunction(tree, np.zeros(tree.shape))
    bavg = _averages_by_level(b)
    gsum = g.level_sums()
    terms = [
        (coarsen_once(bavg[k + 1] * gsum[k + 1]) - bavg[k] * gsum[k])
        * (tree.cell_volume / tree.volume(k))
        for k in range(tree.depth)
    ]
    return GridFunction(tree, refine_once(_top_down(terms)))


def martingale_transform(f: GridFunction, coeffs) -> GridFunction:
    """sum_Q v_Q D_Q f for bounded per-cube multipliers.

    `coeffs` is either a per-level stack of arrays (levels 0..depth-1 used)
    or a dict {Cube: v}.
    """
    tree = f.tree
    stack = coeff_stack(tree, coeffs) if isinstance(coeffs, dict) else cube_stack(tree, coeffs)
    return GridFunction(tree, _haar_sum(tree, _averages_by_level(f), stack))


def weak_level_set_bound(g: GridFunction, f_l1: float, constant: float, thresholds: np.ndarray) -> float:
    """Worst slack of |{|g| > t}| <= constant * f_l1 / t over a threshold grid.

    Returns max over t of (level-set measure - bound); <= 0 means the
    weak-type inequality holds on the grid.
    """
    vol = g.tree.cell_volume
    worst = -math.inf
    absg = np.abs(g.values)
    for t in thresholds:
        measure = float((absg > t).sum() * vol)
        worst = max(worst, measure - constant * f_l1 / t)
    return worst


# -- sparse operators ----------------------------------------------------------


def sparse_op(
    b: GridFunction, f: GridFunction, cubes: Iterable, variant: str = "plain"
) -> GridFunction:
    """The positive sparse operators built from oscillation of b.

    variant="plain":   sum_Q |b - <b>_Q| <f>_Q 1_Q
    variant="adjoint": sum_Q <|b - <b>_Q| f>_Q 1_Q

    `cubes` is a list of `Cube`s or a per-level stack of multiplicities.
    """
    if variant not in ("plain", "adjoint"):
        raise ValueError(f"unknown variant {variant!r}")
    tree = b.tree
    bavg, favg = _averages_by_level(b), _averages_by_level(f)
    cell_axes = tuple(range(1, 2 * tree.dim, 2))
    out = np.zeros(tree.shape)
    for k, c in enumerate(cube_stack(tree, cubes)):
        if not c.any():
            continue
        dev = np.abs(as_blocks(b.values, k) - per_block(bavg[k]))
        cells = as_blocks(out, k)  # a view: adding to it adds to out
        if variant == "plain":
            cells += dev * per_block(c * favg[k])
        else:
            mean = (dev * as_blocks(f.values, k)).mean(axis=cell_axes, keepdims=True)
            cells += per_block(c) * mean
    return GridFunction(tree, out)


def sparse_op_exponent(f: GridFunction, cubes: Iterable, s: float) -> GridFunction:
    """sum_Q ((1/|Q|^s) int_Q |f|^s)^(1/s) 1_Q for s in (0, 1]."""
    if not 0.0 < s <= 1.0:
        raise ValueError("exponent s must lie in (0, 1]")
    tree = f.tree
    sums = GridFunction(tree, np.abs(f.values) ** s).level_sums()
    terms = [
        c * (sums[k] * tree.cell_volume / tree.volume(k) ** s) ** (1.0 / s)
        for k, c in enumerate(cube_stack(tree, cubes))
    ]
    return GridFunction(tree, _top_down(terms))


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

_HILBERT_SPECTRUM: dict[DyadicTree, np.ndarray] = {}


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


def kernel_matrix(tree: DyadicTree, spec: KernelSpec1D = HILBERT_KERNEL) -> np.ndarray:
    """Dense N x N quadrature matrix lags[i - j]; for test oracles, never on an apply path."""
    lags = kernel_lags(tree, spec)
    n = tree.n_cells
    return lags[np.subtract.outer(np.arange(n), np.arange(n)) + n - 1]


def _hilbert_apply(tree: DyadicTree, rows: np.ndarray) -> np.ndarray:
    """kernel_matrix(tree) @ row for every row of `rows`, by one batched rfft/irfft pair.

    The products are circular convolutions with the length-2N circulant
    embedding of the lags; the rfft of one tree's embedding is kept resident.
    """
    n = tree.n_cells
    spectrum = _HILBERT_SPECTRUM.get(tree)
    if spectrum is None:
        lags = kernel_lags(tree)
        # first column of the circulant: lags 0 .. N-1, one zero, lags -(N-1) .. -1
        spectrum = np.fft.rfft(np.concatenate([lags[n - 1:], [0.0], lags[:n - 1]]))
        _HILBERT_SPECTRUM.clear()
        _HILBERT_SPECTRUM[tree] = spectrum
    return np.fft.irfft(np.fft.rfft(rows, 2 * n) * spectrum, 2 * n)[..., :n]


def hilbert_transform(f: GridFunction) -> GridFunction:
    return GridFunction(f.tree, _hilbert_apply(f.tree, f.values))


def hilbert_at(f: GridFunction, x: float) -> float:
    """Kernel sum of f at an arbitrary off-grid point (same quadrature)."""
    centers = f.tree.cell_centers()
    diff = x - centers
    mask = diff != 0.0
    return float((f.values[mask] / diff[mask]).sum() * f.tree.cell_volume)


def commutator(b: GridFunction, f: GridFunction) -> GridFunction:
    """b * Hf - H(b f) with the discrete Hilbert transform; Hf and H(bf) share one FFT pair."""
    if b.tree != f.tree:
        raise LatticeError("b and f live on different trees")
    hf, hbf = _hilbert_apply(b.tree, np.stack([f.values, b.values * f.values]))
    return GridFunction(b.tree, b.values * hf - hbf)


def commutator_bilinear(b: GridFunction, f: GridFunction, g: GridFunction) -> float:
    """Double-sum form sum_{i != j} (b_i - b_j) K(x_i, x_j) f_j g_i vol^2.

    The same quadrature as `commutator`, summed densely: the test oracle
    for the FFT apply, with or without support separation.
    """
    mat = kernel_matrix(b.tree)
    weighted = mat * (b.values[:, None] - b.values[None, :])
    return float(g.values @ (weighted @ f.values) * b.tree.cell_volume)


def commutator_test_pairs(b: GridFunction, cube: Cube):
    """Median-split test pairs for the Hilbert commutator at one cube (d=1).

    The partner cube sits two side lengths away (flipped near the window
    edge), and each pair splits its cube at the median of b so the kernel
    sign cannot cancel the oscillation wholesale.  Returns the pairs plus
    the measured ratio of the oscillation to the bilinear forms; the
    domination constant is an observation, not an asserted bound.
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
    pairs = []
    for f_side, g_side in ((1.0, -1.0), (-1.0, 1.0)):
        f_vals = np.zeros(tree.shape)
        g_vals = np.zeros(tree.shape)
        f_sel = (b.values[q_cells] - med_q) * f_side >= 0.0
        g_sel = (b.values[t_cells] - med_t) * g_side > 0.0
        f_vals[q_cells] = np.where(f_sel, 1.0, 0.0)
        g_vals[t_cells] = np.where(g_sel, 1.0, 0.0)
        if not g_vals.any():
            g_vals[t_cells] = 1.0  # constant partner side: any test function works
        pairs.append((GridFunction(tree, f_vals), GridFunction(tree, g_vals)))

    osc = oscillation(b, cube)
    forms = [abs(commutator_bilinear(b, f, g)) for f, g in pairs]
    total = sum(forms)
    measured = osc / total if total > 0.0 else math.inf
    corner = (-tree.half_width + t_start * tree.cell_side,)
    partner = {"corner": corner, "side": cube.side}
    return pairs, partner, measured


# -- operator handles (for norm estimation) -------------------------------------


@dataclass
class OperatorHandle:
    """A linear operator on cell arrays with its unweighted-pairing adjoint."""

    name: str
    apply: Callable[[np.ndarray], np.ndarray]
    adjoint: Callable[[np.ndarray], np.ndarray]


def identity_handle(tree: DyadicTree) -> OperatorHandle:
    return OperatorHandle("identity", lambda v: v, lambda v: v)


def multiplication_handle(b: GridFunction) -> OperatorHandle:
    vals = b.values
    return OperatorHandle("multiply", lambda v: vals * v, lambda v: vals * v)


def paraproduct_handle(b: GridFunction) -> OperatorHandle:
    tree = b.tree

    def apply(v):
        return paraproduct(b, GridFunction(tree, v)).values

    def adjoint(v):
        return paraproduct_adjoint(b, GridFunction(tree, v)).values

    return OperatorHandle("paraproduct", apply, adjoint)


def commutator_handle(b: GridFunction) -> OperatorHandle:
    tree = b.tree

    def apply(v):
        return commutator(b, GridFunction(tree, v)).values

    def adjoint(v):
        return -commutator(b, GridFunction(tree, v)).values

    return OperatorHandle("hilbert-commutator", apply, adjoint)


def zero_handle(tree: DyadicTree) -> OperatorHandle:
    return OperatorHandle("zero", lambda v: np.zeros_like(v), lambda v: np.zeros_like(v))
