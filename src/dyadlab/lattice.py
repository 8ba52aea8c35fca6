"""Finite dyadic trees, cells, level sums, and shifted-lattice geometry.

The universe for every computation in this package is a complete dyadic
tree over the root cube [-H, H)^d: the root splits into 2^d half-open
children, recursively, down to a finest level N.  Coordinates count from
the origin, so x -> -x maps edges and midpoints onto edges and midpoints
bit for bit at any H; with H a power of two, cell volumes and partition
identities are exact in binary floating point.

The shifted scope adds the lattices shifted by 1/3 and 2/3 of a side to
the tree (shift 0 is the tree).  They are geometry only: integration
domains against the cell partition, never carriers of data.  The d = 1
interval engine at the end of this module is their one representation:
it counts every shifted endpoint as an exact integer number of sixths of
a finest cell and batches whole (shift, level) families as integer arrays.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterator

import numpy as np


class LatticeError(ValueError):
    """Raised for structurally invalid lattice operations."""


def _reduce_axis(arr: np.ndarray, axis: int) -> np.ndarray:
    """Sum adjacent pairs along one axis (one coarsening step), as even + odd entries."""
    lead = (slice(None),) * axis
    return arr[lead + (slice(0, None, 2),)] + arr[lead + (slice(1, None, 2),)]


def _cube_axes(arr: np.ndarray, dim: int | None) -> range:
    """The cube axes of arr: all of them, or the trailing `dim` (leading axes hold rows)."""
    return range(0 if dim is None else arr.ndim - dim, arr.ndim)


def coarsen_once(arr: np.ndarray, dim: int | None = None) -> np.ndarray:
    """Sum each 2^d block of children into its parent entry."""
    out = arr
    for axis in _cube_axes(arr, dim):
        out = _reduce_axis(out, axis)
    return out


def refine_once(arr: np.ndarray, dim: int | None = None) -> np.ndarray:
    """Broadcast each entry onto its 2^d children."""
    out = arr
    for axis in _cube_axes(arr, dim):
        out = out.repeat(2, axis=axis)
    return out


def coarsen_to(cells: np.ndarray, level: int) -> np.ndarray:
    """Sums of a finest-cell array over every level-`level` cube, one pairwise step at a time."""
    out = cells
    while out.shape[0] > 2**level:
        out = coarsen_once(out)
    return out


def as_blocks(cells: np.ndarray, level: int) -> np.ndarray:
    """View a finest-cell array as (level-`level` cube, cell within it) axis pairs.

    A level array meets the view in one broadcast through `per_block`, and
    reshaping a result to the cell shape restores the cell layout; axes
    1, 3, ... run over the cells of each cube.
    """
    n, k = cells.shape[0], 2**level
    return cells.reshape(tuple(m for _ in cells.shape for m in (k, n // k)))


def per_block(arr: np.ndarray) -> np.ndarray:
    """A per-level array shaped to broadcast against `as_blocks` at its level."""
    return arr.reshape(tuple(m for s in arr.shape for m in (s, 1)))


def as_rows(cells: np.ndarray, level: int) -> np.ndarray:
    """Each level-`level` cube's cells as one contiguous row, in the C order of its slice."""
    d = cells.ndim
    blocks = as_blocks(cells, level).transpose(*range(0, 2 * d, 2), *range(1, 2 * d, 2))
    return blocks.reshape((2**level,) * d + (-1,))


def level_sums(tree: "DyadicTree", cells: np.ndarray) -> list[np.ndarray]:
    """Per-level cube sums of cell arrays shaped (..., *tree.shape), coarsest first."""
    sums = [cells]
    for _ in range(tree.depth):
        sums.append(coarsen_once(sums[-1], tree.dim))
    return sums[::-1]


def max_depth(dim: int) -> int:
    """The guard rail on the depth of a config's or a certificate's tree: 14 at d = 1 and
    16 // d above, so that no tree has more than 2^16 cells (d < 1 the tree refuses)."""
    return 14 if dim <= 1 else 16 // dim


class DyadicTree:
    """A complete dyadic tree over the root cube [-H, H)^d.

    Parameters
    ----------
    dim:
        Spatial dimension (1, 2 or 3; dimensions above 3 are untested).
    depth:
        Finest level N; the tree has 2^(d*N) finest cells.
    half_width:
        H, normally a power of two so all corners are exactly
        representable.
    """

    def __init__(self, dim: int = 1, depth: int = 6, half_width: float = 1.0):
        if dim < 1:
            raise LatticeError("dimension must be >= 1")
        if depth < 0:
            raise LatticeError("depth must be >= 0")
        self.dim = dim
        self.depth = depth
        self.half_width = float(half_width)
        self.root_side = 2.0 * self.half_width
        self.shape = (2**depth,) * dim
        self.n_cells = 2 ** (dim * depth)
        self.cell_side = self.root_side / 2**depth
        self.cell_volume = self.cell_side**self.dim

    def __repr__(self) -> str:
        return f"DyadicTree(dim={self.dim}, depth={self.depth}, H={self.half_width})"

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, DyadicTree)
            and self.dim == other.dim
            and self.depth == other.depth
            and self.half_width == other.half_width
        )

    def __hash__(self) -> int:
        return hash((self.dim, self.depth, self.half_width))

    # -- cube bookkeeping ---------------------------------------------------

    def side(self, level: int) -> float:
        return self.root_side / 2**level

    def volume(self, level: int) -> float:
        return self.side(level) ** self.dim

    def root(self) -> "Cube":
        return Cube(self, 0, (0,) * self.dim)

    def cubes_at_level(self, level: int) -> Iterator["Cube"]:
        for index in itertools.product(range(2**level), repeat=self.dim):
            yield Cube(self, level, index)

    def cubes(self) -> Iterator["Cube"]:
        for level in range(self.depth + 1):
            yield from self.cubes_at_level(level)

    def cell_centers(self) -> np.ndarray:
        """Midpoints of the finest cells along any one axis, counted from the origin."""
        n = 2**self.depth
        return (np.arange(n) + 0.5 - n / 2) * self.cell_side

    def cell_edges(self) -> np.ndarray:
        """Cell edges along any one axis, counted from the origin: edge n - i is -edge i."""
        n = 2**self.depth
        return (np.arange(n + 1) - n / 2) * self.cell_side


@dataclass(frozen=True)
class Cube:
    """One cube of a dyadic tree, addressed by level and per-axis index."""

    tree: DyadicTree
    level: int
    index: tuple[int, ...]

    def __post_init__(self):
        if not 0 <= self.level <= self.tree.depth:
            raise LatticeError(f"level {self.level} outside tree of depth {self.tree.depth}")
        if len(self.index) != self.tree.dim:
            raise LatticeError("index arity does not match tree dimension")
        if any(not 0 <= i < 2**self.level for i in self.index):
            raise LatticeError(f"index {self.index} out of range at level {self.level}")

    @property
    def side(self) -> float:
        return self.tree.side(self.level)

    @property
    def volume(self) -> float:
        return self.tree.volume(self.level)

    @property
    def corner(self) -> tuple[float, ...]:
        s, half = self.side, 2**self.level / 2
        return tuple((i - half) * s for i in self.index)

    def __repr__(self) -> str:
        return f"Cube(level={self.level}, index={self.index})"

    def is_leaf(self) -> bool:
        return self.level == self.tree.depth

    def parent(self) -> "Cube":
        if self.level == 0:
            raise LatticeError("root cube has no parent")
        return Cube(self.tree, self.level - 1, tuple(i // 2 for i in self.index))

    def children(self) -> list["Cube"]:
        if self.is_leaf():
            raise LatticeError("finest-level cube has no children")
        out = []
        for offsets in itertools.product((0, 1), repeat=self.tree.dim):
            out.append(
                Cube(
                    self.tree,
                    self.level + 1,
                    tuple(2 * i + o for i, o in zip(self.index, offsets)),
                )
            )
        return out

    def cell_slices(self) -> tuple[slice, ...]:
        """Index slices of the finest-cell array covered by this cube."""
        span = 2 ** (self.tree.depth - self.level)
        return tuple(slice(i * span, (i + 1) * span) for i in self.index)

    def cell_count(self) -> int:
        return 2 ** (self.tree.dim * (self.tree.depth - self.level))


class GridFunction:
    """A real function piecewise constant on the finest cells of a tree."""

    __slots__ = ("tree", "values")

    def __init__(self, tree: DyadicTree, values: np.ndarray):
        values = np.asarray(values, dtype=float)
        if values.shape != tree.shape:
            raise LatticeError(f"value array shape {values.shape} != tree shape {tree.shape}")
        self.tree = tree
        self.values = values

    # -- constructors ---------------------------------------------------

    @classmethod
    def constant(cls, tree: DyadicTree, c: float) -> "GridFunction":
        return cls(tree, np.full(tree.shape, float(c)))

    @classmethod
    def indicator(cls, tree: DyadicTree, cube: Cube) -> "GridFunction":
        vals = np.zeros(tree.shape)
        vals[cube.cell_slices()] = 1.0
        return cls(tree, vals)

    @classmethod
    def ball_indicator(cls, tree: DyadicTree, radius: float = 1.0) -> "GridFunction":
        """Indicator of the Euclidean ball of given radius, sampled at midpoints."""
        axes = np.meshgrid(*(tree.cell_centers(),) * tree.dim, indexing="ij")
        rr = sum(a**2 for a in axes)
        return cls(tree, (rr <= radius**2).astype(float))

    # -- arithmetic -------------------------------------------------------

    def __add__(self, other):
        if isinstance(other, GridFunction):
            if other.tree != self.tree:
                raise LatticeError("grid functions live on different trees")
            other = other.values
        return GridFunction(self.tree, self.values + other)

    __radd__ = __add__

    def abs(self) -> "GridFunction":
        return GridFunction(self.tree, np.abs(self.values))


# -- the d = 1 interval engine ---------------------------------------------------
#
# Every shifted-lattice endpoint in d = 1 is an integer number of sixths of a
# finest cell, counted from the origin the lattices are anchored at, so one
# (shift, level) family is one integer array and its cell overlaps are exact
# integer arithmetic.  Sliding windows have exact binary endpoints and share
# the same overlap code in floats.  Intervals that touch equally many cells
# share one (intervals x cells) table, so row sums give masses and means.


def shifted_intervals_1d(
    tree: DyadicTree, inside: bool = True
) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """Integer endpoints (lo, hi) of the shifted-lattice intervals, one family at a time.

    Units are sixths of a finest cell from the origin: level-k interval j of
    shift alpha is [L j + t, L (j + 1) + t) with L = 6 * 2^(N-k) and
    t = (-1)^k 6 alpha 2^(N-k), 6 alpha being 2 or 4: 2 (N + 1) families,
    by shift alpha = 1/3, 2/3, then by level.  Shift 0 is the tree, whose
    cubes callers take from its level arrays.  inside=True keeps the
    intervals inside the root window, inside=False every one meeting it.
    """
    if tree.dim != 1:
        raise LatticeError("shifted scope is implemented for d=1 only")
    half = 3 * 2**tree.depth  # H in sixths of a cell
    for six_alpha in (2, 4):
        for level in range(tree.depth + 1):
            length = 6 * 2 ** (tree.depth - level)
            t = (-1) ** level * six_alpha * 2 ** (tree.depth - level)
            if inside:
                j = np.arange(-((half + t) // length), (half - t) // length)
            else:
                j = np.arange((-half - t) // length, -((t - half) // length))
            lo = length * j + t
            yield lo, lo + length


def from_sixths(tree: DyadicTree, u: np.ndarray) -> np.ndarray:
    """Coordinates of integer positions counted in sixths of a cell from the origin.

    With H a power of two the product u * cell_side is exact, so the one
    division by 6 gives the float nearest the exact rational.
    """
    return u * tree.cell_side / 6


@dataclass(frozen=True)
class IntervalBatch:
    """Intervals [lo, hi) inside the root window touching equally many finest cells (d = 1).

    `cells` and `lengths` are (intervals x touched cells) tables of cell
    indices and exact overlap lengths; `size` holds the exact interval
    lengths and `rows` the positions of the intervals in the endpoint arrays
    the batch was cut from.
    """

    tree: DyadicTree
    rows: np.ndarray
    lo: np.ndarray
    hi: np.ndarray
    size: np.ndarray
    cells: np.ndarray
    lengths: np.ndarray

    def oscillations(self, values: np.ndarray) -> np.ndarray:
        """int |b - <b>| dx over each interval, the mean taken against the overlaps."""
        vals = values[self.cells]
        mean = (vals * self.lengths).sum(axis=1) / self.lengths.sum(axis=1)
        return (np.abs(vals - mean[:, None]) * self.lengths).sum(axis=1)

    def max_onto_full_cells(self, out: np.ndarray, vals: np.ndarray) -> None:
        """Raise `out` to each interval's value on the cells it covers whole."""
        full = self.lengths >= self.tree.cell_side * (1.0 - 1e-12)
        np.maximum.at(out, self.cells[full], np.broadcast_to(vals[:, None], full.shape)[full])


def _cut_batches(tree, lo, hi, edges, coord) -> Iterator[IntervalBatch]:
    """Group [lo, hi) by touched-cell count; `coord` turns endpoint units into coordinates."""
    first = np.searchsorted(edges, lo, side="right") - 1
    width = np.searchsorted(edges, hi, side="left") - first
    for w in np.unique(width):
        rows = np.flatnonzero(width == w)
        cells = first[rows, None] + np.arange(w)
        right = np.minimum(hi[rows, None], edges[cells + 1])
        overlap = right - np.maximum(lo[rows, None], edges[cells])
        yield IntervalBatch(tree, rows, coord(lo[rows]), coord(hi[rows]),
                            coord(hi[rows] - lo[rows]), cells, coord(overlap))


def shifted_batches(tree: DyadicTree) -> Iterator[IntervalBatch]:
    """The 1/3- and 2/3-shifted intervals inside the root window, batched per (shift, level)."""
    n = 2**tree.depth
    edges = 6 * np.arange(n + 1) - 3 * n
    for lo, hi in shifted_intervals_1d(tree):
        yield from _cut_batches(tree, lo, hi, edges, lambda u: from_sixths(tree, u))


def window_batches(tree: DyadicTree, lo: np.ndarray, hi: np.ndarray) -> Iterator[IntervalBatch]:
    """Batches of intervals inside the window with exact binary float endpoints (d = 1)."""
    lo, hi = np.asarray(lo, dtype=float), np.asarray(hi, dtype=float)
    yield from _cut_batches(tree, lo, hi, tree.cell_edges(), lambda x: x)


def _sliding_windows(tree: DyadicTree) -> tuple[np.ndarray, np.ndarray]:
    """Quarter-stepped sliding windows [lo, hi) at the top four scales (d=1)."""
    lo, hi = [], []
    for j in range(4):
        scale = tree.root_side / 2**j
        start = -tree.half_width + np.arange(4 * 2**j - 3) * (scale / 4)
        lo.append(start)
        hi.append(start + scale)
    return np.concatenate(lo), np.concatenate(hi)


def scope_batches(tree: DyadicTree, scope: str) -> Iterator[IntervalBatch]:
    """The interval batches a scope sweeps besides the dyadic cubes, checked before any is built.

    "dyadic" adds none; "shifted" adds the 1/3- and 2/3-shifted lattices (d = 1);
    "window" further adds a sliding family of non-lattice intervals at four
    scales, a diagnostic for how far the lattice suprema sit from the
    generic-cube one.
    """
    if scope not in ("dyadic", "shifted", "window"):
        raise ValueError(f"unknown scope {scope!r}")
    if scope == "dyadic":
        return iter(())
    if tree.dim != 1:
        raise LatticeError("shifted scope is implemented for d=1 only")
    windows = window_batches(tree, *_sliding_windows(tree)) if scope == "window" else ()
    return itertools.chain(shifted_batches(tree), windows)
