"""Finite dyadic trees, cells, averages, and shifted-lattice geometry.

The universe for every computation in this package is a complete dyadic
tree over the root cube [-H, H)^d: the root splits into 2^d half-open
children, recursively, down to a finest level N.  Because H is a power of
two and every corner is a dyadic rational times H, all cell volumes and
partition identities are exact in binary floating point.

Shifted lattices (the three per-axis shifts 0, 1/3, 2/3) are geometry
only: they are integration domains against the base-tree cell partition,
never carriers of data.  `ShiftedLattice` and `one_third_cover` keep exact
`Fraction` corners; the d = 1 interval engine at the end of this module
counts every shifted endpoint as an exact integer number of sixths of a
finest cell and batches whole (shift, level) families as integer arrays.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterator, Sequence

import numpy as np

THIRD_SHIFTS = (Fraction(0), Fraction(1, 3), Fraction(2, 3))


class LatticeError(ValueError):
    """Raised for structurally invalid lattice operations."""


class CoverError(LatticeError):
    """Raised when no shifted cube can cover a target within the finite model.

    The ``reason`` attribute reports which constraint failed:
    ``"too-small"`` (target below the finest resolved scale) or
    ``"too-large"`` (target too big relative to the root window).
    """

    def __init__(self, reason: str, message: str):
        super().__init__(message)
        self.reason = reason


def _reduce_axis(arr: np.ndarray, axis: int) -> np.ndarray:
    """Sum adjacent pairs along one axis (one coarsening step)."""
    shape = list(arr.shape)
    shape[axis] //= 2
    shape.insert(axis + 1, 2)
    return arr.reshape(shape).sum(axis=axis + 1)


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
        out = np.repeat(out, 2, axis=axis)
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

    def cube(self, level: int, index: Sequence[int]) -> "Cube":
        return Cube(self, level, tuple(index))

    def cubes_at_level(self, level: int) -> Iterator["Cube"]:
        for index in itertools.product(range(2**level), repeat=self.dim):
            yield Cube(self, level, index)

    def cubes(self, max_level: int | None = None) -> Iterator["Cube"]:
        top = self.depth if max_level is None else max_level
        for level in range(top + 1):
            yield from self.cubes_at_level(level)

    def cell_cube(self, flat_index: int) -> "Cube":
        index = np.unravel_index(flat_index, self.shape)
        return Cube(self, self.depth, tuple(int(i) for i in index))

    def cell_centers(self, axis: int = 0) -> np.ndarray:
        """Midpoints of the finest cells along one axis."""
        n = 2**self.depth
        return -self.half_width + (np.arange(n) + 0.5) * self.cell_side

    def cell_edges(self, axis: int = 0) -> np.ndarray:
        n = 2**self.depth
        return -self.half_width + np.arange(n + 1) * self.cell_side

    def contains_box(self, corner: Sequence[float], side: float) -> bool:
        return all(
            -self.half_width <= c and c + side <= self.half_width for c in corner
        )


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
        s = self.side
        return tuple(-self.tree.half_width + i * s for i in self.index)

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

    def contains(self, other: "Cube") -> bool:
        if other.level < self.level:
            return False
        shift = other.level - self.level
        return all(o >> shift == i for i, o in zip(self.index, other.index))

    def ancestors(self, within: "Cube | None" = None) -> Iterator["Cube"]:
        """Cubes strictly containing self, from parent upward (optionally stopping at `within`)."""
        cube = self
        stop_level = 0 if within is None else within.level
        while cube.level > stop_level:
            cube = cube.parent()
            yield cube

    def cell_slices(self) -> tuple[slice, ...]:
        """Index slices of the finest-cell array covered by this cube."""
        span = 2 ** (self.tree.depth - self.level)
        return tuple(slice(i * span, (i + 1) * span) for i in self.index)

    def cell_count(self) -> int:
        return 2 ** (self.tree.dim * (self.tree.depth - self.level))

    def flat_cells(self) -> np.ndarray:
        """Flat indices (into the raveled cell array) of the cells inside this cube."""
        grid = np.zeros(self.tree.shape, dtype=bool)
        grid[self.cell_slices()] = True
        return np.flatnonzero(grid.ravel())


def restrict_tree(tree: DyadicTree, q0: Cube) -> DyadicTree:
    """Subtree rooted at q0, as a standalone tree of depth N - level(q0).

    The restricted root keeps q0's geometry only up to recentring: grid
    data must be moved with `GridFunction.restrict`, which slices cells.
    """
    if q0.tree != tree:
        raise LatticeError("cube does not belong to this tree")
    sub = DyadicTree(tree.dim, tree.depth - q0.level, half_width=q0.side / 2.0)
    return sub


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
    def from_callable(cls, tree: DyadicTree, fn: Callable[..., float]) -> "GridFunction":
        """Sample `fn` at cell midpoints (d arguments, vectorized per axis)."""
        axes = np.meshgrid(*(tree.cell_centers(a) for a in range(tree.dim)), indexing="ij")
        return cls(tree, np.asarray(fn(*axes), dtype=float))

    @classmethod
    def indicator(cls, tree: DyadicTree, cube: Cube) -> "GridFunction":
        vals = np.zeros(tree.shape)
        vals[cube.cell_slices()] = 1.0
        return cls(tree, vals)

    @classmethod
    def ball_indicator(cls, tree: DyadicTree, radius: float = 1.0) -> "GridFunction":
        """Indicator of the Euclidean ball of given radius, sampled at midpoints."""
        axes = np.meshgrid(*(tree.cell_centers(a) for a in range(tree.dim)), indexing="ij")
        rr = sum(a**2 for a in axes)
        return cls(tree, (rr <= radius**2).astype(float))

    # -- arithmetic -------------------------------------------------------

    def copy(self) -> "GridFunction":
        return GridFunction(self.tree, self.values.copy())

    def _binary(self, other, op) -> "GridFunction":
        if isinstance(other, GridFunction):
            if other.tree != self.tree:
                raise LatticeError("grid functions live on different trees")
            return GridFunction(self.tree, op(self.values, other.values))
        return GridFunction(self.tree, op(self.values, other))

    def __add__(self, other):
        return self._binary(other, np.add)

    __radd__ = __add__

    def __sub__(self, other):
        return self._binary(other, np.subtract)

    def __rsub__(self, other):
        return GridFunction(self.tree, other - self.values)

    def __mul__(self, other):
        return self._binary(other, np.multiply)

    __rmul__ = __mul__

    def __neg__(self):
        return GridFunction(self.tree, -self.values)

    def abs(self) -> "GridFunction":
        return GridFunction(self.tree, np.abs(self.values))

    # -- integration ------------------------------------------------------

    def integral(self, cube: Cube | None = None) -> float:
        """Exact Lebesgue integral over a tree cube (default: the root)."""
        if cube is None:
            return float(self.values.sum() * self.tree.cell_volume)
        if cube.tree != self.tree:
            raise LatticeError("cube does not belong to this function's tree")
        return float(self.values[cube.cell_slices()].sum() * self.tree.cell_volume)

    def level_sums(self) -> list[np.ndarray]:
        """Per-level arrays of cell-value sums; entry k has shape (2^k,)^d."""
        return level_sums(self.tree, self.values)

    def restrict(self, q0: Cube) -> "GridFunction":
        sub = restrict_tree(self.tree, q0)
        return GridFunction(sub, self.values[q0.cell_slices()].copy())


def average(f: GridFunction, cube: Cube, weight=None) -> float:
    """Weighted mean of f over a cube: exact cell-mass sum over exact total mass.

    `weight` is None for Lebesgue measure, else a weights.Weight on the
    same tree.
    """
    if cube.tree != f.tree:
        raise LatticeError("cube does not belong to this function's tree")
    sl = cube.cell_slices()
    if weight is None:
        return float(f.values[sl].mean())
    if weight.tree != f.tree:
        raise LatticeError("weight lives on a different tree")
    masses = weight.cell_mass[sl]
    total = masses.sum()
    if not total > 0.0:
        raise LatticeError(f"zero-mass cube {cube}: weight is corrupted")
    return float((f.values[sl] * masses).sum() / total)


def haar_difference(b: GridFunction, cube: Cube) -> GridFunction:
    """Difference of child averages and the cube average, supported on the cube.

    The output is constant on each child, vanishes outside the cube, and
    integrates to zero over the cube.
    """
    if cube.is_leaf():
        raise LatticeError("finest-level cube has no children to average over")
    out = np.zeros(b.tree.shape)
    mean_q = average(b, cube)
    for child in cube.children():
        out[child.cell_slices()] = average(b, child) - mean_q
    return GridFunction(b.tree, out)


# -- shifted lattices and the one-third covering -----------------------------


@dataclass(frozen=True)
class ShiftedCube:
    """A cube of a shifted lattice, with exact rational geometry.

    Level-k cubes of the lattice with per-axis shift alpha have side
    s = root_side / 2^k and corners s * (j + (-1)^k alpha).  Thirds are not
    binary rationals, so corners are kept as `Fraction`s.
    """

    alpha: tuple[Fraction, ...]
    level: int
    index: tuple[int, ...]
    side_frac: Fraction

    @property
    def corner_frac(self) -> tuple[Fraction, ...]:
        sign = -1 if self.level % 2 else 1
        return tuple(self.side_frac * (j + sign * a) for j, a in zip(self.index, self.alpha))

    @property
    def side(self) -> float:
        return float(self.side_frac)

    @property
    def corner(self) -> tuple[float, ...]:
        return tuple(float(c) for c in self.corner_frac)

    def contains_box(self, corner: Sequence[Fraction], side: Fraction) -> bool:
        own = self.corner_frac
        return all(oc <= c and c + side <= oc + self.side_frac for oc, c in zip(own, corner))

    def axis_interval(self, axis: int) -> tuple[Fraction, Fraction]:
        c = self.corner_frac[axis]
        return c, c + self.side_frac


class ShiftedLattice:
    """The family of 3^d shifted lattices over a tree's root window, geometry only."""

    def __init__(self, tree: DyadicTree):
        self.tree = tree
        self.root_side = Fraction(tree.root_side)
        self.alphas = list(itertools.product(THIRD_SHIFTS, repeat=tree.dim))

    def side_frac(self, level: int) -> Fraction:
        return self.root_side / 2**level

    def cube_containing(
        self, alpha: tuple[Fraction, ...], level: int, point: Sequence[Fraction]
    ) -> ShiftedCube:
        """The unique level-`level` cube of lattice alpha whose half-open box contains `point`."""
        s = self.side_frac(level)
        sign = -1 if level % 2 else 1
        index = tuple(int((Fraction(x) / s - sign * a).__floor__()) for x, a in zip(point, alpha))
        return ShiftedCube(alpha, level, index, s)

    def cubes_overlapping_window(self, alpha: tuple[Fraction, ...], level: int) -> Iterator[ShiftedCube]:
        """All level-`level` cubes of lattice alpha meeting the open root window.

        One cube at a time with rational corners; `shifted_intervals_1d` is
        the batched d = 1 form, and this is its reference enumeration.
        """
        s = self.side_frac(level)
        sign = -1 if level % 2 else 1
        h = Fraction(self.tree.half_width)
        ranges = []
        for a in alpha:
            # corner s(j + sign*a) must satisfy corner < H and corner + s > -H
            lo = int(((-h) / s - sign * a - 1).__floor__()) + 1
            hi = int((h / s - sign * a).__ceil__())  # exclusive
            ranges.append(range(lo, hi))
        for index in itertools.product(*ranges):
            yield ShiftedCube(alpha, level, tuple(index), s)


def one_third_cover(
    tree_or_lattice: DyadicTree | ShiftedLattice,
    corner: Sequence[float],
    side: float,
) -> tuple[tuple[Fraction, ...], ShiftedCube]:
    """Cover an arbitrary axis-parallel cube by a shifted-lattice cube.

    Returns a shift tag alpha and a cube R of that lattice with Q inside R
    and side(R) <= 3 side(Q).  Raises CoverError when the finite model
    cannot host such an R (target below the finest scale, or too large
    relative to the root).
    """
    lattice = (
        tree_or_lattice
        if isinstance(tree_or_lattice, ShiftedLattice)
        else ShiftedLattice(tree_or_lattice)
    )
    tree = lattice.tree
    corner_f = tuple(Fraction(float(c)) for c in corner)
    side_f = Fraction(float(side))
    if side_f <= 0:
        raise LatticeError("cube side must be positive")
    if not tree.contains_box([float(c) for c in corner_f], float(side_f)):
        raise LatticeError("target cube is not inside the root window")

    # Finest level whose cubes are at least as large as the target.
    k_fine = 0
    while lattice.side_frac(k_fine + 1) >= side_f and k_fine + 1 <= tree.depth:
        k_fine += 1
    if lattice.side_frac(k_fine) < side_f:
        raise CoverError("too-large", f"no lattice scale at least {float(side_f)} within the model")
    if side_f < Fraction(tree.cell_side):
        raise CoverError("too-small", f"target side {float(side_f)} is below the finest cell scale")

    for level in (k_fine, k_fine - 1):
        if level < 0:
            continue
        if lattice.side_frac(level) > 3 * side_f:
            continue
        for alpha in lattice.alphas:
            cand = lattice.cube_containing(alpha, level, corner_f)
            if cand.contains_box(corner_f, side_f):
                return alpha, cand
    raise CoverError(
        "too-large",
        "no shifted cube of side <= 3*side(Q) covers the target; it sits too close "
        "to the root scale for the finite model",
    )


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
    t = (-1)^k 6 alpha 2^(N-k).  Families come in `ShiftedLattice.alphas`
    order, then by level.  inside=True keeps the intervals inside the root
    window, inside=False every interval meeting it.
    """
    if tree.dim != 1:
        raise LatticeError("shifted scope is implemented for d=1 only")
    half = 3 * 2**tree.depth  # H in sixths of a cell
    for alpha in THIRD_SHIFTS:
        for level in range(tree.depth + 1):
            length = 6 * 2 ** (tree.depth - level)
            t = (-1) ** level * int(6 * alpha) * 2 ** (tree.depth - level)
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

    def oscillation(self, values: np.ndarray) -> np.ndarray:
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
    """The shifted-lattice intervals inside the root window, one batch per (shift, level)."""
    n = 2**tree.depth
    edges = 6 * np.arange(n + 1) - 3 * n
    for lo, hi in shifted_intervals_1d(tree):
        yield from _cut_batches(tree, lo, hi, edges, lambda u: from_sixths(tree, u))


def window_batches(tree: DyadicTree, lo: np.ndarray, hi: np.ndarray) -> Iterator[IntervalBatch]:
    """Batches of intervals inside the window with exact binary float endpoints (d = 1)."""
    lo, hi = np.asarray(lo, dtype=float), np.asarray(hi, dtype=float)
    yield from _cut_batches(tree, lo, hi, tree.cell_edges(), lambda x: x)
