"""Weights with exact cell masses and the weight characteristics of the lab.

A weight is stored as one exact mass per finest cell plus a representative
(midpoint) density.  Power weights |x|^gamma keep their exponent
symbolically so that duals and pointwise powers stay closed-form: in d=1
the cell masses come from the antiderivative, including the sign change at
the origin; at every d they are computed on one half or orthant and
mirrored.  A power with a non-integrable exponent (gamma <= -d on a cell
touching 0) cannot have an exact mass; those cells fall back to the
midpoint-density convention and the weight is flagged `singular`, which is
exactly the mechanism by which divergent characteristics grow under depth
refinement instead of overflowing.
"""

from __future__ import annotations

import csv
import itertools
import math
import re
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable, Sequence

import numpy as np

from .lattice import (
    Cube,
    DyadicTree,
    IntervalBatch,
    LatticeError,
    as_blocks,
    coarsen_to,
    from_sixths,
    level_sums,
    per_block,
    scope_batches,
    shifted_intervals_1d,
)

_GAUSS_NODES, _GAUSS_WEIGHTS = np.polynomial.legendre.leggauss(10)
_SUBDIVISION_DEPTH = 30  # halvings toward the origin before a plain Gauss rule
# Cells whose node norms one d >= 2 quadrature block holds, 3.1 MiB at d = 2.  The cells are
# those of the positive orthant; `Weight.power_weight` mirrors them onto the rest.  Blocks of 1,024
# cells take the same time per exponent.  Since the norm estimator writes its rows into its
# pool's buffers, the block size no longer sets how often the estimator faults in fresh
# pages: one norms-d2 `run_norms` (seed 1) takes 5.7k minor page faults with 4,096-cell
# blocks and 6.8k with 1,024-cell blocks, where row temporaries took 5.9k and 97k
# (`resource.getrusage`, 5 fresh processes each, 2-CPU x86-64 Linux host).
_BLOCK_CELLS = 4096


def _power_antiderivative(x: float, gamma: float) -> float:
    """F with F' = |x|^gamma, F(0) = 0, valid for gamma > -1."""
    if x == 0.0:
        return 0.0
    return math.copysign(abs(x) ** (gamma + 1.0) / (gamma + 1.0), x)


def power_interval_mass(lo: float, hi: float, gamma: float) -> float:
    """Exact integral of |x|^gamma over [lo, hi).

    For gamma <= -1 the integral over an interval touching 0 diverges; the
    two half-intervals adjacent to the origin are then assigned midpoint
    density times length (the resolved-scale truncation convention).
    """
    if hi <= lo:
        return 0.0
    if lo < 0.0 < hi:
        return power_interval_mass(lo, 0.0, gamma) + power_interval_mass(0.0, hi, gamma)
    e = gamma + 1.0
    if e >= 1e-3 or (e > 0.0 and (lo == 0.0 or hi == 0.0)):
        return _power_antiderivative(hi, gamma) - _power_antiderivative(lo, gamma)
    a, b = abs(lo), abs(hi)
    a, b = min(a, b), max(a, b)
    if a > 0.0:
        if e > -1e-3:  # b^e - a^e cancels (to 0 at |e| ~ 1e-16); expm1 does not
            return a**e * math.expm1(e * math.log(b / a)) / e if e else math.log(b / a)
        return (b**e - a**e) / e
    # interval with one endpoint at the origin
    mid = 0.5 * b
    return mid**gamma * b


def _squares_root(parts: Sequence[np.ndarray]) -> np.ndarray:
    """sqrt(part_0**2 + part_1**2 + ...), the parts broadcast together and added in order."""
    out = np.zeros(np.broadcast_shapes(*(part.shape for part in parts)))
    for part in parts:
        out += part**2
    return np.sqrt(out, out=out)


def _tensor_weights(parts: Sequence[np.ndarray]) -> np.ndarray:
    """The product of per-axis Gauss weights on the tensor grid, multiplied in axis order."""
    out = np.ones(np.broadcast_shapes(*(part.shape for part in parts)))
    for part in parts:
        out *= part
    return out


def _on_axes(arr: np.ndarray, axes: Sequence[int], ndim: int) -> np.ndarray:
    """View arr with its axes placed at `axes` of an ndim-axis broadcast grid."""
    shape = [1] * ndim
    for axis, n in zip(axes, arr.shape):
        shape[axis] = n
    return arr.reshape(shape)


def _subdivision(corner: tuple, side: float, boxes: list, depth: int = 0):
    """The dyadic subdivision of a box toward the origin, as a summation tree.

    A leaf is the index of one Gauss box appended to `boxes`; an inner node
    lists its 2^d children, whose values are added in that order.
    """
    if not all(c <= 0.0 <= c + side for c in corner) or depth >= _SUBDIVISION_DEPTH:
        boxes.append((corner, side))
        return len(boxes) - 1
    half = 0.5 * side
    return [
        _subdivision(tuple(c + o * half for c, o in zip(corner, offs)), half, boxes, depth + 1)
        for offs in itertools.product((0, 1), repeat=len(corner))
    ]


def _fold(node, values: list[float]) -> float:
    """A summation tree's value: its leaves' values added depth first, left to right."""
    if isinstance(node, int):
        return values[node]
    total = 0.0
    for child in node:
        total += _fold(child, values)
    return total


def _mid_radii(tree: DyadicTree) -> np.ndarray:
    """Midpoint norms of the positive half's (d = 1) or orthant's cells; a depth-0 tree's
    one cell, whose midpoint is the origin, takes s sqrt(d) / 4, its box [0, s/2)^d's."""
    d, s = tree.dim, tree.cell_side
    if tree.depth == 0:
        return np.full((1,) * d, 0.25 * s * math.sqrt(d))
    centers = tree.cell_centers()[2**tree.depth // 2:]
    return _squares_root([_on_axes(centers, (a,), d) for a in range(d)])


@dataclass
class _QuadraturePlan:
    """The exponent-independent part of the d >= 2 power-weight quadrature on one tree.

    Tensor Gauss quadrature over the positive orthant's cells (at depth 0
    the one cell), with dyadic subdivision toward the origin; relative
    tolerance ~1e-8 for gamma > -d.  `node_coords` are the Gauss node
    coordinates of the positive rows along one axis (the same on every
    axis) and `node_weights` one cell's tensor weights.  The corner cell
    [0, s)^d, or the root at depth 0, keeps its midpoint norm and the
    summation tree over the boxes of its subdivision, whose node norms and
    weights are `box_radii` and `box_weights`, one box per leading row.
    `evaluate` builds node norms for a block of rows along the leading cell
    axis at a time, about `_BLOCK_CELLS` cells, so the plan and an
    evaluation hold O(n_cells) floats.
    """

    side: float
    node_coords: np.ndarray
    node_weights: np.ndarray
    corner_radius: float
    corner_tree: object
    box_radii: np.ndarray
    box_weights: np.ndarray

    def evaluate(self, gamma: float) -> np.ndarray:
        """The masses of |x|^gamma on the positive orthant's cells."""
        d = self.node_weights.ndim
        m = len(self.node_coords)
        half = np.empty((m,) * d)
        step = max(1, _BLOCK_CELLS // m ** (d - 1))
        # the squared node coordinates per axis; a node's squared norm adds them in axis
        # order, as `_squares_root` does (0 + x == x for the first)
        squares = [_on_axes(self.node_coords**2, (a, d + a), 2 * d) for a in range(d)]
        nodes = tuple(range(d, 2 * d))
        buffer = np.empty((min(step, m),) + (m,) * (d - 1) + self.node_weights.shape)
        for lo in range(0, m, step):
            block = buffer[:min(step, m - lo)]
            np.add(squares[0][lo:lo + step], squares[1], out=block)
            for part in squares[2:]:
                block += part
            np.sqrt(block, out=block)
            np.power(block, gamma, out=block)
            block *= self.node_weights
            block.sum(axis=nodes, out=half[lo:lo + step])
        corner = (0,) * d
        if gamma <= -d:
            # non-integrable: midpoint convention on the cell at the origin
            half[corner] = self.corner_radius**gamma * self.side**d
        else:
            values = (self.box_radii**gamma * self.box_weights).sum(axis=tuple(range(1, d + 1)))
            half[corner] = _fold(self.corner_tree, values.tolist())
        return half


@lru_cache(maxsize=1)
def _quadrature_plan(tree: DyadicTree) -> _QuadraturePlan:
    """The d >= 2 quadrature plan of `tree`, resident until another tree asks for one."""
    d, s = tree.dim, tree.cell_side
    half = 0.5 * s
    positive = tree.cell_edges()[2**tree.depth // 2:-1]
    node_coords = positive[:, None] + half * (_GAUSS_NODES + 1.0)
    node_weights = _tensor_weights([_on_axes(_GAUSS_WEIGHTS * half, (a,), d) for a in range(d)])
    corner = (float(positive[0]),) * d
    radius = float(_mid_radii(tree)[(0,) * d])
    boxes: list = []
    corner_tree = _subdivision(corner, s, boxes)
    corners = np.array([c for c, _ in boxes]).reshape(len(boxes), d)
    halves = 0.5 * np.array([side for _, side in boxes])
    box_nodes = halves[:, None] * (_GAUSS_NODES + 1.0)
    box_radii = _squares_root(
        [_on_axes(corners[:, a, None] + box_nodes, (0, 1 + a), 1 + d) for a in range(d)]
    )
    box_weights = _tensor_weights(
        [_on_axes(_GAUSS_WEIGHTS * halves[:, None], (0, 1 + a), 1 + d) for a in range(d)]
    )
    return _QuadraturePlan(s, node_coords, node_weights, radius, corner_tree, box_radii,
                           box_weights)


class Weight:
    """A strictly positive grid weight with exact per-cell masses."""

    def __init__(
        self,
        tree: DyadicTree,
        density: np.ndarray,
        cell_mass: np.ndarray | None = None,
        power: float | None = None,
        singular: bool = False,
    ):
        density = np.asarray(density, dtype=float)
        if density.shape != tree.shape:
            raise LatticeError("density array does not match the tree")
        if not np.all(density > 0.0):
            raise LatticeError("weights must be strictly positive")
        self.tree = tree
        self.density = density
        self.cell_mass = (
            np.asarray(cell_mass, dtype=float) if cell_mass is not None else density * tree.cell_volume
        )
        if not np.all(self.cell_mass > 0.0):
            raise LatticeError("cell masses must be strictly positive")
        self.power = power  # exponent when this is |x|^power, else None
        self.singular = singular
        self._level_masses: list[np.ndarray] | None = None

    # -- constructors ---------------------------------------------------

    @classmethod
    @lru_cache(maxsize=1)
    def lebesgue(cls, tree: DyadicTree) -> "Weight":
        """Lebesgue measure on `tree`, one instance per tree while it is the last one asked."""
        return cls(tree, np.ones(tree.shape), power=0.0)

    @classmethod
    def from_density(cls, tree: DyadicTree, density: np.ndarray) -> "Weight":
        return cls(tree, density)

    @classmethod
    def power_weight(cls, tree: DyadicTree, gamma: float) -> "Weight":
        """|x|^gamma with exact cell masses (d=1 closed form, else quadrature).

        |x|^gamma is the same on every orthant of the window, so masses and
        midpoint densities (`_mid_radii`) are computed on the positive half
        (d = 1) or orthant only, and every cell takes its mirror cell's by
        one gather: both are mirror-symmetric bit for bit.  In d >= 2 a
        10-point tensor Gauss rule runs over each cell, the corner cell at
        the origin (the root at depth 0) subdivided toward it 30 times.
        Everything but the exponent is a quadrature plan built once per tree
        and kept resident until a weight on another tree is built: node
        coordinates and subdivision boxes, O(n_cells) floats.  Each exponent
        builds node norms in blocks of `_BLOCK_CELLS` cells (10^d nodes
        each, 3.1 MiB at d = 2).  gamma = 0 (either sign) is Lebesgue
        measure, exactly.
        """
        if gamma == 0.0:
            return cls(tree, np.ones(tree.shape), power=gamma)
        d, n = tree.dim, 2**tree.depth
        if d == 1:
            edges = tree.cell_edges()[n // 2:]
            mass = power_interval_masses(edges[:-1], edges[1:], gamma)
        else:
            mass = _quadrature_plan(tree).evaluate(gamma)
        fold = np.abs(2 * np.arange(n) - (n - 1)) // 2  # each cell's mirror in the positive half
        mirror = np.ix_(*[fold] * d)
        density = _mid_radii(tree) ** gamma
        return cls(tree, density[mirror], mass[mirror], power=gamma, singular=gamma <= -d)

    def pointwise_power(self, t: float) -> "Weight":
        """The weight w^t; exact for power weights, cellwise for the rest."""
        if self.power is not None:
            return Weight.power_weight(self.tree, self.power * t)
        return Weight(self.tree, self.density**t)

    def product(self, other: "Weight") -> "Weight":
        if self.power is not None and other.power is not None:
            return Weight.power_weight(self.tree, self.power + other.power)
        return Weight(self.tree, self.density * other.density)

    # -- masses -----------------------------------------------------------

    def level_masses(self) -> list[np.ndarray]:
        """Exact masses of every cube, one array per level (additivity up the tree)."""
        if self._level_masses is None:
            self._level_masses = level_sums(self.tree, self.cell_mass)
        return self._level_masses

    def mass(self, cube: Cube) -> float:
        return float(self.level_masses()[cube.level][cube.index])


def power_interval_masses(lo: np.ndarray, hi: np.ndarray, gamma: float) -> np.ndarray:
    """`power_interval_mass` over paired endpoint arrays, one exact scalar call each."""
    return np.array([power_interval_mass(a, b, gamma) for a, b in zip(lo.tolist(), hi.tolist())])


def batch_cell_masses(weight: Weight, batch: IntervalBatch) -> np.ndarray:
    """Per-cell masses of every interval of a batch.

    Each cell contributes its mass times the fraction of it covered; power
    weights take the partial end cells from the closed form instead.
    """
    cell = weight.tree.cell_side
    masses = weight.cell_mass[batch.cells] * (batch.lengths / cell)
    if weight.power is not None:
        edges = weight.tree.cell_edges()
        for col in (0, -1):  # only the end cells can be partial
            part = np.flatnonzero(batch.lengths[:, col] < cell * (1.0 - 1e-12))
            cells = batch.cells[part, col]
            lo = np.maximum(batch.lo[part], edges[cells])
            hi = np.minimum(batch.hi[part], edges[cells + 1])
            masses[part, col] = power_interval_masses(lo, hi, weight.power)
    return masses


def batch_masses(weight: Weight, batch: IntervalBatch) -> np.ndarray:
    """Mass of every interval of a batch: closed form for power weights, else cell masses summed."""
    if weight.power is not None:
        return power_interval_masses(batch.lo, batch.hi, weight.power)
    return batch_cell_masses(weight, batch).sum(axis=1)


# -- exponent bookkeeping ------------------------------------------------------


@dataclass(frozen=True)
class ExponentConfig:
    """Integrability exponents (p, q) with the derived quantities used everywhere.

    r satisfies 1/r = 1/q - 1/p and is only finite in the strict upper
    triangle q < p (math.inf otherwise); alpha/d = 1/p - 1/q.
    """

    p: float
    q: float
    dim: int = 1

    def __post_init__(self):
        if not (1.0 < self.p < math.inf and 1.0 < self.q < math.inf):
            raise ValueError("exponents must lie in (1, infinity)")

    @property
    def p_conj(self) -> float:
        return self.p / (self.p - 1.0)

    @property
    def q_conj(self) -> float:
        return self.q / (self.q - 1.0)

    @property
    def r(self) -> float:
        if self.q >= self.p:
            return math.inf
        return 1.0 / (1.0 / self.q - 1.0 / self.p)

    @property
    def r_conj(self) -> float:
        return 1.0 / (1.0 / self.p + 1.0 / self.q_conj)

    @property
    def alpha(self) -> float:
        return self.dim * (1.0 / self.p - 1.0 / self.q)

    @property
    def bloom_exponent(self) -> float:
        """1/p + 1/q', the exponent tying the intermediate weight to mu and lambda."""
        return 1.0 / self.p + 1.0 / self.q_conj


def conjugate(p: float) -> float:
    return p / (p - 1.0)


# -- characteristics ----------------------------------------------------------


def ap_characteristic(w: Weight, p: float, scope: str = "dyadic") -> float:
    """sup over cubes of <w>_Q <w^(-p'/p)>_Q^(p/p'), the strength of the weight at exponent p.

    Q runs over the tree and the intervals of `scope` (`lattice.scope_batches`),
    inside the window only: grid data exists nowhere else.
    """
    if not 1.0 < p < math.inf:
        raise ValueError("p must be in (1, infinity)")
    tree = w.tree
    batches = scope_batches(tree, scope)
    pc = conjugate(p)
    dual = dual_weight(w, p)
    levels = enumerate(zip(w.level_masses(), dual.level_masses()))
    avgs = itertools.chain(
        ((m / tree.volume(k), md / tree.volume(k)) for k, (m, md) in levels),
        ((batch_masses(w, batch) / batch.size, batch_masses(dual, batch) / batch.size)
         for batch in batches),
    )
    return max(1.0, max(float((a * ad ** (p / pc)).max()) for a, ad in avgs))


def fujii_wilson_ainfty(w: Weight, mu: Weight) -> float:
    """sup_Q (1/w(Q)) int_Q sup_{R in D(Q), R ni x} w(R)/mu(R) dmu.

    One sweep up the tree carrying the running max of the cube ratios per
    cell; at each level the integrand is summed over that level's cubes.
    """
    tree = w.tree
    w_levels = w.level_masses()
    mu_levels = mu.level_masses()
    mu_cell = mu_levels[tree.depth]
    # running: max over the cubes R between level k and the cell
    running = w_levels[tree.depth] / mu_cell
    best = 1.0
    for k in range(tree.depth, -1, -1):
        ratio_k = per_block(w_levels[k] / mu_levels[k])
        running = np.maximum(ratio_k, as_blocks(running, k)).reshape(tree.shape)
        best = max(best, float((coarsen_to(running * mu_cell, k) / w_levels[k]).max()))
    return best


def cube_stack(tree: DyadicTree, cubes: Iterable[Cube]) -> list[np.ndarray]:
    """A cube collection as per-level counts, one array per level 0 .. depth.

    A cube listed twice counts twice.
    """
    stack = [np.zeros((2**k,) * tree.dim) for k in range(tree.depth + 1)]
    for cube in cubes:
        stack[cube.level][cube.index] += 1.0
    return stack


def dual_weight(w: Weight, p: float) -> Weight:
    """w^(-p'/p), the weight on the dual side of the pairing at exponent p."""
    if not 1.0 < p < math.inf:
        raise ValueError("p must be in (1, infinity)")
    return w.pointwise_power(-conjugate(p) / p)


# -- the Bloom triple and joint characteristics -------------------------------


class BloomTriple:
    """Weights (mu, lambda) at exponents (p, q) with the induced intermediate weight.

    The intermediate weight nu is defined cellwise on midpoint densities by
    nu^(1/p + 1/q') = mu^(1/p) * lambda^(-1/q), with masses rebuilt from
    the derived density (closed form when both inputs are power weights).
    """

    def __init__(self, mu: Weight, lam: Weight, cfg: ExponentConfig):
        if mu.tree != lam.tree:
            raise LatticeError("mu and lambda live on different trees")
        self.mu = mu
        self.lam = lam
        self.cfg = cfg
        self.mu_dual = dual_weight(mu, cfg.p)
        self.lam_dual = dual_weight(lam, cfg.q)
        e = cfg.bloom_exponent
        if mu.power is not None and lam.power is not None:
            gamma = (mu.power / cfg.p - lam.power / cfg.q) / e
            self.nu = Weight.power_weight(mu.tree, gamma)
        else:
            density = (mu.density ** (1.0 / cfg.p) * lam.density ** (-1.0 / cfg.q)) ** (1.0 / e)
            self.nu = Weight(mu.tree, density)
        self._check_pointwise_relation()

    def _check_pointwise_relation(self):
        e = self.cfg.bloom_exponent
        lhs = self.nu.density**e
        rhs = self.mu.density ** (1.0 / self.cfg.p) * self.lam.density ** (-1.0 / self.cfg.q)
        err = np.max(np.abs(lhs - rhs) / np.maximum(np.abs(rhs), 1e-300))
        if err > 1e-12:
            raise AssertionError(f"intermediate weight violates the defining relation: {err}")

    @property
    def tree(self) -> DyadicTree:
        return self.mu.tree


def upper_joint_characteristic(t: BloomTriple) -> float:
    """sup_Q <mu'>^(1/p') <lambda>^(1/q) <nu>^(1/p+1/q'), the upper-bound weight constant."""
    cfg, vol = t.cfg, t.tree.volume
    levels = enumerate(zip(t.mu_dual.level_masses(), t.lam.level_masses(), t.nu.level_masses()))
    return max(
        float(((a / vol(k)) ** (1.0 / cfg.p_conj) * (b / vol(k)) ** (1.0 / cfg.q)
               * (c / vol(k)) ** cfg.bloom_exponent).max())
        for k, (a, b, c) in levels
    )


def lower_joint_characteristic(t: BloomTriple) -> float:
    """sup_Q (mu(Q)/nu(Q))^(1/p) (lambda'(Q)/nu(Q))^(1/q'), the lower-bound weight constant."""
    cfg = t.cfg
    levels = zip(t.mu.level_masses(), t.lam_dual.level_masses(), t.nu.level_masses())
    return max(float(((m / n) ** (1.0 / cfg.p) * (ld / n) ** (1.0 / cfg.q_conj)).max())
               for m, ld, n in levels)


def power_weight_cube_lower_bound(tree: DyadicTree, gamma: float, scope: str = "shifted") -> float:
    """Smallest C with side(Q)^(gamma+d) <= C * nu(Q) over the cube family, nu = |x|^gamma.

    Nonnegative powers give every cube mass at least proportional to its
    side raised to gamma+d; this measures the constant on the finite model.
    scope="dyadic" sweeps the tree; scope="shifted" adds the 1/3- and
    2/3-shifted lattices (d=1 only), every interval that meets the window:
    power masses are closed form, so intervals poking past it still get
    their true mass.
    """
    if gamma < 0.0:
        raise ValueError("gamma must be nonnegative")
    if scope not in ("dyadic", "shifted"):
        raise ValueError(f"unknown scope {scope!r}")
    nu = Weight.power_weight(tree, gamma)
    e = gamma + tree.dim
    vals = (tree.side(k) ** e / mass for k, mass in enumerate(nu.level_masses()))
    if scope == "shifted":
        shifted = (
            from_sixths(tree, hi - lo) ** e
            / power_interval_masses(from_sixths(tree, lo), from_sixths(tree, hi), gamma)
            for lo, hi in shifted_intervals_1d(tree, inside=False)
        )
        vals = itertools.chain(vals, shifted)
    return max(float(v.max()) for v in vals)


def divergence_flag(values: Sequence[float], factor: float = 1.5, window: int = 3) -> bool:
    """True when the sequence grows by >= `factor` across `window` consecutive refinements."""
    vals = list(values)
    for i in range(len(vals) - window):
        if vals[i] > 0.0 and vals[i + window] / vals[i] >= factor:
            return True
    return False


# -- weight specification grammar ---------------------------------------------

_POWER_RE = re.compile(r"^power\((?P<g>[^()]+)\)$")
_DUAL_RE = re.compile(r"^dual\((?P<body>.+),(?P<p>[^(),]+)\)$")
_PRODUCT_RE = re.compile(r"^product\((?P<body>.+)\)$")
_PIECEWISE_RE = re.compile(r"^piecewise\((?P<path>[^()]+)\)$")


def _split_top_level(body: str) -> list[str]:
    parts, depth, start = [], 0, 0
    for i, ch in enumerate(body):
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
        elif ch == "," and depth == 0:
            parts.append(body[start:i])
            start = i + 1
    parts.append(body[start:])
    return parts


def parse_weight(spec: str, tree: DyadicTree) -> Weight:
    """Build a weight from the spec grammar.

    Supported forms: ``power(gamma)``, ``piecewise(csv-path)``,
    ``product(w1,w2)``, ``dual(w,p)``, and ``lebesgue``.
    """
    spec = spec.strip()
    if spec in ("1", "lebesgue"):
        return Weight.lebesgue(tree)
    m = _POWER_RE.match(spec)
    if m:
        return Weight.power_weight(tree, float(m.group("g")))
    m = _PIECEWISE_RE.match(spec)
    if m:
        path = m.group("path").strip()
        with open(path, newline="") as fh:
            rows = [float(x) for row in csv.reader(fh) for x in row if x.strip()]
        arr = np.asarray(rows, dtype=float)
        if arr.size != tree.n_cells:
            raise ValueError(
                f"piecewise file {path} has {arr.size} values, tree needs {tree.n_cells}"
            )
        return Weight.from_density(tree, arr.reshape(tree.shape))
    m = _PRODUCT_RE.match(spec)
    if m:
        parts = _split_top_level(m.group("body"))
        if len(parts) != 2:
            raise ValueError(f"product() takes two weight specs, got {len(parts)}")
        return parse_weight(parts[0], tree).product(parse_weight(parts[1], tree))
    m = _DUAL_RE.match(spec)
    if m:
        return dual_weight(parse_weight(m.group("body"), tree), float(m.group("p")))
    raise ValueError(f"cannot parse weight spec {spec!r}")
