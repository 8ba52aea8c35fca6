"""Weights with exact cell masses and the weight characteristics of the lab.

A weight is stored as one exact mass per finest cell plus a representative
(midpoint) density.  Power weights |x|^gamma keep their exponent
symbolically so that duals and pointwise powers stay closed-form: in d=1
the cell masses come from the antiderivative, including the sign change at
the origin.  A power with a non-integrable exponent (gamma <= -1 on a cell
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
from fractions import Fraction
from typing import Iterable, Sequence

import numpy as np

from .lattice import (
    Cube,
    DyadicTree,
    IntervalBatch,
    LatticeError,
    as_blocks,
    coarsen_once,
    coarsen_to,
    from_sixths,
    per_block,
    shifted_batches,
    shifted_intervals_1d,
)

_GAUSS_NODES, _GAUSS_WEIGHTS = np.polynomial.legendre.leggauss(10)


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
    if gamma > -1.0:
        return _power_antiderivative(hi, gamma) - _power_antiderivative(lo, gamma)
    a, b = abs(lo), abs(hi)
    a, b = min(a, b), max(a, b)
    if a > 0.0:
        if gamma == -1.0:
            return math.log(b / a)
        return (b ** (gamma + 1.0) - a ** (gamma + 1.0)) / (gamma + 1.0)
    # interval with one endpoint at the origin
    mid = 0.5 * b
    return mid**gamma * b


def _power_box_mass(corner: Sequence[float], side: float, gamma: float) -> float:
    """Integral of |x|^gamma (Euclidean norm) over a box, d >= 2.

    Tensor Gauss quadrature with dyadic subdivision near the origin;
    relative tolerance ~1e-8 for gamma > -d.
    """
    d = len(corner)

    def box_touches_origin(c, s):
        return all(ci <= 0.0 <= ci + s for ci in c)

    def gauss(c, s):
        half = 0.5 * s
        pts = [c[i] + half * (_GAUSS_NODES + 1.0) for i in range(d)]
        grids = np.meshgrid(*pts, indexing="ij")
        w = _GAUSS_WEIGHTS * half
        wgrid = np.ones(grids[0].shape)
        for axis in range(d):
            shape = [1] * d
            shape[axis] = -1
            wgrid = wgrid * w.reshape(shape)
        rr = np.sqrt(sum(g**2 for g in grids))
        return float((rr**gamma * wgrid).sum())

    def recurse(c, s, depth):
        if not box_touches_origin(c, s) or depth >= 30:
            return gauss(c, s)
        total = 0.0
        half = 0.5 * s
        for offs in itertools.product((0, 1), repeat=d):
            sub = tuple(c[i] + offs[i] * half for i in range(d))
            if box_touches_origin(sub, half):
                total += recurse(sub, half, depth + 1)
            else:
                total += gauss(sub, half)
        # remaining innermost box: handled by recursion; closed-form test
        return total

    if box_touches_origin(corner, side) and gamma <= -d:
        # non-integrable: midpoint convention on the innermost box
        mid = tuple(ci + 0.5 * side for ci in corner)
        r = math.sqrt(sum(m**2 for m in mid))
        if r == 0.0:
            r = 0.25 * side * math.sqrt(d)
        return r**gamma * side**d
    return recurse(tuple(corner), float(side), 0)


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
    def lebesgue(cls, tree: DyadicTree) -> "Weight":
        return cls(tree, np.ones(tree.shape), power=0.0)

    @classmethod
    def from_density(cls, tree: DyadicTree, density: np.ndarray) -> "Weight":
        return cls(tree, density)

    @classmethod
    def power_weight(cls, tree: DyadicTree, gamma: float) -> "Weight":
        """|x|^gamma with exact cell masses (d=1 closed form, else quadrature).

        In d >= 2 the quadrature runs vectorized over all cells at once;
        only the 2^d cells whose closure touches the origin fall back to
        the subdividing per-box rule.
        """
        singular = gamma <= -tree.dim
        if tree.dim == 1:
            edges = tree.cell_edges()
            mass = np.array(
                [power_interval_mass(edges[i], edges[i + 1], gamma) for i in range(len(edges) - 1)]
            )
            mids = tree.cell_centers()
            density = np.abs(mids) ** gamma
        else:
            d, s = tree.dim, tree.cell_side
            corners = np.meshgrid(*(tree.cell_edges(a)[:-1] for a in range(d)), indexing="ij")
            mids = [c + 0.5 * s for c in corners]
            density = np.sqrt(sum(m**2 for m in mids)) ** gamma
            # tensor Gauss nodes, all cells at once: shape cells x nodes^d
            half = 0.5 * s
            node_grids = np.meshgrid(*([_GAUSS_NODES] * d), indexing="ij")
            wgrid = np.ones(node_grids[0].shape)
            for axis in range(d):
                shape = [1] * d
                shape[axis] = -1
                wgrid = wgrid * (_GAUSS_WEIGHTS * half).reshape(shape)
            rr2 = np.zeros(tree.shape + node_grids[0].shape)
            expand = (...,) + (None,) * d
            for axis in range(d):
                pts = corners[axis][expand] + half * (node_grids[axis] + 1.0)
                rr2 = rr2 + pts**2
            sum_axes = tuple(range(d, 2 * d))
            mass = (np.sqrt(rr2) ** gamma * wgrid).sum(axis=sum_axes)
            touching = np.ones(tree.shape, dtype=bool)
            for axis in range(d):
                touching &= (corners[axis] <= 0.0) & (corners[axis] + s >= 0.0)
            h = tree.half_width
            for idx in zip(*np.nonzero(touching)):
                corner = tuple(-h + i * s for i in idx)
                mass[idx] = _power_box_mass(corner, s, gamma)
        return cls(tree, density, mass, power=gamma, singular=singular)

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
            ms = [None] * (self.tree.depth + 1)
            ms[self.tree.depth] = self.cell_mass
            for k in range(self.tree.depth - 1, -1, -1):
                ms[k] = coarsen_once(ms[k + 1])
            self._level_masses = ms
        return self._level_masses

    def mass(self, cube: Cube) -> float:
        return float(self.level_masses()[cube.level][cube.index])

    def total(self) -> float:
        return float(self.cell_mass.sum())

    def interval_mass(self, lo: Fraction | float, hi: Fraction | float) -> float:
        """Mass of an arbitrary interval (d=1): closed form for power weights,
        otherwise each cell's mass times the fraction of the cell covered."""
        if self.tree.dim != 1:
            raise LatticeError("interval_mass is one-dimensional")
        if self.power is not None:
            return power_interval_mass(float(lo), float(hi), self.power)
        edges = self.tree.cell_edges()
        covered = np.minimum(edges[1:], float(hi)) - np.maximum(edges[:-1], float(lo))
        return float((self.cell_mass * (np.maximum(covered, 0.0) / self.tree.cell_side)).sum())

    def restrict(self, q0: Cube) -> "Weight":
        from .lattice import restrict_tree

        sub = restrict_tree(self.tree, q0)
        sl = q0.cell_slices()
        return Weight(sub, self.density[sl].copy(), self.cell_mass[sl].copy(), power=None,
                      singular=self.singular)


def power_interval_masses(lo: np.ndarray, hi: np.ndarray, gamma: float) -> np.ndarray:
    """`power_interval_mass` over paired endpoint arrays, one exact scalar call each."""
    return np.array([power_interval_mass(a, b, gamma) for a, b in zip(lo.tolist(), hi.tolist())])


def batch_cell_masses(weight: Weight | None, batch: IntervalBatch) -> np.ndarray:
    """Per-cell masses of every interval of a batch (None is Lebesgue measure).

    Each cell contributes its mass times the fraction of it covered; power
    weights take the partial end cells from the closed form instead.
    """
    if weight is None:
        return batch.lengths
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


def level_masses_or_lebesgue(tree: DyadicTree, weight: Weight | None) -> list:
    """Per-level cube masses; Lebesgue ones are the scalars `tree.volume(k)`, to broadcast."""
    if weight is not None:
        return weight.level_masses()
    return [tree.volume(k) for k in range(tree.depth + 1)]


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

    scope="dyadic" sweeps the tree; scope="shifted" additionally sweeps the
    three shifted lattices (d=1), the finite surrogate for generic cubes.
    """
    if not 1.0 < p < math.inf:
        raise ValueError("p must be in (1, infinity)")
    pc = conjugate(p)
    dual = w.pointwise_power(-pc / p)
    best = 1.0
    for k in range(w.tree.depth + 1):
        vol = w.tree.volume(k)
        avg_w = w.level_masses()[k] / vol
        avg_d = dual.level_masses()[k] / vol
        best = max(best, float((avg_w * avg_d ** (p / pc)).max()))
    if scope == "shifted":
        # only cubes inside the window: grid data exists nowhere else
        for batch in shifted_batches(w.tree):
            avg_w = batch_masses(w, batch) / batch.size
            avg_d = batch_masses(dual, batch) / batch.size
            best = max(best, float((avg_w * avg_d ** (p / pc)).max()))
    elif scope != "dyadic":
        raise ValueError(f"unknown scope {scope!r}")
    return best


def fujii_wilson_ainfty(w: Weight, mu: Weight | None = None) -> float:
    """sup_Q (1/w(Q)) int_Q sup_{R in D(Q), R ni x} w(R)/mu(R) dmu.

    One sweep up the tree carrying the running max of the cube ratios per
    cell; at each level the integrand is summed over that level's cubes.
    """
    tree = w.tree
    w_levels = w.level_masses()
    mu_levels = level_masses_or_lebesgue(tree, mu)
    mu_cell = mu_levels[tree.depth]
    # running: max over the cubes R between level k and the cell
    running = w_levels[tree.depth] / mu_cell
    best = 1.0
    for k in range(tree.depth, -1, -1):
        ratio_k = per_block(w_levels[k] / mu_levels[k])
        running = np.maximum(ratio_k, as_blocks(running, k)).reshape(tree.shape)
        best = max(best, float((coarsen_to(running * mu_cell, k) / w_levels[k]).max()))
    return best


def carleson_norm(coeffs: Sequence[np.ndarray], mu: Weight | None, tree: DyadicTree) -> float:
    """Least packing constant of a nonnegative per-cube family.

    `coeffs` is one array per level, entry k shaped (2^k,)^d.  One
    bottom-up pass accumulates the subtree sums exactly.
    """
    mu_levels = level_masses_or_lebesgue(tree, mu)
    if len(coeffs) != tree.depth + 1:
        raise LatticeError("coefficient stack does not match tree depth")
    best = 0.0
    acc = np.abs(coeffs[tree.depth]) * mu_levels[tree.depth]
    best = max(best, float((acc / mu_levels[tree.depth]).max()))
    for k in range(tree.depth - 1, -1, -1):
        acc = coarsen_once(acc) + np.abs(coeffs[k]) * mu_levels[k]
        best = max(best, float((acc / mu_levels[k]).max()))
    return best


def coeff_stack(tree: DyadicTree, entries: dict[Cube, float] | None = None) -> list[np.ndarray]:
    """An all-zero per-cube coefficient stack, optionally seeded from a dict."""
    stack = [np.zeros((2**k,) * tree.dim) for k in range(tree.depth + 1)]
    if entries:
        for cube, value in entries.items():
            stack[cube.level][cube.index] = value
    return stack


def cube_stack(tree: DyadicTree, cubes: Iterable) -> list[np.ndarray]:
    """A cube collection as per-level counts in `coeff_stack` shape.

    A cube listed twice counts twice.  A per-level stack (arrays, not
    cubes) passes through as floats; a stack without the finest level
    gets a zero one.  Its levels may share leading row axes, one row per
    collection, for the batched partial operators.
    """
    items = list(cubes)
    if items and isinstance(items[0], np.ndarray):
        stack = [np.asarray(level, dtype=float) for level in items]
        rows = stack[0].shape[:stack[0].ndim - tree.dim]
        if len(stack) == tree.depth:
            stack.append(np.zeros(rows + tree.shape))
        if [a.shape for a in stack] != [rows + (2**k,) * tree.dim for k in range(tree.depth + 1)]:
            raise LatticeError("per-level stack does not match the tree")
        return stack
    stack = coeff_stack(tree)
    for cube in items:
        stack[cube.level][cube.index] += 1.0
    return stack


def relative_ainfty_carleson_ratio(
    w: Weight, mu: Weight | None, seed: int = 0, n_random: int = 64
) -> float:
    """Sampled sup over coefficient families of Carleson(w)/Carleson(mu).

    A certified lower bound for the relative A_infinity characteristic: the
    randomized battery plus all single-cube indicators.  The result is
    checked against the Fujii-Wilson upper bound.
    """
    tree = w.tree
    rng = np.random.default_rng(seed)
    best = 0.0
    # single-cube indicators give ratio 1 exactly (both norms are 1)
    best = max(best, 1.0)
    for trial in range(n_random):
        stack = []
        density = rng.uniform(0.05, 0.6)
        for k in range(tree.depth + 1):
            shape = (2**k,) * tree.dim
            mask = rng.random(shape) < density
            stack.append(np.where(mask, rng.exponential(1.0, shape), 0.0))
        denom = carleson_norm(stack, mu, tree)
        if denom <= 0.0:
            continue
        best = max(best, carleson_norm(stack, w, tree) / denom)
    upper = fujii_wilson_ainfty(w, mu)
    if best > upper * (1.0 + 1e-9):
        raise AssertionError(
            f"sampled Carleson ratio {best} exceeded the Fujii-Wilson value {upper}"
        )
    return best


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

    def _check_pointwise_relation(self, rel_tol: float = 1e-12):
        e = self.cfg.bloom_exponent
        lhs = self.nu.density**e
        rhs = self.mu.density ** (1.0 / self.cfg.p) * self.lam.density ** (-1.0 / self.cfg.q)
        err = np.max(np.abs(lhs - rhs) / np.maximum(np.abs(rhs), 1e-300))
        if err > rel_tol:
            raise AssertionError(f"intermediate weight violates the defining relation: {err}")

    @property
    def tree(self) -> DyadicTree:
        return self.mu.tree


def bloom_triple(mu: Weight, lam: Weight, cfg: ExponentConfig) -> BloomTriple:
    return BloomTriple(mu, lam, cfg)


def upper_joint_characteristic(t: BloomTriple) -> float:
    """sup_Q <mu'>^(1/p') <lambda>^(1/q) <nu>^(1/p+1/q'), the upper-bound weight constant."""
    cfg = t.cfg
    tree = t.tree
    best = 0.0
    for k in range(tree.depth + 1):
        vol = tree.volume(k)
        a = t.mu_dual.level_masses()[k] / vol
        b = t.lam.level_masses()[k] / vol
        c = t.nu.level_masses()[k] / vol
        vals = a ** (1.0 / cfg.p_conj) * b ** (1.0 / cfg.q) * c**cfg.bloom_exponent
        best = max(best, float(vals.max()))
    return best


def lower_joint_characteristic(t: BloomTriple) -> float:
    """sup_Q (mu(Q)/nu(Q))^(1/p) (lambda'(Q)/nu(Q))^(1/q'), the lower-bound weight constant."""
    cfg = t.cfg
    tree = t.tree
    best = 0.0
    for k in range(tree.depth + 1):
        m = t.mu.level_masses()[k]
        ld = t.lam_dual.level_masses()[k]
        n = t.nu.level_masses()[k]
        vals = (m / n) ** (1.0 / cfg.p) * (ld / n) ** (1.0 / cfg.q_conj)
        best = max(best, float(vals.max()))
    return best


def power_weight_cube_lower_bound(tree: DyadicTree, gamma: float, scope: str = "shifted") -> float:
    """Smallest C with side(Q)^(gamma+d) <= C * nu(Q) over the cube family, nu = |x|^gamma.

    Nonnegative powers give every cube mass at least proportional to its
    side raised to gamma+d; this measures the constant on the finite model.
    scope="dyadic" sweeps the tree; scope="shifted" adds the three shifted
    lattices (d=1 only).
    """
    if gamma < 0.0:
        raise ValueError("gamma must be nonnegative")
    if scope not in ("dyadic", "shifted"):
        raise ValueError(f"unknown scope {scope!r}")
    nu = Weight.power_weight(tree, gamma)
    d = tree.dim
    best = 0.0
    for k in range(tree.depth + 1):
        side = tree.side(k)
        best = max(best, float((side ** (gamma + d) / nu.level_masses()[k]).max()))
    if scope == "shifted":
        # power masses are closed form, so shifted cubes poking past the
        # window still get their true mass
        for lo, hi in shifted_intervals_1d(tree, inside=False):
            mass = power_interval_masses(from_sixths(tree, lo), from_sixths(tree, hi), gamma)
            best = max(best, float((from_sixths(tree, hi - lo) ** (gamma + d) / mass).max()))
    return best


def factor_power_weights(gamma: float, cfg: ExponentConfig) -> tuple[float, float]:
    """Split |x|^gamma into power weights at exponents (p, q).

    Returns exponents (a, b) with a/p - b/q = gamma * (1/p + 1/q'), a inside
    the exponent-p window and b inside the exponent-q window.  Such a split
    exists exactly when gamma sits inside the window at exponent 2r'.
    """
    d = cfg.dim
    e = cfg.bloom_exponent
    # a(t) = p (gamma e + t / q); feasibility interval for t = b
    lo_a = (-d - cfg.p * gamma * e) * cfg.q / cfg.p
    hi_a = ((cfg.p - 1.0) * d - cfg.p * gamma * e) * cfg.q / cfg.p
    lo = max(lo_a, -d)
    hi = min(hi_a, (cfg.q - 1.0) * d)
    if not lo < hi:
        raise ValueError(f"gamma={gamma} admits no power factorization at ({cfg.p}, {cfg.q})")
    b = 0.5 * (lo + hi)
    a = cfg.p * (gamma * e + b / cfg.q)
    return a, b


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
