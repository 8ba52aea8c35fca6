"""Independent-oracle checks shared by the unit tests and the acceptance gate.

Each check computes one quantity twice: through the main code path and
through the stated independent route (brute-force enumeration, closed
form, hand arithmetic, or direct grid summation).  A check returns
(name, got, want, rel_tol); the oracle side never calls the code under
test for the quantity it certifies.  The module also keeps the reference
implementations that tests compare the package against, and the helpers
that only tests use.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Callable, Iterator, Sequence

import numpy as np

from dyadlab.lattice import (
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
    shifted_intervals_1d,
)
from dyadlab.norms import (
    abs_power,
    discretized_sharp_sup,
    empirical_operator_norm,
    lp_norm,
    multiplier_norm,
    multiplier_objective,
    bmo_alpha_norm,
    q_ge_p_testing,
    sequential_testing_functional,
    weight_necessity_bound,
    NormReport,
    ProbePair,
    sharp_maximal_r_norm,
    signed_power,
)
from dyadlab.operators import (
    HILBERT_KERNEL,
    KernelSpec1D,
    OperatorHandle,
    _averages_by_level,
    commutator,
    kernel_lags,
    maximal,
    paraproduct,
    paraproduct_handle,
    sharp_maximal,
    sharp_window_values,
)
from dyadlab.sparse import (
    FULL,
    HI_HALF,
    LO_HALF,
    SparseFamily,
    StoppingMassError,
    domination_bound,
    paraproduct_sparse_dominate,
    partial_sums,
    pointwise_dominated,
)
from dyadlab.scenarios import spiky_field
from dyadlab.weights import (
    BloomTriple,
    ExponentConfig,
    Weight,
    ap_characteristic,
    cube_stack,
    fujii_wilson_ainfty,
    lower_joint_characteristic,
    power_interval_mass,
    power_weight_cube_lower_bound,
    upper_joint_characteristic,
)

CHECKS = []


def oracle(fn):
    CHECKS.append(fn)
    return fn


# -- cube and grid-function helpers -----------------------------------------------------
#
# Cube geometry and grid-function operations that no report path calls.


def cell_cube(tree: DyadicTree, flat_index: int) -> Cube:
    """The finest-level cube of the cell with this flat index."""
    index = np.unravel_index(flat_index, tree.shape)
    return Cube(tree, tree.depth, tuple(int(i) for i in index))


def cube_contains(outer: Cube, inner: Cube) -> bool:
    if inner.level < outer.level:
        return False
    shift = inner.level - outer.level
    return all(o >> shift == i for i, o in zip(outer.index, inner.index))


def ancestors(cube: Cube, within: Cube | None = None) -> Iterator[Cube]:
    """Cubes strictly containing `cube`, from its parent upward (optionally stopping at `within`)."""
    stop_level = 0 if within is None else within.level
    while cube.level > stop_level:
        cube = cube.parent()
        yield cube


def flat_cells(cube: Cube) -> np.ndarray:
    """Flat indices (into the raveled cell array) of the cells inside `cube`."""
    grid = np.zeros(cube.tree.shape, dtype=bool)
    grid[cube.cell_slices()] = True
    return np.flatnonzero(grid.ravel())


def from_callable(tree: DyadicTree, fn: Callable[..., float]) -> GridFunction:
    """Sample `fn` at cell midpoints (d arguments, vectorized per axis)."""
    axes = np.meshgrid(*(tree.cell_centers(),) * tree.dim, indexing="ij")
    return GridFunction(tree, np.asarray(fn(*axes), dtype=float))


def integral(f: GridFunction, cube: Cube | None = None) -> float:
    """Exact Lebesgue integral over a tree cube (default: the root)."""
    if cube is None:
        return float(f.values.sum() * f.tree.cell_volume)
    if cube.tree != f.tree:
        raise LatticeError("cube does not belong to this function's tree")
    return float(f.values[cube.cell_slices()].sum() * f.tree.cell_volume)


def restrict_tree(tree: DyadicTree, q0: Cube) -> DyadicTree:
    """Subtree rooted at q0, as a standalone tree of depth N - level(q0).

    The restricted root keeps q0's geometry only up to recentring: grid
    data must be moved with `restrict`, which slices cells.
    """
    if q0.tree != tree:
        raise LatticeError("cube does not belong to this tree")
    return DyadicTree(tree.dim, tree.depth - q0.level, half_width=q0.side / 2.0)


def restrict(f: GridFunction, q0: Cube) -> GridFunction:
    return GridFunction(restrict_tree(f.tree, q0), f.values[q0.cell_slices()].copy())


# -- test-only helpers ------------------------------------------------------------------
#
# References and acceptance helpers that no report path calls, kept here for the
# tests: cube averages, oscillations and Haar differences, dict-seeded coefficient
# stacks, the dense Hilbert kernel and its commutator double sum, Carleson packing
# norms, the power-weight factorization, weak-type level sets, off-grid Hilbert
# values, trivial operator handles, and the two-sided and shrunken-family checks.


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


def oscillation(b: GridFunction, cube: Cube) -> float:
    """int_Q |b - <b>_Q| dx, summed over the cube's own cells."""
    vals = b.values[cube.cell_slices()]
    return float(np.abs(vals - vals.mean()).sum() * b.tree.cell_volume)


def dict_stack(tree: DyadicTree, entries: dict[Cube, float]) -> list[np.ndarray]:
    """A per-level coefficient stack holding one value per listed cube, zero elsewhere."""
    stack = cube_stack(tree, [])
    for cube, value in entries.items():
        stack[cube.level][cube.index] = value
    return stack


def kernel_matrix(tree: DyadicTree, spec: KernelSpec1D = HILBERT_KERNEL) -> np.ndarray:
    """Dense N x N quadrature matrix lags[i - j], the Toeplitz matrix the FFT apply multiplies by."""
    lags = kernel_lags(tree, spec)
    n = tree.n_cells
    return lags[np.subtract.outer(np.arange(n), np.arange(n)) + n - 1]


def commutator_bilinear(b: GridFunction, f: GridFunction, g: GridFunction) -> float:
    """Double-sum form sum_{i != j} (b_i - b_j) K(x_i, x_j) f_j g_i vol^2.

    The same quadrature as `commutator`, summed densely: the reference
    for the FFT apply, with or without support separation.
    """
    mat = kernel_matrix(b.tree)
    weighted = mat * (b.values[:, None] - b.values[None, :])
    return float(g.values @ (weighted @ f.values) * b.tree.cell_volume)


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


def level_masses_or_lebesgue(tree: DyadicTree, weight: Weight | None) -> list:
    """Per-level cube masses; None is Lebesgue measure, the scalars `tree.volume(k)`."""
    if weight is not None:
        return weight.level_masses()
    return [tree.volume(k) for k in range(tree.depth + 1)]


def carleson_norm(coeffs: Sequence[np.ndarray], mu: Weight | None, tree: DyadicTree) -> float:
    """Least packing constant of a nonnegative per-cube family (None is Lebesgue measure).

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
    upper = fujii_wilson_ainfty(w, Weight.lebesgue(tree) if mu is None else mu)
    if best > upper * (1.0 + 1e-9):
        raise AssertionError(
            f"sampled Carleson ratio {best} exceeded the Fujii-Wilson value {upper}"
        )
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


def hilbert_at(f: GridFunction, x: float) -> float:
    """Kernel sum of f at an arbitrary off-grid point (same quadrature)."""
    centers = f.tree.cell_centers()
    diff = x - centers
    mask = diff != 0.0
    return float((f.values[mask] / diff[mask]).sum() * f.tree.cell_volume)


def identity_handle(tree: DyadicTree) -> OperatorHandle:
    return OperatorHandle("identity", lambda v: v, lambda v: v)


def multiplication_handle(b: GridFunction) -> OperatorHandle:
    vals = b.values
    return OperatorHandle("multiply", lambda v: vals * v, lambda v: vals * v)


def zero_handle(tree: DyadicTree) -> OperatorHandle:
    return OperatorHandle("zero", lambda v: np.zeros_like(v), lambda v: np.zeros_like(v))


def carleson_from_sparse(family: SparseFamily, measure: Weight | None = None,
                         check: bool = False) -> float:
    """Packing norm of the family's indicator under a measure.

    With check=True (measure equal to the family's sparseness measure) the
    value is asserted to stay below 1/gamma.
    """
    value = carleson_norm(family.indicator_stack(), measure, family.tree)
    if check and value > (1.0 / family.gamma) * (1.0 + 1e-9):
        raise AssertionError(
            f"sparse family exceeded its packing bound: {value} > {1.0 / family.gamma}"
        )
    return value


def trace_is_convex(trace: Sequence[tuple[float, float]], rel_tol: float = 1e-9) -> bool:
    """Midpoint-below-endpoints check on a (c, h(c)) evaluation trace."""
    pts = sorted(trace)
    for (c1, h1), (c2, h2), (c3, h3) in zip(pts, pts[1:], pts[2:]):
        if h2 > max(h1, h3) * (1.0 + rel_tol) + 1e-300:
            return False
    return True


def fefferman_stein_check(b: GridFunction, nu: Weight, r: float) -> dict:
    """Both directions of the multiplier-norm vs sharp-maximal comparison.

    Returns the two raw ratios plus the characteristic-weighted version of
    the second direction, and a Cauchy diagnostic for the averages over the
    growing cube chain at the origin-adjacent cells.
    """
    r_conj = r / (r - 1.0)
    sharp = sharp_maximal_r_norm(b, nu, r, scope="dyadic").value
    mult = multiplier_norm(b, nu, r)
    chi_arc = ap_characteristic(nu, r_conj)
    chi_ainf = fujii_wilson_ainfty(nu, Weight.lebesgue(nu.tree))
    tree = b.tree
    chain_averages = []
    cube = cell_cube(tree, tree.n_cells - 1)
    chain = [cube] + list(ancestors(cube))
    for qc in chain:
        sl = qc.cell_slices()
        chain_averages.append(float(b.values[sl].mean()))
    increments = [abs(x - y) for x, y in zip(chain_averages, chain_averages[1:])]
    return {
        "sharp_norm": sharp,
        "multiplier_norm": mult.value,
        "multiplier_constant": mult.certificate,
        "ratio_sharp_over_mult": sharp / mult.value if mult.value > 0 else math.inf,
        "ratio_mult_over_sharp": mult.value / sharp if sharp > 0 else math.inf,
        "ratio_mult_over_sharp_weighted": (
            mult.value / (chi_arc ** (r - 1.0) * chi_ainf * sharp) if sharp > 0 else math.inf
        ),
        "a_rconj_characteristic": chi_arc,
        "a_infty_characteristic": chi_ainf,
        "chain_averages": chain_averages,
        "chain_increments": increments,
    }


def shrunken_family_counterexample(seed: int = 11, depth: int = 5) -> dict:
    """Regression guard: dropping a needed cube must produce a violation.

    Searches a deterministic battery for a case where removing one family
    cube breaks pointwise domination, returning the violating instance.
    """
    rng = np.random.default_rng(seed)
    tree = DyadicTree(1, depth, 1.0)
    for trial in range(400):
        b = spiky_field(tree, rng, sigma=3.0)
        f = spiky_field(tree, rng, sigma=3.0)
        family = paraproduct_sparse_dominate(b, f)
        if len(family.cubes) < 2:
            continue
        lhs = partial_sums(b, f, cube_stack(tree, [q for q in tree.cubes() if not q.is_leaf()]))
        for drop in range(len(family.cubes)):
            shrunk = type(family)(
                tree=family.tree,
                cubes=family.cubes[:drop] + family.cubes[drop + 1:],
                witnesses=family.witnesses[:drop] + family.witnesses[drop + 1:],
                gamma=family.gamma,
                measure=family.measure,
            )
            ok, slack = pointwise_dominated(lhs, domination_bound(shrunk, b, f))
            if not ok and slack > 1e-6:
                return {"found": True, "trial": trial, "dropped": drop, "violation": slack}
    return {"found": False}


def _two_cell_weight(tree: DyadicTree, left: float, right: float) -> Weight:
    density = np.where(tree.cell_centers() < 0.0, left, right)
    return Weight(tree, density)


@oracle
def average_two_cell_weighted():
    """Weighted mean against a brute-force cell summation."""
    tree = DyadicTree(1, 4, 0.5)  # root [-1/2, 1/2), plays the unit cube
    w = _two_cell_weight(tree, 2.0, 1.0)
    f = from_callable(tree, lambda x: (x < 0.0) * 1.0)
    got = average(f, tree.root(), w)
    want = float((f.values * w.cell_mass).sum() / w.cell_mass.sum())  # = 2/3
    assert abs(want - 2.0 / 3.0) < 1e-15
    return "average: two-cell weighted mean", got, want, 1e-12


@oracle
def haar_two_cell():
    """Haar-type difference against the unfolded definition on two cells."""
    tree = DyadicTree(1, 3, 0.5)
    b = from_callable(tree, lambda x: (x < 0.0) * 1.0)
    diff = haar_difference(b, tree.root())
    left, right = tree.root().children()
    want_left, want_right = 0.5, -0.5  # child averages 1, 0 minus the mean 1/2
    got = float(diff.values[left.cell_slices()].mean())
    got2 = float(diff.values[right.cell_slices()].mean())
    return "haar: two-cell unfold", got - got2, want_left - want_right, 1e-12


def one_third_shifts(tree: DyadicTree, corner, side: int, unit: int = 1) -> dict[int, np.ndarray]:
    """Per level whose interval length L has 1.5 side <= L <= 3 side, the first shift
    (0, 1, 2 for alpha = 0, 1/3, 2/3) whose engine interval holds each target
    [corner, corner + side), or -1 where none does.

    Positions count 1/unit of a sixth of a finest cell from the origin, as
    integers; the intervals are `shifted_intervals_1d(tree, inside=False)`.
    The levels depend only on the side, so a cube of side `side` in d
    dimensions is held, at any of them, by the product of its per-axis
    intervals, each from its own shift: one cube of a shifted lattice.
    """
    out: dict[int, np.ndarray] = {}
    families = itertools.product(range(3), range(tree.depth + 1))
    for (shift, level), (lo, hi) in zip(families, shifted_intervals_1d(tree, inside=False)):
        lo, hi = unit * lo, unit * hi
        if 3 * side <= 2 * (hi[0] - lo[0]) <= 6 * side:
            i = np.searchsorted(lo, corner, side="right") - 1  # lo[i] <= corner < lo[i + 1]
            found = out.setdefault(level, np.full(np.shape(corner), -1))
            found[(found < 0) & (i >= 0) & (corner + side <= hi[i])] = shift
    return out


def one_third_cover_misses(depth: int) -> tuple[int, int]:
    """(targets, misses) of the one-third lemma on the engine's lattices of a depth-`depth` tree.

    The targets are every [c, c + s) inside the window with endpoints on
    the 1/8-cell grid and one cell <= s <= H/2; a miss is a target that
    some level of length 1.5 s to 3 s does not hold in any shift's
    interval, or that has no such level.  Units are 24ths of a cell.  The
    level depends only on s, so with no misses the d-dimensional cover is
    the per-axis product at that level.
    """
    tree = DyadicTree(1, depth, 1.0)
    half = 12 * 2**depth
    targets = misses = 0
    for side in range(24, half // 2 + 1, 3):
        corner = np.arange(-half, half - side + 1, 3)
        shifts = one_third_shifts(tree, corner, side, unit=4)
        held = np.all([found >= 0 for found in shifts.values()], axis=0) if shifts else False
        targets += corner.size
        misses += corner.size - int(np.count_nonzero(held))
    return targets, misses


@oracle
def one_third_cover_exhaustive():
    """Every 1/8-cell-grid target at depth 5 sits in a shifted interval of 1.5 to 3 times its side."""
    targets, misses = one_third_cover_misses(5)
    assert targets == 12597
    return "one-third cover: engine misses over 12,597 targets", float(misses), 0.0, 0.0


@oracle
def restrict_then_integrate():
    tree = DyadicTree(1, 5, 1.0)
    rng = np.random.default_rng(5)
    f = GridFunction(tree, rng.normal(size=tree.shape))
    q0 = Cube(tree, 2, (1,))
    got = integral(restrict(f, q0))
    want = float(f.values[q0.cell_slices()].sum() * tree.cell_volume)
    return "restrict: integral preserved", got, want, 1e-12


@oracle
def ap_two_cell():
    """Two-cell A_2 value against the three-cube brute force (root value 1.5 * 0.75)."""
    tree = DyadicTree(1, 1, 1.0)
    w = _two_cell_weight(tree, 1.0, 2.0)
    got = ap_characteristic(w, 2.0)
    best = 0.0
    for cube in tree.cubes():
        sl = cube.cell_slices()
        avg_w = float(w.cell_mass[sl].sum() / cube.volume)
        avg_inv = float((1.0 / w.density[sl] * tree.cell_volume).sum() / cube.volume)
        best = max(best, avg_w * avg_inv)
    assert abs(best - 1.125) < 1e-12
    return "A_p: two-cell brute force", got, best, 1e-12


@oracle
def fujii_wilson_two_cell():
    """Fujii-Wilson value against exhaustive per-cell inner suprema."""
    tree = DyadicTree(1, 1, 0.5)
    w = _two_cell_weight(tree, 2.0, 1.0)
    got = fujii_wilson_ainfty(w, Weight.lebesgue(tree))
    best = 0.0
    for q in tree.cubes():
        total = 0.0
        for cell in flat_cells(q):
            c = cell_cube(tree, int(cell))
            ratios = []
            for r in [c] + list(ancestors(c)):
                if cube_contains(q, r) or r == q:
                    ratios.append(w.mass(r) / r.volume)
            total += max(ratios) * tree.cell_volume
        best = max(best, total / w.mass(q))
    return "Fujii-Wilson: exhaustive enumeration", got, best, 1e-12


@oracle
def carleson_all_ones():
    """Constant family on a depth-N tree: closed-form value N+1."""
    depth = 5
    tree = DyadicTree(1, depth, 1.0)
    stack = [np.ones((2**k,)) for k in range(depth + 1)]
    got = carleson_norm(stack, None, tree)
    return "Carleson: all-ones closed form", got, float(depth + 1), 1e-12


@oracle
def relative_ainfty_single_cube():
    """Single-cube coefficient families give ratio exactly 1."""
    tree = DyadicTree(1, 3, 1.0)
    w = _two_cell_weight(tree, 3.0, 1.0)
    worst = 0.0
    for cube in tree.cubes():
        stack = dict_stack(tree, {cube: 1.0})
        ratio = carleson_norm(stack, w, tree) / carleson_norm(stack, None, tree)
        worst = max(worst, abs(ratio - 1.0))
    return "relative A_inf: single-cube ratios", worst, 0.0, 1e-12


@oracle
def bloom_power_exponent_arithmetic():
    """Power-weight intermediate weight against exponent arithmetic."""
    cfg = ExponentConfig(4.0, 2.0)
    tree = DyadicTree(1, 5, 2.0)
    a, bexp = 0.8, 0.3
    mu = Weight.power_weight(tree, a)
    lam = Weight.power_weight(tree, bexp)
    triple = BloomTriple(mu, lam, cfg)
    want = (a / cfg.p - bexp / cfg.q) / cfg.bloom_exponent
    return "Bloom weight: power exponent", triple.nu.power, want, 1e-12


@oracle
def joint_characteristics_brute_force():
    """Upper and lower joint characteristics against direct cube enumeration."""
    cfg = ExponentConfig(3.0, 2.0)
    tree = DyadicTree(1, 2, 1.0)
    rng = np.random.default_rng(9)
    mu = Weight(tree, rng.uniform(0.5, 2.0, tree.shape))
    lam = Weight(tree, rng.uniform(0.5, 2.0, tree.shape))
    t = BloomTriple(mu, lam, cfg)
    up, lo = 0.0, 0.0
    for q in tree.cubes():
        sl = q.cell_slices()
        vol = q.volume
        m_mu = float(mu.cell_mass[sl].sum())
        m_lam = float(lam.cell_mass[sl].sum())
        m_mud = float(t.mu_dual.cell_mass[sl].sum())
        m_lamd = float(t.lam_dual.cell_mass[sl].sum())
        m_nu = float(t.nu.cell_mass[sl].sum())
        up = max(
            up,
            (m_mud / vol) ** (1 / cfg.p_conj)
            * (m_lam / vol) ** (1 / cfg.q)
            * (m_nu / vol) ** cfg.bloom_exponent,
        )
        lo = max(lo, (m_mu / m_nu) ** (1 / cfg.p) * (m_lamd / m_nu) ** (1 / cfg.q_conj))
    got = (upper_joint_characteristic(t), lower_joint_characteristic(t))
    return "joint characteristics: brute force", got[0] + got[1], up + lo, 1e-12


@oracle
def cube_lower_bound_depth_stable():
    """The admissible constant for |x|^(1/3) stabilizes under refinement."""
    gamma = 1.0 / 3.0
    values = [power_weight_cube_lower_bound(DyadicTree(1, n, 1.0), gamma) for n in range(4, 11)]
    drift = max(values[-3:]) / min(values[-3:])
    return "cube lower bound: no depth drift", drift, 1.0, 5e-3


@oracle
def maximal_brute_force():
    """Dyadic maximal function against per-cell ancestor enumeration."""
    tree = DyadicTree(1, 4, 0.5)
    rng = np.random.default_rng(12)
    f = GridFunction(tree, rng.normal(size=tree.shape))
    got = maximal(f, Weight.lebesgue(tree))
    worst = 0.0
    for cell in range(tree.n_cells):
        c = cell_cube(tree, cell)
        best = 0.0
        for q in [c] + list(ancestors(c)):
            sl = q.cell_slices()
            best = max(best, float(np.abs(f.values[sl]).mean()))
        worst = max(worst, abs(got.values[c.cell_slices()][0] - best))
    return "maximal: ancestor enumeration", worst, 0.0, 1e-12


@oracle
def sharp_two_cell():
    """Sharp maximal of the half indicator on a depth-1 tree: constant 1/2."""
    tree = DyadicTree(1, 1, 0.5)
    b = from_callable(tree, lambda x: (x >= 0.0) * 1.0)
    nu = Weight.lebesgue(tree)
    got = sharp_maximal(b, nu)
    best = 0.0
    for q in tree.cubes():  # brute force over the 3 cubes
        sl = q.cell_slices()
        osc = float(np.abs(b.values[sl] - b.values[sl].mean()).sum() * tree.cell_volume)
        best = max(best, osc / q.volume)
    return "sharp maximal: two-cell brute force", float(got.values.max()), best, 1e-12


@oracle
def paraproduct_hand_case():
    """b = f = half indicator: direct tree summation gives +-1/4 on the halves."""
    tree = DyadicTree(1, 4, 0.5)
    b = from_callable(tree, lambda x: (x < 0.0) * 1.0)
    got = paraproduct(b, b)
    direct = np.zeros(tree.shape)
    for q in tree.cubes():
        if q.is_leaf():
            continue
        sl = q.cell_slices()
        mean_q = b.values[sl].mean()
        favg = b.values[sl].mean()
        for child in q.children():
            csl = child.cell_slices()
            direct[csl] += (b.values[csl].mean() - mean_q) * favg
    dev = float(np.abs(got.values - direct).max())
    left_val = float(got.values[0])
    assert abs(left_val - 0.25) < 1e-12 and abs(float(got.values[-1]) + 0.25) < 1e-12
    return "paraproduct: direct summation", dev, 0.0, 1e-12


@oracle
def sparse_op_single_cube():
    """Single-cube family with f = 1: plain and adjoint variants agree."""
    tree = DyadicTree(1, 3, 1.0)
    rng = np.random.default_rng(3)
    b = GridFunction(tree, rng.normal(size=tree.shape))
    one = GridFunction.constant(tree, 1.0)
    q = Cube(tree, 1, (0,))
    plain = reference_sparse_op(b, one, [q], variant="plain")
    adj = reference_sparse_op(b, one, [q], variant="adjoint")
    sl = q.cell_slices()
    dev_hand = float(np.abs(adj[sl] - np.abs(b.values[sl] - b.values[sl].mean()).mean()).max())
    assert dev_hand < 1e-12
    got = float(np.abs(plain[sl].mean() - adj[sl].mean()))
    return "sparse op: single cube, f = 1", got, 0.0, 1e-12


@oracle
def burkholder_weak_type_battery():
    """Random sign transforms: weak-type bound with constant 2 on a 100-point grid."""
    rng = np.random.default_rng(77)
    tree = DyadicTree(1, 7, 1.0)
    worst = -math.inf
    for _ in range(20):
        f = GridFunction(tree, rng.exponential(1.0, tree.shape))
        coeffs = [rng.choice([-1.0, 1.0], size=(2**k,)) for k in range(tree.depth)]
        g = GridFunction(tree, reference_martingale_stack(f, coeffs))
        top = float(np.abs(g.values).max())
        if top == 0.0:
            continue
        ts = np.linspace(top / 100.0, top, 100)
        norm = lp_norm(f, Weight.lebesgue(tree), 1.0)
        worst = max(worst, weak_level_set_bound(g, norm, 2.0, ts))
    return "Burkholder: weak-type slack <= 0", max(worst, 0.0), 0.0, 1e-12


@oracle
def hilbert_log_kernel():
    """Indicator transform at distance: closed-form logarithm."""
    tree = DyadicTree(1, 8, 1.0)
    f = from_callable(tree, lambda x: (x >= 0.0) * 1.0)
    got = hilbert_at(f, 2.0)  # integral of 1/(2-y) over [0,1) = log 2
    return "Hilbert: log kernel value", got, math.log(2.0), 1e-2


@oracle
def commutator_double_sum():
    """Commutator bilinear form against the double kernel sum, separated supports."""
    tree = DyadicTree(1, 6, 1.0)
    rng = np.random.default_rng(8)
    b = GridFunction(tree, rng.normal(size=tree.shape))
    f_vals = np.zeros(tree.shape)
    g_vals = np.zeros(tree.shape)
    f_vals[: tree.n_cells // 4] = rng.normal(size=tree.n_cells // 4)
    g_vals[-tree.n_cells // 4 :] = rng.normal(size=tree.n_cells // 4)
    f, g = GridFunction(tree, f_vals), GridFunction(tree, g_vals)
    lhs = float((g.values * commutator(b, f).values).sum() * tree.cell_volume)
    rhs = commutator_bilinear(b, f, g)
    return "commutator: off-support double sum", lhs, rhs, 1e-12


@oracle
def commutator_split_bump():
    """Sign-split b: the commutator is a nonzero operator, exact zero for constant b."""
    tree = DyadicTree(1, 6, 1.0)
    b = from_callable(tree, lambda x: np.sign(x + 1e-12))
    f = from_callable(tree, lambda x: np.exp(-4.0 * x * x))
    nonzero = float(np.abs(commutator(b, f).values).max())
    const_zero = float(np.abs(commutator(GridFunction.constant(tree, 2.0), f).values).max())
    assert nonzero > 1e-3
    return "commutator: kills constants", const_zero, 0.0, 1e-12


@oracle
def domination_hand_case():
    """b = f = half indicator, F = {root}: both sides by direct grid summation."""
    tree = DyadicTree(1, 4, 0.5)
    b = from_callable(tree, lambda x: (x < 0.0) * 1.0)
    family = paraproduct_sparse_dominate(b, b)
    lhs = partial_sums(b, b, cube_stack(tree, [tree.root()]))
    assert abs(float(np.abs(lhs).max()) - 0.25) < 1e-12
    bound = domination_bound(family, b, b)  # constant 2^(d+5) = 64 in d=1
    ok, worst = pointwise_dominated(lhs, bound)
    assert ok
    # with the root in the family the right side is at least 64 * (1/2) * (1/2)
    assert float(bound.min()) >= 16.0 - 1e-12
    return "domination: hand case slack", max(worst, -1e308), worst, 1e-12


@oracle
def lp_power_mass():
    """f = 1 against the antiderivative of |x|^(1/3) on [-1, 1)."""
    tree = DyadicTree(1, 6, 1.0)
    w = Weight.power_weight(tree, 1.0 / 3.0)
    got = lp_norm(GridFunction.constant(tree, 1.0), w, 1.0)
    return "Lp: power-weight mass", got, 1.5, 1e-12


@oracle
def bmo_half_split():
    """Half-split oscillation norm = 1 by brute force over dyadic cubes."""
    tree = DyadicTree(1, 4, 0.5)
    b = from_callable(tree, lambda x: np.where(x < 0.0, 1.0, -1.0))
    nu = Weight.lebesgue(tree)
    got = bmo_alpha_norm(b, nu, 0.0)
    best = 0.0
    for q in tree.cubes():
        sl = q.cell_slices()
        osc = float(np.abs(b.values[sl] - b.values[sl].mean()).sum() * tree.cell_volume)
        best = max(best, osc / q.volume)
    return "BMO: half-split brute force", got, best, 1e-12


@oracle
def multiplier_quadratic():
    """Flat weight, r = 2: closed-form quadratic mean (c* = 1/2, value 1)."""
    tree = DyadicTree(1, 7, 2.0)
    b = GridFunction.ball_indicator(tree, 1.0)
    nu = Weight.lebesgue(tree)
    rep = multiplier_norm(b, nu, 2.0)
    mean = float(b.values.mean())
    want = math.sqrt(float(((b.values - mean) ** 2).sum() * tree.cell_volume))
    assert abs(rep.certificate - mean) < 1e-6
    return "multiplier: quadratic closed form", rep.value, want, 1e-9


@oracle
def discretized_sup_depth_one():
    """Depth-1 brute force over all witness-feasible families."""
    tree = DyadicTree(1, 1, 0.5)
    b = from_callable(tree, lambda x: (x < 0.0) * 1.0)
    nu = Weight.lebesgue(tree)
    rep = discretized_sharp_sup(b, nu, 2.0, sharp_maximal_r_norm(b, nu, 2.0), gamma=0.25)
    # families on the 3-cube tree: leaves have zero oscillation, so the
    # best feasible family is {root} with value (osc/nu)^2 * nu = (1/2)^2
    want = 0.5
    return "discretized sup: depth-1 families", rep.value, want, 1e-12


@oracle
def empirical_vs_hoelder():
    """Multiplication operator: ascent against the closed-form extremizer."""
    p, q = 4.0, 2.0
    tree = DyadicTree(1, 5, 1.0)
    rng = np.random.default_rng(21)
    mu = Weight(tree, rng.uniform(0.5, 2.0, tree.shape))
    lam = Weight(tree, rng.uniform(0.5, 2.0, tree.shape))
    b = GridFunction(tree, rng.uniform(0.2, 1.0, tree.shape))
    m = p / (p - q)
    hold = (np.abs(b.values) ** q * lam.density / mu.density ** (q / p)) ** m / mu.density
    rep = empirical_operator_norm(
        multiplication_handle(b), mu, lam, p, q, tree,
        restarts=12, iterations=60, extra_starts=[hold ** (1.0 / p)],
    )
    r = 1.0 / (1.0 / q - 1.0 / p)
    # direct value of ||b nu^-1||_{L^r(nu)} from densities
    e = 1.0 / p + (q - 1.0) / q
    nu_dens = (mu.density ** (1.0 / p) * lam.density ** (-1.0 / q)) ** (1.0 / e)
    want = float(((np.abs(b.values) ** r * nu_dens ** (1.0 - r)) * tree.cell_volume).sum() ** (1.0 / r))
    return "empirical norm: Hoelder extremizer", rep.value, want, 2e-2


@oracle
def sequential_single_cube():
    """One-pair functional equals the hand-expanded summand."""
    tree = DyadicTree(1, 5, 1.0)
    rng = np.random.default_rng(14)
    b = GridFunction(tree, rng.normal(size=tree.shape))
    nu = Weight.lebesgue(tree)
    s = Cube(tree, 2, (1,))
    f = GridFunction.indicator(tree, s)
    u = paraproduct_handle(b)
    g_vals = np.zeros(tree.shape)
    g_vals[s.cell_slices()] = np.sign(u.apply(f.values))[s.cell_slices()]
    g = GridFunction(tree, g_vals)
    box = (s.corner, s.side)
    r = 4.0
    got = sequential_testing_functional(u, [ProbePair(s, f, g, box, box)], nu, r)
    inner = float((g.values * u.apply(f.values)).sum() * tree.cell_volume)
    want = abs(inner / nu.mass(s)) * nu.mass(s) ** (1.0 / r)
    return "sequential testing: single cube", got, want, 1e-12


@oracle
def q_ge_p_testing_brute_force():
    """Indicator testing sup against independent enumeration at depth 2."""
    cfg = ExponentConfig(2.0, 2.0)
    tree = DyadicTree(1, 2, 1.0)
    rng = np.random.default_rng(31)
    mu = Weight(tree, rng.uniform(0.5, 2.0, tree.shape))
    lam = Weight(tree, rng.uniform(0.5, 2.0, tree.shape))
    t = BloomTriple(mu, lam, cfg)
    b = GridFunction(tree, rng.normal(size=tree.shape))
    u = paraproduct_handle(b)
    rep = q_ge_p_testing(u, t)
    best = 0.0
    for q in tree.cubes():
        ind = np.zeros(tree.shape)
        ind[q.cell_slices()] = 1.0
        val = float(np.abs(u.apply(ind))[q.cell_slices()].sum() * tree.cell_volume)
        best = max(best, val / t.nu.mass(q) ** cfg.bloom_exponent)
    return "q>=p testing: brute force", rep.value, best, 1e-12


@oracle
def weight_necessity_hand():
    """Depth-1 two-cell triple evaluated by hand arithmetic."""
    cfg = ExponentConfig(2.0, 2.0)
    tree = DyadicTree(1, 1, 0.5)
    mu = _two_cell_weight(tree, 4.0, 1.0)
    lam = Weight.lebesgue(tree)
    t = BloomTriple(mu, lam, cfg)
    rep = weight_necessity_bound(10.0, t, tree.root())
    # by hand: mu' density (1/4, 1), masses over the unit root: mu'(Q) = 5/8
    mu_dual_mass = 0.25 * 0.5 + 1.0 * 0.5
    lam_mass = 1.0
    nu_mass = (4.0 ** 0.5) * 0.5 + 1.0 * 0.5  # nu = mu^(1/2) pointwise
    exact_ratio = mu_dual_mass * lam_mass ** 0.5 / mu_dual_mass ** 0.5
    want = exact_ratio * nu_mass
    return "weight necessity: hand arithmetic", rep.value, want, 1e-12


@oracle
def carleson_embedding_battery():
    """Weighted embedding with constant (p')^p, randomized instances."""
    rng = np.random.default_rng(101)
    tree = DyadicTree(1, 6, 1.0)
    worst = -math.inf
    for _ in range(30):
        p = float(rng.uniform(1.3, 3.5))
        mu = Weight(tree, rng.uniform(0.3, 3.0, tree.shape))
        f = GridFunction(tree, rng.normal(size=tree.shape))
        stack = [np.where(rng.random((2**k,)) < 0.4, rng.exponential(1.0, (2**k,)), 0.0)
                 for k in range(tree.depth + 1)]
        car = carleson_norm(stack, mu, tree)
        favg = [None] * (tree.depth + 1)
        wf = f.abs().values * mu.cell_mass
        acc, masses = wf, mu.level_masses()
        from dyadlab.lattice import coarsen_once
        favg[tree.depth] = acc / masses[tree.depth]
        for k in range(tree.depth - 1, -1, -1):
            acc = coarsen_once(acc)
            favg[k] = acc / masses[k]
        lhs = sum(float((np.abs(favg[k]) ** p * stack[k] * masses[k]).sum())
                  for k in range(tree.depth + 1))
        pc = p / (p - 1.0)
        rhs = pc**p * car * lp_norm(f, mu, p) ** p
        worst = max(worst, lhs - rhs * (1.0 + 1e-9))
    return "Carleson embedding: slack <= 0", max(worst, 0.0), 0.0, 1e-12


@oracle
def maximal_inequality_battery():
    """Weighted maximal inequality with constant p'."""
    rng = np.random.default_rng(55)
    tree = DyadicTree(1, 7, 1.0)
    worst = -math.inf
    for _ in range(30):
        p = float(rng.uniform(1.3, 3.5))
        mu = Weight(tree, rng.uniform(0.3, 3.0, tree.shape))
        f = GridFunction(tree, rng.normal(size=tree.shape))
        lhs = lp_norm(maximal(f, mu), mu, p)
        rhs = (p / (p - 1.0)) * lp_norm(f, mu, p)
        worst = max(worst, lhs - rhs * (1.0 + 1e-9))
    return "maximal inequality: slack <= 0", max(worst, 0.0), 0.0, 1e-12


@oracle
def testing_inequality_battery():
    """Oscillation bounded by twice the cube-tested paraproduct, randomized."""
    rng = np.random.default_rng(66)
    tree = DyadicTree(1, 6, 1.0)
    worst = -math.inf
    for _ in range(40):
        b = GridFunction(tree, rng.normal(size=tree.shape) * np.exp(rng.normal(size=tree.shape)))
        level = int(rng.integers(0, tree.depth))
        q = Cube(tree, level, (int(rng.integers(0, 2**level)),))
        ind = GridFunction.indicator(tree, q)
        pp = paraproduct(b, ind)
        lhs = float(np.abs(b.values[q.cell_slices()] - b.values[q.cell_slices()].mean()).sum()
                    * tree.cell_volume)
        rhs = 2.0 * float(np.abs(pp.values[q.cell_slices()]).sum() * tree.cell_volume)
        worst = max(worst, lhs - rhs * (1.0 + 1e-9))
    return "testing inequality: slack <= 0", max(worst, 0.0), 0.0, 1e-12


# -- closed forms for the counterexample scenario (criteria 5 and 7) ------------------
#
# b = 1_[-rho, rho], nu = |x|^(1/3), r = 4.  The multiplier objective and the
# whole-line sharp maximal function are both available in closed form; the
# acceptance criteria 5b, 5c and 7b rest on these numbers.

_CE_GAMMA, _CE_R = 1.0 / 3.0, 4.0


def _counterexample_bump(depth: int, half_width: float, radius: float = 1.0):
    tree = DyadicTree(1, depth, half_width)
    return GridFunction.ball_indicator(tree, radius), Weight.power_weight(tree, _CE_GAMMA)


def _multiplier_coefficients(depth: int, half_width: float) -> tuple[float, float]:
    """(A, B) with h(c) = |1 - c|^4 A + |c|^4 B for the unit bump, by hand.

    nu^(1-r) = |x|^-1.  Inside [-1, 1] the two cells at the origin carry
    the midpoint mass (s/2)^-1 s = 2 each and the rest carries
    int_{s<|x|<1} dx/|x| = 2 ln(1/s), s the cell side; outside,
    int_{1<|x|<H} dx/|x| = 2 ln H.
    """
    side = 2.0 * half_width / 2**depth
    return 4.0 + 2.0 * math.log(1.0 / side), 2.0 * math.log(half_width)


@oracle
def multiplier_closed_form():
    """Multiplier objective: min h = AB/(A^(1/3) + B^(1/3))^3 at c* = A^(1/3)/(A^(1/3) + B^(1/3))."""
    worst = (-1.0, 0.0, 0.0)
    for depth, half_width in ((4, 4.0), (8, 4.0), (12, 4.0), (14, 4.0), (8, 16.0), (12, 64.0)):
        b, nu = _counterexample_bump(depth, half_width)
        rep = multiplier_norm(b, nu, _CE_R)
        inner, outer = _multiplier_coefficients(depth, half_width)
        ci, co = inner ** (1.0 / 3.0), outer ** (1.0 / 3.0)
        assert abs(rep.certificate - ci / (ci + co)) < 1e-6
        got, want = rep.value**_CE_R, inner * outer / (ci + co) ** 3
        err = abs(got - want) / want
        if err > worst[0]:
            worst = (err, got, want)
    return "multiplier: counterexample closed form (worst of 6 (N, H) pairs)", worst[1], worst[2], 1e-12


@oracle
def multiplier_window_ceiling():
    """At H = 4, h(1) = int_{1<|x|<4} dx/|x| = 2 ln 4 at every depth caps v(N)^r."""
    ceiling = 2.0 * math.log(4.0)
    worst = (-1.0, 0.0)
    for depth in (4, 8, 12, 14):
        b, nu = _counterexample_bump(depth, 4.0)
        at_one = multiplier_objective(b, nu, _CE_R)(1.0)
        value = multiplier_norm(b, nu, _CE_R).value
        assert value**_CE_R < ceiling
        if depth == 4:
            # a fixed-window chain v(12) >= 1.5^2 * 0.9 * v(4) lies above the ceiling
            assert 1.5**2 * 0.9 * value > ceiling ** (1.0 / _CE_R)
        err = abs(at_one - ceiling) / ceiling
        if err > worst[0]:
            worst = (err, at_one)
    return "multiplier: H = 4 ceiling 2 ln 4", worst[1], ceiling, 1e-12


_TAIL_POINTS = np.geomspace(2.0, 3.95, 9)


def _power_antiderivative(t: np.ndarray, gamma: float) -> np.ndarray:
    return np.sign(t) * np.abs(t) ** (1.0 + gamma) / (1.0 + gamma)


def _whole_line_sharp_sup(x: float, radius: float, n: int = 800) -> float:
    """sup over intervals [a, c] containing x of osc(1_[-radius, radius]) / nu([a, c]).

    With m the overlap of [a, c] with the bump and L = c - a the oscillation
    int |b - <b>| dx is 2m(L - m)/L, and nu([a, c]) comes from the
    antiderivative of |t|^gamma.  Both endpoints are scanned densely over
    [-6x, x) x [x, 6x], the left one also over [-2 radius, radius] and the
    bump edges.  An interval reaching past the scan contains [-6x, x] or
    [x, 6x], so its value is at most 4 radius over the smaller of their
    masses; that bound is checked to lie below the scanned maximum.
    """
    span = 6.0
    a = np.unique(np.concatenate([
        np.linspace(-span * x, x, n, endpoint=False),
        np.linspace(-2.0 * radius, radius, n),
        [-radius, radius],
    ]))[:, None]
    c = np.linspace(x, span * x, n)[None, :]
    m = np.clip(np.minimum(c, radius) - np.maximum(a, -radius), 0.0, None)
    osc = 2.0 * m * (c - a - m) / (c - a)
    mass = _power_antiderivative(c, _CE_GAMMA) - _power_antiderivative(a, _CE_GAMMA)
    best = float((osc / mass).max())
    left = _power_antiderivative(x, _CE_GAMMA) - _power_antiderivative(-span * x, _CE_GAMMA)
    right = _power_antiderivative(span * x, _CE_GAMMA) - _power_antiderivative(x, _CE_GAMMA)
    assert 4.0 * radius / min(left, right) < best
    return best


@lru_cache(maxsize=None)
def _tail_values(radius: float) -> tuple[np.ndarray, np.ndarray]:
    """(window values at H = 4, depth 12, n_left = 192; whole-line suprema) at the 5b points."""
    b, nu = _counterexample_bump(12, 4.0, radius)
    window = sharp_window_values(b, nu, _TAIL_POINTS, n_left=192)
    exact = np.array([_whole_line_sharp_sup(float(x), radius) for x in _TAIL_POINTS])
    assert np.all(window <= exact * (1.0 + 1e-12))
    return window, exact


def _tail_slope(values: np.ndarray) -> float:
    logy = _CE_R * np.log(values) + _CE_GAMMA * np.log(_TAIL_POINTS)
    return float(np.polyfit(np.log(_TAIL_POINTS), logy, 1)[0])


def _window_against_whole_line(radius: float):
    window, exact = _tail_values(radius)
    i = int(np.argmax((exact - window) / exact))
    return window[i], exact[i]


@oracle
def whole_line_sharp_sup_unit_bump():
    """Sliding-window sharp maximal of the unit bump against the whole-line supremum (x in [2, 3.95])."""
    got, want = _window_against_whole_line(1.0)
    return "sharp window: whole-line supremum, bump radius 1", got, want, 1e-2


@oracle
def whole_line_sharp_sup_small_bump():
    """The same at bump radius 2^-4, where x/rho in [32, 63.2] shows the -5 tail."""
    got, want = _window_against_whole_line(2.0**-4)
    assert abs(_tail_slope(_tail_values(2.0**-4)[1]) + 5.0) <= 0.5
    return "sharp window: whole-line supremum, bump radius 2^-4", got, want, 1e-2


@oracle
def whole_line_sharp_sup_slope_unit_bump():
    """Local tail slope of the exact supremum for the unit bump on [2, 3.95]: -1.02, far from -5."""
    slope = _tail_slope(_tail_values(1.0)[1])
    return "sharp window: whole-line slope on [2, 3.95], bump radius 1", slope, -1.02, 1e-2


@oracle
def scalar_lebesgue_masses():
    """Scalar Lebesgue level masses give the bits of the per-cube `np.full` arrays.

    `_averages_by_level` against level sums over cell counts, and `carleson_norm`
    with no measure and `fujii_wilson_ainfty` against `Weight.lebesgue`, against
    their formulas evaluated on full arrays of `tree.volume(k)`.
    """
    same = True
    for dim, depth, half_width in ((1, 6, 1.0), (1, 7, 3.0), (2, 4, 0.7), (2, 5, 5.0)):
        tree = DyadicTree(dim, depth, half_width)
        full = [np.full((2**k,) * dim, tree.volume(k)) for k in range(depth + 1)]
        rng = np.random.default_rng(depth)
        f = GridFunction(tree, rng.standard_t(3, size=tree.shape))
        sums = level_sums(tree, f.values)
        want = [sums[k] / 2 ** (dim * (depth - k)) for k in range(depth + 1)]
        same &= all(np.array_equal(a, w) for a, w in zip(_averages_by_level(f), want))

        coeffs = [rng.random((2**k,) * dim) for k in range(depth + 1)]
        acc = np.abs(coeffs[depth]) * full[depth]
        packing = float((acc / full[depth]).max())
        for k in range(depth - 1, -1, -1):
            acc = coarsen_once(acc) + np.abs(coeffs[k]) * full[k]
            packing = max(packing, float((acc / full[k]).max()))
        same &= carleson_norm(coeffs, None, tree) == packing

        w = Weight(tree, np.exp(rng.standard_normal(tree.shape)))
        w_levels = w.level_masses()
        running, ainfty = w_levels[depth] / full[depth], 1.0
        for k in range(depth, -1, -1):
            ratio_k = per_block(w_levels[k] / full[k])
            running = np.maximum(ratio_k, as_blocks(running, k)).reshape(tree.shape)
            ainfty = max(ainfty, float((coarsen_to(running * full[depth], k) / w_levels[k]).max()))
        same &= fujii_wilson_ainfty(w, Weight.lebesgue(tree)) == ainfty
    return "lebesgue level masses: scalars against np.full arrays", float(same), 1.0, 0.0


# -- Fraction references for the d = 1 interval engine -------------------------------
#
# The shifted and sliding-window functionals recomputed one interval at a
# time with exact rational endpoints: lattice cubes from
# `ShiftedLattice.cubes_overlapping_window`, cell overlaps from rational
# intersections, and masses from the scalar closed form (power weights) or
# density times overlap (all other weights).  The lattices are walked in d
# dimensions, one cube at a time, so a d = 2 engine meets the same reference.


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

    def axis_interval(self, axis: int) -> tuple[Fraction, Fraction]:
        c = self.corner_frac[axis]
        return c, c + self.side_frac


class ShiftedLattice:
    """The family of 3^d shifted lattices over a tree's root window, geometry only."""

    def __init__(self, tree: DyadicTree):
        self.tree = tree
        self.root_side = Fraction(tree.root_side)
        thirds = (Fraction(0), Fraction(1, 3), Fraction(2, 3))
        self.alphas = list(itertools.product(thirds, repeat=tree.dim))

    def side_frac(self, level: int) -> Fraction:
        return self.root_side / 2**level

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


def reference_shifted_intervals(tree: DyadicTree):
    """(alpha, level, [(lo, hi), ...]) per family: Fraction endpoints inside the window."""
    lattice = ShiftedLattice(tree)
    h = Fraction(tree.half_width)
    for alpha in lattice.alphas:
        for level in range(tree.depth + 1):
            cubes = lattice.cubes_overlapping_window(alpha, level)
            pairs = [cube.axis_interval(0) for cube in cubes]
            yield alpha, level, [(lo, hi) for lo, hi in pairs if -h <= lo and hi <= h]


def _reference_overlap(tree: DyadicTree, lo: Fraction, hi: Fraction):
    """(first cell, exact overlap lengths) of [lo, hi) inside the window."""
    h, cell = Fraction(tree.half_width), Fraction(tree.cell_side)
    lo, hi = Fraction(lo), Fraction(hi)
    first = math.floor((lo + h) / cell)
    last = math.ceil((hi + h) / cell)
    lengths = [
        float(min(hi, -h + (i + 1) * cell) - max(lo, -h + i * cell)) for i in range(first, last)
    ]
    return first, np.array(lengths)


def _reference_mass(w: Weight, lo: Fraction, hi: Fraction) -> float:
    if w.power is not None:
        return power_interval_mass(float(lo), float(hi), w.power)
    first, lengths = _reference_overlap(w.tree, lo, hi)
    return float((w.density[first:first + len(lengths)] * lengths).sum())


def _reference_oscillation(b: GridFunction, lo: Fraction, hi: Fraction) -> float:
    first, lengths = _reference_overlap(b.tree, lo, hi)
    vals = b.values[first:first + len(lengths)]
    mean = float((vals * lengths).sum() / lengths.sum())
    return float((np.abs(vals - mean) * lengths).sum())


def _reference_max_onto_full(out: np.ndarray, tree: DyadicTree, lo, hi, val: float):
    first, lengths = _reference_overlap(tree, lo, hi)
    for i, length in enumerate(lengths):
        if length >= tree.cell_side * (1.0 - 1e-12):
            out[first + i] = max(out[first + i], val)


def _all_reference_intervals(tree: DyadicTree):
    for _, _, pairs in reference_shifted_intervals(tree):
        yield from pairs


def reference_shifted_average_sup(f: GridFunction, weight: Weight | None) -> np.ndarray:
    """Shifted part of `maximal(f, weight, scope="shifted")`, before the |f| and dyadic max."""
    tree = f.tree
    edges = [Fraction(float(e)) for e in tree.cell_edges()]
    out = np.zeros(tree.shape)
    for lo, hi in _all_reference_intervals(tree):
        first, lengths = _reference_overlap(tree, lo, hi)
        if weight is None:
            masses = lengths
        elif weight.power is not None:
            masses = weight.cell_mass[first:first + len(lengths)].copy()
            for pos in (0, len(masses) - 1):
                i = first + pos
                if lengths[pos] < tree.cell_side * (1.0 - 1e-12):
                    a, b = max(lo, edges[i]), min(hi, edges[i + 1])
                    masses[pos] = power_interval_mass(float(a), float(b), weight.power)
        else:
            masses = weight.cell_mass[first:first + len(lengths)] * (lengths / tree.cell_side)
        val = float((f.values[first:first + len(lengths)] * masses).sum() / masses.sum())
        _reference_max_onto_full(out, tree, lo, hi, val)
    return out


def _reference_sharp_over(b: GridFunction, nu: Weight, intervals) -> np.ndarray:
    out = np.zeros(b.tree.shape)
    for lo, hi in intervals:
        val = _reference_oscillation(b, lo, hi) / _reference_mass(nu, lo, hi)
        _reference_max_onto_full(out, b.tree, lo, hi, val)
    return out


def reference_shifted_sharp_sup(b: GridFunction, nu: Weight) -> np.ndarray:
    return _reference_sharp_over(b, nu, _all_reference_intervals(b.tree))


def reference_sliding_sharp_sup(b: GridFunction, nu: Weight, n_scales: int = 4) -> np.ndarray:
    tree = b.tree
    h = Fraction(tree.half_width)
    windows = []
    for j in range(n_scales):
        scale = Fraction(tree.root_side) / 2**j
        offset = -h
        while offset + scale <= h:
            windows.append((offset, offset + scale))
            offset += scale / 4
    return _reference_sharp_over(b, nu, windows)


def reference_sharp_window_values(b: GridFunction, nu: Weight, points, n_left: int) -> np.ndarray:
    tree = b.tree
    h, edges = tree.half_width, tree.cell_edges()
    out = np.zeros(len(points))
    for i, x in enumerate(points):
        right = Fraction(min(h, x + tree.cell_side))
        best = 0.0
        for a in np.linspace(-h, x, n_left, endpoint=False):
            lo = Fraction(float(edges[int(np.searchsorted(edges, a, side="right")) - 1]))
            best = max(best, _reference_oscillation(b, lo, right) / _reference_mass(nu, lo, right))
        out[i] = best
    return out


def reference_bmo_shifted(b: GridFunction, nu: Weight, alpha: float) -> float:
    expo = 1.0 + alpha / b.tree.dim
    best = 0.0
    for lo, hi in _all_reference_intervals(b.tree):
        best = max(best, _reference_oscillation(b, lo, hi) / _reference_mass(nu, lo, hi) ** expo)
    return best


def reference_ap_shifted(w: Weight, p: float) -> float:
    pc = p / (p - 1.0)
    dual = w.pointwise_power(-pc / p)
    best = 0.0
    for lo, hi in _all_reference_intervals(w.tree):
        length = float(hi - lo)
        mw, md = _reference_mass(w, lo, hi), _reference_mass(dual, lo, hi)
        best = max(best, (mw / length) * (md / length) ** (p / pc))
    return best


def reference_cube_lower_bound_shifted(tree: DyadicTree, gamma: float) -> float:
    """Shifted part of `power_weight_cube_lower_bound`, over every cube meeting the window."""
    lattice = ShiftedLattice(tree)
    best = 0.0
    for alpha in lattice.alphas:
        for level in range(tree.depth + 1):
            for cube in lattice.cubes_overlapping_window(alpha, level):
                lo, hi = cube.axis_interval(0)
                mass = power_interval_mass(float(lo), float(hi), gamma)
                best = max(best, float(hi - lo) ** (gamma + tree.dim) / mass)
    return best


# -- references for the per-level stacks ------------------------------------------------
#
# The level sums as they were written before the top-down pass: every level
# array broadcast to the cells by repeated refinement, then added per level.
# Each cell adds the same terms in the same order as the one-pass forms, so
# those must agree bit for bit.  The cube-collection references loop over
# `Cube`s with `haar_difference` and slice means, and agree to rounding.


def reference_coarsen_once(arr: np.ndarray, dim: int | None = None) -> np.ndarray:
    """One coarsening step as it was written before the pair sums: each cube
    axis split into (parent, child) and the child axis summed."""
    out = arr
    for axis in range(0 if dim is None else arr.ndim - dim, arr.ndim):
        shape = list(out.shape)
        shape[axis] //= 2
        shape.insert(axis + 1, 2)
        out = out.reshape(shape).sum(axis=axis + 1)
    return out


def reference_expand_to_cells(arr: np.ndarray, level: int, depth: int) -> np.ndarray:
    for _ in range(depth - level):
        arr = refine_once(arr)
    return arr


def reference_paraproduct(b: GridFunction, f: GridFunction) -> np.ndarray:
    tree = b.tree
    bavg, favg = _averages_by_level(b), _averages_by_level(f)
    out = np.zeros(tree.shape)
    upper = reference_expand_to_cells(bavg[0], 0, tree.depth)
    for k in range(tree.depth):
        lower = reference_expand_to_cells(bavg[k + 1], k + 1, tree.depth)
        out += (lower - upper) * reference_expand_to_cells(favg[k], k, tree.depth)
        upper = lower
    return out


def reference_paraproduct_adjoint(b: GridFunction, g: GridFunction) -> np.ndarray:
    tree = b.tree
    bavg, gsum = _averages_by_level(b), level_sums(tree, g.values)
    out = np.zeros(tree.shape)
    for k in range(tree.depth):
        inner = coarsen_once(bavg[k + 1] * gsum[k + 1]) - bavg[k] * gsum[k]
        inner *= tree.cell_volume / tree.volume(k)
        out += reference_expand_to_cells(inner, k, tree.depth)
    return out


def reference_martingale_stack(f: GridFunction, coeffs) -> np.ndarray:
    tree = f.tree
    favg = _averages_by_level(f)
    out = np.zeros(tree.shape)
    upper = reference_expand_to_cells(favg[0], 0, tree.depth)
    for k in range(tree.depth):
        lower = reference_expand_to_cells(favg[k + 1], k + 1, tree.depth)
        out += (lower - upper) * reference_expand_to_cells(coeffs[k], k, tree.depth)
        upper = lower
    return out


def reference_envelope(b: GridFunction, f: GridFunction, q0: Cube) -> np.ndarray:
    tree = b.tree
    bavg, favg = _averages_by_level(b), _averages_by_level(f)
    pos, neg = np.zeros(tree.shape), np.zeros(tree.shape)
    upper = reference_expand_to_cells(bavg[q0.level], q0.level, tree.depth)
    for k in range(q0.level, tree.depth):
        lower = reference_expand_to_cells(bavg[k + 1], k + 1, tree.depth)
        term = (lower - upper) * reference_expand_to_cells(favg[k], k, tree.depth)
        pos += np.maximum(term, 0.0)
        neg += np.maximum(-term, 0.0)
        upper = lower
    return np.maximum(pos, neg)[q0.cell_slices()]


def reference_oscillation_levels(b: GridFunction) -> list[np.ndarray]:
    tree = b.tree
    avgs = _averages_by_level(b)
    out = []
    for k in range(tree.depth + 1):
        agg = np.abs(b.values - reference_expand_to_cells(avgs[k], k, tree.depth))
        for _ in range(tree.depth - k):
            agg = coarsen_once(agg)
        out.append(agg * tree.cell_volume)
    return out


def reference_fujii_wilson(w: Weight, mu: Weight | None) -> float:
    tree = w.tree
    w_levels = w.level_masses()
    mu_levels = level_masses_or_lebesgue(tree, mu)
    mu_cell = mu_levels[tree.depth]
    running = w_levels[tree.depth] / mu_levels[tree.depth]
    inner = [None] * (tree.depth + 1)
    inner[tree.depth] = running
    for k in range(tree.depth - 1, -1, -1):
        ratio_k = reference_expand_to_cells(w_levels[k] / mu_levels[k], k, tree.depth)
        running = np.maximum(ratio_k, running)
        inner[k] = running
    best = 1.0
    for k in range(tree.depth + 1):
        agg = inner[k] * mu_cell
        for _ in range(tree.depth - k):
            agg = coarsen_once(agg)
        best = max(best, float((agg / w_levels[k]).max()))
    return best


def reference_random_subcollection(tree: DyadicTree, q0: Cube, rng: np.random.Generator,
                                   inclusion: float | None = None) -> list[Cube]:
    """The cube-by-cube walk: pop a cube, draw once if it is not a leaf, push its children."""
    p = rng.uniform(0.2, 0.8) if inclusion is None else inclusion
    cubes = []
    stack = [q0]
    while stack:
        q = stack.pop()
        if q.is_leaf():
            continue
        if rng.random() < p:
            cubes.append(q)
        stack.extend(q.children())
    return cubes


def reference_partial_paraproduct(b: GridFunction, f: GridFunction, cubes) -> np.ndarray:
    out = np.zeros(b.tree.shape)
    for q in cubes:
        if not q.is_leaf():
            out += haar_difference(b, q).values * average(f, q)
    return out


def reference_martingale_dict(f: GridFunction, coeffs: dict) -> np.ndarray:
    out = np.zeros(f.tree.shape)
    for q, v in coeffs.items():
        if not q.is_leaf():
            out += v * haar_difference(f, q).values
    return out


def reference_sparse_op(b: GridFunction, f: GridFunction, cubes, variant: str) -> np.ndarray:
    out = np.zeros(b.tree.shape)
    for q in cubes:
        sl = q.cell_slices()
        dev = np.abs(b.values[sl] - b.values[sl].mean())
        if variant == "plain":
            out[sl] += dev * f.values[sl].mean()
        else:
            out[sl] += (dev * f.values[sl]).mean()
    return out


def reference_sparse_op_exponent(f: GridFunction, cubes, s: float) -> np.ndarray:
    if not 0.0 < s <= 1.0:
        raise ValueError("exponent s must lie in (0, 1]")
    out = np.zeros(f.tree.shape)
    for q in cubes:
        sl = q.cell_slices()
        val = (np.abs(f.values[sl]) ** s).sum() * f.tree.cell_volume / q.volume**s
        out[sl] += val ** (1.0 / s)
    return out


def reference_domination_rhs(cubes, b: GridFunction, f: GridFunction) -> np.ndarray:
    out = np.zeros(b.tree.shape)
    for q in cubes:
        sl = q.cell_slices()
        osc = np.abs(b.values[sl] - b.values[sl].mean()).mean()
        out[sl] += osc * np.abs(f.values[sl]).mean()
    return out


# -- the recursive stopping-time constructors, kept as references -----------------------


def _packed(cubes: list[Cube], witnesses: dict[Cube, dict[int, int]]) -> list[np.ndarray]:
    """The references' claim dicts in `SparseFamily`'s form: packed claims, in dict order."""
    return [np.array([cell << 2 | kind for cell, kind in witnesses[q].items()], dtype=np.int64)
            for q in cubes]


def reference_paraproduct_sparse_dominate(
    b: GridFunction, f: GridFunction, q0: Cube | None = None
) -> SparseFamily:
    """The cube-by-cube constructor: pop an iterate, scan its subtree for stopping cubes.

    An iterate on which b is constant is decided by min == max over its
    cells, a test that reads no level array, so it checks the constructor's
    zero-oscillation test independently.
    """
    tree = b.tree
    if q0 is None:
        q0 = tree.root()
    d = tree.dim
    bavg = _averages_by_level(b)
    fabs = _averages_by_level(f.abs())
    fsig = _averages_by_level(f)

    stilde: list[Cube] = []
    stopping_children: dict[Cube, list[Cube]] = {}
    mass_ratio_max = 0.0
    stack = [q0]
    while stack:
        q = stack.pop()
        stilde.append(q)
        if q.is_leaf():
            stopping_children[q] = []
            continue
        vals = b.values[q.cell_slices()]
        osc_avg = float(np.abs(vals - bavg[q.level][q.index]).mean())
        fbar = float(fabs[q.level][q.index])
        a_q = 32.0 * osc_avg * fbar
        if vals.min() == vals.max():
            stopping_children[q] = []
            continue
        stops: list[Cube] = []

        def scan(parent: Cube, pos: float, neg: float):
            pavg = bavg[parent.level][parent.index]
            favg_parent = fsig[parent.level][parent.index]
            for child in parent.children():
                c = (bavg[child.level][child.index] - pavg) * favg_parent
                cpos = pos + max(c, 0.0)
                cneg = neg + max(-c, 0.0)
                if fabs[child.level][child.index] > 4.0 * fbar or max(cpos, cneg) > a_q:
                    stops.append(child)
                elif not child.is_leaf():
                    scan(child, cpos, cneg)

        scan(q, 0.0, 0.0)
        stop_mass = sum(p.volume for p in stops)
        ratio = stop_mass / q.volume
        mass_ratio_max = max(mass_ratio_max, ratio)
        if ratio > 0.5 + 1e-12:
            raise StoppingMassError(
                f"stopping cubes carry {ratio:.4f} of the node volume at {q}, above 1/2"
            )
        stopping_children[q] = stops
        stack.extend(stops)

    witnesses: dict[Cube, dict[int, int]] = {}
    for q in stilde:
        keep = np.zeros(tree.shape, dtype=bool)
        keep[q.cell_slices()] = True
        for p in stopping_children[q]:
            keep[p.cell_slices()] = False
        witnesses[q] = {int(i): FULL for i in np.flatnonzero(keep.ravel())}

    members = set(stilde)
    family_cubes = list(stilde)
    half_cells = 2 ** (d + 1)
    for q in stilde:
        if q == q0:
            continue
        parent = q.parent()
        if parent in members:
            continue
        members.add(parent)
        family_cubes.append(parent)
        need_parent = -(-parent.cell_count() // half_cells)
        need_donor = -(-q.cell_count() // half_cells)
        donor_claims = witnesses[q]
        if 2 * len(donor_claims) - need_parent < need_donor:
            raise AssertionError("witness split infeasible")
        cells_sorted = sorted(donor_claims)
        take_full, leftover_half = divmod(need_parent, 2)
        parent_claims: dict[int, int] = {}
        for cell in cells_sorted[len(cells_sorted) - take_full:]:
            parent_claims[cell] = FULL
            del donor_claims[cell]
        if leftover_half:
            split_cell = max(donor_claims)
            parent_claims[split_cell] = HI_HALF
            donor_claims[split_cell] = LO_HALF
        witnesses[parent] = parent_claims
    return SparseFamily(tree=tree, cubes=family_cubes, witnesses=_packed(family_cubes, witnesses),
                        gamma=2.0 ** -(d + 2), measure=Weight.lebesgue(tree),
                        stopping_mass_max=mass_ratio_max)


def reference_discretized_sharp_sup(b: GridFunction, nu: Weight, r: float,
                                    gamma: float = 0.25) -> NormReport:
    """The recursive principal-cube walk, one median per visited cube."""
    tree = b.tree
    nus = nu.level_masses()

    def phi(cube: Cube) -> float:
        vals = b.values[cube.cell_slices()].ravel()
        med = float(np.median(vals))
        return float(np.abs(vals - med).sum() * tree.cell_volume) / nus[cube.level][cube.index]

    principal: list[Cube] = []
    children: dict[Cube, list[Cube]] = {}
    stack = [tree.root()]
    while stack:
        p = stack.pop()
        principal.append(p)
        phip = phi(p)
        stops: list[Cube] = []

        def scan(q: Cube):
            for child in q.children():
                if phi(child) > 2.0 * phip:
                    stops.append(child)
                elif not child.is_leaf():
                    scan(child)

        if not p.is_leaf():
            scan(p)
        children[p] = stops
        stack.extend(stops)

    witnesses: dict[Cube, dict[int, int]] = {}
    for p in principal:
        keep = np.zeros(tree.shape, dtype=bool)
        keep[p.cell_slices()] = True
        for s in children[p]:
            keep[s.cell_slices()] = False
        witnesses[p] = {int(i): FULL for i in np.flatnonzero(keep.ravel())}
    family = SparseFamily(tree=tree, cubes=principal, witnesses=_packed(principal, witnesses),
                          gamma=gamma, measure=nu)
    ok, worst = reference_verify_sparse(family)
    total = 0.0
    for p in principal:
        osc = oscillation(b, p)
        mass = float(nus[p.level][p.index])
        if osc > 0.0:
            total += (osc / mass) ** r * mass
    value = total ** (1.0 / r) if total > 0.0 else 0.0
    sharp_norm = sharp_maximal_r_norm(b, nu, r).value
    details = {"sparse_ok": float(ok), "worst_witness_ratio": worst, "sharp_norm": sharp_norm}
    return NormReport(value, "sparse-sup", certificate=family, details=details)


# -- the sequential operator-norm ascent -------------------------------------------
#
# `empirical_operator_norm` runs its starts in lockstep; this is the same
# ascent one start at a time, carrying (v, Uv, ratio) the same way, and the
# lockstep estimator must match it bit for bit.  It applies U once per
# gradient and takes each trial's image by linearity, Uv + step * Ug / gn.
# Its powers come from the estimator's kernels `abs_power` and
# `signed_power` (products at whole exponents 1-4), so the match tests the
# pool, not the last bits of libm's pow.  The same ascent with one apply per
# trial, U(v + step * g / gn), is `reference_empirical_operator_norm_per_trial`:
# the estimator stays within float reordering of it.


def _reference_weighted_norm(vals: np.ndarray, masses, p: float) -> float:
    return float((abs_power(vals, p) * masses).sum() ** (1.0 / p))


def reference_empirical_operator_norm(U, mu, lam, p, q, tree, **kwargs) -> NormReport:
    """The sequential ascent, one forward apply per gradient and trial images by linearity."""
    return _sequential_ascent(U, mu, lam, p, q, tree, per_trial=False, **kwargs)


def reference_empirical_operator_norm_per_trial(U, mu, lam, p, q, tree, **kwargs) -> NormReport:
    """The sequential ascent, one forward apply per line-search trial."""
    return _sequential_ascent(U, mu, lam, p, q, tree, per_trial=True, **kwargs)


def _sequential_ascent(
    U,
    mu: Weight | None,
    lam: Weight | None,
    p: float,
    q: float,
    tree: DyadicTree,
    restarts: int = 64,
    iterations: int = 60,
    seed: int = 0x5EED,
    extra_starts=(),
    per_trial: bool = False,
) -> NormReport:
    mum = mu.cell_mass if mu is not None else np.full(tree.shape, tree.cell_volume)
    lamm = lam.cell_mass if lam is not None else np.full(tree.shape, tree.cell_volume)

    def ratio(v: np.ndarray, u: np.ndarray) -> tuple[float, float]:
        # u = Uv; returns the ratio and v's norm
        denom = _reference_weighted_norm(v, mum, p)
        if denom == 0.0:
            return 0.0, denom
        return _reference_weighted_norm(u, lamm, q) / denom, denom

    def log_grad(v: np.ndarray, u: np.ndarray, r: float) -> np.ndarray:
        # v has unit L^p(mu) norm and u = Uv, so r = ||Uv||_{L^q(lam)}
        if r == 0.0:
            return np.zeros_like(v)
        ga = U.adjoint(lamm * signed_power(u, q - 1.0)) / r**q
        gb = mum * signed_power(v, p - 1.0)
        return ga - gb

    starts: list[np.ndarray] = []
    starts.append(np.ones(tree.shape))
    for level in range(min(2, tree.depth) + 1):
        for cube in tree.cubes_at_level(level):
            ind = np.zeros(tree.shape)
            ind[cube.cell_slices()] = 1.0
            starts.append(ind)
    for cube in tree.cubes_at_level(min(1, tree.depth)):
        bump = np.zeros(tree.shape)
        kids = cube.children() if not cube.is_leaf() else []
        for j, kid in enumerate(kids):
            bump[kid.cell_slices()] = 1.0 if j % 2 == 0 else -1.0
        starts.append(bump)
    starts.extend(np.asarray(s, dtype=float) for s in extra_starts)
    rng = np.random.default_rng(seed)
    for _ in range(max(0, restarts - len(starts))):
        starts.append(rng.normal(size=tree.shape))

    best_val = 0.0
    best_vec = starts[0].copy()
    trace: list[float] = []
    evals = 0
    for v0 in starts:
        v = np.array(v0, dtype=float)
        nv = _reference_weighted_norm(v, mum, p)
        if nv == 0.0:
            continue
        v = v / nv
        uv = U.apply(v)
        r_cur, _ = ratio(v, uv)
        step = 1.0
        for _ in range(iterations):
            g = log_grad(v, uv, r_cur)
            gn = float(np.sqrt((g * g).sum()))
            if gn < 1e-15:
                break
            improved = False
            ug = None if per_trial else U.apply(g)
            while step > 1e-12:
                w = v + step * g / gn
                uw = U.apply(w) if per_trial else uv + step * ug / gn
                r_new, den = ratio(w, uw)
                evals += 1
                if r_new > r_cur * (1.0 + 1e-13):
                    v, uv = w / den, uw / den
                    r_cur = r_new
                    step *= 1.8
                    improved = True
                    break
                step *= 0.5
            if not improved:
                break
        if r_cur > best_val:
            best_val = r_cur
            best_vec = v.copy()
        trace.append(best_val)

    return NormReport(
        value=best_val,
        method="gradient-ascent",
        certificate=best_vec,
        trace=trace,
        details={"restarts": float(len(starts)), "ratio_evals": float(evals)},
    )


# -- reference for the sparse-family check ------------------------------------------------
#
# `sparse.verify_sparse` as it ran before it checked arrays of claims: a
# Python set of each cube's cells, a per-cell list of the kinds seen, and
# claim masses added cell by cell.  The array check must return the same
# (ok, worst) exactly.

_REFERENCE_CLAIM_FRACTION = {FULL: 1.0, LO_HALF: 0.5, HI_HALF: 0.5}


def _reference_claims_mass(tree: DyadicTree, claims: list[tuple[int, int]],
                           measure: Weight | None) -> float:
    if not claims:
        return 0.0
    total = 0.0
    if measure is None:
        for _, kind in claims:
            total += _REFERENCE_CLAIM_FRACTION[kind] * tree.cell_volume
        return total
    flat_mass = measure.cell_mass.ravel()
    for cell, kind in claims:
        if kind == FULL:
            total += flat_mass[cell]
        elif measure.power is not None and tree.dim == 1:
            edges = tree.cell_edges()
            mid = (edges[cell] + edges[cell + 1]) / 2.0
            lo, hi = (edges[cell], mid) if kind == LO_HALF else (mid, edges[cell + 1])
            total += power_interval_mass(float(lo), float(hi), measure.power)
        else:
            total += 0.5 * flat_mass[cell]
    return total


def reference_verify_sparse(family: SparseFamily, gamma: float | None = None,
                            measure: Weight | None = None) -> tuple[bool, float]:
    """(ok, worst witness ratio) of a sparse family, cube by cube and cell by cell."""
    gamma = family.gamma if gamma is None else gamma
    measure = family.measure if measure is None else measure
    tree = family.tree
    seen: dict[int, list[int]] = {}
    worst = math.inf
    ok = True
    for cube, packed in zip(family.cubes, family.witnesses):
        claims = [(claim >> 2, claim & 3) for claim in packed.tolist()]
        inside = set(int(i) for i in flat_cells(cube))
        for cell, kind in claims:
            if cell not in inside:
                return False, 0.0
            kinds = seen.setdefault(cell, [])
            if FULL in kinds or kind == FULL and kinds or kind in kinds:
                ok = False
            kinds.append(kind)
        mass = _reference_claims_mass(tree, claims, measure)
        total = cube.volume if measure is None else measure.mass(cube)
        ratio = mass / total
        worst = min(worst, ratio)
        if ratio < gamma * (1.0 - 1e-12):
            ok = False
    if not family.cubes:
        worst = 1.0
    return ok, worst


# -- reference for the d >= 2 power-weight quadrature -----------------------------------
#
# `Weight.power_weight` in d >= 2 as it ran before the resident quadrature
# plan: the node radii rebuilt per call from meshgrids, and the cells at the
# origin integrated by the subdividing per-box rule, one meshgrid Gauss rule
# per box.  The plan must reproduce its densities and masses bit for bit.

_REFERENCE_NODES, _REFERENCE_WEIGHTS = np.polynomial.legendre.leggauss(10)


def _reference_power_box_mass(corner, side: float, gamma: float) -> float:
    d = len(corner)

    def box_touches_origin(c, s):
        return all(ci <= 0.0 <= ci + s for ci in c)

    def gauss(c, s):
        half = 0.5 * s
        pts = [c[i] + half * (_REFERENCE_NODES + 1.0) for i in range(d)]
        grids = np.meshgrid(*pts, indexing="ij")
        w = _REFERENCE_WEIGHTS * half
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
        return total

    if box_touches_origin(corner, side) and gamma <= -d:
        mid = tuple(ci + 0.5 * side for ci in corner)
        r = math.sqrt(sum(m**2 for m in mid))
        if r == 0.0:
            r = 0.25 * side * math.sqrt(d)
        return r**gamma * side**d
    return recurse(tuple(corner), float(side), 0)


def reference_power_weight(tree: DyadicTree, gamma: float) -> tuple[np.ndarray, np.ndarray, bool]:
    """(density, cell masses, singular) of |x|^gamma on a d >= 2 tree, per-call quadrature."""
    d, s = tree.dim, tree.cell_side
    corners = np.meshgrid(*(tree.cell_edges()[:-1],) * d, indexing="ij")
    mids = [c + 0.5 * s for c in corners]
    density = np.sqrt(sum(m**2 for m in mids)) ** gamma
    half = 0.5 * s
    node_grids = np.meshgrid(*([_REFERENCE_NODES] * d), indexing="ij")
    wgrid = np.ones(node_grids[0].shape)
    for axis in range(d):
        shape = [1] * d
        shape[axis] = -1
        wgrid = wgrid * (_REFERENCE_WEIGHTS * half).reshape(shape)
    rr2 = np.zeros(tree.shape + node_grids[0].shape)
    expand = (...,) + (None,) * d
    for axis in range(d):
        pts = corners[axis][expand] + half * (node_grids[axis] + 1.0)
        rr2 = rr2 + pts**2
    mass = (np.sqrt(rr2) ** gamma * wgrid).sum(axis=tuple(range(d, 2 * d)))
    touching = np.ones(tree.shape, dtype=bool)
    for axis in range(d):
        touching &= (corners[axis] <= 0.0) & (corners[axis] + s >= 0.0)
    h = tree.half_width
    for idx in zip(*np.nonzero(touching)):
        corner = tuple(-h + i * s for i in idx)
        mass[idx] = _reference_power_box_mass(corner, s, gamma)
    return density, mass, gamma <= -d


def run_all():
    results = []
    for fn in CHECKS:
        name, got, want, tol = fn()
        err = abs(got - want) / max(abs(want), 1e-12)
        results.append((name, got, want, tol, err, err <= tol))
    return results
