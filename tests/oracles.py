"""Independent-oracle checks shared by the unit tests and the acceptance gate.

Each check computes one quantity twice: through the main code path and
through the stated independent route (brute-force enumeration, closed
form, hand arithmetic, or direct grid summation).  A check returns
(name, got, want, rel_tol); the oracle side never calls the code under
test for the quantity it certifies.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache

import numpy as np

from dyadlab.lattice import (
    Cube,
    DyadicTree,
    GridFunction,
    ShiftedLattice,
    as_blocks,
    average,
    coarsen_once,
    coarsen_to,
    haar_difference,
    one_third_cover,
    per_block,
    refine_once,
)
from dyadlab.norms import (
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
)
from dyadlab.operators import (
    _averages_by_level,
    commutator,
    commutator_bilinear,
    hilbert_at,
    martingale_transform,
    maximal,
    multiplication_handle,
    oscillation,
    paraproduct,
    paraproduct_handle,
    sharp_maximal,
    sharp_window_values,
    sparse_op,
    weak_level_set_bound,
)
from dyadlab.sparse import (
    FULL,
    HI_HALF,
    LO_HALF,
    SparseFamily,
    StoppingMassError,
    domination_check,
    domination_rhs,
    partial_sum,
    paraproduct_sparse_dominate,
    verify_sparse,
)
from dyadlab.weights import (
    BloomTriple,
    ExponentConfig,
    Weight,
    ap_characteristic,
    carleson_norm,
    coeff_stack,
    fujii_wilson_ainfty,
    level_masses_or_lebesgue,
    lower_joint_characteristic,
    power_interval_mass,
    power_weight_cube_lower_bound,
    upper_joint_characteristic,
)

CHECKS = []


def oracle(fn):
    CHECKS.append(fn)
    return fn


def _two_cell_weight(tree: DyadicTree, left: float, right: float) -> Weight:
    density = np.where(tree.cell_centers() < 0.0, left, right)
    return Weight(tree, density)


@oracle
def average_two_cell_weighted():
    """Weighted mean against a brute-force cell summation."""
    tree = DyadicTree(1, 4, 0.5)  # root [-1/2, 1/2), plays the unit cube
    w = _two_cell_weight(tree, 2.0, 1.0)
    f = GridFunction.from_callable(tree, lambda x: (x < 0.0) * 1.0)
    got = average(f, tree.root(), w)
    want = float((f.values * w.cell_mass).sum() / w.cell_mass.sum())  # = 2/3
    assert abs(want - 2.0 / 3.0) < 1e-15
    return "average: two-cell weighted mean", got, want, 1e-12


@oracle
def haar_two_cell():
    """Haar-type difference against the unfolded definition on two cells."""
    tree = DyadicTree(1, 3, 0.5)
    b = GridFunction.from_callable(tree, lambda x: (x < 0.0) * 1.0)
    diff = haar_difference(b, tree.root())
    left, right = tree.root().children()
    want_left, want_right = 0.5, -0.5  # child averages 1, 0 minus the mean 1/2
    got = float(diff.values[left.cell_slices()].mean())
    got2 = float(diff.values[right.cell_slices()].mean())
    return "haar: two-cell unfold", got - got2, want_left - want_right, 1e-12


@oracle
def one_third_cover_exhaustive():
    """Cover of [0.4, 0.9) against exhaustive search over all shifted cubes."""
    tree = DyadicTree(1, 6, 1.0)
    corner, side = (0.4,), 0.5
    alpha, cube = one_third_cover(tree, corner, side)
    got = cube.side
    lattice = ShiftedLattice(tree)
    best = math.inf
    lo_t, hi_t = Fraction(corner[0]), Fraction(corner[0]) + Fraction(side)
    for a in lattice.alphas:
        for level in range(tree.depth + 1):
            for cand in lattice.cubes_overlapping_window(a, level):
                clo, chi = cand.axis_interval(0)
                if clo <= lo_t and hi_t <= chi:
                    best = min(best, float(cand.side_frac))
    assert Fraction(cube.corner_frac[0]) <= lo_t and hi_t <= cube.corner_frac[0] + cube.side_frac
    assert got <= 3.0 * side
    return "one-third cover: smallest admissible scale", got, best, 1e-12


@oracle
def one_third_cover_random_battery():
    """100 random target cubes: containment and the factor-3 side bound."""
    tree = DyadicTree(1, 8, 1.0)
    rng = np.random.default_rng(2024)
    worst = 0.0
    for _ in range(100):
        side = float(rng.uniform(2.0 * tree.cell_side, 0.5))
        corner = float(rng.uniform(-1.0, 1.0 - side))
        alpha, cube = one_third_cover(tree, (corner,), side)
        lo, hi = cube.axis_interval(0)
        assert lo <= Fraction(corner) and Fraction(corner) + Fraction(side) <= hi
        worst = max(worst, cube.side / side)
    return "one-third cover: random battery worst ratio <= 3", min(worst, 3.0), worst, 1e-12


@oracle
def restrict_then_integrate():
    tree = DyadicTree(1, 5, 1.0)
    rng = np.random.default_rng(5)
    f = GridFunction(tree, rng.normal(size=tree.shape))
    q0 = Cube(tree, 2, (1,))
    got = f.restrict(q0).integral()
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
    got = fujii_wilson_ainfty(w, None)
    best = 0.0
    for q in tree.cubes():
        total = 0.0
        for cell in q.flat_cells():
            c = tree.cell_cube(int(cell))
            ratios = []
            for r in [c] + list(c.ancestors()):
                if q.contains(r) or r == q:
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
        stack = coeff_stack(tree, {cube: 1.0})
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
    got = maximal(f)
    worst = 0.0
    for cell in range(tree.n_cells):
        c = tree.cell_cube(cell)
        best = 0.0
        for q in [c] + list(c.ancestors()):
            sl = q.cell_slices()
            best = max(best, float(np.abs(f.values[sl]).mean()))
        worst = max(worst, abs(got.values[c.cell_slices()][0] - best))
    return "maximal: ancestor enumeration", worst, 0.0, 1e-12


@oracle
def sharp_two_cell():
    """Sharp maximal of the half indicator on a depth-1 tree: constant 1/2."""
    tree = DyadicTree(1, 1, 0.5)
    b = GridFunction.from_callable(tree, lambda x: (x >= 0.0) * 1.0)
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
    b = GridFunction.from_callable(tree, lambda x: (x < 0.0) * 1.0)
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
    plain = sparse_op(b, one, [q], variant="plain")
    adj = sparse_op(b, one, [q], variant="adjoint")
    sl = q.cell_slices()
    dev_hand = float(np.abs(adj.values[sl] - np.abs(b.values[sl] - b.values[sl].mean()).mean()).max())
    assert dev_hand < 1e-12
    got = float(np.abs(plain.values[sl].mean() - adj.values[sl].mean()))
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
        g = martingale_transform(f, coeffs)
        top = float(np.abs(g.values).max())
        if top == 0.0:
            continue
        ts = np.linspace(top / 100.0, top, 100)
        worst = max(worst, weak_level_set_bound(g, lp_norm(f, None, 1.0), 2.0, ts))
    return "Burkholder: weak-type slack <= 0", max(worst, 0.0), 0.0, 1e-12


@oracle
def hilbert_log_kernel():
    """Indicator transform at distance: closed-form logarithm."""
    tree = DyadicTree(1, 8, 1.0)
    f = GridFunction.from_callable(tree, lambda x: (x >= 0.0) * 1.0)
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
    b = GridFunction.from_callable(tree, lambda x: np.sign(x + 1e-12))
    f = GridFunction.from_callable(tree, lambda x: np.exp(-4.0 * x * x))
    nonzero = float(np.abs(commutator(b, f).values).max())
    const_zero = float(np.abs(commutator(GridFunction.constant(tree, 2.0), f).values).max())
    assert nonzero > 1e-3
    return "commutator: kills constants", const_zero, 0.0, 1e-12


@oracle
def domination_hand_case():
    """b = f = half indicator, F = {root}: both sides by direct grid summation."""
    tree = DyadicTree(1, 4, 0.5)
    b = GridFunction.from_callable(tree, lambda x: (x < 0.0) * 1.0)
    family = paraproduct_sparse_dominate(b, b)
    lhs = partial_sum(b, b, [tree.root()])
    assert abs(float(np.abs(lhs.values).max()) - 0.25) < 1e-12
    rhs = domination_rhs(family, b, b)
    root_rhs = 64.0 * rhs  # constant 2^(d+5) in d=1
    ok, worst = domination_check(lhs, family, b, b)
    assert ok
    # with the root in the family the right side is at least 64 * (1/2) * (1/2)
    assert float(root_rhs.min()) >= 16.0 - 1e-12
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
    b = GridFunction.from_callable(tree, lambda x: np.where(x < 0.0, 1.0, -1.0))
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
    b = GridFunction.from_callable(tree, lambda x: (x < 0.0) * 1.0)
    nu = Weight.lebesgue(tree)
    rep = discretized_sharp_sup(b, nu, 2.0, gamma=0.25)
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

    `_averages_by_level`, `carleson_norm` and `fujii_wilson_ainfty` with no
    measure, against their formulas evaluated on full arrays of `tree.volume(k)`.
    """
    same = True
    for dim, depth, half_width in ((1, 6, 1.0), (1, 7, 3.0), (2, 4, 0.7), (2, 5, 5.0)):
        tree = DyadicTree(dim, depth, half_width)
        full = [np.full((2**k,) * dim, tree.volume(k)) for k in range(depth + 1)]
        rng = np.random.default_rng(depth)
        f = GridFunction(tree, rng.standard_t(3, size=tree.shape))
        sums = f.level_sums()
        want = [sums[k] * tree.cell_volume / full[k] for k in range(depth + 1)]
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
        same &= fujii_wilson_ainfty(w) == ainfty
    return "lebesgue level masses: scalars against np.full arrays", float(same), 1.0, 0.0


# -- Fraction references for the d = 1 interval engine -------------------------------
#
# The shifted and sliding-window functionals recomputed one interval at a
# time with exact rational endpoints: lattice cubes from
# `ShiftedLattice.cubes_overlapping_window`, cell overlaps from rational
# intersections, and masses from the scalar closed form (power weights) or
# density times overlap (all other weights).


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
    bavg, gsum = _averages_by_level(b), g.level_sums()
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


def reference_paraproduct_sparse_dominate(
    b: GridFunction, f: GridFunction, q0: Cube | None = None
) -> SparseFamily:
    """The cube-by-cube constructor: pop an iterate, scan its subtree for stopping cubes.

    An iterate on which b is constant is decided exactly, by min == max.
    Testing `osc_avg == 0.0` instead reads b as varying on a constant
    block whose rounded average differs from its value (H = 3 or 5), and
    then stops cubes by the growth of |f| alone.
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

    witnesses: dict[Cube, dict[int, str]] = {}
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
        parent_claims: dict[int, str] = {}
        for cell in cells_sorted[len(cells_sorted) - take_full:]:
            parent_claims[cell] = FULL
            del donor_claims[cell]
        if leftover_half:
            split_cell = max(donor_claims)
            parent_claims[split_cell] = HI_HALF
            donor_claims[split_cell] = LO_HALF
        witnesses[parent] = parent_claims
    return SparseFamily(tree=tree, cubes=family_cubes, witnesses=witnesses,
                        gamma=2.0 ** -(d + 2), stopping_mass_max=mass_ratio_max)


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

    witnesses: dict[Cube, dict[int, str]] = {}
    for p in principal:
        keep = np.zeros(tree.shape, dtype=bool)
        keep[p.cell_slices()] = True
        for s in children[p]:
            keep[s.cell_slices()] = False
        witnesses[p] = {int(i): FULL for i in np.flatnonzero(keep.ravel())}
    family = SparseFamily(tree=tree, cubes=principal, witnesses=witnesses, gamma=gamma,
                          measure=nu)
    ok, worst = verify_sparse(family)
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
# ascent one start at a time, as it ran before, and the lockstep estimator
# must match it bit for bit.


def _reference_weighted_norm(vals: np.ndarray, masses, p: float) -> float:
    return float((np.abs(vals) ** p * masses).sum() ** (1.0 / p))


def reference_empirical_operator_norm(
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
) -> NormReport:
    mum = mu.cell_mass if mu is not None else np.full(tree.shape, tree.cell_volume)
    lamm = lam.cell_mass if lam is not None else np.full(tree.shape, tree.cell_volume)

    def ratio(v: np.ndarray) -> float:
        denom = _reference_weighted_norm(v, mum, p)
        if denom == 0.0:
            return 0.0
        return _reference_weighted_norm(U.apply(v), lamm, q) / denom

    def log_grad(v: np.ndarray) -> np.ndarray:
        u = U.apply(v)
        a = _reference_weighted_norm(u, lamm, q)
        bn = _reference_weighted_norm(v, mum, p)
        if a == 0.0 or bn == 0.0:
            return np.zeros_like(v)
        ga = U.adjoint(lamm * np.abs(u) ** (q - 1.0) * np.sign(u)) / a**q
        gb = mum * np.abs(v) ** (p - 1.0) * np.sign(v) / bn**p
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
        r_cur = ratio(v)
        step = 1.0
        for _ in range(iterations):
            g = log_grad(v)
            gn = float(np.sqrt((g * g).sum()))
            if gn < 1e-15:
                break
            improved = False
            while step > 1e-12:
                w = v + step * g / gn
                r_new = ratio(w)
                evals += 1
                if r_new > r_cur * (1.0 + 1e-13):
                    v = w / _reference_weighted_norm(w, mum, p)
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


def run_all():
    results = []
    for fn in CHECKS:
        name, got, want, tol = fn()
        err = abs(got - want) / max(abs(want), 1e-12)
        results.append((name, got, want, tol, err, err <= tol))
    return results
