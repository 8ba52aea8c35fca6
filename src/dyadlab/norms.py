"""Scalar functionals: Lebesgue norms, oscillation norms, multiplier norms,
discretized sharp suprema, empirical operator norms, and testing conditions.

Operator norms between weighted Lebesgue spaces are not exactly computable,
so this module standardizes on certified lower bounds: every estimator
returns a `NormReport` whose certificate re-evaluates to the reported value.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from typing import Callable, Iterable, Sequence

import numpy as np

from .lattice import Cube, DyadicTree, GridFunction, LatticeError, as_rows, shifted_batches
from .operators import (
    OperatorHandle,
    oscillation,
    oscillation_levels,
    sharp_maximal,
)
from .sparse import SparseFamily, owned_cells, principal_cubes, verify_sparse
from .weights import BloomTriple, Weight, batch_masses

GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0
DEFAULT_SEED = 0x5EED


@dataclass
class NormReport:
    """A computed functional value with the object that certifies it."""

    value: float
    method: str
    certificate: object = None
    trace: list = field(default_factory=list)
    details: dict = field(default_factory=dict)

    def to_json(self) -> str:
        cert: object
        if isinstance(self.certificate, np.ndarray):
            cert = "grid-function"
        elif isinstance(self.certificate, SparseFamily):
            cert = f"sparse-family({len(self.certificate.cubes)} cubes)"
        elif isinstance(self.certificate, (int, float)):
            cert = self.certificate
        else:
            cert = None if self.certificate is None else str(type(self.certificate).__name__)
        trace = [
            [float(x) for x in t] if isinstance(t, (tuple, list)) else float(t)
            for t in self.trace
        ]
        payload = {
            "value": self.value,
            "method": self.method,
            "certificate-ref": cert,
            "trace": trace,
            "details": {k: float(v) for k, v in self.details.items()},
        }
        return json.dumps(payload, sort_keys=True)

    def certificate_csv(self) -> str:
        if not isinstance(self.certificate, np.ndarray):
            raise TypeError("only grid-function certificates serialize to CSV")
        flat = np.asarray(self.certificate).ravel()
        return "\n".join(repr(float(x)) for x in flat) + "\n"


def lp_norm(f: GridFunction, weight: Weight | None, p: float) -> float:
    """(sum over cells of |f|^p mass)^(1/p), exact."""
    if not 0.0 < p < math.inf:
        raise ValueError("p must lie in (0, infinity)")
    masses = weight.cell_mass if weight is not None else f.tree.cell_volume
    return float((np.abs(f.values) ** p * masses).sum() ** (1.0 / p))


def bmo_alpha_norm(b: GridFunction, nu: Weight, alpha: float, scope: str = "dyadic") -> float:
    """sup_Q nu(Q)^-(1 + alpha/d) int_Q |b - <b>_Q| dx."""
    tree = b.tree
    expo = 1.0 + alpha / tree.dim
    oscs = oscillation_levels(b)
    nus = nu.level_masses()
    best = 0.0
    for k in range(tree.depth + 1):
        best = max(best, float((oscs[k] / nus[k] ** expo).max()))
    if scope == "shifted":
        for batch in shifted_batches(tree):
            vals = batch.oscillation(b.values) / batch_masses(nu, batch) ** expo
            best = max(best, float(vals.max()))
    elif scope != "dyadic":
        raise ValueError(f"unknown scope {scope!r}")
    return best


def sharp_maximal_r_norm(b: GridFunction, nu: Weight, r: float, scope: str = "dyadic") -> NormReport:
    """L^r(nu) norm of the weighted sharp maximal function."""
    if not 1.0 < r < math.inf:
        raise ValueError("r must lie in (1, infinity)")
    sharp = sharp_maximal(b, nu, scope=scope)
    value = lp_norm(sharp, nu, r)
    return NormReport(value=value, method="exact-sum", certificate=sharp.values)


# -- multiplier norm -------------------------------------------------------------


def multiplier_objective(b: GridFunction, nu: Weight, r: float) -> Callable[[float], float]:
    """c -> int |b - c|^r nu^(1-r) dx on the resolved grid (the r-th power).

    nu^(1-r) masses follow the weight's power rules: exact closed form per
    cell, with the resolved-scale midpoint convention on cells where the
    exponent is non-integrable; those singular cells are what make the
    truncated objective depth-dependent.
    """
    transformed = nu.pointwise_power(1.0 - r)
    masses = transformed.cell_mass
    vals = b.values

    def h(c: float) -> float:
        return float((np.abs(vals - c) ** r * masses).sum())

    return h


def golden_section(h: Callable[[float], float], lo: float, hi: float, iterations: int = 200):
    """Standard golden-section minimization on [lo, hi]; returns (argmin, min, trace)."""
    trace = []
    a, b = lo, hi
    c = b - GOLDEN * (b - a)
    d = a + GOLDEN * (b - a)
    fc, fd = h(c), h(d)
    trace.extend([(c, fc), (d, fd)])
    for _ in range(iterations):
        if fc <= fd:
            b, d, fd = d, c, fc
            c = b - GOLDEN * (b - a)
            fc = h(c)
            trace.append((c, fc))
        else:
            a, c, fc = c, d, fd
            d = a + GOLDEN * (b - a)
            fd = h(d)
            trace.append((d, fd))
        if b - a < 1e-14 * max(1.0, abs(a) + abs(b)):
            break
    x = c if fc <= fd else d
    return x, min(fc, fd), trace


def multiplier_norm(b: GridFunction, nu: Weight, r: float) -> NormReport:
    """inf over constants c of the norm ||(b - c) nu^(-1)||_{L^r(nu)}.

    The r-th-power objective is convex in c, so golden-section search over
    the bracket [min b - range, max b + range] finds the infimum; the
    certificate is the minimizing constant.
    """
    if not 1.0 < r < math.inf:
        raise ValueError("r must lie in (1, infinity)")
    h = multiplier_objective(b, nu, r)
    bmin, bmax = float(b.values.min()), float(b.values.max())
    span = max(bmax - bmin, 1e-12)
    c_star, h_star, trace = golden_section(h, bmin - span, bmax + span)
    return NormReport(
        value=h_star ** (1.0 / r),
        method="golden-section",
        certificate=float(c_star),
        trace=[(float(c), float(v)) for c, v in trace],
        details={"objective": h_star},
    )


def multiplier_norm_bloom(b: GridFunction, t: BloomTriple) -> NormReport:
    """Multiplier norm for a Bloom triple; only defined in the strict upper triangle q < p."""
    if t.cfg.q >= t.cfg.p:
        raise ValueError("the multiplier norm needs q < p (finite r)")
    return multiplier_norm(b, t.nu, t.cfg.r)


def trace_is_convex(trace: Sequence[tuple[float, float]], rel_tol: float = 1e-9) -> bool:
    """Midpoint-below-endpoints check on a (c, h(c)) evaluation trace."""
    pts = sorted(trace)
    for (c1, h1), (c2, h2), (c3, h3) in zip(pts, pts[1:], pts[2:]):
        if h2 > max(h1, h3) * (1.0 + rel_tol) + 1e-300:
            return False
    return True


# -- discretized sharp supremum ---------------------------------------------------


def discretized_sharp_sup(
    b: GridFunction, nu: Weight, r: float, gamma: float = 0.25
) -> NormReport:
    """Principal-cubes lower functional for the sharp maximal norm.

    Builds a stopping family by doubling of the normalized oscillation
    tau_Q / nu(Q) (tau the median oscillation inf_c int_Q |b - c| dx, whose
    minimizer is a pointwise median since cells share volume), verifies
    (gamma, nu) sparseness of the result, and reports

        (sum over family of (osc_S / nu(S))^r nu(S))^(1/r).

    A verified family certifies value <= gamma^(-1/r) ||M#_nu b||_{L^r(nu)};
    this is asserted.  A family that fails verification is reported in the
    details, never repaired silently.
    """
    tree = b.tree
    nus = nu.level_masses()
    phi = []
    for k in range(tree.depth + 1):
        rows = as_rows(b.values, k)
        tau = np.abs(rows - np.median(rows, axis=-1)[..., None]).sum(axis=-1) * tree.cell_volume
        phi.append(tau / nus[k])

    # the state is the principal cube's phi; a cube stops where its phi is over twice that
    principal, owner = principal_cubes(
        tree.root(), lambda k: (phi[k],), lambda k, ref: (phi[k] > 2.0 * ref[0], ref))
    witnesses = owned_cells(principal, owner)
    family = SparseFamily(
        tree=tree, cubes=principal, witnesses=witnesses, gamma=gamma, measure=nu
    )
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
    if ok and value > gamma ** (-1.0 / r) * sharp_norm * (1.0 + 1e-9):
        raise AssertionError(
            "discretized supremum exceeded its certified bound: "
            f"{value} > {gamma ** (-1.0 / r) * sharp_norm}"
        )
    return NormReport(value, "sparse-sup", certificate=family, details=details)


# -- empirical operator norm -------------------------------------------------------

# cells held per lockstep group: a group runs max(1, _GROUP_CELLS // n_cells) starts
_GROUP_CELLS = 4096


def _row_norms(rows: np.ndarray, masses, p: float) -> list[float]:
    """(sum over cells of |row|^p mass)^(1/p) for every row of `rows`.

    Each row's sum is raised as a scalar: numpy's array power can differ
    from the scalar one in the last bit.
    """
    sums = (np.abs(rows) ** p * masses).reshape(len(rows), -1).sum(axis=1)
    return [float(s ** (1.0 / p)) for s in sums]


def _weighted_norm(vals: np.ndarray, masses, p: float) -> float:
    return _row_norms(vals[None], masses, p)[0]


def _column(values: Sequence[float], rows: np.ndarray) -> np.ndarray:
    """One scalar per row, shaped to broadcast against the stack `rows`."""
    return np.array(values).reshape((-1,) + (1,) * (rows.ndim - 1))


def _log_gradients(U: OperatorHandle, v: np.ndarray, mum, lamm, p: float, q: float):
    """Gradients of log ||Uv||_{L^q(lam)} - log ||v||_{L^p(mu)} for the rows of v.

    A row with Uv = 0 (or v = 0) gets the zero gradient.
    """
    u = U.apply(v)
    a, bn = _row_norms(u, lamm, q), _row_norms(v, mum, p)
    live = [i for i in range(len(v)) if a[i] != 0.0 and bn[i] != 0.0]
    g = np.zeros(v.shape)
    if live:
        u, w = u[live], v[live]
        ga = U.adjoint(lamm * np.abs(u) ** (q - 1.0) * np.sign(u)) / _column(
            [a[i] ** q for i in live], u)
        gb = mum * np.abs(w) ** (p - 1.0) * np.sign(w) / _column([bn[i] ** p for i in live], w)
        g[live] = ga - gb
    return g


def _ratios(U: OperatorHandle, rows: np.ndarray, mum, lamm, p: float, q: float):
    """||U row||_{L^q(lam)} / ||row||_{L^p(mu)} per row (0 for a zero row), and the denominators."""
    dens = _row_norms(rows, mum, p)
    nums = _row_norms(U.apply(rows), lamm, q)
    return [num / den if den != 0.0 else 0.0 for num, den in zip(nums, dens)], dens


def _ascend(U: OperatorHandle, v: np.ndarray, mum, lamm, p: float, q: float,
            iterations: int) -> tuple[list[float], np.ndarray, int]:
    """Backtracking ascent of every row of v (each of unit L^p(mu) norm), in lockstep.

    Returns the rows' final ratios, the final rows and the number of trials.
    """
    n = len(v)
    r_cur = _ratios(U, v, mum, lamm, p, q)[0]
    step = [1.0] * n
    left = [iterations] * n  # gradients each row may still take
    g = np.zeros(v.shape)
    gn = [0.0] * n
    wanting = list(range(n)) if iterations > 0 else []  # rows whose next move is a gradient
    searching: list[int] = []  # rows with a direction and a step to try
    evals = 0
    while wanting or searching:
        if wanting:
            grads = _log_gradients(U, v[wanting], mum, lamm, p, q)
            g[wanting] = grads
            norms = np.sqrt((grads * grads).reshape(len(wanting), -1).sum(axis=1))
            for i, norm in zip(wanting, norms):
                left[i] -= 1
                gn[i] = float(norm)
                if gn[i] >= 1e-15:
                    searching.append(i)
            wanting = []
        # a row whose step has run out has failed its line search
        searching = [i for i in searching if step[i] > 1e-12]
        if not searching:
            continue
        w = v[searching] + _column([step[i] for i in searching], v) * g[searching] / _column(
            [gn[i] for i in searching], v)
        r_new, dens = _ratios(U, w, mum, lamm, p, q)
        evals += len(searching)
        still = []
        for j, i in enumerate(searching):
            if r_new[j] > r_cur[i] * (1.0 + 1e-13):
                v[i] = w[j] / dens[j]
                r_cur[i] = r_new[j]
                step[i] *= 1.8
                if left[i] > 0:
                    wanting.append(i)
            else:
                step[i] *= 0.5
                still.append(i)
        searching = still
    return r_cur, v, evals


def empirical_operator_norm(
    U: OperatorHandle,
    mu: Weight | None,
    lam: Weight | None,
    p: float,
    q: float,
    tree: DyadicTree,
    restarts: int = 64,
    iterations: int = 60,
    seed: int = DEFAULT_SEED,
    extra_starts: Iterable[np.ndarray] = (),
) -> NormReport:
    """Certified lower bound on the operator norm L^p(mu) -> L^q(lambda).

    Normalized gradient ascent on the Rayleigh-type ratio with backtracking
    line search, restarted from structured starts (indicators, two-level
    Haar bumps, supplied extras) and seeded random fields.  A start of zero
    norm is skipped.  Each start keeps its own step, takes at most
    `iterations` gradients, and stops on a vanishing gradient or a failed
    line search.

    The starts run in lockstep, in consecutive groups of
    max(1, 4096 // n_cells) rows: each round `U.apply`/`U.adjoint` take the
    gradients of the rows that need one as one stack, then one line-search
    trial of every row still searching as another.  Per-row norms and
    their powers are raised as scalars, so every row follows the bits of a
    start run on its own.  The trace of best-so-far values, in start
    order, is monotone by construction; `ratio_evals` counts the trials.
    """
    mum = mu.cell_mass if mu is not None else np.full(tree.shape, tree.cell_volume)
    lamm = lam.cell_mass if lam is not None else np.full(tree.shape, tree.cell_volume)

    starts: list[np.ndarray] = []
    starts.append(np.ones(tree.shape))
    for level in range(min(2, tree.depth) + 1):
        for cube in tree.cubes_at_level(level):
            ind = np.zeros(tree.shape)
            ind[cube.cell_slices()] = 1.0
            starts.append(ind)
    # a few Haar-type bumps
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

    group = max(1, _GROUP_CELLS // tree.n_cells)
    finals: list[tuple[float, np.ndarray]] = []  # (ratio, row) of each start run, in start order
    evals = 0
    for lo in range(0, len(starts), group):
        v = np.stack(starts[lo:lo + group])
        nv = _row_norms(v, mum, p)
        live = [i for i, n in enumerate(nv) if n != 0.0]
        if not live:
            continue
        ratios, rows, trials = _ascend(
            U, v[live] / _column([nv[i] for i in live], v), mum, lamm, p, q, iterations)
        evals += trials
        finals.extend(zip(ratios, rows))

    best_val = 0.0
    best_vec = starts[0].copy()
    trace: list[float] = []
    for ratio, row in finals:
        if ratio > best_val:
            best_val, best_vec = ratio, row.copy()
        trace.append(best_val)

    return NormReport(
        value=best_val,
        method="gradient-ascent",
        certificate=best_vec,
        trace=trace,
        details={"restarts": float(len(starts)), "ratio_evals": float(evals)},
    )


# -- testing functionals -------------------------------------------------------------


@dataclass
class ProbePair:
    """A cube with its two test functions and their supporting boxes."""

    cube: Cube
    f: GridFunction
    g: GridFunction
    f_box: tuple[tuple[float, ...], float]  # (corner, side)
    g_box: tuple[tuple[float, ...], float]


def _box_distance(c1, s1, c2, s2) -> float:
    gap = 0.0
    for a, b in zip(c1, c2):
        lo = max(a, b)
        hi = min(a + s1, b + s2)
        if lo > hi:
            gap = max(gap, lo - hi)
    return gap


def _check_pair_geometry(pair: ProbePair, comparability: float):
    side = pair.cube.side
    corner = pair.cube.corner
    for (bc, bs) in (pair.f_box, pair.g_box):
        if bs > comparability * side + 1e-12:
            raise LatticeError("test box side is not comparable to the cube side")
        if _box_distance(corner, side, bc, bs) > comparability * side + 1e-12:
            raise LatticeError("test box is too far from its cube")
    for fn, (bc, bs) in ((pair.f, pair.f_box), (pair.g, pair.g_box)):
        tree = fn.tree
        mask = np.ones(tree.shape, dtype=bool)
        for axis in range(tree.dim):
            centers = tree.cell_centers(axis)
            inside = (centers >= bc[axis]) & (centers < bc[axis] + bs)
            shape = [1] * tree.dim
            shape[axis] = -1
            mask &= inside.reshape(shape)
        if float(np.abs(fn.values[~mask]).max(initial=0.0)) > 1e-12:
            raise LatticeError("test function escapes its declared box")


def sequential_testing_functional(
    U: OperatorHandle,
    pairs: Sequence[ProbePair],
    nu: Weight,
    r: float,
    comparability: float = 4.0,
) -> float:
    """(sum over pairs of |nu(S)^-1 int g U f|^r nu(S))^(1/r), geometry-checked."""
    tree = nu.tree
    total = 0.0
    for pair in pairs:
        _check_pair_geometry(pair, comparability)
        uf = U.apply(pair.f.values)
        inner = float((pair.g.values * uf).sum() * tree.cell_volume)
        mass = nu.mass(pair.cube)
        total += abs(inner / mass) ** r * mass
    return total ** (1.0 / r)


def q_ge_p_testing(U: OperatorHandle, t: BloomTriple) -> NormReport:
    """sup_Q nu(Q)^-(1/p + 1/q') int_Q |U 1_Q| dx, with per-cube indicator ratios.

    The details carry max over cubes of ||U 1_Q||_{L^q(lam)} / ||1_Q||_{L^p(mu)},
    which lets a caller certify the testing value against an empirical
    operator-norm lower bound seeded with indicators.
    """
    cfg = t.cfg
    if cfg.p > cfg.q:
        raise ValueError("the indicator testing functional applies when p <= q")
    tree = t.tree
    e = cfg.bloom_exponent
    best = 0.0
    best_cube = tree.root()
    max_ind_ratio = 0.0
    for cube in tree.cubes():
        ind = np.zeros(tree.shape)
        ind[cube.cell_slices()] = 1.0
        u = U.apply(ind)
        val = float(np.abs(u[cube.cell_slices()]).sum() * tree.cell_volume)
        val /= t.nu.mass(cube) ** e
        if val > best:
            best, best_cube = val, cube
        num = _weighted_norm(u, t.lam.cell_mass, cfg.q)
        den = _weighted_norm(ind, t.mu.cell_mass, cfg.p)
        max_ind_ratio = max(max_ind_ratio, num / den)
    return NormReport(
        value=best,
        method="exact-sum",
        certificate=best_cube,
        details={"max_indicator_ratio": max_ind_ratio},
    )


def weight_necessity_bound(norm_estimate: float, t: BloomTriple, cube: Cube) -> NormReport:
    """Joint-characteristic lower bound implied by paraproduct boundedness at one cube.

    The canonical pair is b the half-split of the cube along axis 0 and
    f the dual-density indicator; the induced inequality pins the upper
    joint characteristic's integrand at the cube below (r' when q < p,
    else 1) times the operator norm.
    """
    cfg = t.cfg
    if cube.is_leaf():
        raise LatticeError("the half-split needs a splittable cube")
    vol = cube.volume
    mu_dual_mass = t.mu_dual.mass(cube)
    lam_mass = t.lam.mass(cube)
    nu_mass = t.nu.mass(cube)
    exact_ratio = (mu_dual_mass / vol) * lam_mass ** (1.0 / cfg.q) / mu_dual_mass ** (1.0 / cfg.p)
    integrand = exact_ratio * nu_mass**cfg.bloom_exponent / vol
    factor = cfg.r / (cfg.r - 1.0) if cfg.q < cfg.p else 1.0
    return NormReport(
        value=integrand,
        method="exact-sum",
        certificate=float(exact_ratio),
        details={
            "exact_operator_ratio": exact_ratio,
            "rhs_bound": factor * norm_estimate,
            "consistent": float(integrand <= factor * norm_estimate * (1.0 + 1e-9)),
        },
    )


# -- two-sided multiplier / sharp-maximal comparison ---------------------------------


def fefferman_stein_check(b: GridFunction, nu: Weight, r: float) -> dict:
    """Both directions of the multiplier-norm vs sharp-maximal comparison.

    Returns the two raw ratios plus the characteristic-weighted version of
    the second direction, and a Cauchy diagnostic for the averages over the
    growing cube chain at the origin-adjacent cells.
    """
    from .weights import ap_characteristic, fujii_wilson_ainfty

    r_conj = r / (r - 1.0)
    sharp = sharp_maximal_r_norm(b, nu, r, scope="dyadic").value
    mult = multiplier_norm(b, nu, r)
    chi_arc = ap_characteristic(nu, r_conj)
    chi_ainf = fujii_wilson_ainfty(nu, None)
    tree = b.tree
    chain_averages = []
    cube = tree.cell_cube(tree.n_cells - 1)
    chain = [cube] + list(cube.ancestors())
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
