"""Scalar functionals: Lebesgue norms, oscillation norms, multiplier norms,
discretized sharp suprema, empirical operator norms, and testing conditions.

Operator norms between weighted Lebesgue spaces are not exactly computable,
so this module standardizes on certified lower bounds: every estimator
returns a `NormReport` whose certificate re-evaluates to the reported value.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from typing import Callable, Iterable, Iterator, Sequence

import numpy as np

from .lattice import Cube, DyadicTree, GridFunction, LatticeError, as_rows, scope_batches
from .operators import OperatorHandle, oscillation_levels, sharp_maximal
from .sparse import SparseFamily, family_to_text, principal_cubes, verify_sparse
from .weights import BloomTriple, Weight, batch_masses

DEFAULT_SEED = 0x5EED


@dataclass
class NormReport:
    """A computed functional value with the object that certifies it."""

    value: float
    method: str
    certificate: object = None
    trace: list = field(default_factory=list)
    details: dict = field(default_factory=dict)

    def serialize(self, name: str) -> tuple[dict, dict[str, str]]:
        """The report of the functional `name` as plain JSON types, and the text
        of each file its `certificate-ref` names: a grid function goes to
        `certificate_<name>.csv`, one float repr per cell in C order, a sparse
        family to `certificate_<name>.sparse.txt`; a number stays in the JSON."""
        files = {}
        if isinstance(self.certificate, np.ndarray):
            cert = f"certificate_{name}.csv"
            flat = np.asarray(self.certificate, dtype=float).ravel()
            # in blocks: no list of one string per cell lives beside the other files
            files[cert] = "".join("\n".join(map(repr, flat[i:i + 4096].tolist())) + "\n"
                                  for i in range(0, flat.size, 4096))
        elif isinstance(self.certificate, SparseFamily):
            cert = f"certificate_{name}.sparse.txt"
            files[cert] = family_to_text(self.certificate)
        elif self.certificate is None or isinstance(self.certificate, (int, float)):
            cert = self.certificate
        else:
            cert = type(self.certificate).__name__
        trace = [
            [float(x) for x in t] if isinstance(t, (tuple, list)) else float(t)
            for t in self.trace
        ]
        return {
            "value": self.value,
            "method": self.method,
            "certificate-ref": cert,
            "trace": trace,
            "details": {k: float(v) for k, v in self.details.items()},
        }, files


def abs_power(a: np.ndarray, e: float, out: np.ndarray | None = None) -> np.ndarray:
    """|a|^e elementwise, written into `out` (which may be `a`) when it is given.

    The whole exponents 1-4 are products, |a|, a*a, |a|*(a*a) and
    (a*a)*(a*a): within a few ulps of libm's pow, at a fifth of its time.
    Any other e is `np.abs(a) ** e`, bit for bit.  A zero gives 0 for e > 0.
    """
    if e == 2.0 or e == 4.0:
        out = np.multiply(a, a, out=out)
        return np.multiply(out, out, out=out) if e == 4.0 else out
    if e == 3.0:
        square = a * a
        return np.multiply(np.abs(a, out=out), square, out=out)
    out = np.abs(a, out=out)
    return out if e == 1.0 else np.power(out, e, out=out)


def signed_power(a: np.ndarray, e: float, out: np.ndarray | None = None) -> np.ndarray:
    """sgn(a)|a|^e elementwise, written into `out` (which may be `a`) when it is given.

    The whole exponents 1-4 are a * |a|^(e-1) by `abs_power`, with no sign
    taken; any other e is `np.abs(a) ** e * np.sign(a)`, bit for bit.
    """
    if e == 1.0:
        if out is None:
            return a.copy()
        if out is not a:
            np.copyto(out, a)
        return out
    if e in (2.0, 3.0, 4.0):
        return np.multiply(a, abs_power(a, e - 1.0), out=out)
    sign = np.sign(a)  # before `out`, which may be `a`, is written
    return np.multiply(abs_power(a, e, out=out), sign, out=out)


def _row_norms(rows: np.ndarray, masses, p: float) -> list[float]:
    """(sum over cells of |row|^p mass)^(1/p) for every row of `rows`, with
    |row|^p from `abs_power` (products at p = 1-4).

    Each row's sum is raised as a scalar: numpy's array power can differ
    from the scalar one in the last bit.
    """
    powers = abs_power(rows, p)
    powers *= masses
    return [s ** (1.0 / p) for s in powers.reshape(len(rows), -1).sum(axis=1).tolist()]


def lp_norm(f: GridFunction, weight: Weight, p: float) -> float:
    """(sum over cells of |f|^p mass)^(1/p), exact."""
    if not 0.0 < p < math.inf:
        raise ValueError("p must lie in (0, infinity)")
    return _row_norms(f.values[None], weight.cell_mass, p)[0]


def bmo_alpha_norm(b: GridFunction, nu: Weight, alpha: float, scope: str = "dyadic") -> float:
    """sup_Q nu(Q)^-(1 + alpha/d) int_Q |b - <b>_Q| dx, Q over the cubes of `scope`."""
    batches = scope_batches(b.tree, scope)
    expo = 1.0 + alpha / b.tree.dim
    vals = itertools.chain(
        (osc / mass**expo for osc, mass in zip(oscillation_levels(b), nu.level_masses())),
        (batch.oscillations(b.values) / batch_masses(nu, batch) ** expo for batch in batches),
    )
    return max(float(v.max()) for v in vals)


def sharp_maximal_r_norm(b: GridFunction, nu: Weight, r: float, scope: str = "dyadic") -> NormReport:
    """L^r(nu) norm of the weighted sharp maximal function."""
    if not 1.0 < r < math.inf:
        raise ValueError("r must lie in (1, infinity)")
    sharp = sharp_maximal(b, nu, scope=scope)
    value = lp_norm(sharp, nu, r)
    return NormReport(value=value, method="exact-sum", certificate=sharp.values)


# -- multiplier norm -------------------------------------------------------------


def _multiplier_terms(b: GridFunction, nu: Weight, r: float):
    """(h, g) on one build of nu^(1-r)'s masses m: h(c) = sum |b - c|^r m, and
    g(c) = sum sgn(b - c)|b - c|^(r-1) m = -h'(c)/r, decreasing in c."""
    masses, vals = nu.pointwise_power(1.0 - r).cell_mass, b.values

    def h(c: float) -> float:
        return float((np.abs(vals - c) ** r * masses).sum())

    def g(c: float) -> float:
        return float((signed_power(vals - c, r - 1.0) * masses).sum())

    return h, g


def multiplier_objective(b: GridFunction, nu: Weight, r: float) -> Callable[[float], float]:
    """c -> int |b - c|^r nu^(1-r) dx on the resolved grid (the r-th power).

    nu^(1-r) masses follow the weight's power rules: exact closed form per
    cell, with the resolved-scale midpoint convention on cells where the
    exponent is non-integrable; those singular cells are what make the
    truncated objective depth-dependent.  |b - c|^r stays on libm's pow:
    products would move the counterexample's reported grid values by ulps.
    """
    return _multiplier_terms(b, nu, r)[0]


def multiplier_norm(b: GridFunction, nu: Weight, r: float) -> NormReport:
    """inf over constants c of the norm ||(b - c) nu^(-1)||_{L^r(nu)}.

    The r-th-power objective h is convex in c, so the sign of h' fixes its
    minimizer: bisection from the bracket [min b - range, max b + range]
    keeps h' <= 0 at lo and h' >= 0 at hi, and stops at adjacent floats, at
    an exact zero of h' or after 200 steps.  The certificate is the end of
    the last bracket with the smaller h, the value h there to the 1/r; the
    trace holds the bracket (lo, hi) after each step.
    """
    if not 1.0 < r < math.inf:
        raise ValueError("r must lie in (1, infinity)")
    h, g = _multiplier_terms(b, nu, r)
    bmin, bmax = float(b.values.min()), float(b.values.max())
    span = max(bmax - bmin, 1e-12)
    lo, hi = bmin - span, bmax + span
    trace = []
    while len(trace) < 200 and lo < 0.5 * (lo + hi) < hi:
        mid = 0.5 * (lo + hi)
        slope = g(mid)
        if slope >= 0.0:
            lo = mid
        if slope <= 0.0:
            hi = mid
        trace.append((lo, hi))
    h_lo, h_hi = h(lo), h(hi)
    c_star, h_star = (lo, h_lo) if h_lo <= h_hi else (hi, h_hi)
    return NormReport(value=h_star ** (1.0 / r), method="bisection", certificate=c_star,
                      trace=trace, details={"objective": h_star})


# -- discretized sharp supremum ---------------------------------------------------


def discretized_sharp_sup(
    b: GridFunction, nu: Weight, r: float, sharp: NormReport, gamma: float = 0.25
) -> NormReport:
    """Principal-cubes lower functional for the sharp maximal norm.

    Builds a stopping family by doubling of the normalized oscillation
    tau_Q / nu(Q) (tau the median oscillation inf_c int_Q |b - c| dx, whose
    minimizer is a pointwise median since cells share volume), verifies
    (gamma, nu) sparseness of the result, and reports

        (sum over family of (osc_S / nu(S))^r nu(S))^(1/r).

    `sharp` is `sharp_maximal_r_norm(b, nu, r)`.  A verified family
    certifies value <= gamma^(-1/r) sharp.value; this is asserted.  A
    family that fails verification is reported in the details, never
    repaired silently.
    """
    tree = b.tree
    nus = nu.level_masses()
    phi = []
    for k in range(tree.depth + 1):
        rows = as_rows(b.values, k)
        tau = np.abs(rows - np.median(rows, axis=-1)[..., None]).sum(axis=-1) * tree.cell_volume
        phi.append(tau / nus[k])

    # the state is the principal cube's phi; a cube stops where its phi is over twice that
    principal, witnesses = principal_cubes(
        tree, lambda k: (phi[k],), lambda k, ref: (phi[k] > 2.0 * ref[0], ref))
    family = SparseFamily(
        tree=tree, cubes=principal, witnesses=witnesses, gamma=gamma, measure=nu
    )
    ok, worst = verify_sparse(family)

    oscs = oscillation_levels(b)
    total = 0.0
    for p in principal:
        osc, mass = float(oscs[p.level][p.index]), float(nus[p.level][p.index])
        total += (osc / mass) ** r * mass
    value = total ** (1.0 / r)

    details = {"sparse_ok": float(ok), "worst_witness_ratio": worst, "sharp_norm": sharp.value}
    if ok and value > gamma ** (-1.0 / r) * sharp.value * (1.0 + 1e-9):
        raise AssertionError(
            "discretized supremum exceeded its certified bound: "
            f"{value} > {gamma ** (-1.0 / r) * sharp.value}"
        )
    return NormReport(value, "sparse-sup", certificate=family, details=details)


# -- empirical operator norm -------------------------------------------------------

# cells held by the estimator's row pool: it runs max(1, _GROUP_CELLS // n_cells) rows at once
_GROUP_CELLS = 4096


def _column(values: Sequence[float], rows: np.ndarray) -> np.ndarray:
    """One scalar per row, shaped to broadcast against the stack `rows`."""
    return np.array(values).reshape((-1,) + (1,) * (rows.ndim - 1))


def _structured_starts(tree: DyadicTree) -> Iterator[np.ndarray]:
    """The constant, the indicators of the cubes of levels 0-2, and two-level Haar bumps."""
    yield np.ones(tree.shape)
    for level in range(min(2, tree.depth) + 1):
        for cube in tree.cubes_at_level(level):
            yield GridFunction.indicator(tree, cube).values
    # a few Haar-type bumps
    for cube in tree.cubes_at_level(min(1, tree.depth)):
        bump = np.zeros(tree.shape)
        kids = cube.children() if not cube.is_leaf() else []
        for j, kid in enumerate(kids):
            bump[kid.cell_slices()] = 1.0 if j % 2 == 0 else -1.0
        yield bump


def _starts(tree: DyadicTree, extras: list[np.ndarray], restarts: int,
            seed: int) -> Iterator[np.ndarray]:
    """The estimator's starts in order, each built when it is asked for: the
    structured ones, the extras, then seeded normal fields up to `restarts` in all."""
    count = 0
    for count, start in enumerate(itertools.chain(_structured_starts(tree), extras), 1):
        yield start
    rng = np.random.default_rng(seed)
    for _ in range(max(0, restarts - count)):
        yield rng.normal(size=tree.shape)


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

    `mu` or `lam` None is Lebesgue measure, the one place in the package
    that reads None so.

    Normalized gradient ascent on the Rayleigh-type ratio with backtracking
    line search, restarted from structured starts (indicators, two-level
    Haar bumps, supplied extras) and seeded random fields.  A start of zero
    norm is skipped.  Each start keeps its own step, takes at most
    `iterations` gradients, and stops on a vanishing gradient or a failed
    line search.  U must be linear: each gradient g is applied once, and a
    trial v + step g / |g| takes the image Uv + step Ug / |g|.

    This is `empirical_operator_norms` for one member, whose operator is U
    on every row: the starts share the row pool, at most
    max(1, 4096 // n_cells) of them at once, and each start follows the
    bits of a start run on its own.  The trace of best-so-far values, in
    start order, is monotone by construction; `ratio_evals` counts the
    line-search trials.
    """
    mu, lam = (w if w is not None else Weight.lebesgue(tree) for w in (mu, lam))
    return empirical_operator_norms(lambda which: U, mu, lam, p, q, restarts, iterations,
                                    [seed], [extra_starts])[0]


def empirical_operator_norms(
    handle_for: Callable[[np.ndarray], OperatorHandle],
    mu: Weight,
    lam: Weight,
    p: float,
    q: float,
    restarts: int = 64,
    iterations: int = 60,
    seeds: Sequence[int] = (DEFAULT_SEED,),
    extra_starts: Sequence[Iterable[np.ndarray]] = (),
) -> list[NormReport]:
    """`empirical_operator_norm` for a family of operators, one report per member.

    Member k has seed `seeds[k]` and the extra starts `extra_starts[k]`
    (none for any member when `extra_starts` is empty); `handle_for(which)`
    is the handle whose row i is member `which[i]`'s operator, on the tree
    of `mu`.

    All members' starts stream, in member then start order, through one
    pool of at most max(1, _GROUP_CELLS // n_cells) rows, whose buffers are
    allocated once: per slot v and Uv, and the round buffers x, t and u.
    Each round makes one `adjoint` call for the rows that want a gradient,
    gives the free slots the next starts, makes one `apply` call for the
    nonzero gradients and those fresh starts, and then runs the line search
    of every row that has a direction, to its end, on images alone: U is
    linear, so the trial v + step g / gn has the image Uv + step Ug / gn.
    So a gradient is one adjoint and one forward apply, a fresh start one
    forward apply, and a trial none.  A gradient is written into x and t
    (the powers of the rows' Uv and v, then `*=`, `/=` and `-=` in place)
    and kept in x, where the fresh rows, gathered by `np.take`, join it as
    the stack the apply gets;
    each trial's vector is written into t and its image into u, and an
    accepted trial is divided into its slot with `out=`.  Elementwise
    powers come from `abs_power` and `signed_power` (products at the whole
    exponents 1-4); per-row norms and their powers are raised as scalars,
    so every row follows the bits of a start run on its own.  A finished
    row folds into its member: the earliest start of the largest ratio is
    the certificate, copied into the member's all-ones default (which a
    zero ratio never replaces), so every report has the bits of its member
    run alone.
    """
    tree, mum, lamm = mu.tree, mu.cell_mass, lam.cell_mass
    extras = list(extra_starts) or [()] * len(seeds)
    queue = (
        (k, j, start)
        for k, seed in enumerate(seeds)
        for j, start in enumerate(
            _starts(tree, [np.asarray(s, dtype=float) for s in extras[k]], restarts, seed))
    )
    n_starts, evals = [0] * len(seeds), [0] * len(seeds)
    ratios: list[dict[int, float]] = [{} for _ in seeds]  # per member: start -> final ratio
    best = [(0.0, -1) for _ in seeds]  # per member: (ratio, start) of its certificate
    certificates = [np.ones(tree.shape) for _ in seeds]  # all ones until a start beats 0

    size = max(1, _GROUP_CELLS // tree.n_cells)
    # per slot: the row and its image; x, t and u hold a round's rows
    v, uv, x, t, u = (np.empty((size,) + tree.shape) for _ in range(5))
    member, start_of = [0] * size, [0] * size
    r_cur, step, left = [0.0] * size, [1.0] * size, [0] * size
    free = list(range(size - 1, -1, -1))
    wanting: list[int] = []  # rows whose next move is a gradient

    def handle(rows: list[int]) -> OperatorHandle:
        return handle_for(np.array([member[i] for i in rows]))

    def finish(i: int) -> None:
        k, j, r = member[i], start_of[i], r_cur[i]
        ratios[k][j] = r
        if r > best[k][0] or (r == best[k][0] and j < best[k][1]):
            best[k] = (r, j)
            np.copyto(certificates[k], v[i])
        free.append(i)

    def rows_of(source: np.ndarray, rows: list[int]) -> np.ndarray:
        """source[rows], as a view when the rows are consecutive (one row always is)."""
        first = rows[0]
        if rows == list(range(first, first + len(rows))):
            return source[first:first + len(rows)]
        return source[rows]

    # The two applies of a round.  They work in the pool's buffers, so a round
    # allocates little beyond the handle's own arrays, and nothing it makes,
    # Ug included, is held into the next round.
    def gradients(rows: list[int]) -> tuple[list[int], list[float]]:
        """Writes into x the gradients of log ||Uv||_{L^q(lam)} - log ||v||_{L^p(mu)} of the
        rows (unit L^p(mu) norm, nonzero ratio) that are not zero, in the order of `rows`,
        and counts every row off `left`.  Returns those rows and their gradients' Euclidean
        norms; a row of zero gradient finishes."""
        n = len(rows)
        dual = signed_power(rows_of(uv, rows), q - 1.0, out=x[:n])
        dual *= lamm
        ga = handle(rows).adjoint(dual)  # may be `dual` itself, which is free to overwrite
        ga /= _column([r_cur[i] ** q for i in rows], ga)
        gb = signed_power(rows_of(v, rows), p - 1.0, out=t[:n])
        gb *= mum
        grads = np.subtract(ga, gb, out=x[:n])
        squares = np.multiply(grads, grads, out=gb)
        movers, at, norms = [], [], []
        for j, (i, norm) in enumerate(zip(rows, np.sqrt(squares.reshape(n, -1).sum(axis=1)))):
            left[i] -= 1
            if norm >= 1e-15:
                movers.append(i)
                at.append(j)
                norms.append(float(norm))
            else:
                finish(i)
        if len(at) < n:
            x[:len(at)] = grads[at]
        return movers, norms

    def forward(movers: list[int], gn: list[float], fresh: list[int]) -> None:
        """One apply of the movers' gradients in x and of the fresh rows.  A fresh row takes
        its image, and wants a gradient unless it may take none or its ratio is 0.  Each
        mover then runs its whole line search on images alone: U is linear, so the trial
        v + step g / gn has the image Uv + step Ug / gn.  An improved row moves to its
        trial, normalized, with the trial's image, grows its step, and wants a gradient
        while it has any left; a row that did not improve halves its step and tries again,
        and its line search fails once the step has run out."""
        n = len(movers)
        xs = x[:n + len(fresh)]
        # mode="clip" takes straight into xs; "raise" would buffer a copy
        np.take(v, fresh, axis=0, out=xs[n:], mode="clip")
        dens = _row_norms(xs[n:], mum, p) if fresh else []
        ug = handle(movers + fresh).apply(xs)  # leaves xs, the gradients, as they were
        if fresh:
            uv[fresh] = ug[n:]
            for i, num, den in zip(fresh, _row_norms(ug[n:], lamm, q), dens):
                r_cur[i] = num / den if den != 0.0 else 0.0
                if iterations > 0 and r_cur[i] != 0.0:
                    wanting.append(i)
                else:
                    finish(i)
        active = list(range(n))  # the searching movers' positions in x and in ug
        while active:
            trials = [movers[a] for a in active]
            steps = _column([step[i] for i in trials], t)
            norms = _column([gn[a] for a in active], t)
            w = np.multiply(rows_of(x, active), steps, out=t[:len(active)])
            w /= norms
            w += rows_of(v, trials)  # v + step * g / gn
            uw = np.multiply(rows_of(ug, active), steps, out=u[:len(active)])
            uw /= norms
            uw += rows_of(uv, trials)  # Uv + step * Ug / gn
            dens = _row_norms(w, mum, p)
            r_new = [num / den if den != 0.0 else 0.0
                     for num, den in zip(_row_norms(uw, lamm, q), dens)]
            searching = []
            for j, (a, i) in enumerate(zip(active, trials)):
                evals[member[i]] += 1
                if r_new[j] > r_cur[i] * (1.0 + 1e-13):
                    r_cur[i], step[i] = r_new[j], step[i] * 1.8
                    np.divide(w[j], dens[j], out=v[i])
                    np.divide(uw[j], dens[j], out=uv[i])
                    if left[i] > 0:
                        wanting.append(i)
                    else:
                        finish(i)
                else:
                    step[i] *= 0.5
                    if step[i] > 1e-12:
                        searching.append(a)
                    else:
                        finish(i)
            active = searching

    while True:
        rows = wanting.copy()
        wanting.clear()
        movers, gn = gradients(rows) if rows else ([], [])
        fresh = []
        while free and (item := next(queue, None)) is not None:
            k, j, start = item
            n_starts[k] += 1
            norm = _row_norms(start[None], mum, p)[0]
            if norm != 0.0:
                i = free.pop()
                member[i], start_of[i], step[i], left[i] = k, j, 1.0, iterations
                np.divide(start, norm, out=v[i])
                fresh.append(i)
        if not movers and not fresh:
            break
        forward(movers, gn, fresh)

    reports = []
    for k in range(len(seeds)):
        top, trace = 0.0, []
        for j in sorted(ratios[k]):
            if ratios[k][j] > top:
                top = ratios[k][j]
            trace.append(top)
        reports.append(NormReport(
            value=top,
            method="gradient-ascent",
            certificate=certificates[k],
            trace=trace,
            details={"restarts": float(n_starts[k]), "ratio_evals": float(evals[k])},
        ))
    return reports


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
            centers = tree.cell_centers()
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
        ind = GridFunction.indicator(tree, cube).values
        u = U.apply(ind)
        val = float(np.abs(u[cube.cell_slices()]).sum() * tree.cell_volume)
        val /= t.nu.mass(cube) ** e
        if val > best:
            best, best_cube = val, cube
        num = _row_norms(u[None], t.lam.cell_mass, cfg.q)[0]
        den = _row_norms(ind[None], t.mu.cell_mass, cfg.p)[0]
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
