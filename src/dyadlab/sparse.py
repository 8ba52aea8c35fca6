"""Sparse families and the stopping-time domination of paraproducts.

A sparse family pairs each member cube with a witness set: a disjoint
region of at least a gamma fraction of the cube's mass.  Witnesses are
stored as claims on finest cells; a claim is the whole cell or one of its
two halves along axis 0 (halves arise only when a finest-level stopping
cube must share its single cell with its parent's witness).

Both stopping-time constructions are one top-down pass, `principal_cubes`:
level by level a cube inherits its principal cube's state, and stops by a
rule.  The paraproduct rule stops where <|f|> passes 4 times the principal's
or a chain partial sum passes a_Q (its supremum over sub-collections is
the larger of the summed positive and negative parts); the rule of
`norms.discretized_sharp_sup` stops where tau/nu passes twice the principal's.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Iterable, Sequence

import numpy as np

from .lattice import Cube, DyadicTree, GridFunction, LatticeError, as_rows, refine_once
from .operators import (
    _averages_by_level,
    _haar_differences,
    _haar_terms,
    _paraproduct_rows,
    _top_down,
    oscillation_levels,
    paraproduct,
)
from .weights import Weight, carleson_norm, coeff_stack, parse_weight

FULL, LO_HALF, HI_HALF = "full", "lo", "hi"

_CLAIM_FRACTION = {FULL: 1.0, LO_HALF: 0.5, HI_HALF: 0.5}


class StoppingMassError(AssertionError):
    """The per-node stopping-mass bound (half the parent cube) was violated."""


@dataclass
class SparseFamily:
    """A set of tree cubes with disjoint witness claims and a sparseness constant."""

    tree: DyadicTree
    cubes: list[Cube]
    witnesses: dict[Cube, dict[int, str]]
    gamma: float
    measure: Weight | None = None  # None = Lebesgue
    stopping_mass_max: float = 0.0  # observed max of (stopping mass)/(node mass)

    def indicator_stack(self) -> list[np.ndarray]:
        return coeff_stack(self.tree, {q: 1.0 for q in self.cubes})


def _claims_mass(tree: DyadicTree, claims: dict[int, str], measure: Weight | None) -> float:
    if not claims:
        return 0.0
    total = 0.0
    if measure is None:
        for kind in claims.values():
            total += _CLAIM_FRACTION[kind] * tree.cell_volume
        return total
    flat_mass = measure.cell_mass.ravel()
    for cell, kind in claims.items():
        if kind == FULL:
            total += flat_mass[cell]
        elif measure.power is not None and tree.dim == 1:
            edges = tree.cell_edges()
            mid = (edges[cell] + edges[cell + 1]) / 2.0
            lo, hi = (edges[cell], mid) if kind == LO_HALF else (mid, edges[cell + 1])
            total += measure.interval_mass(lo, hi)
        else:
            total += 0.5 * flat_mass[cell]
    return total


def verify_sparse(family: SparseFamily, gamma: float | None = None,
                  measure: Weight | None = None) -> tuple[bool, float]:
    """Check witness containment, disjointness, and the mass ratio.

    Returns (ok, worst_ratio) where worst_ratio is the minimum over cubes
    of witness mass over cube mass.  `gamma`/`measure` default to the
    family's own tags.
    """
    gamma = family.gamma if gamma is None else gamma
    measure = family.measure if measure is None else measure
    tree = family.tree
    seen: dict[int, list[str]] = {}
    worst = math.inf
    ok = True
    for cube in family.cubes:
        claims = family.witnesses.get(cube, {})
        inside = set(int(i) for i in cube.flat_cells())
        for cell, kind in claims.items():
            if cell not in inside:
                return False, 0.0
            kinds = seen.setdefault(cell, [])
            if FULL in kinds or kind == FULL and kinds or kind in kinds:
                ok = False
            kinds.append(kind)
        mass = _claims_mass(tree, claims, measure)
        total = cube.volume if measure is None else measure.mass(cube)
        ratio = mass / total
        worst = min(worst, ratio)
        if ratio < gamma * (1.0 - 1e-12):
            ok = False
    if not family.cubes:
        worst = 1.0
    return ok, worst


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


# -- the stopping-time engine ----------------------------------------------------


def _below(q0: Cube, levels: Sequence[np.ndarray]) -> list[np.ndarray]:
    """Per-level arrays cut to the cubes inside q0, from q0's level down."""
    return [arr[tuple(slice(i << j, (i + 1) << j) for i in q0.index)]
            for j, arr in enumerate(levels[q0.level:])]


def principal_cubes(
    q0: Cube,
    fresh: Callable[[int], tuple[np.ndarray, ...]],
    advance: Callable[[int, tuple[np.ndarray, ...]], tuple[np.ndarray, tuple[np.ndarray, ...]]],
) -> tuple[list[Cube], np.ndarray]:
    """The principal cubes of a stopping rule below q0, by one top-down pass.

    Cubes j levels below q0 carry their principal's state, refined from
    level j - 1; `advance(j, state)` returns the stop mask and the state
    carried on, and a stopping cube becomes principal with state
    `fresh(j)` (`fresh(0)` is q0's).  Returns the principal cubes in the
    walk order of `_draw_order` (q0 first, later children first) and, per
    finest cell, the position of its deepest principal cube (-1 outside q0).
    """
    tree, height = q0.tree, q0.tree.depth - q0.level
    state, found = fresh(0), [np.ones((1,) * tree.dim, dtype=bool)]
    owner = np.zeros((1,) * tree.dim, dtype=np.int64)  # principal ids, in the order found
    for j in range(1, height + 1):
        stop, state = advance(j, tuple(refine_once(s) for s in state))
        state = tuple(np.where(stop, new, old) for new, old in zip(fresh(j), state))
        owner = refine_once(owner)
        owner[stop] = owner.max() + 1 + np.arange(np.count_nonzero(stop))
        found.append(stop)
    order = _draw_order(tree.dim, height + 1)
    walk = np.argsort(np.concatenate([pos[mask] for pos, mask in zip(order, found)]))
    cubes = [Cube(tree, q0.level + j, tuple(int(i) for i in (np.array(q0.index) << j) + idx))
             for j, mask in enumerate(found) for idx in np.argwhere(mask)]
    cells = np.full(tree.shape, -1, dtype=np.int64)
    cells[q0.cell_slices()] = np.argsort(walk)[owner]
    return [cubes[i] for i in walk], cells


def owned_cells(cubes: list[Cube], owner: np.ndarray) -> dict[Cube, dict[int, str]]:
    """Whole-cell witness claims from `principal_cubes`' owner array, cells ascending."""
    cells = np.argsort(owner, axis=None, kind="stable")
    bounds = np.searchsorted(owner.ravel()[cells], np.arange(len(cubes) + 1)).tolist()
    cells = cells.tolist()
    return {q: dict.fromkeys(cells[lo:hi], FULL) for q, lo, hi in zip(cubes, bounds, bounds[1:])}


# -- the stopping-time constructor ----------------------------------------------


def paraproduct_sparse_dominate(
    b: GridFunction, f: GridFunction, q0: Cube | None = None
) -> SparseFamily:
    """Build the sparse family that dominates every partial paraproduct sum.

    Within the subtree of q0 the returned family S (with Lebesgue
    sparseness 1/2^(d+2)) satisfies, for every sub-collection F of cubes
    inside q0 and pointwise on the grid,

        |sum_{Q in F} D_Q b <f>_Q|  <=  2^(d+5) sum_{S} <|b - <b>_S|>_S <|f|>_S 1_S.

    Stopping cubes of an iterate Q are the maximal P with either
    <|f|>_P > 4 <|f|>_Q, or with some chain sub-collection between P and Q
    whose partial sum exceeds 2^5 <|b-<b>_Q|>_Q <|f|>_Q on P; the latter
    supremum equals max(sum of positive parts, sum of negative parts) and
    is evaluated exactly.  An iterate on which b is constant stops
    nothing.  The per-node stopping mass is checked against half the
    node's volume at runtime.
    """
    tree = b.tree
    if f.tree != tree:
        raise LatticeError("b and f live on different trees")
    if q0 is None:
        q0 = tree.root()
    d = tree.dim
    gamma = 2.0 ** -(d + 2)

    bavg, fabs, fsig = (_below(q0, _averages_by_level(g)) for g in (b, f.abs(), f))
    if fabs[0].item() == 0.0 and float(np.abs(f.values).max()) != 0.0:
        raise LatticeError("zero |f|-average over the root of a nonzero f")

    rows = [as_rows(b.values[q0.cell_slices()], j) for j in range(len(bavg))]
    # an iterate's state: <|f|>, a_q = 2^5 <|b - <b>|> <|f|>, whether b varies on it,
    # and the chain's summed positive and negative parts
    thresholds = [32.0 * np.abs(r - a[..., None]).mean(axis=-1) * fa
                  for r, a, fa in zip(rows, bavg, fabs)]
    varies = [r.min(axis=-1) < r.max(axis=-1) for r in rows]
    terms = [None] + _haar_terms(_haar_differences(bavg), fsig)

    def fresh(j):
        zero = np.zeros(fabs[j].shape)
        return fabs[j], thresholds[j], varies[j], zero, zero

    def advance(j, state):
        fbar, a_q, live, pos, neg = state
        pos, neg = pos + np.maximum(terms[j], 0.0), neg + np.maximum(-terms[j], 0.0)
        stop = live & ((fabs[j] > 4.0 * fbar) | (np.maximum(pos, neg) > a_q))
        return stop, (fbar, a_q, live, pos, neg)

    stilde, owner = principal_cubes(q0, fresh, advance)
    witnesses = owned_cells(stilde, owner)
    size = np.array([q.cell_count() for q in stilde])
    ratios = (size - np.array([len(witnesses[q]) for q in stilde])) / size
    for q, ratio in zip(stilde, ratios):
        if ratio > 0.5 + 1e-12:
            raise StoppingMassError(
                f"stopping cubes carry {ratio:.4f} of the node volume at {q}, above 1/2"
            )

    # add the parents of the non-root members, paying for their witnesses
    # out of one stopping child's surplus
    members = set(stilde)
    family_cubes = list(stilde)
    half_cells = 2 ** (d + 1)
    for q in stilde:
        if q == q0:
            continue
        parent = q.parent()
        if parent in members:
            continue
        donor = q  # first stopping child of this parent encountered
        members.add(parent)
        family_cubes.append(parent)
        need_parent = -(-parent.cell_count() // half_cells)  # ceil, in half-cells
        need_donor = -(-donor.cell_count() // half_cells)
        donor_claims = witnesses[donor]
        avail = 2 * len(donor_claims)
        if avail - need_parent < need_donor:
            raise AssertionError("witness split infeasible; stopping mass bound must have failed")
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

    return SparseFamily(
        tree=tree,
        cubes=family_cubes,
        witnesses=witnesses,
        gamma=gamma,
        measure=None,
        stopping_mass_max=float(ratios.max()),
    )


def domination_rhs(family: SparseFamily, b: GridFunction, f: GridFunction) -> np.ndarray:
    """sum over family cubes of <|b - <b>_S|>_S <|f|>_S 1_S, on the cells."""
    tree = family.tree
    oscs = oscillation_levels(b)
    fabs = _averages_by_level(f.abs())
    terms = [
        ind * (oscs[k] / tree.volume(k)) * fabs[k]
        for k, ind in enumerate(family.indicator_stack())
    ]
    return _top_down(terms)


def domination_bound(
    family: SparseFamily, b: GridFunction, f: GridFunction, constant: float | None = None
) -> np.ndarray:
    """constant * domination_rhs, the constant defaulting to 2^(d+5)."""
    constant = 2.0 ** (family.tree.dim + 5) if constant is None else constant
    return constant * domination_rhs(family, b, f)


def pointwise_dominated(lhs: np.ndarray, bound: np.ndarray) -> tuple[bool, float]:
    """|lhs| <= bound on every cell, to 1e-12 of max(max |lhs|, 1); returns (ok, max gap)."""
    worst = float((np.abs(lhs) - bound).max())
    scale = max(float(np.abs(lhs).max()), 1.0)
    return worst <= 1e-12 * scale, worst


def partial_sum(b: GridFunction, f: GridFunction, cubes: Iterable) -> GridFunction:
    """sum_{Q in F} D_Q b <f>_Q for a list of `Cube`s or a per-level stack."""
    return paraproduct(b, f, cubes=cubes)


def partial_sums(b: GridFunction, f: GridFunction, stacks: Sequence[np.ndarray]) -> np.ndarray:
    """`partial_sum` for many collections at once, by one top-down pass.

    `stacks` is a per-level stack whose levels carry a leading row axis,
    one row per collection; row i of the result is collection i's sum.
    """
    if f.tree != b.tree:
        raise LatticeError("b and f live on different trees")
    bdiffs = _haar_differences(_averages_by_level(b))
    return _paraproduct_rows(b.tree, bdiffs, f.values, stacks)


def domination_check(
    lhs: GridFunction,
    family: SparseFamily,
    b: GridFunction,
    f: GridFunction,
    constant: float | None = None,
) -> tuple[bool, float]:
    """Pointwise check |lhs| <= constant * RHS; returns (ok, max violation)."""
    return pointwise_dominated(lhs.values, domination_bound(family, b, f, constant))


def domination_envelope(b: GridFunction, f: GridFunction, q0: Cube) -> np.ndarray:
    """sup over sub-collections F of cubes inside q0 of |sum_{Q in F} D_Q b <f>_Q|, on q0's cells.

    At a fixed cell the partial sum over any chosen collection is maximized
    by taking all positive terms (or all negative ones), so the supremum is
    max(sum of positive parts, sum of negative parts): two top-down passes.
    """
    diffs = _haar_differences(_averages_by_level(b), start=q0.level)
    terms = _haar_terms(diffs, _averages_by_level(f)[q0.level:])
    if not terms:
        return np.zeros(b.values[q0.cell_slices()].shape)
    pos = _top_down([np.maximum(t, 0.0) for t in terms])
    neg = _top_down([np.maximum(-t, 0.0) for t in terms])
    return np.maximum(pos, neg)[q0.cell_slices()]


def domination_worst_case(
    family: SparseFamily,
    b: GridFunction,
    f: GridFunction,
    q0: Cube | None = None,
    constant: float | None = None,
) -> tuple[bool, float]:
    """Exact check over EVERY sub-collection at once, through `domination_envelope`.

    Returns (ok, worst gap) against constant * RHS on q0; this subsumes any
    randomized sub-collection battery.
    """
    q0 = family.tree.root() if q0 is None else q0
    bound = domination_bound(family, b, f, constant)[q0.cell_slices()]
    return pointwise_dominated(domination_envelope(b, f, q0), bound)


@lru_cache(maxsize=None)
def _draw_order(dim: int, height: int) -> tuple[np.ndarray, ...]:
    """Draw positions of the non-leaf cubes of a subtree `height` levels deep.

    The order is the pre-order of a depth-first walk that pushes
    `Cube.children()` in order and pops the last one, so a child visits
    after the subtrees of its later siblings.  Entry j holds the positions
    of the cubes j levels below the subtree's root.
    """
    fan = 2**dim
    # non-leaf cubes in a subtree rooted j levels down
    sizes = [sum(fan**i for i in range(height - j)) for j in range(height + 1)]
    order = [np.zeros((1,) * dim, dtype=np.int64)] if height else []
    for j in range(1, height):
        bits = np.indices((2**j,) * dim) % 2
        rank = sum(bits[a] << (dim - 1 - a) for a in range(dim))  # place in children()
        order.append(refine_once(order[-1]) + 1 + (fan - 1 - rank) * sizes[j])
    return tuple(order)


def random_subcollection(
    tree: DyadicTree, q0: Cube, rng: np.random.Generator, inclusion: float | None = None
) -> list[np.ndarray]:
    """A random set of non-leaf cubes inside q0 (for quantifier sweeps), as a 0/1 stack.

    Each cube is kept when its uniform draw falls below the inclusion
    probability.  The draws come from one `rng.random` call, in the
    depth-first order of `_draw_order`, so the generator advances exactly
    as a cube-by-cube walk would.
    """
    p = rng.uniform(0.2, 0.8) if inclusion is None else inclusion
    order = _draw_order(tree.dim, tree.depth - q0.level)
    draws = rng.random(sum(pos.size for pos in order))
    stack = [np.zeros((2**k,) * tree.dim) for k in range(tree.depth + 1)]
    for j, pos in enumerate(order):
        span = 2**j
        inside = tuple(slice(i * span, (i + 1) * span) for i in q0.index)
        stack[q0.level + j][inside] = draws[pos] < p
    return stack


# -- serialization ----------------------------------------------------------------


def _measure_tag(measure: Weight | None) -> str:
    """`lebesgue`, `power(<gamma>)` for a power weight, else `unnamed`."""
    if measure is None:
        return "lebesgue"
    if measure.power is not None:
        return f"power({measure.power!r})"
    return "unnamed"


def _measure_from_tag(tag: str | None, tree: DyadicTree) -> Weight | None:
    if tag == "lebesgue":
        return None
    if tag is not None and tag.startswith("power("):
        return parse_weight(tag, tree)
    raise ValueError(f"cannot rebuild the sparseness measure {tag!r} from text")


def family_to_text(family: SparseFamily) -> str:
    """Line-oriented text form: one cube per line, `level idx.. | witness tokens`.

    Witness tokens are flat cell indices; `a-b` is an inclusive run of
    whole cells, `nL`/`nH` claim the lower/upper half of cell n along
    axis 0.
    """
    tree = family.tree
    lines = [
        f"# dyadlab sparse family v1 dim={tree.dim} depth={tree.depth} "
        f"half_width={tree.half_width!r} gamma={family.gamma!r} "
        f"measure={_measure_tag(family.measure)}"
    ]
    for cube in family.cubes:
        claims = family.witnesses.get(cube, {})
        tokens = []
        full_cells = sorted(c for c, kind in claims.items() if kind == FULL)
        run_start = None
        prev = None
        for c in full_cells:
            if run_start is None:
                run_start = prev = c
            elif c == prev + 1:
                prev = c
            else:
                tokens.append(f"{run_start}-{prev}" if prev > run_start else f"{run_start}")
                run_start = prev = c
        if run_start is not None:
            tokens.append(f"{run_start}-{prev}" if prev > run_start else f"{run_start}")
        for c, kind in sorted(claims.items()):
            if kind == LO_HALF:
                tokens.append(f"{c}L")
            elif kind == HI_HALF:
                tokens.append(f"{c}H")
        index = " ".join(str(i) for i in cube.index)
        lines.append(f"{cube.level} {index} | {' '.join(tokens)}")
    return "\n".join(lines) + "\n"


def family_from_text(text: str) -> SparseFamily:
    lines = [ln for ln in text.strip().splitlines() if ln.strip()]
    header = lines[0]
    if not header.startswith("# dyadlab sparse family v1"):
        raise ValueError("unrecognized sparse-family header")
    fields = dict(part.split("=", 1) for part in header.split()[5:])
    tree = DyadicTree(int(fields["dim"]), int(fields["depth"]), float(fields["half_width"]))
    gamma = float(fields["gamma"])
    measure = _measure_from_tag(fields.get("measure"), tree)
    cubes: list[Cube] = []
    witnesses: dict[Cube, dict[int, str]] = {}
    for line in lines[1:]:
        head, _, wit = line.partition("|")
        parts = head.split()
        level, index = int(parts[0]), tuple(int(x) for x in parts[1:])
        cube = Cube(tree, level, index)
        claims: dict[int, str] = {}
        for tok in wit.split():
            if tok.endswith("L"):
                claims[int(tok[:-1])] = LO_HALF
            elif tok.endswith("H"):
                claims[int(tok[:-1])] = HI_HALF
            elif "-" in tok:
                a, b = tok.split("-")
                for c in range(int(a), int(b) + 1):
                    claims[c] = FULL
            else:
                claims[int(tok)] = FULL
        cubes.append(cube)
        witnesses[cube] = claims
    return SparseFamily(tree=tree, cubes=cubes, witnesses=witnesses, gamma=gamma, measure=measure)
