"""Sparse families and the stopping-time domination of paraproducts.

A sparse family pairs each member cube with a witness set: a disjoint
region of at least a gamma fraction of the cube's mass.  Witnesses are
claims on finest cells; a claim is the whole cell or one of its two halves
along axis 0 (halves arise only when a finest-level stopping cube must
share its single cell with its parent's witness).  A cube's witness is one
int64 array of packed claims `cell << 2 | kind`, in claim order, with kind
`LO_HALF` = 1, `HI_HALF` = 2 or `FULL` = 3 (the halves it covers, as bits).

Both stopping-time constructions are one top-down pass from the root,
`principal_cubes`: level by level a cube inherits its principal cube's
state, and stops by a rule.  The paraproduct rule stops where <|f|> passes
4 times the principal's or a chain partial sum passes a_Q (its supremum
over sub-collections is the larger of the summed positive and negative
parts); the rule of `norms.discretized_sharp_sup` stops where tau/nu
passes twice the principal's.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Sequence

import numpy as np

from .lattice import Cube, DyadicTree, GridFunction, LatticeError, max_depth, refine_once
from .operators import (
    _averages_by_level,
    _haar_differences,
    _haar_terms,
    _paraproduct_rows,
    _top_down,
    oscillation_levels,
)
from .weights import Weight, cube_stack, parse_weight, power_interval_masses

# the halves of its cell along axis 0 that a claim covers, as bits
LO_HALF, HI_HALF, FULL = 1, 2, 3


class StoppingMassError(AssertionError):
    """The per-node stopping-mass bound (half the parent cube) was violated."""


@dataclass
class SparseFamily:
    """A set of tree cubes with disjoint witness claims and a sparseness constant.

    `witnesses[i]` is the witness of `cubes[i]`: an int64 array of packed
    claims `cell << 2 | kind`, in claim order.  A cube listed twice carries
    one entry per listing.
    """

    tree: DyadicTree
    cubes: list[Cube]
    witnesses: list[np.ndarray]
    gamma: float
    measure: Weight
    stopping_mass_max: float = 0.0  # observed max of (stopping mass)/(node mass)

    def __post_init__(self):
        if len(self.witnesses) != len(self.cubes):
            raise ValueError(f"{len(self.witnesses)} witnesses for {len(self.cubes)} cubes")

    def indicator_stack(self) -> list[np.ndarray]:
        """Per-level listing counts of the member cubes; a cube listed twice counts twice."""
        return cube_stack(self.tree, self.cubes)


def _claim_masses(tree: DyadicTree, cells: np.ndarray, kinds: np.ndarray,
                  measure: Weight) -> np.ndarray:
    """The mass of each claim: its cell's, or half of it (exact halves for d = 1 powers)."""
    full = kinds == FULL
    masses = measure.cell_mass.ravel()[cells]
    masses[~full] *= 0.5
    if measure.power is not None and tree.dim == 1:
        halves = np.flatnonzero(~full)
        edges = tree.cell_edges()
        left, right = edges[cells[halves]], edges[cells[halves] + 1]
        mid = (left + right) / 2.0
        lower = kinds[halves] == LO_HALF
        masses[halves] = power_interval_masses(
            np.where(lower, left, mid), np.where(lower, mid, right), measure.power)
    return masses


def _inside(tree: DyadicTree, cubes: list[Cube], sizes: list[int], cells: np.ndarray) -> bool:
    """Whether every claimed cell lies in its cube, the runs of `sizes` claims being the cubes'.

    A cell is inside when its coordinates, shifted to the cube's level, are the cube's index.
    """
    n, d = tree.depth, tree.dim
    inside = (cells >= 0) & (cells < tree.n_cells)
    shift = np.repeat([n - cube.level for cube in cubes], sizes)
    for a, index in enumerate(zip(*(cube.index for cube in cubes))):
        coord = (cells >> (n * (d - 1 - a))) & ((1 << n) - 1)
        coord >>= shift
        inside &= coord == np.repeat(index, sizes)
    return bool(inside.all())


def _disjoint(tree: DyadicTree, cells: np.ndarray, kinds: np.ndarray) -> bool:
    """Whether no two claims share a cell, but for one lower and one upper half (kinds 1 and 2)."""
    count = np.bincount(cells, minlength=tree.n_cells)
    shared = count > 1
    return not shared.any() or bool(np.all(
        (count[shared] == 2) & (np.bincount(cells, kinds, tree.n_cells)[shared] == 3)))


def verify_sparse(family: SparseFamily) -> tuple[bool, float]:
    """Check witness containment, disjointness, and the mass ratio against the family's gamma.

    Returns (ok, worst_ratio) where worst_ratio is the minimum over cubes
    of witness mass over cube mass in the family's measure, and
    (False, 0.0) when a claim lies outside its cube.  A cell may carry one
    claim, or one lower and one upper half.  Each cube's claim masses are
    added in claim order.
    """
    tree, cubes, gamma, measure = family.tree, family.cubes, family.gamma, family.measure
    if not cubes:
        return True, 1.0
    sizes = [len(w) for w in family.witnesses]
    claims = np.concatenate(family.witnesses)
    cells = claims >> 2
    if not _inside(tree, cubes, sizes, cells):
        return False, 0.0
    kinds = claims & 3
    ok = _disjoint(tree, cells, kinds)
    masses = _claim_masses(tree, cells, kinds, measure)
    worst = math.inf
    for cube, part in zip(cubes, np.split(masses, np.cumsum(sizes)[:-1])):
        # cumsum adds a cube's claims in order, from its first
        mass = float(np.cumsum(part)[-1]) if part.size else 0.0
        ratio = mass / measure.mass(cube)
        worst = min(worst, ratio)
        if ratio < gamma * (1.0 - 1e-12):
            ok = False
    return ok, worst


# -- the stopping-time engine ----------------------------------------------------


def principal_cubes(
    tree: DyadicTree,
    fresh: Callable[[int], tuple[np.ndarray, ...]],
    advance: Callable[[int, tuple[np.ndarray, ...]], tuple[np.ndarray, tuple[np.ndarray, ...]]],
) -> tuple[list[Cube], list[np.ndarray]]:
    """The principal cubes of a stopping rule below the root, by one top-down pass.

    Cubes on level j carry their principal's state, refined from level
    j - 1; `advance(j, state)` returns the stop mask and the state carried
    on, and a stopping cube becomes principal with state `fresh(j)`
    (`fresh(0)` is the root's).  Returns the principal cubes in the walk
    order of `_draw_order` (the root first, later children first) and their
    witnesses: each finest cell is claimed whole by its deepest principal
    cube, cells ascending.
    """
    state, found = fresh(0), [np.ones((1,) * tree.dim, dtype=bool)]
    owner = np.zeros((1,) * tree.dim, dtype=np.int64)  # principal ids, in the order found
    for j in range(1, tree.depth + 1):
        stop, state = advance(j, tuple(refine_once(s) for s in state))
        state = tuple(np.where(stop, new, old) for new, old in zip(fresh(j), state))
        owner = refine_once(owner)
        owner[stop] = owner.max() + 1 + np.arange(np.count_nonzero(stop))
        found.append(stop)
    order = _draw_order(tree.dim, tree.depth + 1)
    walk = np.argsort(np.concatenate([pos[mask] for pos, mask in zip(order, found)]))
    cubes = [Cube(tree, j, tuple(int(i) for i in idx))
             for j, mask in enumerate(found) for idx in np.argwhere(mask)]
    owner = np.argsort(walk)[owner].ravel()  # per cell, its deepest principal's walk position
    cells = np.argsort(owner, kind="stable")
    bounds = np.searchsorted(owner[cells], np.arange(1, len(cubes)))
    return [cubes[i] for i in walk], np.split(cells << 2 | FULL, bounds)


# -- the stopping-time constructor ----------------------------------------------


def paraproduct_sparse_dominate(b: GridFunction, f: GridFunction) -> SparseFamily:
    """Build the sparse family that dominates every partial paraproduct sum.

    The returned family S (with Lebesgue sparseness 1/2^(d+2)) satisfies,
    for every sub-collection F of tree cubes and pointwise on the grid,

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
    d = tree.dim
    gamma = 2.0 ** -(d + 2)

    bavg, fabs, fsig = (_averages_by_level(g) for g in (b, f.abs(), f))
    if fabs[0].item() == 0.0 and float(np.abs(f.values).max()) != 0.0:
        raise LatticeError("zero |f|-average over the root of a nonzero f")

    # an iterate's state: <|f|>, a_q = 2^5 <|b - <b>|> <|f|>, whether b varies on it,
    # and the chain's summed positive and negative parts
    oscs = oscillation_levels(b)
    thresholds = [32.0 * (osc / tree.volume(j)) * fa for j, (osc, fa) in enumerate(zip(oscs, fabs))]
    varies = [osc > 0.0 for osc in oscs]
    terms = [None] + _haar_terms(_haar_differences(bavg), fsig)

    def fresh(j):
        zero = np.zeros(fabs[j].shape)
        return fabs[j], thresholds[j], varies[j], zero, zero

    def advance(j, state):
        fbar, a_q, live, pos, neg = state
        pos, neg = pos + np.maximum(terms[j], 0.0), neg + np.maximum(-terms[j], 0.0)
        stop = live & ((fabs[j] > 4.0 * fbar) | (np.maximum(pos, neg) > a_q))
        return stop, (fbar, a_q, live, pos, neg)

    stilde, witnesses = principal_cubes(tree, fresh, advance)
    size = np.array([q.cell_count() for q in stilde])
    ratios = (size - np.array([len(w) for w in witnesses])) / size
    for q, ratio in zip(stilde, ratios):
        if ratio > 0.5 + 1e-12:
            raise StoppingMassError(
                f"stopping cubes carry {ratio:.4f} of the node volume at {q}, above 1/2"
            )

    # add the parents of the non-root members, paying for their witnesses
    # out of one stopping child's surplus; a donor's claims are whole cells, ascending
    members = set(stilde)
    family_cubes = list(stilde)
    half_cells = 2 ** (d + 1)
    for i, q in enumerate(stilde[1:], start=1):  # the root, first, has no parent
        parent = q.parent()
        if parent in members:
            continue
        members.add(parent)  # q is its first stopping child encountered, the donor
        family_cubes.append(parent)
        need_parent = -(-parent.cell_count() // half_cells)  # ceil, in half-cells
        need_donor = -(-q.cell_count() // half_cells)
        claims = witnesses[i]
        if 2 * len(claims) - need_parent < need_donor:
            raise AssertionError("witness split infeasible; stopping mass bound must have failed")
        take_full, leftover_half = divmod(need_parent, 2)
        keep = len(claims) - take_full
        # the parent takes the donor's last take_full cells, then the upper half of the
        # donor's new last cell, whose lower half the donor keeps
        parent_claims, witnesses[i] = claims[keep:], claims[:keep]
        if leftover_half:
            split = claims[keep - 1] >> 2
            parent_claims = np.append(parent_claims, split << 2 | HI_HALF)
            witnesses[i] = np.append(claims[:keep - 1], split << 2 | LO_HALF)
        witnesses.append(parent_claims)

    return SparseFamily(
        tree=tree,
        cubes=family_cubes,
        witnesses=witnesses,
        gamma=gamma,
        measure=Weight.lebesgue(tree),
        stopping_mass_max=float(ratios.max()),
    )


def domination_bound(family: SparseFamily, b: GridFunction, f: GridFunction) -> np.ndarray:
    """2^(d+5) sum over family cubes of <|b - <b>_S|>_S <|f|>_S 1_S, on the cells.

    This is the bound of `paraproduct_sparse_dominate`.
    """
    tree = family.tree
    oscs = oscillation_levels(b)
    fabs = _averages_by_level(f.abs())
    terms = [
        ind * (oscs[k] / tree.volume(k)) * fabs[k]
        for k, ind in enumerate(family.indicator_stack())
    ]
    return 2.0 ** (tree.dim + 5) * _top_down(terms)


def pointwise_dominated(lhs: np.ndarray, bound: np.ndarray) -> tuple:
    """|lhs| <= bound on every cell, to 1e-12 of max(max |lhs|, 1); returns (ok, max gap),
    one pair per row when `lhs` leads with row axes that `bound` lacks."""
    cells = tuple(range(lhs.ndim - bound.ndim, lhs.ndim))
    worst = (np.abs(lhs) - bound).max(axis=cells)
    scale = np.maximum(np.abs(lhs).max(axis=cells), 1.0)
    return worst <= 1e-12 * scale, worst


def partial_sums(b: GridFunction, f: GridFunction, stack: Sequence[np.ndarray]) -> np.ndarray:
    """sum_Q c_Q D_Q b <f>_Q on the cells, by one top-down pass.

    c is a per-level stack of levels 0 .. depth: counts from `weights.cube_stack`,
    or any coefficients.  Its levels may share leading row axes, one row per
    collection, and row i of the result is collection i's sum.
    """
    tree = b.tree
    if f.tree != tree:
        raise LatticeError("b and f live on different trees")
    shapes = [np.shape(level) for level in stack]
    rows = shapes[0][:-tree.dim] if shapes else ()
    if shapes != [rows + (2**k,) * tree.dim for k in range(tree.depth + 1)]:
        raise LatticeError("per-level stack does not match the tree")
    bdiffs = _haar_differences(_averages_by_level(b))
    return _paraproduct_rows(tree, bdiffs, f.values, stack)


def domination_envelope(b: GridFunction, f: GridFunction) -> np.ndarray:
    """sup over sub-collections F of tree cubes of |sum_{Q in F} D_Q b <f>_Q|, on the cells.

    At a fixed cell the partial sum over any chosen collection is maximized
    by taking all positive terms (or all negative ones), so the supremum is
    max(sum of positive parts, sum of negative parts): two top-down passes.
    Checking it against `domination_bound` checks every sub-collection at once.
    """
    terms = _haar_terms(_haar_differences(_averages_by_level(b)), _averages_by_level(f))
    if not terms:
        return np.zeros(b.tree.shape)
    pos = _top_down([np.maximum(t, 0.0) for t in terms])
    neg = _top_down([np.maximum(-t, 0.0) for t in terms])
    return np.maximum(pos, neg)


@lru_cache(maxsize=None)
def _draw_order(dim: int, height: int) -> tuple[np.ndarray, ...]:
    """Draw positions of the non-leaf cubes of a tree `height` levels deep.

    The order is the pre-order of a depth-first walk from the root that
    pushes `Cube.children()` in order and pops the last one, so a child
    visits after the subtrees of its later siblings.  Entry j holds the
    positions of the cubes on level j.
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


def random_subcollection(tree: DyadicTree, rng: np.random.Generator, count: int) -> list[np.ndarray]:
    """`count` random sets of non-leaf cubes (for quantifier sweeps), as one 0/1 stack
    whose levels 0 .. depth lead with a row axis; the finest, all zero, keeps the row
    count at depth 0.

    A set keeps each cube whose uniform draw falls below the set's probability,
    `rng.uniform(0.2, 0.8)`'s arithmetic on its first draw.  The draws come from
    one `rng.random` call, per set in the depth-first order of `_draw_order`,
    so the generator advances exactly as `count` cube-by-cube walks would.
    """
    order = _draw_order(tree.dim, tree.depth)
    draws = rng.random((count, 1 + sum(pos.size for pos in order)))
    p = (0.2 + (0.8 - 0.2) * draws[:, 0]).reshape((count,) + (1,) * tree.dim)
    levels = [(draws[:, 1 + pos] < p).astype(float) for pos in order]
    return levels + [np.zeros((count,) + tree.shape)]


# -- serialization ----------------------------------------------------------------


def _measure_tag(measure: Weight) -> str:
    """`power(<gamma>)` for a power weight (Lebesgue measure is `power(0.0)`), else `unnamed`."""
    if measure.power is not None:
        return f"power({measure.power!r})"
    return "unnamed"


def _measure_from_tag(tag: str | None, tree: DyadicTree) -> Weight:
    """The measure of a header tag: `lebesgue` or `power(...)` only, so that outside text
    never makes `parse_weight` open a file."""
    if tag == "lebesgue":
        return Weight.lebesgue(tree)
    if tag is not None and tag.startswith("power("):
        return parse_weight(tag, tree)
    raise ValueError(f"cannot rebuild the sparseness measure {tag!r} from text")


def family_to_text(family: SparseFamily) -> str:
    """Line-oriented text form: one cube per line, `level idx.. | witness tokens`.

    Witness tokens are flat cell indices; `a-b` is an inclusive run of
    whole cells, `nL`/`nH` claim the lower/upper half of cell n along
    axis 0.  Runs come first, ascending, then the halves by cell.
    """
    tree = family.tree
    lines = [
        f"# dyadlab sparse family v1 dim={tree.dim} depth={tree.depth} "
        f"half_width={tree.half_width!r} gamma={family.gamma!r} "
        f"measure={_measure_tag(family.measure)}"
    ]
    for cube, claims in zip(family.cubes, family.witnesses):
        full = np.sort(claims[claims & 3 == FULL] >> 2)
        starts = full[np.diff(full, prepend=full[:1] - 2) != 1]  # runs of whole cells
        ends = full[np.diff(full, append=full[-1:] + 2) != 1]
        tokens = [f"{a}-{b}" if b > a else f"{a}" for a, b in zip(starts, ends)]
        tokens += [f"{c >> 2}{'L' if c & 3 == LO_HALF else 'H'}"
                   for c in np.sort(claims[claims & 3 != FULL])]
        index = " ".join(str(i) for i in cube.index)
        lines.append(f"{cube.level} {index} | {' '.join(tokens)}")
    return "\n".join(lines) + "\n"


# a witness token: a cell, an inclusive run of whole cells, or a half cell
_TOKEN = re.compile(r"([0-9]+)(?:-([0-9]+)|([LH]))?")


def _claims_from_tokens(tokens: list[str], n_cells: int) -> np.ndarray:
    """Packed claims of a line's witness tokens, in token order and with repeats kept."""
    parts = [np.zeros(0, dtype=np.int64)]
    for tok in tokens:
        match = _TOKEN.fullmatch(tok)
        if match is None:
            raise ValueError(f"malformed witness token {tok!r}")
        first, last, half = match.groups()
        first, last = int(first), int(last or first)
        if last < first:
            raise ValueError(f"reversed run {tok!r}")
        if last >= n_cells:
            raise ValueError(f"token {tok!r} names a cell beyond the tree's {n_cells}")
        kind = {"L": LO_HALF, "H": HI_HALF, None: FULL}[half]
        parts.append(np.arange(first, last + 1, dtype=np.int64) << 2 | kind)
    return np.concatenate(parts)


def family_from_text(text: str) -> SparseFamily:
    """The family of `family_to_text`'s form; malformed text raises ValueError."""
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines or not lines[0].startswith("# dyadlab sparse family v1"):
        raise ValueError("unrecognized sparse-family header")
    fields = dict(part.split("=", 1) for part in lines[0].split()[5:])
    missing = [key for key in ("dim", "depth", "half_width", "gamma") if key not in fields]
    if missing:
        raise ValueError(f"sparse-family header lacks {', '.join(missing)}")
    dim, depth, gamma = int(fields["dim"]), int(fields["depth"]), float(fields["gamma"])
    if depth > max_depth(dim):
        raise ValueError(f"depth {depth} exceeds the guard rail {max_depth(dim)} for d={dim}")
    if not 0.0 < gamma <= 1.0:
        raise ValueError(f"sparseness constant gamma={gamma!r} outside (0, 1]")
    tree = DyadicTree(dim, depth, float(fields["half_width"]))
    if not (tree.half_width > 0.0 and tree.cell_volume >= 2.0**-1022 and tree.volume(0) < math.inf):
        raise ValueError(f"half_width={tree.half_width!r} puts a volume outside the normal floats")
    measure = _measure_from_tag(fields.get("measure"), tree)
    cubes, witnesses = [], []
    for line in lines[1:]:
        head, _, wit = line.partition("|")
        level, *index = (int(x) for x in head.split())
        cubes.append(Cube(tree, level, tuple(index)))
        witnesses.append(_claims_from_tokens(wit.split(), tree.n_cells))
    return SparseFamily(tree=tree, cubes=cubes, witnesses=witnesses, gamma=gamma, measure=measure)
