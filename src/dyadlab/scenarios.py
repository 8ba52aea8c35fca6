"""Batch experiment runners: reproducible scenarios over the other modules.

Every runner is a pure function of (config, seed): reports carry no
timestamps and all randomness flows through seeded generators, so a rerun
with the same config is byte-identical.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np

from .lattice import Cube, DyadicTree, GridFunction
from .norms import (
    bmo_alpha_norm,
    empirical_operator_norm,
    multiplier_norm,
    multiplier_objective,
    sharp_maximal_r_norm,
)
from .operators import (
    commutator_handle,
    paraproduct_handle,
    sharp_window_values,
)
from .sparse import (
    domination_bound,
    domination_check,
    domination_worst_case,
    partial_sum,
    partial_sums,
    paraproduct_sparse_dominate,
    pointwise_dominated,
    random_subcollection,
    verify_sparse,
)
from .weights import (
    ExponentConfig,
    BloomTriple,
    Weight,
    ap_characteristic,
    divergence_flag,
    fujii_wilson_ainfty,
    parse_weight,
)

SCHEMA_VERSION = 1


class ConfigError(ValueError):
    """Malformed scenario configuration; carries the offending line number."""


@dataclass
class ScenarioConfig:
    name: str = "scenario"
    dim: int = 1
    half_width_exponent: int = 2  # H = 2^K, desk default H = 4
    depth: int = 8
    p: float = 4.0
    q: float = 2.0
    mu: str = "lebesgue"
    lam: str = "lebesgue"
    b_family: str = "half-splits"
    f_family: str = "spiky"
    family_size: int = 20
    trials: int = 200
    subcollections: int = 50
    seed: int = 0x5EED
    out_dir: str = "out"
    depth_min: int = 6
    restarts: int = 16
    iterations: int = 50

    def __post_init__(self):
        if not (1.0 < self.p < math.inf and 1.0 < self.q < math.inf):
            raise ConfigError("exponents must lie in (1, infinity)")
        limit = 14 if self.dim == 1 else 8
        if self.depth > limit:
            raise ConfigError(f"depth {self.depth} exceeds the guard rail {limit} for d={self.dim}")

    @property
    def half_width(self) -> float:
        return float(2**self.half_width_exponent)

    def tree(self, depth: int | None = None) -> DyadicTree:
        return DyadicTree(self.dim, self.depth if depth is None else depth, self.half_width)

    def exponents(self) -> ExponentConfig:
        return ExponentConfig(self.p, self.q, self.dim)


_INT_KEYS = {
    "dim", "half_width_exponent", "depth", "family_size", "trials",
    "subcollections", "seed", "depth_min", "restarts", "iterations",
}
_FLOAT_KEYS = {"p", "q"}


def parse_config(text: str, base: ScenarioConfig | None = None) -> ScenarioConfig:
    """Parse the flat sectioned key-value format; errors carry line numbers."""
    values: dict[str, object] = {}
    section = "scenario"
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("[") and line.endswith("]"):
            section = line[1:-1].strip().lower()
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {raw!r}")
        key, _, val = line.partition("=")
        key, val = key.strip().lower(), val.strip()
        if section == "weights":
            if key not in ("mu", "lam"):
                raise ConfigError(f"line {lineno}: unknown weight key {key!r}")
            values[key] = val
            continue
        if key in _INT_KEYS:
            try:
                values[key] = int(val, 0)
            except ValueError:
                raise ConfigError(f"line {lineno}: {key} must be an integer, got {val!r}")
        elif key in _FLOAT_KEYS:
            try:
                values[key] = float(val)
            except ValueError:
                raise ConfigError(f"line {lineno}: {key} must be a number, got {val!r}")
        elif key in ("name", "b_family", "f_family", "out_dir", "mu", "lam"):
            values[key] = val
        else:
            raise ConfigError(f"line {lineno}: unknown key {key!r}")
    base = base or ScenarioConfig()
    try:
        return replace(base, **values)
    except ConfigError:
        raise
    except Exception as exc:  # dataclass invariant violations
        raise ConfigError(str(exc))


# -- function generators ------------------------------------------------------------


def half_split(tree: DyadicTree, cube: Cube, scale: float = 1.0) -> GridFunction:
    """+scale on the axis-0 upper half of the cube, -scale on the lower half."""
    vals = np.zeros(tree.shape)
    span = 2 ** (tree.depth - cube.level)
    sl = list(cube.cell_slices())
    lo = slice(sl[0].start, sl[0].start + span // 2)
    hi = slice(sl[0].start + span // 2, sl[0].stop)
    vals[tuple([lo] + sl[1:])] = -scale
    vals[tuple([hi] + sl[1:])] = scale
    return GridFunction(tree, vals)


def random_haar_sum(tree: DyadicTree, rng: np.random.Generator, terms: int = 12,
                    heavy: bool = True) -> GridFunction:
    out = GridFunction.constant(tree, 0.0)
    for _ in range(terms):
        level = int(rng.integers(0, tree.depth))
        index = tuple(int(rng.integers(0, 2**level)) for _ in range(tree.dim))
        cube = Cube(tree, level, index)
        coeff = float(rng.standard_cauchy()) if heavy else float(rng.normal())
        coeff = float(np.clip(coeff, -50.0, 50.0))
        out = out + half_split(tree, cube, coeff)
    return out


def spiky_field(tree: DyadicTree, rng: np.random.Generator, sigma: float = 2.5) -> GridFunction:
    signs = rng.choice([-1.0, 1.0], size=tree.shape)
    return GridFunction(tree, signs * np.exp(sigma * rng.normal(size=tree.shape)))


def make_family(name: str, tree: DyadicTree, count: int, rng: np.random.Generator) -> list[GridFunction]:
    """The named test-function families used by the batch runners."""
    out: list[GridFunction] = []
    if name == "half-splits":
        levels = list(range(0, max(1, tree.depth - 1)))
        i = 0
        while len(out) < count:
            level = levels[i % len(levels)]
            index = tuple(int(rng.integers(0, 2**level)) for _ in range(tree.dim))
            scale = float(2.0 ** rng.uniform(-1.0, 2.0))
            out.append(half_split(tree, Cube(tree, level, index), scale))
            i += 1
    elif name == "random-haar":
        for _ in range(count):
            out.append(random_haar_sum(tree, rng))
    elif name == "indicators":
        while len(out) < count:
            level = int(rng.integers(0, tree.depth + 1))
            index = tuple(int(rng.integers(0, 2**level)) for _ in range(tree.dim))
            out.append(GridFunction.indicator(tree, Cube(tree, level, index)))
    elif name == "power-bumps":
        for _ in range(count):
            radius = float(rng.uniform(0.2, 1.0)) * tree.half_width
            out.append(GridFunction.ball_indicator(tree, radius))
    elif name == "spiky":
        for _ in range(count):
            out.append(spiky_field(tree, rng, sigma=float(rng.uniform(1.0, 3.5))))
    elif name == "mixed":
        pools = ["half-splits", "random-haar", "spiky"]
        for i in range(count):
            out.extend(make_family(pools[i % 3], tree, 1, rng))
    else:
        raise ConfigError(f"unknown function family {name!r}")
    return out


# -- report plumbing -----------------------------------------------------------------


def format_csv(header: Sequence[str], rows: Sequence[Sequence[object]]) -> str:
    def fmt(x):
        if isinstance(x, float):
            return repr(x)
        return str(x)

    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(fmt(x) for x in row))
    return "\n".join(lines) + "\n"


def write_report(cfg: ScenarioConfig, stem: str, payload: dict, csv_text: str | None = None) -> dict:
    os.makedirs(cfg.out_dir, exist_ok=True)
    # the root size travels with every reported number: truncating coarse
    # scales shifts constants, so results are only comparable at equal H
    payload = {
        "schema": SCHEMA_VERSION,
        "scenario": cfg.name,
        "seed": cfg.seed,
        "dim": cfg.dim,
        "depth": cfg.depth,
        "half_width": cfg.half_width,
        **payload,
    }
    with open(os.path.join(cfg.out_dir, f"{stem}.json"), "w") as fh:
        json.dump(payload, fh, indent=1, sort_keys=True)
        fh.write("\n")
    if csv_text is not None:
        with open(os.path.join(cfg.out_dir, f"{stem}.csv"), "w") as fh:
            fh.write(csv_text)
    return payload


# -- runner: characteristics ----------------------------------------------------------


def ap_window_grid(p: float) -> list[float]:
    """13 deltas bracketing both edges of the power-weight window for exponent p."""
    lower, upper = -1.0, p - 1.0
    offsets = (-0.5, -0.25, 0.0, 0.25, 0.5)
    grid = [lower + o for o in offsets] + [(lower + upper) / 2.0] + [upper + o for o in offsets]
    mid_extra = [(3 * lower + upper) / 4.0, (lower + 3 * upper) / 4.0]
    return sorted(grid + mid_extra)


def run_characteristics(cfg: ScenarioConfig, sweep: bool = True) -> dict:
    """Characteristic battery: configured weights plus the power-window sweep.

    One CSV row per (weight, characteristic, depth), with a divergence flag
    set by the factor-1.5-over-three-refinements rule.
    """
    depths = list(range(cfg.depth_min, cfg.depth + 1))
    rows: list[list[object]] = []
    results: dict[str, object] = {}

    cfgE = cfg.exponents()
    nu_spec = None
    probe = cfg.tree(min(depths))
    mu_w, lam_w = parse_weight(cfg.mu, probe), parse_weight(cfg.lam, probe)
    if mu_w.power is not None and lam_w.power is not None:
        gamma = (mu_w.power / cfg.p - lam_w.power / cfg.q) / cfgE.bloom_exponent
        nu_spec = f"power({gamma:.12g})"
    jobs = [("mu", cfg.mu, cfg.p), ("lam", cfg.lam, cfg.q)]
    if nu_spec is not None:
        jobs.append(("nu", nu_spec, 2.0 * cfgE.r_conj))
    for label, spec, expo in jobs:
        series_ap, series_fw = [], []
        for depth in depths:
            tree = cfg.tree(depth)
            w = parse_weight(spec, tree)
            series_ap.append(ap_characteristic(w, expo))
            series_fw.append(fujii_wilson_ainfty(w, None))
        for depth, v in zip(depths, series_ap):
            rows.append([spec, f"A_{expo:g}", depth, v, int(divergence_flag(series_ap))])
        for depth, v in zip(depths, series_fw):
            rows.append([spec, "A_inf", depth, v, int(divergence_flag(series_fw))])
        results[label] = {"ap": series_ap, "fujii_wilson": series_fw}

    sweep_flags = {}
    if sweep and cfg.dim == 1:
        for p in (1.5, 2.0, 3.0):
            for delta in ap_window_grid(p):
                series = []
                for depth in depths:
                    tree = cfg.tree(depth)
                    w = Weight.power_weight(tree, delta)
                    series.append(ap_characteristic(w, p))
                flag = divergence_flag(series)
                sweep_flags[f"p={p:g},delta={delta:.6g}"] = bool(flag)
                for depth, v in zip(depths, series):
                    rows.append([f"power({delta:.6g})", f"A_{p:g}", depth, v, int(flag)])
    results["sweep_flags"] = sweep_flags

    csv_text = format_csv(["weight", "characteristic", "depth", "value", "divergent"], rows)
    return write_report(cfg, "characteristics", {"results": results, "depths": depths}, csv_text)


# -- runner: sparse domination ---------------------------------------------------------


def run_domination(cfg: ScenarioConfig) -> dict:
    """Randomized battery through the sparse-domination constructor.

    Emits pass/fail, the worst witness ratio seen, the worst domination
    slack over sampled sub-collections AND over the exact all-collections
    envelope, and the max stopping-mass ratio; any violation flips
    `passed`.
    """
    rng = np.random.default_rng(cfg.seed)
    tree = cfg.tree()
    gamma = 2.0 ** -(tree.dim + 2)
    worst_ratio = math.inf
    worst_slack = -math.inf
    worst_envelope = -math.inf
    mass_max = 0.0
    failures = 0
    for _ in range(cfg.trials):
        b = make_family(cfg.b_family, tree, 1, rng)[0]
        f = make_family(cfg.f_family, tree, 1, rng)[0]
        family = paraproduct_sparse_dominate(b, f)
        ok, ratio = verify_sparse(family)
        worst_ratio = min(worst_ratio, ratio)
        mass_max = max(mass_max, family.stopping_mass_max)
        if not ok:
            failures += 1
            continue
        ok_env, env_gap = domination_worst_case(family, b, f)
        worst_envelope = max(worst_envelope, env_gap)
        if not ok_env:
            failures += 1
        bound = domination_bound(family, b, f)  # one right-hand side for every sub-collection
        subs = [random_subcollection(tree, tree.root(), rng) for _ in range(cfg.subcollections)]
        if not subs:
            continue
        for lhs in partial_sums(b, f, [np.stack(level) for level in zip(*subs)]):
            ok2, slack = pointwise_dominated(lhs, bound)
            worst_slack = max(worst_slack, slack)
            if not ok2:
                failures += 1
    payload = {
        "trials": cfg.trials,
        "subcollections": cfg.subcollections,
        "gamma": gamma,
        "worst_witness_ratio": worst_ratio,
        "worst_domination_slack": worst_slack,
        "worst_envelope_slack": worst_envelope,
        "max_stopping_mass_ratio": mass_max,
        "failures": failures,
        "passed": failures == 0,
    }
    return write_report(cfg, "domination", payload)


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
        full = [q for q in tree.cubes() if not q.is_leaf()]
        lhs = partial_sum(b, f, full)
        for drop in range(len(family.cubes)):
            shrunk = type(family)(
                tree=family.tree,
                cubes=family.cubes[:drop] + family.cubes[drop + 1:],
                witnesses=family.witnesses,
                gamma=family.gamma,
                measure=family.measure,
            )
            ok, slack = domination_check(lhs, shrunk, b, f)
            if not ok and slack > 1e-6:
                return {"found": True, "trial": trial, "dropped": drop, "violation": slack}
    return {"found": False}


# -- runner: Bloom comparability --------------------------------------------------------


def run_bloom_comparability(cfg: ScenarioConfig) -> dict:
    """Operator norm vs b-functional ratios across a b-family.

    For q < p the functional is the L^r(nu) norm of the weighted sharp
    maximal function; for p <= q it is the oscillation norm with the
    alpha-adjusted normalization.  Constant b's (functional zero) are
    excluded from the ratio interval.
    """
    rng = np.random.default_rng(cfg.seed)
    tree = cfg.tree()
    cfgE = cfg.exponents()
    mu = parse_weight(cfg.mu, tree)
    lam = parse_weight(cfg.lam, tree)
    triple = BloomTriple(mu, lam, cfgE)
    bs = make_family(cfg.b_family, tree, cfg.family_size, rng)
    rows = []
    ratios_pp, ratios_comm = [], []
    for i, b in enumerate(bs):
        if cfgE.q < cfgE.p:
            phi = sharp_maximal_r_norm(b, triple.nu, cfgE.r).value
        else:
            phi = bmo_alpha_norm(b, triple.nu, cfgE.alpha)
        pp = empirical_operator_norm(
            paraproduct_handle(b), mu, lam, cfgE.p, cfgE.q, tree,
            restarts=cfg.restarts, iterations=cfg.iterations, seed=cfg.seed + i,
        ).value
        row = [i, phi, pp]
        if tree.dim == 1:
            comm = empirical_operator_norm(
                commutator_handle(b), mu, lam, cfgE.p, cfgE.q, tree,
                restarts=cfg.restarts, iterations=cfg.iterations, seed=cfg.seed + i,
            ).value
            row.append(comm)
            if phi > 0.0:
                ratios_comm.append(comm / phi)
        else:
            row.append(float("nan"))
        if phi > 0.0:
            ratios_pp.append(pp / phi)
        rows.append(row)
    chars = {
        "mu_ap": ap_characteristic(mu, cfgE.p),
        "lam_aq": ap_characteristic(lam, cfgE.q),
    }
    payload = {
        "ratio_paraproduct": {"min": min(ratios_pp), "max": max(ratios_pp)} if ratios_pp else None,
        "ratio_commutator": {"min": min(ratios_comm), "max": max(ratios_comm)} if ratios_comm else None,
        "characteristics": chars,
        "regime": "q<p" if cfgE.q < cfgE.p else "p<=q",
        "members": [
            {"member": r[0], "b_functional": r[1], "paraproduct_norm": r[2], "commutator_norm": r[3]}
            for r in rows
        ],
    }
    csv_text = format_csv(["member", "b_functional", "paraproduct_norm", "commutator_norm"], rows)
    return write_report(cfg, "bloom", payload, csv_text)


# -- runner: the multiplier-condition counterexample -------------------------------------


def counterexample_depth_point(depth: int, half_width_exponent: int = 2,
                               restarts: int = 10, iterations: int = 40,
                               seed: int = 0x5EED, c_grid_points: int = 33) -> dict:
    """One depth of the q<p counterexample scenario (p=4, q=2, nu=|x|^(1/3), b the unit-ball indicator)."""
    p, q = 4.0, 2.0
    cfgE = ExponentConfig(p, q, 1)
    r = cfgE.r
    tree = DyadicTree(1, depth, float(2**half_width_exponent))
    b = GridFunction.ball_indicator(tree, 1.0)
    nu = Weight.power_weight(tree, 1.0 / 3.0)
    mu = Weight.power_weight(tree, 1.0)
    lam = Weight.lebesgue(tree)

    sharp_rep = sharp_maximal_r_norm(b, nu, r, scope="shifted")
    mult = multiplier_norm(b, nu, r)
    h = multiplier_objective(b, nu, r)
    span = float(b.values.max() - b.values.min())
    lo, hi = float(b.values.min()) - span, float(b.values.max()) + span
    c_grid = np.linspace(lo, hi, c_grid_points)
    # per-c the r-th-power objective is the quantity whose truncation grows
    # logarithmically with the resolved scale; the norm is its 1/r root
    grid_values = [float(h(c)) for c in c_grid]

    pp = empirical_operator_norm(
        paraproduct_handle(b), mu, lam, p, q, tree,
        restarts=restarts, iterations=iterations, seed=seed,
        extra_starts=[(np.abs(b.values - 0.5) + 0.25) * mu.density ** (-0.5)],
    )
    comm = empirical_operator_norm(
        commutator_handle(b), mu, lam, p, q, tree,
        restarts=restarts, iterations=iterations, seed=seed,
    )

    xs = np.geomspace(2.0, 0.98 * tree.half_width, 9)
    sharp_at = sharp_window_values(b, nu, xs, n_left=192)
    mask = sharp_at > 0.0
    logx = np.log(xs[mask])
    logy = r * np.log(sharp_at[mask]) + (1.0 / 3.0) * np.log(xs[mask])
    slope = float(np.polyfit(logx, logy, 1)[0]) if mask.sum() >= 2 else float("nan")

    return {
        "depth": depth,
        "sharp_norm": sharp_rep.value,
        "multiplier_inf": mult.value,
        "multiplier_argmin": mult.certificate,
        "multiplier_grid": {"c": [float(c) for c in c_grid], "value": grid_values},
        "paraproduct_norm": pp.value,
        "commutator_norm": comm.value,
        "tail_slope": slope,
        "tail_points": {"x": [float(x) for x in xs], "sharp": [float(s) for s in sharp_at]},
        "multiplier_objective_inf": float(mult.details["objective"]),
    }


def run_counterexample(cfg: ScenarioConfig) -> dict:
    """Depth sweep of the counterexample regime with divergence verdicts.

    Emits, per depth: the sharp-maximal norm (converges), the multiplier
    infimum over constants (the discrepant condition), fixed-c multiplier
    values (each diverges with depth while c stays off the plateau value),
    and the two empirical operator norms (stay bounded).
    """
    depths = list(range(max(4, cfg.depth_min), cfg.depth + 1, 2))
    points = [
        counterexample_depth_point(
            d, cfg.half_width_exponent, restarts=cfg.restarts,
            iterations=cfg.iterations, seed=cfg.seed,
        )
        for d in depths
    ]
    sharp = [pt["sharp_norm"] for pt in points]
    mult = [pt["multiplier_inf"] for pt in points]
    pps = [pt["paraproduct_norm"] for pt in points]
    comms = [pt["commutator_norm"] for pt in points]

    per_c_divergent = []
    grid = points[0]["multiplier_grid"]["c"]
    for i, c in enumerate(grid):
        series = [pt["multiplier_grid"]["value"][i] for pt in points]
        per_c_divergent.append(bool(divergence_flag(series, factor=1.5, window=min(3, len(series) - 1))))

    verdicts = {
        "sharp_converges": bool(abs(sharp[-1] - sharp[-2]) <= 0.05 * sharp[-2]) if len(sharp) >= 2 else None,
        "multiplier_inf_diverges": bool(divergence_flag(mult, window=min(3, len(mult) - 1))),
        "multiplier_fixed_c_divergent_fraction": float(np.mean(per_c_divergent)),
        "operator_norms_bounded": bool(
            (max(pps) - min(pps)) <= 0.2 * max(pps) and (max(comms) - min(comms)) <= 0.2 * max(comms)
        ),
    }
    rows = [
        [pt["depth"], pt["sharp_norm"], pt["multiplier_inf"], pt["paraproduct_norm"],
         pt["commutator_norm"], pt["tail_slope"]]
        for pt in points
    ]
    csv_text = format_csv(
        ["depth", "sharp_norm", "multiplier_inf", "paraproduct_norm", "commutator_norm", "tail_slope"],
        rows,
    )
    return write_report(cfg, "counterexample", {"points": points, "verdicts": verdicts}, csv_text)


# -- runner: norm reports ------------------------------------------------------------------


def run_norms(cfg: ScenarioConfig) -> dict:
    """All scalar functionals for one configured triple and b-family member.

    Functionals backed by a NormReport are embedded as their full JSON
    objects, and grid-function certificates are written as CSV next to the
    report.
    """
    rng = np.random.default_rng(cfg.seed)
    tree = cfg.tree()
    cfgE = cfg.exponents()
    mu = parse_weight(cfg.mu, tree)
    lam = parse_weight(cfg.lam, tree)
    triple = BloomTriple(mu, lam, cfgE)
    b = make_family(cfg.b_family, tree, 1, rng)[0]
    from .norms import discretized_sharp_sup
    from .weights import lower_joint_characteristic, upper_joint_characteristic

    values = {
        "bmo_alpha": bmo_alpha_norm(b, triple.nu, cfgE.alpha),
        "upper_joint": upper_joint_characteristic(triple),
        "lower_joint": lower_joint_characteristic(triple),
    }
    full_reports = {}
    if cfgE.q < cfgE.p:
        full_reports["sharp_r_norm"] = sharp_maximal_r_norm(b, triple.nu, cfgE.r)
        full_reports["multiplier_inf"] = multiplier_norm(b, triple.nu, cfgE.r)
        full_reports["discretized_sup"] = discretized_sharp_sup(b, triple.nu, cfgE.r)
    full_reports["paraproduct_norm"] = empirical_operator_norm(
        paraproduct_handle(b), mu, lam, cfgE.p, cfgE.q, tree,
        restarts=cfg.restarts, iterations=cfg.iterations, seed=cfg.seed,
    )
    os.makedirs(cfg.out_dir, exist_ok=True)
    reports_json = {}
    for name, rep in full_reports.items():
        values[name] = rep.value
        reports_json[name] = json.loads(rep.to_json())
        if isinstance(rep.certificate, np.ndarray):
            path = os.path.join(cfg.out_dir, f"certificate_{name}.csv")
            with open(path, "w") as fh:
                fh.write(rep.certificate_csv())
            reports_json[name]["certificate-ref"] = os.path.basename(path)
        else:
            from .sparse import SparseFamily, family_to_text

            if isinstance(rep.certificate, SparseFamily):
                path = os.path.join(cfg.out_dir, f"certificate_{name}.sparse.txt")
                with open(path, "w") as fh:
                    fh.write(family_to_text(rep.certificate))
                reports_json[name]["certificate-ref"] = os.path.basename(path)
    return write_report(cfg, "norms", {"values": values, "reports": reports_json})


# -- plot emission ---------------------------------------------------------------------------


def emit_plots(report: dict, out_dir: str) -> list[str]:
    """Convert a runner report into gnuplot-ready two-column data plus a script."""
    os.makedirs(out_dir, exist_ok=True)
    written: list[str] = []

    def write_series(stem: str, xs, ys):
        path = os.path.join(out_dir, f"{stem}.dat")
        with open(path, "w") as fh:
            fh.write(f"# {stem}\n")
            for x, y in zip(xs, ys):
                fh.write(f"{x!r} {y!r}\n")
        written.append(path)

    if "points" in report:  # counterexample report
        depths = [pt["depth"] for pt in report["points"]]
        write_series("sharp_norm", depths, [pt["sharp_norm"] for pt in report["points"]])
        write_series("multiplier_inf", depths, [pt["multiplier_inf"] for pt in report["points"]])
        write_series("paraproduct_norm", depths, [pt["paraproduct_norm"] for pt in report["points"]])
        write_series("commutator_norm", depths, [pt["commutator_norm"] for pt in report["points"]])
    elif "results" in report:  # characteristics report
        depths = report.get("depths", [])
        for label in ("mu", "lam", "nu"):
            res = report["results"].get(label)
            if res:
                write_series(f"{label}_ap", depths, res["ap"])
    elif "ratio_paraproduct" in report and report.get("members"):  # comparability report
        members = report["members"]
        write_series("paraproduct_vs_functional",
                     [m["b_functional"] for m in members],
                     [m["paraproduct_norm"] for m in members])
    if not written:
        path = os.path.join(out_dir, "empty.dat")
        with open(path, "w") as fh:
            fh.write("# no plottable series in this report\n")
        written.append(path)
    script = os.path.join(out_dir, "plot.plt")
    with open(script, "w") as fh:
        fh.write("set logscale y\nset xlabel 'depth'\n")
        names = [os.path.basename(p) for p in written if p.endswith(".dat")]
        plots = ", ".join(f"'{n}' using 1:2 with linespoints title '{n[:-4]}'" for n in names)
        fh.write(f"plot {plots}\n")
    written.append(script)
    return written
