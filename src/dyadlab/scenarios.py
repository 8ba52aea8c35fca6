"""Batch experiment runners: reproducible scenarios over the other modules.

Every runner is a pure function of (config, seed): reports carry no
timestamps and all randomness flows through seeded generators, so a rerun
with the same config is byte-identical.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass, fields, replace
from typing import Sequence

import numpy as np

from .lattice import Cube, DyadicTree, GridFunction, max_depth
from .norms import (
    bmo_alpha_norm,
    discretized_sharp_sup,
    empirical_operator_norm,
    empirical_operator_norms,
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
    domination_envelope,
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
    lower_joint_characteristic,
    parse_weight,
    upper_joint_characteristic,
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
        if self.dim < 1:
            raise ConfigError(f"dim must be at least 1, got {self.dim}")
        if self.depth < 0:
            raise ConfigError(f"depth must be nonnegative, got {self.depth}")
        for key in ("family_size", "trials", "subcollections", "restarts", "iterations"):
            if getattr(self, key) < 0:
                raise ConfigError(f"{key} must be nonnegative, got {getattr(self, key)}")
        if not (1.0 < self.p < math.inf and 1.0 < self.q < math.inf):
            raise ConfigError("exponents must lie in (1, infinity)")
        limit = max_depth(self.dim)
        if self.depth > limit:
            raise ConfigError(f"depth {self.depth} exceeds the guard rail {limit} for d={self.dim}")
        root = self.dim * (self.half_width_exponent + 1)  # log2 of the root volume
        if root > 1023 or root - self.dim * self.depth < -1022:  # and of the cell volume
            raise ConfigError(f"half_width_exponent {self.half_width_exponent}: a volume leaves the floats")

    @property
    def half_width(self) -> float:
        return float(2**self.half_width_exponent)

    def tree(self) -> DyadicTree:
        return DyadicTree(self.dim, self.depth, self.half_width)

    def exponents(self) -> ExponentConfig:
        return ExponentConfig(self.p, self.q, self.dim)


def parse_config(text: str, base: ScenarioConfig | None = None) -> ScenarioConfig:
    """Parse the flat sectioned key-value format; errors carry line numbers.

    A key's type is its `ScenarioConfig` field's annotation ("int", "float"
    or "str", kept as text by the `annotations` future import).
    """
    kinds = {f.name: f.type for f in fields(ScenarioConfig)}
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
        kind = kinds.get(key)
        if kind is None:
            raise ConfigError(f"line {lineno}: unknown key {key!r}")
        try:
            values[key] = int(val, 0) if kind == "int" else float(val) if kind == "float" else val
        except ValueError:
            noun = "an integer" if kind == "int" else "a number"
            raise ConfigError(f"line {lineno}: {key} must be {noun}, got {val!r}")
    base = base or ScenarioConfig()
    try:
        return replace(base, **values)
    except ConfigError:
        raise
    except Exception as exc:  # dataclass invariant violations
        raise ConfigError(str(exc))


def _weight(spec: str, tree: DyadicTree) -> Weight:
    """`parse_weight`, with a spec that it rejects reported as a ConfigError naming the spec."""
    try:
        return parse_weight(spec, tree)
    except ValueError as exc:
        raise ConfigError(f"weight spec {spec!r}: {exc}") from exc


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


def random_haar_sum(tree: DyadicTree, rng: np.random.Generator) -> GridFunction:
    """Twelve half-splits at random cubes, with Cauchy coefficients clipped to [-50, 50]."""
    if tree.depth == 0:
        raise ConfigError("random-haar needs depth >= 1: its half-splits sit at levels below depth")
    out = GridFunction.constant(tree, 0.0)
    for _ in range(12):
        level = int(rng.integers(0, tree.depth))
        index = tuple(int(rng.integers(0, 2**level)) for _ in range(tree.dim))
        cube = Cube(tree, level, index)
        coeff = float(np.clip(rng.standard_cauchy(), -50.0, 50.0))
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
    """Comma-separated rows under a header; an undefined value (None) is written `nan`."""

    def fmt(x):
        if x is None:
            return "nan"
        if isinstance(x, float):
            return repr(x)
        return str(x)

    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(fmt(x) for x in row))
    return "\n".join(lines) + "\n"


def write_report(cfg: ScenarioConfig, stem: str, payload: dict, files: dict[str, str]) -> dict:
    """Write `<stem>.json` (the payload under the run's header) and each text of
    `files` under its name into `cfg.out_dir`: the one place a run writes files.
    The JSON is strict: an undefined value is None (`null`); NaN or infinity raises."""
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
    report = json.dumps(payload, indent=1, sort_keys=True, allow_nan=False)
    texts = {f"{stem}.json": report + "\n", **files}
    for file, text in texts.items():
        with open(os.path.join(cfg.out_dir, file), "w") as fh:
            fh.write(text)
    return payload


# -- runner: characteristics ----------------------------------------------------------


def ap_window_grid(p: float) -> list[float]:
    """Sorted distinct deltas bracketing both edges of the power-weight window for exponent p."""
    lower, upper = -1.0, p - 1.0
    offsets = (-0.5, -0.25, 0.0, 0.25, 0.5)
    grid = [lower + o for o in offsets] + [(lower + upper) / 2.0] + [upper + o for o in offsets]
    mid_extra = [(3 * lower + upper) / 4.0, (lower + 3 * upper) / 4.0]
    return sorted(set(grid + mid_extra))


def _sweep(cfg: ScenarioConfig, first: int, step: int = 1) -> list[ScenarioConfig]:
    """cfg at the depths first, first + step, ... up to cfg.depth; an empty sweep is a ConfigError."""
    points = [replace(cfg, depth=d) for d in range(first, cfg.depth + 1, step)]
    if not points:
        raise ConfigError(f"depth {cfg.depth} is below the sweep's first depth {first}")
    return points


def run_characteristics(cfg: ScenarioConfig, sweep: bool = True) -> dict:
    """Characteristic battery: configured weights plus the power-window sweep.

    One CSV row per (weight, characteristic, depth), with a divergence flag
    set by the factor-1.5-over-three-refinements rule.  A spec that reads a
    `piecewise(path)` file holds the cells of one tree, so it is evaluated
    at `depth` only.
    """
    points = _sweep(cfg, cfg.depth_min)
    depths = [c.depth for c in points]
    rows: list[list[object]] = []
    results: dict[str, object] = {}

    def series(spec: str, name: str, at: list[ScenarioConfig], values: Sequence[float]) -> bool:
        """One (weight, characteristic) series: its divergence flag, and its rows."""
        flag = divergence_flag(values)
        rows.extend([spec, name, c.depth, v, int(flag)] for c, v in zip(at, values))
        return flag

    cfgE = cfg.exponents()
    probe = cfg.tree()
    mu_w, lam_w = _weight(cfg.mu, probe), _weight(cfg.lam, probe)
    jobs = [("mu", cfg.mu, cfg.p), ("lam", cfg.lam, cfg.q)]
    if mu_w.power is not None and lam_w.power is not None:
        gamma = (mu_w.power / cfg.p - lam_w.power / cfg.q) / cfgE.bloom_exponent
        jobs.append(("nu", f"power({gamma:.12g})", 2.0 * cfgE.r_conj))
    for label, spec, expo in jobs:
        at = points[-1:] if "piecewise(" in spec else points
        weights = (_weight(spec, c.tree()) for c in at)
        ap, fw = zip(*((ap_characteristic(w, expo), fujii_wilson_ainfty(w, Weight.lebesgue(w.tree)))
                       for w in weights))
        results[label] = {"ap": list(ap), "fujii_wilson": list(fw)}
        series(spec, f"A_{expo:g}", at, ap)
        series(spec, "A_inf", at, fw)

    sweep_flags = {}
    if sweep and cfg.dim == 1:
        for p in (1.5, 2.0, 3.0):
            for delta in ap_window_grid(p):
                values = [ap_characteristic(Weight.power_weight(c.tree(), delta), p) for c in points]
                flag = series(f"power({delta:.6g})", f"A_{p:g}", points, values)
                sweep_flags[f"p={p:g},delta={delta:.6g}"] = bool(flag)
    results["sweep_flags"] = sweep_flags

    header = ["weight", "characteristic", "depth", "value", "divergent"]
    csv = {"characteristics.csv": format_csv(header, rows)}
    return write_report(cfg, "characteristics", {"results": results, "depths": depths}, csv)


# -- runner: sparse domination ---------------------------------------------------------


def run_domination(cfg: ScenarioConfig) -> dict:
    """Randomized battery through the sparse-domination constructor.

    Emits pass/fail, the worst witness ratio seen, the worst domination
    slack over sampled sub-collections AND over the exact all-collections
    envelope, and the max stopping-mass ratio; any violation flips
    `passed`.  Each trial's family gives one bound, which the envelope and
    every sampled sub-collection are checked against.  A worst value is
    None when nothing was checked.
    """
    rng = np.random.default_rng(cfg.seed)
    tree = cfg.tree()
    gamma = 2.0 ** -(tree.dim + 2)
    ratios, envelope_gaps, slacks = [], [], []
    mass_max = 0.0
    failures = 0
    for _ in range(cfg.trials):
        b = make_family(cfg.b_family, tree, 1, rng)[0]
        f = make_family(cfg.f_family, tree, 1, rng)[0]
        family = paraproduct_sparse_dominate(b, f)
        ok, ratio = verify_sparse(family)
        ratios.append(ratio)
        mass_max = max(mass_max, family.stopping_mass_max)
        if not ok:
            failures += 1
            continue
        bound = domination_bound(family, b, f)
        ok_env, env_gap = pointwise_dominated(domination_envelope(b, f), bound)
        envelope_gaps.append(env_gap)
        if not ok_env:
            failures += 1
        subs = random_subcollection(tree, rng, cfg.subcollections)
        oks, gaps = pointwise_dominated(partial_sums(b, f, subs), bound)
        slacks.extend(gaps.tolist())
        failures += int(np.count_nonzero(~oks))
    payload = {
        "trials": cfg.trials,
        "subcollections": cfg.subcollections,
        "gamma": gamma,
        "worst_witness_ratio": min(ratios, default=None),
        "worst_domination_slack": max(slacks, default=None),
        "worst_envelope_slack": max(envelope_gaps, default=None),
        "max_stopping_mass_ratio": mass_max,
        "failures": failures,
        "passed": failures == 0,
    }
    return write_report(cfg, "domination", payload, {})


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
    mu = _weight(cfg.mu, tree)
    lam = _weight(cfg.lam, tree)
    triple = BloomTriple(mu, lam, cfgE)
    bs = make_family(cfg.b_family, tree, cfg.family_size, rng)
    if cfgE.q < cfgE.p:
        phis = [sharp_maximal_r_norm(b, triple.nu, cfgE.r).value for b in bs]
    else:
        phis = [bmo_alpha_norm(b, triple.nu, cfgE.alpha) for b in bs]
    seeds = [cfg.seed + i for i in range(len(bs))]

    def estimates(handle_for) -> list[float]:
        return [rep.value for rep in empirical_operator_norms(
            handle_for, mu, lam, cfgE.p, cfgE.q,
            restarts=cfg.restarts, iterations=cfg.iterations, seeds=seeds)]

    pps = estimates(paraproduct_handle(bs))
    # the commutator is the Hilbert transform's, defined at d = 1
    comms = estimates(commutator_handle(bs)) if tree.dim == 1 else [None] * len(bs)
    rows = [[i, phi, pp, comm] for i, (phi, pp, comm) in enumerate(zip(phis, pps, comms))]
    ratios_pp = [pp / phi for _, phi, pp, _ in rows if phi > 0.0]
    ratios_comm = [comm / phi for _, phi, _, comm in rows if phi > 0.0 and comm is not None]
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
    csv = {"bloom.csv": format_csv(["member", "b_functional", "paraproduct_norm", "commutator_norm"], rows)}
    return write_report(cfg, "bloom", payload, csv)


# -- runner: the multiplier-condition counterexample -------------------------------------


_C_GRID_POINTS = 33  # constants c at which each counterexample point samples the multiplier objective


def counterexample_point(cfg: ScenarioConfig) -> dict:
    """One depth of the q<p counterexample scenario (p=4, q=2, nu=|x|^(1/3), b the unit-ball indicator).

    The model is fixed (d=1, mu=|x|, lam=1); cfg gives the depth, the
    window and the estimator's restarts, iterations and seed.
    """
    p, q = 4.0, 2.0
    r = ExponentConfig(p, q, 1).r
    tree = DyadicTree(1, cfg.depth, cfg.half_width)
    b = GridFunction.ball_indicator(tree, 1.0)
    nu = Weight.power_weight(tree, 1.0 / 3.0)
    mu = Weight.power_weight(tree, 1.0)
    lam = Weight.lebesgue(tree)

    sharp_rep = sharp_maximal_r_norm(b, nu, r, scope="shifted")
    mult = multiplier_norm(b, nu, r)
    h = multiplier_objective(b, nu, r)
    span = float(b.values.max() - b.values.min())
    lo, hi = float(b.values.min()) - span, float(b.values.max()) + span
    c_grid = np.linspace(lo, hi, _C_GRID_POINTS)
    # per-c the r-th-power objective is the quantity whose truncation grows
    # logarithmically with the resolved scale; the norm is its 1/r root
    grid_values = [float(h(c)) for c in c_grid]

    effort = dict(restarts=cfg.restarts, iterations=cfg.iterations, seed=cfg.seed)
    pp = empirical_operator_norm(
        paraproduct_handle(b), mu, lam, p, q, tree, **effort,
        extra_starts=[(np.abs(b.values - 0.5) + 0.25) * mu.density ** (-0.5)],
    )
    comm = empirical_operator_norm(commutator_handle(b), mu, lam, p, q, tree, **effort)

    xs = np.geomspace(2.0, 0.98 * tree.half_width, 9)
    sharp_at = sharp_window_values(b, nu, xs, n_left=192)
    mask = sharp_at > 0.0
    logx = np.log(xs[mask])
    logy = r * np.log(sharp_at[mask]) + (1.0 / 3.0) * np.log(xs[mask])
    slope = float(np.polyfit(logx, logy, 1)[0]) if mask.sum() >= 2 else None

    return {
        "depth": cfg.depth,
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
    if cfg.half_width_exponent < 1:
        raise ConfigError("counterexample needs half_width_exponent >= 1: "
                          "its tail points lie in [2, 0.98 H]")
    points = [counterexample_point(c) for c in _sweep(cfg, max(4, cfg.depth_min), 2)]
    columns = ["depth", "sharp_norm", "multiplier_inf", "paraproduct_norm", "commutator_norm", "tail_slope"]
    rows = [[pt[k] for k in columns] for pt in points]
    _, sharp, mult, pps, comms, _ = zip(*rows)
    window = min(3, len(points) - 1)
    per_c_divergent = [
        bool(divergence_flag(series, factor=1.5, window=window))
        for series in zip(*(pt["multiplier_grid"]["value"] for pt in points))
    ]
    verdicts = {
        "sharp_converges": bool(abs(sharp[-1] - sharp[-2]) <= 0.05 * sharp[-2]) if len(sharp) >= 2 else None,
        "multiplier_inf_diverges": bool(divergence_flag(mult, window=window)),
        "multiplier_fixed_c_divergent_fraction": float(np.mean(per_c_divergent)),
        "operator_norms_bounded": bool(
            (max(pps) - min(pps)) <= 0.2 * max(pps) and (max(comms) - min(comms)) <= 0.2 * max(comms)
        ),
    }
    payload = {"points": points, "verdicts": verdicts}
    return write_report(cfg, "counterexample", payload, {"counterexample.csv": format_csv(columns, rows)})


# -- runner: norm reports ------------------------------------------------------------------


def run_norms(cfg: ScenarioConfig) -> dict:
    """All scalar functionals for one configured triple and b-family member.

    Functionals backed by a NormReport are embedded as their full JSON
    objects, and each certificate that is not a number is written next to
    the report, in the file its `certificate-ref` names.
    """
    rng = np.random.default_rng(cfg.seed)
    tree = cfg.tree()
    cfgE = cfg.exponents()
    mu = _weight(cfg.mu, tree)
    lam = _weight(cfg.lam, tree)
    triple = BloomTriple(mu, lam, cfgE)
    b = make_family(cfg.b_family, tree, 1, rng)[0]
    values = {
        "bmo_alpha": bmo_alpha_norm(b, triple.nu, cfgE.alpha),
        "upper_joint": upper_joint_characteristic(triple),
        "lower_joint": lower_joint_characteristic(triple),
    }
    full_reports = {}
    if cfgE.q < cfgE.p:
        sharp = full_reports["sharp_r_norm"] = sharp_maximal_r_norm(b, triple.nu, cfgE.r)
        full_reports["multiplier_inf"] = multiplier_norm(b, triple.nu, cfgE.r)
        full_reports["discretized_sup"] = discretized_sharp_sup(b, triple.nu, cfgE.r, sharp)
    full_reports["paraproduct_norm"] = empirical_operator_norm(
        paraproduct_handle(b), mu, lam, cfgE.p, cfgE.q, tree,
        restarts=cfg.restarts, iterations=cfg.iterations, seed=cfg.seed,
    )
    reports_json, files = {}, {}
    for name, rep in full_reports.items():
        values[name] = rep.value
        reports_json[name], certificate_files = rep.serialize(name)
        files.update(certificate_files)
    return write_report(cfg, "norms", {"values": values, "reports": reports_json}, files)
