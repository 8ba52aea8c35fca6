"""Outside-in tracing of dyadlab: spans and counters around its public functions.

Nothing under `src/` knows about this module.  `Tracer.install()` replaces
each traced function with a wrapper at every place the package binds it:
the defining module, and every module that bound the name with
`from .module import name` (for example `scenarios` and `norms` import from
`operators`).  Patching only the defining module would miss those calls.

A span records calls, total time (outermost call of a name only, so
recursion is not counted twice) and self time (span time minus the time
of the spans it encloses).  Counters and meters do not enter the span
stack, so their time stays in the enclosing span's self time.
"""

from __future__ import annotations

import copy
import inspect
import sys
import time
import weakref
from dataclasses import dataclass, field
from typing import Callable

PACKAGE = "dyadlab"


# -- metrics this module produces, with units; BENCHMARK.json lists the same names.

LAYER_METRICS: list[tuple[str, str]] = [
    ("scenarios.runner.total_s", "s"),
    ("scenarios.make_family.self_s", "s"),
    ("scenarios.write_report.self_s", "s"),
    ("scenarios.report_bytes", "B"),
    ("lattice.cube_new", "count"),
    ("lattice.expand_to_cells.calls", "count"),
    ("lattice.expand_to_cells.self_s", "s"),
    ("lattice.expand_to_cells.bytes", "B"),
    ("lattice.box_cell_overlap_1d.calls", "count"),
    ("lattice.box_cell_overlap_1d.self_s", "s"),
    ("weights.parse_weight.self_s", "s"),
    ("weights.power_weight.total_s", "s"),
    ("weights.level_masses_or_lebesgue.calls", "count"),
    ("weights.level_masses_or_lebesgue.self_s", "s"),
    ("weights.interval_mass.calls", "count"),
    ("weights.ap_characteristic.self_s", "s"),
    ("operators.paraproduct.calls", "count"),
    ("operators.paraproduct.self_s", "s"),
    ("operators.paraproduct_partial.calls", "count"),
    ("operators.paraproduct_partial.self_s", "s"),
    ("operators.paraproduct_adjoint.self_s", "s"),
    ("operators.commutator.calls", "count"),
    ("operators.commutator.self_s", "s"),
    ("operators.kernel_matrix.calls", "count"),
    ("operators.kernel_matrix.builds", "count"),
    ("operators.kernel_matrix.hit_ratio", "ratio"),
    ("operators.kernel_matrix.self_s", "s"),
    ("operators.kernel_matrix.bytes", "B"),
    ("operators.sharp_maximal.dyadic_self_s", "s"),
    ("operators.sharp_maximal.shifted_self_s", "s"),
    ("operators.sharp_window_values.self_s", "s"),
    ("operators.handle.applies", "count"),
    ("sparse.paraproduct_sparse_dominate.calls", "count"),
    ("sparse.paraproduct_sparse_dominate.self_s", "s"),
    ("sparse.paraproduct_sparse_dominate.family_cubes", "count"),
    ("sparse.random_subcollection.self_s", "s"),
    ("sparse.random_subcollection.cubes", "count"),
    ("sparse.domination_check.self_s", "s"),
    ("sparse.domination_worst_case.self_s", "s"),
    ("sparse.verify_sparse.self_s", "s"),
    ("norms.empirical_operator_norm.calls", "count"),
    ("norms.empirical_operator_norm.self_s", "s"),
    ("norms.empirical_operator_norm.total_s", "s"),
    ("norms.estimator.applies_per_call", "count"),
    ("norms.estimator.ratio_evals_per_call", "count"),
    ("norms.estimator.improving_restarts_ratio", "ratio"),
    ("norms.discretized_sharp_sup.self_s", "s"),
    ("norms.discretized_sharp_sup.family_cubes", "count"),
    ("norms.multiplier_norm.self_s", "s"),
    ("norms.multiplier_norm.evals", "count"),
    ("norms.sharp_maximal_r_norm.total_s", "s"),
]


@dataclass
class Stat:
    calls: int = 0
    self_ns: int = 0
    total_ns: int = 0
    active: int = 0  # open calls of this name, to count recursion once in total_ns


@dataclass
class Estimate:
    """One empirical_operator_norm call, kept for re-evaluating its certificate."""

    arguments: dict  # bound arguments, with the caller's own handle
    report: object
    applies: int


@dataclass
class Tracer:
    clock: Callable[[], int] = time.perf_counter_ns
    stats: dict[str, Stat] = field(default_factory=dict)
    counts: dict[str, float] = field(default_factory=dict)
    edges: dict[tuple[str, str], int] = field(default_factory=dict)  # (parent, child) -> ns
    families: list = field(default_factory=list)  # every sparse family returned
    estimates: list[Estimate] = field(default_factory=list)
    _stack: list = field(default_factory=list)
    _patches: list = field(default_factory=list)
    _kernels: dict = field(default_factory=dict)  # id -> weakref of matrices returned

    # -- primitives -------------------------------------------------------------

    def stat(self, name: str) -> Stat:
        st = self.stats.get(name)
        if st is None:
            st = self.stats[name] = Stat()
        return st

    def add(self, name: str, amount: float = 1) -> None:
        self.counts[name] = self.counts.get(name, 0) + amount

    def span(self, fn: Callable, name, post: Callable | None = None, pre: Callable | None = None):
        """Wrap fn in a span.  `name` is a string or a function of (args, kwargs)."""
        stack, clock = self._stack, self.clock
        fixed = name if isinstance(name, str) else None

        def wrapper(*args, **kwargs):
            label = fixed or name(args, kwargs)
            st = self.stat(label)
            state = None
            if pre is not None:
                args, kwargs, state = pre(args, kwargs)
            frame = [label, clock(), 0]
            stack.append(frame)
            st.active += 1
            try:
                result = fn(*args, **kwargs)
            finally:
                dur = clock() - frame[1]
                stack.pop()
                st.active -= 1
                st.calls += 1
                st.self_ns += dur - frame[2]
                if st.active == 0:
                    st.total_ns += dur
                if stack:
                    parent = stack[-1]
                    parent[2] += dur
                    key = (parent[0], label)
                    self.edges[key] = self.edges.get(key, 0) + dur
            if post is not None:
                post(args, kwargs, result, state)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def counter(self, fn: Callable, name: str):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[name] = counts.get(name, 0) + 1
            return fn(*args, **kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    def meter(self, fn: Callable, name: str):
        """Calls and inclusive time, outside the span stack."""
        clock = self.clock

        def wrapper(*args, **kwargs):
            st = self.stat(name)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                st.calls += 1
                st.total_ns += clock() - t0

        wrapper.__wrapped__ = fn
        return wrapper

    # -- installation --------------------------------------------------------------

    def patch_function(self, module: str, attr: str, make: Callable) -> None:
        """Replace module.attr with make(original) wherever a dyadlab module binds it."""
        mod = sys.modules.get(f"{PACKAGE}.{module}")
        original = getattr(mod, attr, None) if mod is not None else None
        if original is None:
            return  # the function is gone from this version of the program
        wrapped = make(original)
        for site in list(sys.modules.values()):
            if not getattr(site, "__name__", "").startswith(PACKAGE):
                continue
            for name, value in list(vars(site).items()):
                if value is original:
                    self._patches.append((site, name, value))
                    setattr(site, name, wrapped)

    def patch_attribute(self, module: str, cls: str, attr: str, make: Callable) -> None:
        """Replace a class attribute (method or classmethod) by make(original)."""
        owner = getattr(sys.modules.get(f"{PACKAGE}.{module}"), cls, None)
        raw = vars(owner).get(attr) if owner is not None else None
        if raw is None:
            return
        if isinstance(raw, classmethod):
            wrapped = classmethod(make(raw.__func__))
        else:
            wrapped = make(raw)
        self._patches.append((owner, attr, raw))
        setattr(owner, attr, wrapped)

    def install(self) -> "Tracer":
        import dyadlab  # noqa: F401  (loads every submodule)
        import dyadlab.scenarios  # noqa: F401

        span = self.span
        for module, attr in [
            ("scenarios", "make_family"),
            ("scenarios", "write_report"),
            ("lattice", "box_cell_overlap_1d"),
            ("weights", "parse_weight"),
            ("weights", "level_masses_or_lebesgue"),
            ("weights", "ap_characteristic"),
            ("operators", "paraproduct_adjoint"),
            ("operators", "commutator"),
            ("operators", "sharp_window_values"),
            ("sparse", "domination_check"),
            ("sparse", "domination_worst_case"),
            ("sparse", "verify_sparse"),
            ("norms", "sharp_maximal_r_norm"),
        ]:
            self.patch_function(module, attr, lambda fn, n=f"{module}.{attr}": span(fn, n))
        for runner in ("run_domination", "run_bloom_comparability", "run_counterexample",
                       "run_norms"):
            self.patch_function("scenarios", runner, lambda fn: span(fn, "scenarios.runner"))

        self.patch_function("lattice", "expand_to_cells", lambda fn: span(
            fn, "lattice.expand_to_cells",
            post=lambda a, k, r, s: self.add("lattice.expand_to_cells.bytes", r.nbytes)))
        self.patch_function("operators", "paraproduct", lambda fn: span(
            fn, lambda a, k: "operators.paraproduct_partial"
            if (a[2] if len(a) > 2 else k.get("cubes")) is not None else "operators.paraproduct"))
        self.patch_function("operators", "sharp_maximal", lambda fn: span(
            fn, lambda a, k: "operators.sharp_maximal.dyadic"
            if (a[2] if len(a) > 2 else k.get("scope", "dyadic")) == "dyadic"
            else "operators.sharp_maximal.shifted"))
        self.patch_function("operators", "kernel_matrix", lambda fn: span(
            fn, "operators.kernel_matrix", post=self._kernel_returned))
        self.patch_function("sparse", "paraproduct_sparse_dominate", lambda fn: span(
            fn, "sparse.paraproduct_sparse_dominate", post=self._family_returned))
        self.patch_function("sparse", "random_subcollection", lambda fn: span(
            fn, "sparse.random_subcollection",
            post=lambda a, k, r, s: self.add("sparse.random_subcollection.cubes", len(r))))
        self.patch_function("norms", "discretized_sharp_sup", lambda fn: span(
            fn, "norms.discretized_sharp_sup", post=self._sharp_sup_returned))
        self.patch_function("norms", "multiplier_norm", lambda fn: span(
            fn, "norms.multiplier_norm",
            post=lambda a, k, r, s: self.add("norms.multiplier_norm.evals", len(r.trace))))
        self.patch_function("norms", "empirical_operator_norm", self._estimator_span)

        self.patch_attribute("lattice", "Cube", "__post_init__",
                             lambda fn: self.counter(fn, "lattice.cube_new"))
        self.patch_attribute("weights", "Weight", "interval_mass",
                             lambda fn: self.counter(fn, "weights.interval_mass.calls"))
        self.patch_attribute("weights", "Weight", "power_weight",
                             lambda fn: self.meter(fn, "weights.power_weight"))
        return self

    def uninstall(self) -> None:
        while self._patches:
            owner, name, value = self._patches.pop()
            setattr(owner, name, value)

    def __enter__(self) -> "Tracer":
        return self.install()

    def __exit__(self, *exc) -> None:
        self.uninstall()

    # -- hooks ---------------------------------------------------------------------

    def _kernel_returned(self, args, kwargs, mat, state) -> None:
        ref = self._kernels.get(id(mat))
        if ref is None or ref() is not mat:
            self.add("operators.kernel_matrix.builds")
            self.add("operators.kernel_matrix.bytes", mat.nbytes)
            self._kernels[id(mat)] = weakref.ref(mat)

    def _family_returned(self, args, kwargs, family, state) -> None:
        self.families.append(family)
        self.add("sparse.paraproduct_sparse_dominate.family_cubes", len(family.cubes))

    def _sharp_sup_returned(self, args, kwargs, report, state) -> None:
        self.families.append(report.certificate)
        self.add("norms.discretized_sharp_sup.family_cubes", len(report.certificate.cubes))

    def _estimator_span(self, fn: Callable):
        signature = inspect.signature(fn)

        def pre(args, kwargs):
            bound = signature.bind(*args, **kwargs)
            bound.apply_defaults()
            handle = bound.arguments["U"]
            counted = copy.copy(handle)
            tally = [0]

            def counting(op):
                def call(v):
                    tally[0] += 1
                    return op(v)
                return call

            counted.apply = counting(handle.apply)
            counted.adjoint = counting(handle.adjoint)
            arguments = dict(bound.arguments)
            bound.arguments["U"] = counted
            return bound.args, bound.kwargs, (arguments, tally)

        def post(args, kwargs, report, state):
            arguments, tally = state
            self.estimates.append(Estimate(arguments, report, tally[0]))

        return self.span(fn, "norms.empirical_operator_norm", pre=pre, post=post)

    # -- results -------------------------------------------------------------------

    def metrics(self) -> dict[str, float]:
        """Every LAYER_METRICS value this trace can give (the report size comes from the caller)."""
        out: dict[str, float] = {}

        def put(prefix: str, st: Stat, *kinds: str) -> None:
            for kind in kinds:
                value = {"calls": st.calls, "self_s": st.self_ns / 1e9, "total_s": st.total_ns / 1e9}
                out[f"{prefix}.{kind}"] = value[kind]

        stats = self.stats
        empty = Stat()
        for name in ("scenarios.runner", "norms.sharp_maximal_r_norm", "weights.power_weight"):
            put(name, stats.get(name, empty), "total_s")
        for name, kinds in [
            ("scenarios.make_family", ("self_s",)),
            ("scenarios.write_report", ("self_s",)),
            ("lattice.expand_to_cells", ("calls", "self_s")),
            ("lattice.box_cell_overlap_1d", ("calls", "self_s")),
            ("weights.parse_weight", ("self_s",)),
            ("weights.level_masses_or_lebesgue", ("calls", "self_s")),
            ("weights.ap_characteristic", ("self_s",)),
            ("operators.paraproduct", ("calls", "self_s")),
            ("operators.paraproduct_partial", ("calls", "self_s")),
            ("operators.paraproduct_adjoint", ("self_s",)),
            ("operators.commutator", ("calls", "self_s")),
            ("operators.kernel_matrix", ("calls", "self_s")),
            ("operators.sharp_window_values", ("self_s",)),
            ("sparse.paraproduct_sparse_dominate", ("calls", "self_s")),
            ("sparse.random_subcollection", ("self_s",)),
            ("sparse.domination_check", ("self_s",)),
            ("sparse.domination_worst_case", ("self_s",)),
            ("sparse.verify_sparse", ("self_s",)),
            ("norms.empirical_operator_norm", ("calls", "self_s", "total_s")),
            ("norms.discretized_sharp_sup", ("self_s",)),
            ("norms.multiplier_norm", ("self_s",)),
        ]:
            put(name, stats.get(name, empty), *kinds)
        for scope in ("dyadic", "shifted"):
            st = stats.get(f"operators.sharp_maximal.{scope}", empty)
            out[f"operators.sharp_maximal.{scope}_self_s"] = st.self_ns / 1e9

        for name in ("lattice.cube_new", "lattice.expand_to_cells.bytes", "weights.interval_mass.calls",
                     "operators.kernel_matrix.builds", "operators.kernel_matrix.bytes",
                     "sparse.paraproduct_sparse_dominate.family_cubes",
                     "sparse.random_subcollection.cubes", "norms.discretized_sharp_sup.family_cubes",
                     "norms.multiplier_norm.evals"):
            out[name] = self.counts.get(name, 0)
        calls = out["operators.kernel_matrix.calls"]
        out["operators.kernel_matrix.hit_ratio"] = (
            1.0 - out["operators.kernel_matrix.builds"] / calls if calls else 0.0)

        applies = sum(e.applies for e in self.estimates)
        n = len(self.estimates)
        out["operators.handle.applies"] = applies
        out["norms.estimator.applies_per_call"] = applies / n if n else 0.0
        ratio_evals = sum(float(e.report.details.get("ratio_evals", 0.0)) for e in self.estimates)
        out["norms.estimator.ratio_evals_per_call"] = ratio_evals / n if n else 0.0
        restarts = improving = 0
        for e in self.estimates:
            best = 0.0
            for value in e.report.trace:
                restarts += 1
                if value > best:
                    improving += 1
                    best = value
        out["norms.estimator.improving_restarts_ratio"] = improving / restarts if restarts else 0.0
        return out

    def span_table(self) -> dict:
        """Aggregated spans and caller edges, for the trace file."""
        return {
            "spans": {k: {"calls": s.calls, "self_s": s.self_ns / 1e9, "total_s": s.total_ns / 1e9}
                      for k, s in sorted(self.stats.items())},
            "edges": [{"parent": p, "child": c, "total_s": ns / 1e9}
                      for (p, c), ns in sorted(self.edges.items())],
            "counts": dict(sorted(self.counts.items())),
        }
