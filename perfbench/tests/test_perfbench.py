"""Tests of the benchmark itself: python3 -m pytest perfbench/tests"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import numpy as np
import pytest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)
sys.path[:0] = [BENCH, os.path.join(ROOT, "src")]

import run  # noqa: E402
from tracing import LAYER_METRICS, Tracer  # noqa: E402
from workloads import WORKLOADS, Workload  # noqa: E402


class FakeClock:
    def __init__(self):
        self.now = 0

    def __call__(self):
        return self.now


def test_self_time_arithmetic_on_a_synthetic_nest():
    clock = FakeClock()
    tr = Tracer(clock=clock)

    def leaf():
        clock.now += 3

    def metered():
        clock.now += 4

    leaf_w = tr.span(leaf, "leaf")
    metered_w = tr.meter(metered, "metered")

    def mid():
        clock.now += 1
        leaf_w()
        metered_w()  # a meter is not a span: its time stays in mid's self time
        clock.now += 2

    mid_w = tr.span(mid, "mid")

    def top():
        clock.now += 5
        mid_w()
        mid_w()
        clock.now += 1

    tr.span(top, "top")()

    s = tr.stats
    assert (s["leaf"].calls, s["leaf"].self_ns, s["leaf"].total_ns) == (2, 6, 6)
    assert (s["mid"].calls, s["mid"].self_ns, s["mid"].total_ns) == (2, 14, 20)
    assert (s["top"].calls, s["top"].self_ns, s["top"].total_ns) == (1, 6, 26)
    assert (s["metered"].calls, s["metered"].total_ns) == (2, 8)
    assert tr.edges == {("top", "mid"): 20, ("mid", "leaf"): 6}
    # self times add up to the outermost span
    assert s["leaf"].self_ns + s["mid"].self_ns + s["top"].self_ns == s["top"].total_ns


def test_recursive_span_counts_total_once():
    clock = FakeClock()
    tr = Tracer(clock=clock)

    def countdown(n):
        clock.now += 1
        if n:
            wrapped(n - 1)

    wrapped = tr.span(countdown, "countdown")
    wrapped(3)
    st = tr.stats["countdown"]
    assert (st.calls, st.self_ns, st.total_ns) == (4, 4, 4)


def test_wrappers_reach_from_import_bindings():
    import dyadlab.norms
    import dyadlab.operators
    import dyadlab.scenarios
    from dyadlab.lattice import DyadicTree, GridFunction
    from dyadlab.weights import Weight

    original = dyadlab.operators.sharp_maximal
    tree = DyadicTree(1, 5, 1.0)
    b = GridFunction(tree, np.random.default_rng(3).normal(size=tree.shape))
    with Tracer() as tr:
        # norms binds sharp_maximal with `from .operators import ...`
        assert dyadlab.norms.sharp_maximal is not original
        dyadlab.norms.sharp_maximal_r_norm(b, Weight.lebesgue(tree), 2.0)
        # scenarios binds paraproduct_handle; its apply reaches operators.paraproduct
        dyadlab.scenarios.paraproduct_handle(b).apply(b.values)
        dyadlab.scenarios.commutator_handle(b).apply(b.values)
    assert dyadlab.norms.sharp_maximal is original
    metrics = tr.metrics()
    assert tr.stats["operators.sharp_maximal.dyadic"].calls == 1
    assert metrics["norms.sharp_maximal_r_norm.total_s"] > 0.0
    assert metrics["operators.paraproduct.calls"] == 1
    assert metrics["operators.commutator.calls"] == 1
    assert metrics["operators.kernel_matrix.calls"] == 1
    assert metrics["lattice.cube_new"] == 0


def test_traced_certificates_reevaluate_and_a_tampered_one_is_flagged():
    import child
    import dyadlab.scenarios
    from dyadlab.lattice import DyadicTree, GridFunction
    from dyadlab.weights import Weight

    tree = DyadicTree(1, 5, 1.0)
    b = GridFunction(tree, np.random.default_rng(5).normal(size=tree.shape))
    mu = Weight.power_weight(tree, 1.0)
    with Tracer() as tr:
        dyadlab.scenarios.empirical_operator_norm(
            dyadlab.scenarios.paraproduct_handle(b), mu, None, 4.0, 2.0, tree,
            restarts=3, iterations=4)
    (estimate,) = tr.estimates
    assert estimate.applies > 0
    assert tr.metrics()["operators.handle.applies"] == estimate.applies
    assert child.check_trace(tr) == []
    estimate.report.value *= 1.0 + 1e-9
    assert len(child.check_trace(tr)) == 1


def test_determinism_check_flags_a_perturbed_report(tmp_path):
    report = tmp_path / "report"
    report.mkdir()
    (report / "bloom.json").write_text('{"value": 1.25}\n')
    digests = run.Digests(str(tmp_path / "digests.json"))
    first, _ = run.report_digest(str(report))
    assert digests.check(WORKLOADS["bloom-d1"], 7, first) is None
    digests.save()

    (report / "bloom.json").write_text('{"value": 1.2500000000000002}\n')
    again = run.Digests(str(tmp_path / "digests.json"))  # an earlier run, from disk
    perturbed, _ = run.report_digest(str(report))
    assert again.check(WORKLOADS["bloom-d1"], 7, perturbed) is not None
    assert again.check(WORKLOADS["bloom-d1"], 8, perturbed) is None  # other seed


def test_normalize_states_times_at_the_reference_speed():
    result = {"setup_s": 0.2, "wall_s": 6.0, "cpu_s": 3.0, "peak_rss_mib": 40.0,
              "calib_before_s": 2 * run.CALIB_REF_S, "calib_after_s": 4 * run.CALIB_REF_S}
    run.normalize(result)
    assert result["ref"] == pytest.approx({"setup_s": 0.1, "wall_s": 2.0, "cpu_s": 1.0})
    setup_only = {"setup_s": 0.2, "calib_before_s": 0.5 * run.CALIB_REF_S}
    run.normalize(setup_only)
    assert setup_only["ref"] == pytest.approx({"setup_s": 0.4})


def test_report_checks_catch_schema_and_non_finite_values(tmp_path):
    w = WORKLOADS["dominate-d1"]
    header = {"schema": 1, "scenario": "dominate", "seed": 3, "dim": 1, "depth": 6,
              "half_width": 1.0}
    body = {k: 0.5 for k in w.required}
    body.update(passed=True, failures=0)
    (tmp_path / "domination.json").write_text(json.dumps({**header, **body}))
    assert run.check_report(w, 3, str(tmp_path))[0] == []
    body.update(worst_witness_ratio=float("nan"), passed=False, failures=1)
    del body["trials"]
    (tmp_path / "domination.json").write_text(json.dumps({**header, **body}))
    problems = run.check_report(w, 3, str(tmp_path))[0]
    assert len(problems) == 3


def test_peak_rss_is_the_childs_own_after_a_large_child(tmp_path):
    # the large child builds the depth-12 dense Hilbert kernel, as counterexample-d1 does
    big_cfg = tmp_path / "big.cfg"
    big_cfg.write_text("depth = 12\ndepth_min = 12\nrestarts = 1\niterations = 1\n")
    small_cfg = tmp_path / "small.cfg"
    small_cfg.write_text("depth = 5\nrestarts = 1\niterations = 2\n")
    big = Workload("big", "run_counterexample", str(big_cfg), "counterexample", ())
    small = Workload("small", "run_norms", str(small_cfg), "norms", ())
    first = run.spawn(big, 1, str(tmp_path / "big"))
    second = run.spawn(small, 1, str(tmp_path / "small"))
    assert "error" not in first and "error" not in second
    assert first["peak_rss_mib"] > 500.0
    assert second["peak_rss_mib"] < 200.0


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "bloom-d1", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_benchmark_json_matches_the_code():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == run.END_TO_END
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == LAYER_METRICS + [
        ("trace_overhead_frac", "ratio")]
    assert any(m["name"] == "setup_s" and m["better"] == "lower" for m in spec["end_to_end"])


def test_prediction_table_covers_every_layer_metric():
    with open(os.path.join(BENCH, "predictions.json")) as fh:
        rows = json.load(fh)["rows"]
    assert list(rows) == [name for name, _ in LAYER_METRICS] + ["trace_overhead_frac"]
    end_to_end = {name for name, _ in run.END_TO_END}
    for row in rows.values():
        assert set(row["moves"]) <= end_to_end
        assert set(row["on"]) | set(row.get("unchanged_on", [])) <= set(WORKLOADS)


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_workload_configs_parse(name):
    from dyadlab.scenarios import parse_config

    with open(WORKLOADS[name].config) as fh:
        cfg = parse_config(fh.read())
    assert cfg.depth >= 6
