"""The benchmark's workloads: which scenario runner each one drives, on which config.

The configs under `perfbench/workloads/` are pinned copies of the shipped
`configs/*.cfg` (minus `out_dir`, which the benchmark sets), plus the d = 2
norm report that no shipped config covers.  Pinning them keeps the
workloads fixed when the shipped configs change.  Three are cut, with the
same sizes per call, so that one run of the benchmark holds several
samples and their median: dominate-d1 runs 40 of the shipped 200 trials
(3 s instead of 15 s a sample), bloom-d1 6 of the 20 family members
(3 s instead of 11 s), and norms-d2 6 estimator iterations instead of 15
(5 s instead of 11 s).  counterexample-d1 runs as shipped (10-13 s).

This module imports nothing heavy: the parent process of the benchmark
imports it, and that process must stay small (see `run.py`).
"""

from __future__ import annotations

import os
from dataclasses import dataclass

HERE = os.path.dirname(os.path.abspath(__file__))


@dataclass(frozen=True)
class Workload:
    name: str
    runner: str  # attribute of dyadlab.scenarios
    config: str  # path of the config file
    report: str  # stem of the main report that the runner writes
    required: tuple[str, ...]  # keys the main report must carry besides the header


HEADER_KEYS = ("schema", "scenario", "seed", "dim", "depth", "half_width")
SCHEMA_VERSION = 1


def _cfg(name: str) -> str:
    return os.path.join(HERE, "workloads", f"{name}.cfg")


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "dominate-d1", "run_domination", _cfg("dominate-d1"), "domination",
            ("trials", "subcollections", "failures", "passed", "worst_witness_ratio",
             "worst_domination_slack", "worst_envelope_slack", "max_stopping_mass_ratio"),
        ),
        Workload(
            "bloom-d1", "run_bloom_comparability", _cfg("bloom-d1"), "bloom",
            ("members", "ratio_paraproduct", "ratio_commutator", "characteristics", "regime"),
        ),
        Workload(
            "counterexample-d1", "run_counterexample", _cfg("counterexample-d1"), "counterexample",
            ("points", "verdicts"),
        ),
        Workload(
            "norms-d2", "run_norms", _cfg("norms-d2"), "norms",
            ("values", "reports"),
        ),
    )
}
