"""Summarize the runs recorded under .perfbench_out/results into one trajectory point.

    python3 perfbench/summarize.py [output.json]

For every workload, trace setting and metric: the number of runs (one per
seed), the median, the quartiles of `statistics.quantiles(values, n=4)`,
and the spread (Q3 - Q1) / median that the metric's bound is compared
with.  Prints a table, and writes the summary as JSON when given a path.
"""

from __future__ import annotations

import glob
import json
import os
import statistics
import sys

import run


def summarize(results_dir: str) -> dict:
    table: dict = {}
    env = None
    for path in sorted(glob.glob(os.path.join(results_dir, "*.json"))):
        with open(path) as fh:
            s = json.load(fh)
        env = env or s.get("environment")
        entry = table.setdefault(s["workload"], {}).setdefault(f"trace{s['trace']}", {
            "seeds": [], "attempted": 0, "failed": 0, "report_drift_rel_max": None, "metrics": {}})
        entry["seeds"].append(s["seed"])
        entry["attempted"] += s["attempted"]
        entry["failed"] += s["failed"]
        if s["report_drift_rel"] is not None:
            entry["report_drift_rel_max"] = max(entry["report_drift_rel_max"] or 0.0,
                                                s["report_drift_rel"])
        for name, (value, unit) in s["metrics"].items():
            entry["metrics"].setdefault(name, {"unit": unit, "values": []})["values"].append(value)
    for workload in table.values():
        for entry in workload.values():
            for m in entry["metrics"].values():
                xs = m["values"]
                m["median"] = statistics.median(xs)
                if len(xs) >= 2:
                    q1, _, q3 = statistics.quantiles(xs, n=4)
                    m.update(q1=q1, q3=q3, spread=(q3 - q1) / m["median"] if m["median"] else 0.0)
    return {"environment": env, "workloads": table}


def main(argv: list[str]) -> int:
    summary = summarize(os.path.join(run.OUT, "results"))
    for workload, entries in summary["workloads"].items():
        for trace, entry in entries.items():
            print(f"{workload} {trace}: seeds {sorted(entry['seeds'])}, "
                  f"{entry['failed']}/{entry['attempted']} runs failed, "
                  f"report_drift_rel max {entry['report_drift_rel_max']!r}")
            for name, m in entry["metrics"].items():
                spread = f"{m['spread']:.3f}" if "spread" in m else "-"
                print(f"   {name:48s} median {m['median']:<12.6g} {m['unit']:6s} spread {spread}")
    if argv:
        with open(argv[0], "w") as fh:
            json.dump(summary, fh, indent=1, sort_keys=True)
            fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
