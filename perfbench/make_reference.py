"""Record the reference reports that `report_drift_rel` compares against.

    python3 perfbench/make_reference.py 0-20 [workload ...]

For each workload and seed, runs the workload once at the current
checkout and stores the numeric leaves of its main report in
`perfbench/reference/<workload>.json`, keyed by seed.  The stored
references come from the commit that introduced the benchmark.
"""

from __future__ import annotations

import json
import os
import sys

import run
from workloads import WORKLOADS


def main(argv: list[str]) -> int:
    lo, _, hi = argv[0].partition("-")
    seeds = range(int(lo), int(hi or lo) + 1)
    names = argv[1:] or list(WORKLOADS)
    os.makedirs(run.REFERENCE, exist_ok=True)
    for name in names:
        workload = WORKLOADS[name]
        path = os.path.join(run.REFERENCE, f"{name}.json")
        try:
            with open(path) as fh:
                table = json.load(fh)
        except OSError:
            table = {}
        for seed in seeds:
            out_dir = os.path.join(run.OUT, "reference", name)
            result = run.spawn(workload, seed, out_dir)
            if "error" in result:
                print(f"{name} seed {seed}: {result['error']}", file=sys.stderr)
                return 1
            problems, values = run.check_report(workload, seed, os.path.join(out_dir, "report"))
            if problems:
                print(f"{name} seed {seed}: {problems}", file=sys.stderr)
                return 1
            table[str(seed)] = values
            print(f"{name} seed {seed}: {len(values)} values", flush=True)
        with open(path, "w") as fh:
            json.dump(table, fh, sort_keys=True, separators=(",", ":"))
            fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
