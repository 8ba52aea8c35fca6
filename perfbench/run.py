"""dyadlab benchmark: each scenario workload end to end, and a traced run per layer.

    python3 perfbench/run.py --workload dominate-d1 --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --seed 1            # every workload, one after another

Run it from the root of a source checkout; it needs `src/dyadlab` and
nothing installed beyond numpy.  Each measured run of a workload is a
fresh child process (`child.py`), one at a time: a closed loop with one
client.  BLAS keeps its default thread count, which is recorded.

--trace 0 prints the end-to-end metrics (medians over the runs made):
  wall_s        scenario runner entry to report written
  setup_s       process spawn to runner entry: interpreter, numpy and
                dyadlab imports, config parsing (median of several spawns)
  cpu_s         user + system CPU of the runner, all threads
  peak_rss_mib  the child's own peak RSS (RUSAGE_SELF)
  success_rate  runs that passed every check over runs attempted
                (1 - fail_rate; kept nonzero so a ratio bound applies)
The speed of the shared 2-CPU host this was built on drifts by up to
1.6x over seconds to minutes, which spread times as measured by 0.10 to
0.34 (quartile distance over median, ten runs of 30 s).  So every child
also times a fixed speed probe (`child.calibrate`) after set-up and
after the runner, and `normalize` states the three times at the
reference speed CALIB_REF_S.  The times as measured are printed beside
them and kept in the results file.
--trace 1 prints the per-layer metrics of `tracing.LAYER_METRICS` from a
traced child, plus `trace_overhead_frac`, the traced over the untraced
wall time of the same workload and seed, minus 1.

A run fails when its child exits nonzero, the report misses a key of its
schema, a reported number is not finite, the report bytes differ from an
earlier run of the same workload and seed in this checkout, a workload
invariant is violated (dominate: passed and no failures; norms: the
sparse certificate verified), or, when traced, an estimator certificate
does not re-evaluate to its value within 1e-12 relative or a returned
sparse family fails verify_sparse.  `report_drift_rel`, the largest
relative difference from the seed-commit reference report, is printed as
a diagnostic and never fails a run.

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics.  Everything the benchmark writes
goes under `.perfbench_out/` in the checkout.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time

from workloads import HEADER_KEYS, SCHEMA_VERSION, WORKLOADS, Workload

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".perfbench_out")
REFERENCE = os.path.join(HERE, "reference")

END_TO_END = [("wall_s", "s"), ("setup_s", "s"), ("cpu_s", "s"), ("peak_rss_mib", "MiB"),
              ("success_rate", "ratio")]
CALIB_REF_S = 0.022  # the speed probe's time at the reference speed (child.calibrate)
SETUP_SPAWNS = 5  # set-up-only children per run, besides the measured runs
DEADLINE_S = 170  # one invocation, all children included
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


# -- child processes -------------------------------------------------------------------


def spawn(workload: Workload, seed: int, out_dir: str, *, trace: bool = False,
          setup_only: bool = False, timeout: float = DEADLINE_S) -> dict:
    """Run one child to completion and return its result, or {"error": ...}."""
    shutil.rmtree(out_dir, ignore_errors=True)
    os.makedirs(out_dir)
    spec = {"src": SRC, "runner": workload.runner, "config": workload.config, "seed": seed,
            "out_dir": out_dir, "trace": trace, "setup_only": setup_only}
    spec["spawn_ns"] = time.clock_gettime_ns(time.CLOCK_MONOTONIC)
    argv = [sys.executable, os.path.join(HERE, "child.py"), json.dumps(spec)]
    try:
        proc = subprocess.run(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
                              timeout=max(timeout, 1.0))
    except subprocess.TimeoutExpired:  # run() has killed and reaped the child
        return {"error": f"timed out after {timeout:.0f} s"}
    if proc.returncode != 0:
        tail = proc.stderr.strip().splitlines()[-1:] or ["no output"]
        return {"error": f"exit code {proc.returncode}: {tail[0]}"}
    try:
        with open(os.path.join(out_dir, "result.json")) as fh:
            return json.load(fh)
    except (OSError, ValueError) as exc:
        return {"error": f"no result: {exc}"}


def normalize(result: dict) -> None:
    """Add result["ref"]: the child's times at the reference speed CALIB_REF_S.

    setup_s is scaled by CALIB_REF_S over the speed probe's time right after
    set-up; wall_s and cpu_s by CALIB_REF_S over the mean of the probes
    before and after the runner.
    """
    before = result["calib_before_s"]
    result["ref"] = {"setup_s": result["setup_s"] * CALIB_REF_S / before}
    if "wall_s" in result:
        around = (before + result["calib_after_s"]) / 2.0
        for name in ("wall_s", "cpu_s"):
            result["ref"][name] = result[name] * CALIB_REF_S / around


# -- report checks ---------------------------------------------------------------------


def report_digest(report_dir: str) -> tuple[str, int]:
    """sha256 over every file the runner wrote (names and bytes), and their total size."""
    h = hashlib.sha256()
    size = 0
    for name in sorted(os.listdir(report_dir)):
        with open(os.path.join(report_dir, name), "rb") as fh:
            data = fh.read()
        h.update(name.encode() + b"\0" + str(len(data)).encode() + b"\0" + data)
        size += len(data)
    return h.hexdigest(), size


def leaves(obj, path: str = "") -> dict[str, float]:
    """Numeric leaves of a JSON value, keyed by their path."""
    out: dict[str, float] = {}
    if isinstance(obj, dict):
        for k, v in obj.items():
            out.update(leaves(v, f"{path}.{k}" if path else k))
    elif isinstance(obj, list):
        for i, v in enumerate(obj):
            out.update(leaves(v, f"{path}[{i}]"))
    elif isinstance(obj, (int, float)):
        out[path] = float(obj)
    return out


def check_report(workload: Workload, seed: int, report_dir: str) -> tuple[list[str], dict]:
    """Schema and invariant problems of a main report, and its numeric leaves."""
    try:
        with open(os.path.join(report_dir, f"{workload.report}.json")) as fh:
            report = json.load(fh)
    except (OSError, ValueError) as exc:
        return [f"unreadable report: {exc}"], {}
    problems = [f"report lacks {k!r}" for k in HEADER_KEYS + workload.required if k not in report]
    if report.get("schema") != SCHEMA_VERSION:
        problems.append(f"schema {report.get('schema')!r}, expected {SCHEMA_VERSION}")
    if report.get("seed") != seed:
        problems.append(f"report seed {report.get('seed')!r}, expected {seed}")
    values = leaves(report)
    bad = [k for k, v in values.items() if not math.isfinite(v)]
    if bad:
        problems.append(f"{len(bad)} non-finite numbers, first {bad[0]}")
    if workload.runner == "run_domination" and not (
            report.get("passed") is True and report.get("failures") == 0):
        problems.append(f"domination battery failed: {report.get('failures')!r} failures")
    if workload.runner == "run_norms":
        sparse_ok = values.get("reports.discretized_sup.details.sparse_ok")
        if sparse_ok is not None and sparse_ok != 1.0:
            problems.append("discretized_sup family failed verify_sparse")
    return problems, values


def drift(values: dict[str, float], reference: dict[str, float]) -> float:
    """Largest relative difference over the leaves both reports carry."""
    worst = 0.0
    for key in values.keys() & reference.keys():
        a, b = values[key], reference[key]
        if a == b or (math.isnan(a) and math.isnan(b)):
            continue
        scale = max(abs(a), abs(b))
        worst = max(worst, abs(a - b) / scale if math.isfinite(scale) else math.inf)
    return worst


def load_reference(workload: Workload, seed: int) -> dict[str, float] | None:
    try:
        with open(os.path.join(REFERENCE, f"{workload.name}.json")) as fh:
            return json.load(fh).get(str(seed))
    except OSError:
        return None


def code_digest(workload: Workload) -> str:
    """sha256 of the workload's config and the program's sources: what a report depends on."""
    h = hashlib.sha256()
    paths = [workload.config] + sorted(
        os.path.join(d, f) for d, _, files in os.walk(SRC) for f in files if f.endswith(".py"))
    for path in paths:
        with open(path, "rb") as fh:
            h.update(os.path.relpath(path, SRC).encode() + b"\0" + fh.read())
    return h.hexdigest()


class Digests:
    """Report digests of earlier runs in this checkout, by program, workload and seed."""

    def __init__(self, path: str):
        self.path = path
        try:
            with open(path) as fh:
                self.known = json.load(fh)
        except (OSError, ValueError):
            self.known = {}

    def check(self, workload: Workload, seed: int, digest: str) -> str | None:
        key = f"{workload.name}/{seed}/{code_digest(workload)}"
        earlier = self.known.setdefault(key, digest)
        if earlier != digest:
            return "report bytes differ from an earlier run of this workload and seed"
        return None

    def save(self) -> None:
        with open(self.path, "w") as fh:
            json.dump(self.known, fh, indent=1, sort_keys=True)


# -- environment -----------------------------------------------------------------------


def git_commit(root: str = ROOT) -> str | None:
    """HEAD of the checkout, read from .git without running git; None outside a repository."""
    try:
        with open(os.path.join(root, ".git", "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = os.path.join(root, ".git", ref)
        if os.path.exists(path):
            with open(path) as fh:
                return fh.read().strip()
        with open(os.path.join(root, ".git", "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return None


def host_environment() -> dict:
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "thread_env": {k: os.environ[k] for k in THREAD_VARS if k in os.environ},
        "git_commit": git_commit(),
    }


# -- one workload ----------------------------------------------------------------------


def run_workload(workload: Workload, seed: int, seconds: float, trace: bool,
                 deadline: float) -> dict:
    """Measure one workload for about `seconds`; returns metrics, counts and diagnostics."""
    base = os.path.join(OUT, workload.name, f"seed{seed}-trace{int(trace)}")
    digests = Digests(os.path.join(OUT, "digests.json"))
    start = time.monotonic()
    runs: list[dict] = []
    problems: list[str] = []
    setup_runs: list[dict] = []  # set-up-only children
    drifts: list[float] = []
    reference = load_reference(workload, seed)

    def measured(tag: str, traced: bool) -> None:
        out_dir = os.path.join(base, tag)
        result = spawn(workload, seed, out_dir, trace=traced,
                       timeout=deadline - time.monotonic())
        found = [result["error"]] if "error" in result else []
        if not found:
            report_dir = os.path.join(out_dir, "report")
            found, values = check_report(workload, seed, report_dir)
            digest, result["report_bytes"] = report_digest(report_dir)
            mismatch = digests.check(workload, seed, digest)
            found += [mismatch] if mismatch else []
            found += result.get("problems", [])
            if reference is not None:
                drifts.append(drift(values, reference))
            normalize(result)
        result["traced"] = traced
        result["ok"] = not found
        problems.extend(f"{tag}: {p}" for p in found)
        runs.append(result)

    if not trace:
        for i in range(SETUP_SPAWNS):
            result = spawn(workload, seed, os.path.join(base, f"setup{i}"), setup_only=True,
                           timeout=deadline - time.monotonic())
            if "setup_s" in result:
                normalize(result)
                setup_runs.append(result)
    # closed loop: start another round only if it should end within the measuring time
    while True:
        round_start = time.monotonic()
        measured(f"run{len(runs)}", False)
        if trace:
            measured(f"run{len(runs) - 1}-traced", True)
        now = time.monotonic()
        if now - start + (now - round_start) > seconds or now + (now - round_start) > deadline:
            break
    digests.save()

    good = [r for r in runs if r["ok"]]
    plain = [r for r in good if not r["traced"]]
    traced = [r for r in good if r["traced"]]
    metrics: dict[str, tuple[float, str]] = {}
    raw: dict[str, float] = {}
    if not trace and plain:
        for name, unit in END_TO_END[:4]:
            group = setup_runs + plain if name == "setup_s" else plain
            # times at the reference speed; peak RSS as measured
            metrics[name] = (statistics.median(r["ref"].get(name, r[name]) for r in group), unit)
            raw[name] = statistics.median(r[name] for r in group)
        metrics["success_rate"] = (len(good) / len(runs), "ratio")
    elif trace and plain and traced:
        from tracing import LAYER_METRICS

        for name, unit in LAYER_METRICS:
            source = "report_bytes" if name == "scenarios.report_bytes" else None
            samples = [r[source] if source else r["layers"][name] for r in traced]
            metrics[name] = (statistics.median(samples), unit)
        overhead = statistics.median(r["ref"]["wall_s"] for r in traced) / statistics.median(
            r["ref"]["wall_s"] for r in plain) - 1.0
        metrics["trace_overhead_frac"] = (overhead, "ratio")
    return {
        "workload": workload.name,
        "seed": seed,
        "trace": int(trace),
        "attempted": len(runs),
        "failed": len(runs) - len(good),
        "problems": problems,
        "metrics": metrics,
        "raw": raw,
        "report_drift_rel": max(drifts) if drifts else None,
        "setup_runs": setup_runs,
        "runs": runs,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all", choices=["all", *WORKLOADS])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # turn SIGTERM into an exception, so subprocess.run kills and reaps the running child
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    if not os.path.isfile(os.path.join(SRC, "dyadlab", "scenarios.py")):
        print(f"no dyadlab sources under {SRC}: run from the root of a source checkout",
              file=sys.stderr)
        return 2
    deadline = time.monotonic() + DEADLINE_S
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    env = host_environment()
    os.makedirs(os.path.join(OUT, "results"), exist_ok=True)

    summaries = []
    for name in names:
        # split what is left of the deadline evenly over the workloads still to run
        share = (deadline - time.monotonic()) / (len(names) - len(summaries))
        summary = run_workload(WORKLOADS[name], args.seed, args.seconds, bool(args.trace),
                               time.monotonic() + share)
        child_env = next((r["env"] for r in summary["runs"] if "env" in r), {})
        summary["environment"] = {**env, **child_env}
        summaries.append(summary)
        path = os.path.join(OUT, "results", f"{name}-seed{args.seed}-trace{args.trace}.json")
        with open(path, "w") as fh:
            json.dump(summary, fh, indent=1)
        print(f"== {name} seed={args.seed} trace={args.trace}: "
              f"{summary['attempted'] - summary['failed']}/{summary['attempted']} runs passed, "
              f"fail_rate={summary['failed'] / summary['attempted']:.3g}")
        for problem in summary["problems"]:
            print(f"   FAILED {problem}")
        for metric, (value, unit) in summary["metrics"].items():
            as_measured = f" (as measured {summary['raw'][metric]!r} {unit})" \
                if metric in summary["raw"] else ""
            print(f"   {metric} = {value!r} {unit}{as_measured}")
        print(f"   report_drift_rel = {summary['report_drift_rel']!r} (diagnostic; "
              f"None without a reference for this seed; flagged above 1e-12)"
              + ("  ** DRIFT **" if (summary["report_drift_rel"] or 0.0) > 1e-12 else ""))
        print(f"   environment = {json.dumps(summary['environment'], sort_keys=True)}")

    if any(not s["metrics"] for s in summaries):
        print("no successful run to measure", file=sys.stderr)
        return 1
    prefix = len(summaries) > 1
    metrics = {
        (f"{s['workload']}.{m}" if prefix else m): {"value": v, "unit": u}
        for s in summaries for m, (v, u) in s["metrics"].items()
    }
    attempted = sum(s["attempted"] for s in summaries)
    failed = sum(s["failed"] for s in summaries)
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
