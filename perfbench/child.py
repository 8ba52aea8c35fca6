"""One measured run of one workload, in a fresh process.

Usage: python3 perfbench/child.py '<json spec>'   (spawned by run.py)

The spec names the source tree, the workload's runner and config, the seed,
the output directory, whether to trace, and the monotonic time at which
the parent spawned this process.  The child imports numpy and dyadlab,
parses the config (all of which is `setup_s`), then calls the scenario
runner (`wall_s`, `cpu_s`) and writes its measurements to `result.json`
in the output directory.  Peak RSS is this process's own `RUSAGE_SELF`
high-water mark, so a large earlier workload cannot leak into it.
"""

from __future__ import annotations

import json
import os
import resource
import sys
import time


def _cpu_s() -> float:
    ru = resource.getrusage(resource.RUSAGE_SELF)
    return ru.ru_utime + ru.ru_stime


def calibrate(rounds: int = 3) -> float:
    """Median seconds of a fixed probe: the host's speed when the probe ran.

    The host's speed drifts by up to 1.6x over seconds to minutes.  The
    probe mixes what the program and its set-up spend time on: interpreter
    work, small and 32k-element numpy calls, and unmarshalling code as an
    import does.  Its arrays take under 1 MiB, so it adds nothing to the
    runner's peak RSS, and it allocates no large temporaries, so the
    allocator state the runner left does not change its time.
    """
    import marshal

    import numpy as np

    small = np.linspace(0.0, 1.0, 256)
    mid = np.linspace(0.0, 1.0, 1 << 15)
    mid_out = np.empty_like(mid)
    with open(__file__) as fh:
        code = marshal.dumps(compile(fh.read(), __file__, "exec"))
    times = []
    for _ in range(rounds + 1):  # the first round warms up and is dropped
        t0 = time.perf_counter()
        acc = 0.0
        for i in range(1200):
            acc += sum(j * i for j in range(40))
            acc += float(np.abs(small - i).sum())
        for i in range(240):
            np.multiply(mid, float(i), out=mid_out)
            np.sqrt(mid_out, out=mid_out)
        for _ in range(150):
            marshal.loads(code)
        times.append(time.perf_counter() - t0)
    return sorted(times[1:])[rounds // 2]


def _blas_threads():
    """Thread count of the BLAS library numpy loaded, or None if it cannot be asked."""
    import ctypes

    try:
        with open("/proc/self/maps") as fh:
            paths = {line.split()[-1] for line in fh if "blas" in line.lower() and "/" in line}
    except OSError:
        return None
    for path in sorted(paths):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for symbol in ("openblas_get_num_threads", "scipy_openblas_get_num_threads64_",
                       "openblas_get_num_threads64_", "MKL_Get_Max_Threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                fn.argtypes = []
                return int(fn())
    return None


def environment() -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "blas": {k: blas.get(k) for k in ("name", "version", "openblas configuration") if k in blas},
        "blas_threads": _blas_threads(),
    }


def check_trace(tracer) -> list[str]:
    """Re-evaluate every estimator certificate and re-verify every sparse family."""
    import numpy as np

    from dyadlab.sparse import verify_sparse

    problems = []
    for i, e in enumerate(tracer.estimates):
        a = e.arguments
        tree, mu, lam, p, q = a["tree"], a["mu"], a["lam"], a["p"], a["q"]
        mum = mu.cell_mass if mu is not None else np.full(tree.shape, tree.cell_volume)
        lamm = lam.cell_mass if lam is not None else np.full(tree.shape, tree.cell_volume)
        v = np.asarray(e.report.certificate, dtype=float)
        num = float((np.abs(a["U"].apply(v)) ** q * lamm).sum() ** (1.0 / q))
        den = float((np.abs(v) ** p * mum).sum() ** (1.0 / p))
        value = num / den if den > 0.0 else 0.0
        reported = float(e.report.value)
        if not abs(value - reported) <= 1e-12 * max(abs(reported), 1e-300):
            problems.append(f"estimate {i}: certificate gives {value!r}, report says {reported!r}")
    for i, family in enumerate(tracer.families):
        ok, worst = verify_sparse(family)
        if not ok:
            problems.append(f"sparse family {i} fails verify_sparse (worst ratio {worst!r})")
    return problems


def main(argv: list[str]) -> int:
    spec = json.loads(argv[1])
    sys.path.insert(0, spec["src"])
    from dataclasses import replace

    import numpy  # noqa: F401  (part of set-up, whatever the runner imports later)
    from dyadlab import scenarios

    with open(spec["config"]) as fh:
        cfg = scenarios.parse_config(fh.read())
    cfg = replace(cfg, seed=spec["seed"], out_dir=os.path.join(spec["out_dir"], "report"))
    entry = time.clock_gettime_ns(time.CLOCK_MONOTONIC)
    result = {"setup_s": (entry - spec["spawn_ns"]) / 1e9, "calib_before_s": calibrate()}

    if not spec["setup_only"]:
        tracer = None
        if spec["trace"]:
            from tracing import Tracer

            tracer = Tracer().install()
        cpu0, t0 = _cpu_s(), time.perf_counter()
        getattr(scenarios, spec["runner"])(cfg)
        wall = time.perf_counter() - t0
        cpu = _cpu_s() - cpu0
        peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        result.update(wall_s=wall, cpu_s=cpu, peak_rss_mib=peak, calib_after_s=calibrate(),
                      env=environment())
        if tracer is not None:
            tracer.uninstall()
            result["layers"] = tracer.metrics()
            result["spans"] = tracer.span_table()
            result["problems"] = check_trace(tracer)

    with open(os.path.join(spec["out_dir"], "result.json"), "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
