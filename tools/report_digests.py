"""Print the sha256 of every report file the shipped configs and workloads write.

Usage:
    python tools/report_digests.py [--root CHECKOUT]

Each run is one `dyadlab` command in its own process, writing into a fresh
temporary directory; the output is one sorted `sha256  <run>/<file>` line
per file written.  The runs are every `configs/*.cfg` at its own seed
(through its own command and through `char`), `char` (with and without
`--no-sweep`) and `norms` with defaults, `char` on `configs/bloom.cfg`
at d = 2 (the power weights' quadrature through `ap_characteristic`), and every
`perfbench/workloads/*.cfg` at seed 1 (only read).  Two checkouts write
the same bytes exactly when `diff` of their outputs is empty:

    python tools/report_digests.py --root ../parent > parent.txt
    python tools/report_digests.py > change.txt
    diff parent.txt change.txt

A run that exits non-zero prints `FAILED <run> exit <code>` in place of its
files, and the script then exits 1.
"""

from __future__ import annotations

import argparse
import glob
import hashlib
import os
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def runs(root: str) -> list[tuple[str, list[str]]]:
    """(run name, dyadlab arguments) for every run, in a fixed order."""
    out = []
    for path in sorted(glob.glob(os.path.join(root, "configs", "*.cfg"))):
        stem = os.path.splitext(os.path.basename(path))[0]
        out.append((f"configs-{stem}", [stem, "--config", path]))
        out.append((f"configs-{stem}-char", ["char", "--config", path]))
    out += [("char", ["char"]), ("char-no-sweep", ["char", "--no-sweep"]), ("norms", ["norms"])]
    bloom = os.path.join(root, "configs", "bloom.cfg")
    out.append(("configs-bloom-char-d2",
                ["char", "--config", bloom, "--dim", "2", "--no-sweep"]))
    for path in sorted(glob.glob(os.path.join(root, "perfbench", "workloads", "*.cfg"))):
        stem = os.path.splitext(os.path.basename(path))[0]
        out.append((f"workload-{stem}", [stem.split("-")[0], "--config", path, "--seed", "1"]))
    return out


def digest_run(root: str, name: str, args: list[str]) -> list[tuple[str, str]]:
    """(run/file, output line) for every file the run writes."""
    env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"))
    with tempfile.TemporaryDirectory() as out:
        proc = subprocess.run([sys.executable, "-m", "dyadlab.cli", *args, "--out", out],
                              env=env, cwd=out, capture_output=True, text=True)
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            return [(name, f"FAILED {name} exit {proc.returncode}")]
        lines = []
        for file in os.listdir(out):
            with open(os.path.join(out, file), "rb") as fh:
                lines.append((f"{name}/{file}", f"{hashlib.sha256(fh.read()).hexdigest()}  {name}/{file}"))
        return lines


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--root", default=HERE, help="checkout whose src/ and configs to run")
    root = os.path.abspath(parser.parse_args(argv).root)
    lines = sorted(item for name, args in runs(root) for item in digest_run(root, name, args))
    for _, line in lines:
        print(line)
    return 1 if any(line.startswith("FAILED") for _, line in lines) else 0


if __name__ == "__main__":
    sys.exit(main())
