"""Print the sha256 of every report file the shipped configs and workloads write.

Usage:
    python tools/report_digests.py [--root CHECKOUT] [--compare OTHER_ROOT]

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

With `--compare OTHER_ROOT` both checkouts run, and for every file whose
sha256 differs the script prints one line instead,

    <drift>  <run>/<file>  <OTHER_ROOT's sha256> -> <ROOT's sha256>

where the drift is the largest relative change |a - b| / max(|a|, |b|) of
any number in the file (JSON, CSV or text alike: the text between the
numbers must be equal, or the drift is inf, as it is for a file only one
side writes).  It exits 1 when a drift exceeds 1e-12, the relative change
a float reordering may make to a report.

A run that exits non-zero prints `FAILED <run> exit <code>` in place of its
files, and the script then exits 1.
"""

from __future__ import annotations

import argparse
import glob
import hashlib
import math
import os
import re
import shutil
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
MAX_DRIFT = 1e-12

# a number as Python and numpy write it; the text around it is split off by re.split
NUMBER = re.compile(r"([-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?|\b(?:inf|Infinity|nan|NaN)\b)")


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


def write_tree(root: str, tree: str) -> list[str]:
    """Run every run of `root` into `tree/<run>/`; the `FAILED` line of each run that fails."""
    env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"))
    failed = []
    for name, args in runs(root):
        out = os.path.join(tree, name)
        os.makedirs(out)
        proc = subprocess.run([sys.executable, "-m", "dyadlab.cli", *args, "--out", out],
                              env=env, cwd=out, capture_output=True, text=True)
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            shutil.rmtree(out)
            failed.append(f"FAILED {name} exit {proc.returncode}")
    return failed


def digests(tree: str) -> dict[str, str]:
    """sha256 of every `<run>/<file>` in the tree."""
    out = {}
    for path in glob.glob(os.path.join(tree, "*", "*")):
        with open(path, "rb") as fh:
            out[os.path.relpath(path, tree)] = hashlib.sha256(fh.read()).hexdigest()
    return out


def _relative_change(a: float, b: float) -> float:
    if a == b or (math.isnan(a) and math.isnan(b)):
        return 0.0
    if not (math.isfinite(a) and math.isfinite(b)):
        return math.inf
    return abs(a - b) / max(abs(a), abs(b))


def drift(old: str, new: str) -> float:
    """Largest relative change of a number from file `old` to file `new` (inf if the
    text between the numbers differs)."""
    with open(old, "rb") as fa, open(new, "rb") as fb:
        try:
            a, b = NUMBER.split(fa.read().decode()), NUMBER.split(fb.read().decode())
        except UnicodeDecodeError:
            return math.inf
    if len(a) != len(b) or a[::2] != b[::2]:
        return math.inf
    return max((_relative_change(float(x), float(y)) for x, y in zip(a[1::2], b[1::2])),
               default=0.0)


def compare_trees(old: str, new: str) -> list[tuple[float, str]]:
    """(drift, output line) for every file whose sha256 differs between the two trees."""
    da, db = digests(old), digests(new)
    lines = []
    for name in sorted(da.keys() | db.keys()):
        sa, sb = da.get(name, "missing"), db.get(name, "missing")
        if sa != sb:
            d = drift(os.path.join(old, name), os.path.join(new, name)) if (
                name in da and name in db) else math.inf
            lines.append((d, f"{d:.3g}  {name}  {sa} -> {sb}"))
    return lines


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--root", default=HERE, help="checkout whose src/ and configs to run")
    parser.add_argument("--compare", metavar="OTHER_ROOT",
                        help="print the drift of every report that differs from OTHER_ROOT's")
    args = parser.parse_args(argv)
    root = os.path.abspath(args.root)
    with tempfile.TemporaryDirectory() as tmp:
        new = os.path.join(tmp, "root")
        failed = write_tree(root, new)
        if args.compare is None:
            lines = [f"{sha}  {name}" for name, sha in digests(new).items()]
            bad = False
        else:
            old = os.path.join(tmp, "other")
            failed += write_tree(os.path.abspath(args.compare), old)
            drifts = compare_trees(old, new)
            lines = [line for _, line in drifts]
            bad = any(d > MAX_DRIFT for d, _ in drifts)
    for line in sorted(lines + failed, key=lambda s: s.split()[1]):
        print(line)
    return 1 if failed or bad else 0


if __name__ == "__main__":
    sys.exit(main())
