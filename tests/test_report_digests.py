"""`tools/report_digests.py --compare` on two fabricated output trees."""

import importlib.util
import math
import pathlib
import shutil

import pytest

TOOL = pathlib.Path(__file__).resolve().parent.parent / "tools" / "report_digests.py"
_spec = importlib.util.spec_from_file_location("report_digests", TOOL)
report_digests = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(report_digests)


def _tree(root: pathlib.Path, files: dict[str, str]) -> pathlib.Path:
    for name, text in files.items():
        path = root / name
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text)
    return root


PARENT = {
    "norms/norms.json": '{"value": 1.25, "trace": [0.5, 1.0e-05, 3], "method": "ascent"}\n',
    "bloom/bloom.csv": "member,ratio\n0,2.5\n1,-4.0\n",
    "bloom/bloom.json": '{"ratio": [2.5, -4.0]}\n',
    "char/family.sparse.txt": "# gamma=0.5\n1 0 2\n",
}


@pytest.mark.parametrize("edit,want_drift,want_exit", [
    ({}, None, 0),
    ({"norms/norms.json": '{"value": 1.2500000000000002, "trace": [0.5, 1.0e-05, 3], '
      '"method": "ascent"}\n'}, 2 ** -52 / 1.2500000000000002, 0),
    ({"bloom/bloom.csv": "member,ratio\n0,2.5\n1,-4.000000004\n"}, 1e-9, 1),
    ({"char/family.sparse.txt": "# gamma=0.5\n1 0 2 \n"}, math.inf, 1),
    ({"norms/norms.json": None}, math.inf, 1),
], ids=["same", "float-reordering", "csv-above-bound", "text-differs", "missing"])
def test_compare_prints_the_drift_of_each_moved_file(tmp_path, monkeypatch, capsys, edit,
                                                     want_drift, want_exit):
    parent = _tree(tmp_path / "parent", PARENT)
    change = _tree(tmp_path / "change", {k: v for k, v in {**PARENT, **edit}.items() if v})
    # each checkout's tree is the fabricated one, in place of its dyadlab runs
    monkeypatch.setattr(report_digests, "write_tree",
                        lambda root, tree: shutil.copytree(root, tree) and [])
    code = report_digests.main(["--root", str(change), "--compare", str(parent)])
    lines = capsys.readouterr().out.splitlines()
    assert code == want_exit
    if want_drift is None:
        assert lines == []
        return
    (line,) = lines
    drift, name, old_sha, arrow, new_sha = line.split()
    assert name == next(iter(edit)) and arrow == "->"
    assert float(drift) == pytest.approx(want_drift, rel=1e-2)
    assert (new_sha == "missing") == (edit[name] is None)
