"""Every top-level function and class of the package is on a path that `src` uses.

A name that no other package code references is either kept on purpose,
with its reason in `KEPT`, or belongs beside the tests that use it.  The
scan reads the modules with `ast`: `__init__.py` only re-exports, and
`cli.py` defines no library names but does reference the runners.
"""

import ast
import pathlib

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "dyadlab"

ITEM_3 = "the lower-bound half of the paper, to be wired into the reports"
ITEM_5 = "the d = 2 shifted scope, to be wired into the reports"
PUBLIC = "a public operator of the paper"
KEPT = {
    "commutator_test_pairs": ITEM_3,
    "sequential_testing_functional": ITEM_3,
    "q_ge_p_testing": ITEM_3,
    "weight_necessity_bound": ITEM_3,
    "one_third_cover": ITEM_5,
    "power_weight_cube_lower_bound": ITEM_5,
    "maximal": ITEM_5,
    "family_from_text": "reads back the sparse-family certificates the reports write",
    "paraproduct": PUBLIC,
    "paraproduct_adjoint": PUBLIC,
    "commutator": PUBLIC,
    "hilbert_transform": PUBLIC,
}


def _modules() -> dict[str, ast.Module]:
    return {p.name: ast.parse(p.read_text()) for p in sorted(SRC.glob("*.py"))
            if p.name != "__init__.py"}


def _unreferenced() -> set[str]:
    modules = _modules()
    defs = {
        node.name: (name, {id(n) for n in ast.walk(node)})
        for name, tree in modules.items() if name != "cli.py"
        for node in tree.body if isinstance(node, (ast.FunctionDef, ast.ClassDef))
    }
    seen = set()
    for name, tree in modules.items():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                ident = node.id
            elif isinstance(node, ast.Attribute):
                ident = node.attr
            else:
                continue
            if ident not in defs:
                continue
            home, body = defs[ident]
            if home != name or id(node) not in body:  # a call from its own body does not count
                seen.add(ident)
    return set(defs) - seen


def test_every_unreferenced_name_is_kept_on_purpose():
    assert sorted(_unreferenced() - set(KEPT)) == []


def test_every_kept_name_is_still_unreferenced():
    """A kept name that gains a caller in `src` leaves `KEPT`."""
    assert sorted(set(KEPT) - _unreferenced()) == []
