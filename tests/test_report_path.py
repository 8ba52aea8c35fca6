"""Every top-level function, class and module-level name of the package, and
every method of its classes, is on a path that `src` uses.

A name that no other package code references is either kept on purpose,
with its reason in `KEPT`, or belongs beside the tests that use it.  The
scan reads the modules with `ast`: `__init__.py` only re-exports, and
`cli.py` defines no library names but does reference the runners.  A
module-level name is each name a top-level assignment binds, one per
element of a tuple target, and counts as referenced when read outside
that assignment.  A method is `Class.name` here and counts as referenced
when any attribute of that name is used (`x.name`; a bare `name` is a
module-level name or a local, never the method), so methods sharing a
name vouch for each other; dunder methods and names are skipped, since
Python uses them.

A defaulted parameter of a module-level function is one that some `src`
call passes, by position or by keyword (a call with `*args` or `**kwargs`
passes them all), unless it is in `TEST_PARAMETERS` with its reason;
the functions in `KEPT` are exempt, as is `cli.py`.

Lebesgue measure is `Weight.lebesgue(tree)`: no parameter or dataclass
field of the package takes `None` for it, but for those in
`OPTIONAL_MEASURES`, each with its reason.

A run writes its files in one place, `scenarios.write_report`: no other
code of the package calls `open` in a mode that writes.
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
    "power_weight_cube_lower_bound": ITEM_5,
    "maximal": ITEM_5,
    "family_from_text": "reads back the sparse-family certificates the reports write",
    "paraproduct": PUBLIC,
    "paraproduct_adjoint": PUBLIC,
    "commutator": PUBLIC,
    "hilbert_transform": PUBLIC,
}

ITEM_6 = "None as Lebesgue measure, still read by the benchmark's self-test and trace check"
OPTIONAL_MEASURES = {
    "empirical_operator_norm.mu": ITEM_6,
    "empirical_operator_norm.lam": ITEM_6,
}

SCOPES = "items 15 and 16 read both scopes"
TEST_PARAMETERS = {
    "ap_characteristic.scope": SCOPES,
    "bmo_alpha_norm.scope": SCOPES,
    "kernel_lags.spec": "item 8's Riesz kernels",
    "discretized_sharp_sup.gamma": "tests vary the sparseness constant",
}


def _modules() -> dict[str, ast.Module]:
    return {p.name: ast.parse(p.read_text()) for p in sorted(SRC.glob("*.py"))
            if p.name != "__init__.py"}


def _bound_names(node: ast.stmt) -> list[str]:
    """The names a top-level assignment binds, tuple targets unpacked."""
    targets = node.targets if isinstance(node, ast.Assign) else [node.target]
    return [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]


def _definitions(modules: dict[str, ast.Module]):
    """(key, identifier, module, node) per top-level function, class or assigned
    name and per method, dunders aside."""
    for name, tree in modules.items():
        if name == "cli.py":
            continue
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                yield node.name, node.name, name, node
            if isinstance(node, (ast.Assign, ast.AnnAssign)):
                for ident in _bound_names(node):
                    if not ident.startswith("__"):
                        yield ident, ident, name, node
            if isinstance(node, ast.ClassDef):
                for item in node.body:
                    if isinstance(item, ast.FunctionDef) and not item.name.startswith("__"):
                        yield f"{node.name}.{item.name}", item.name, name, item


def _unreferenced() -> set[str]:
    modules = _modules()
    defs = {key: (ident, home, {id(n) for n in ast.walk(node)})
            for key, ident, home, node in _definitions(modules)}
    keys_of: dict[str, list[str]] = {}
    for key, (ident, _, _) in defs.items():
        keys_of.setdefault(ident, []).append(key)
    seen = set()
    for name, tree in modules.items():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                ident = node.id
            elif isinstance(node, ast.Attribute):
                ident = node.attr
            else:
                continue
            for key in keys_of.get(ident, ()):
                if "." in key and isinstance(node, ast.Name):
                    continue  # a method is reached only as an attribute
                _, home, body = defs[key]
                if home != name or id(node) not in body:  # a call from its own body does not count
                    seen.add(key)
    return set(defs) - seen


def test_every_unreferenced_name_is_kept_on_purpose():
    assert sorted(_unreferenced() - set(KEPT)) == []


def test_every_kept_name_is_still_unreferenced():
    """A kept name that gains a caller in `src` leaves `KEPT`."""
    assert sorted(set(KEPT) - _unreferenced()) == []


def _optional_measures() -> set[str]:
    """`owner.name` of every parameter and class field annotated `Weight | None`."""
    optional = {"Weight | None", "None | Weight", "Optional[Weight]"}
    found = set()
    for tree in _modules().values():
        for node in ast.walk(tree):
            if isinstance(node, ast.FunctionDef):
                args = node.args
                named = [(a.arg, a.annotation)
                         for a in args.posonlyargs + args.args + args.kwonlyargs]
            elif isinstance(node, ast.ClassDef):
                named = [(item.target.id, item.annotation) for item in node.body
                         if isinstance(item, ast.AnnAssign) and isinstance(item.target, ast.Name)]
            else:
                continue
            for name, annotation in named:
                if annotation is not None and ast.unparse(annotation).strip("'\"") in optional:
                    found.add(f"{node.name}.{name}")
    return found


def test_lebesgue_measure_is_a_weight():
    assert sorted(_optional_measures()) == sorted(OPTIONAL_MEASURES)


def _file_writers() -> set[str]:
    """`module.function` of every top-level function or class whose body calls
    `open` in a mode that writes, or in a mode that is not a string literal."""
    found = set()
    for name, tree in _modules().items():
        for top in tree.body:
            for node in ast.walk(top):
                if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                        and node.func.id == "open"):
                    continue
                modes = node.args[1:2] + [k.value for k in node.keywords if k.arg == "mode"]
                mode = modes[0] if modes else ast.Constant("r")
                if not isinstance(mode, ast.Constant) or set(str(mode.value)) & set("wax+"):
                    found.add(f"{name[:-3]}.{getattr(top, 'name', '<module>')}")
    return found


def test_only_write_report_writes_files():
    assert sorted(_file_writers()) == ["scenarios.write_report"]


def _test_only_parameters() -> set[str]:
    """`function.name` of every defaulted parameter of a module-level function
    outside `KEPT` and `cli.py` that no call in `src` passes."""
    modules = _modules()
    defaulted = {}
    for name, tree in modules.items():
        for node in tree.body:
            if name == "cli.py" or not isinstance(node, ast.FunctionDef) or node.name in KEPT:
                continue
            args = node.args
            positional = [a.arg for a in args.posonlyargs + args.args]
            named = positional[len(positional) - len(args.defaults):] if args.defaults else []
            named += [a.arg for a, d in zip(args.kwonlyargs, args.kw_defaults) if d is not None]
            for arg in named:
                defaulted[f"{node.name}.{arg}"] = (node.name, arg, positional)
    passed = set()
    for tree in modules.values():
        for call in ast.walk(tree):
            if not isinstance(call, ast.Call):
                continue
            callee = getattr(call.func, "id", getattr(call.func, "attr", None))
            keywords = {k.arg for k in call.keywords}
            every = None in keywords or any(isinstance(a, ast.Starred) for a in call.args)
            for key, (function, arg, positional) in defaulted.items():
                if function == callee and (every or arg in keywords or (
                        arg in positional and positional.index(arg) < len(call.args))):
                    passed.add(key)
    return set(defaulted) - passed


def test_no_test_only_parameters():
    assert sorted(_test_only_parameters()) == sorted(TEST_PARAMETERS)
