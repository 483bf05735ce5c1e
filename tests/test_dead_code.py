"""Every function, class and constant is used: each function or method
defined in the package, and each class or constant at a module's top
level, is referenced somewhere in the package or the benchmark, not only
by the tests, save the few listed in ALLOWED with their reason."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "mindrec"

# module.function -> why it may stay with no reference in src/ or perfbench/
ALLOWED = {
    "experiment.serialize_config": "the config schema's round-trip oracle: tests check that "
                                   "parse_config reads back every field it writes",
    "cli.main": "the entry point: `python -m mindrec.cli` and the `mindrec` script call it",
}


def referenced_names():
    """Every name loaded, every attribute read, and every string passed to
    a call (as to `getattr`, or to the benchmark's tracer wrapping a
    function by name) in the package and the benchmark.  Import lists and
    `__all__` do not count: re-exporting a function is not using it."""
    names = set()
    for path in [*PACKAGE.glob("*.py"), *(ROOT / "perfbench").glob("*.py")]:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
            elif isinstance(node, ast.Call):
                names.update(arg.value for arg in node.args
                             if isinstance(arg, ast.Constant) and isinstance(arg.value, str))
    return names


def defined_functions():
    """module.name of every function and method in the package, nested
    ones included; dunder methods are left out, as Python calls them."""
    return {f"{path.stem}.{node.name}"
            for path in PACKAGE.glob("*.py")
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
            and not (node.name.startswith("__") and node.name.endswith("__"))}


def defined_classes_and_constants():
    """module.name of every class and every name assigned at the top level
    of a package module, `__all__` left out."""
    defined = set()
    for path in PACKAGE.glob("*.py"):
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            if isinstance(node, ast.ClassDef):
                defined.add(f"{path.stem}.{node.name}")
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                defined.update(f"{path.stem}.{name.id}" for target in targets
                               for name in ast.walk(target)
                               if isinstance(name, ast.Name) and name.id != "__all__")
    return defined


def test_every_function_is_referenced():
    functions = defined_functions()
    assert sorted(set(ALLOWED) - functions) == []  # no stale entry
    names = referenced_names()
    unused = sorted(f for f in functions - set(ALLOWED) if f.partition(".")[2] not in names)
    assert unused == []


def test_every_class_and_constant_is_referenced():
    defined = defined_classes_and_constants()
    assert "cli.SET_FIELDS" in defined and "errors.MindrecError" in defined
    names = referenced_names()
    assert sorted(d for d in defined if d.partition(".")[2] not in names) == []


def test_every_import_is_used():
    """Each name a package module imports at its top level is read in that
    module or listed in its `__all__`."""
    unused = []
    for path in PACKAGE.glob("*.py"):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        imported = {(alias.asname or alias.name).partition(".")[0]
                    for statement in tree.body if isinstance(statement, (ast.Import, ast.ImportFrom))
                    for alias in statement.names}
        read = {node.id for node in ast.walk(tree)
                if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store)}
        exported = {element.value for statement in tree.body if isinstance(statement, ast.Assign)
                    and any(isinstance(t, ast.Name) and t.id == "__all__" for t in statement.targets)
                    for element in statement.value.elts}
        unused += [f"{path.stem}.{name}" for name in imported - read - exported]
    assert sorted(unused) == []
