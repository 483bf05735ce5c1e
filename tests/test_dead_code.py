"""Every function is used: each function or method defined in the package
is referenced somewhere in the package or the benchmark, not only by the
tests, save the few listed in ALLOWED with their reason."""

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
            if isinstance(node, ast.Name):
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


def test_every_function_is_referenced():
    functions = defined_functions()
    assert sorted(set(ALLOWED) - functions) == []  # no stale entry
    names = referenced_names()
    unused = sorted(f for f in functions - set(ALLOWED) if f.partition(".")[2] not in names)
    assert unused == []
