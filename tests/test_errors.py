"""Every error class is raised: each class in mindrec.errors is built
somewhere in the package, or is the base of a class that is."""

import ast
import inspect
from pathlib import Path

from mindrec import errors

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "mindrec"


def constructed_names():
    """Names called anywhere in the package outside errors.py; a raise
    builds its error by calling the class, directly or in a helper."""
    names = set()
    for path in PACKAGE.glob("*.py"):
        if path.name == "errors.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Call):
                func = node.func
                names.add(func.id if isinstance(func, ast.Name) else getattr(func, "attr", None))
    return names


def test_every_error_class_is_raised():
    classes = [cls for _, cls in inspect.getmembers(errors, inspect.isclass)
               if cls.__module__ == errors.__name__]
    assert classes
    built = constructed_names()
    dead = [cls.__name__ for cls in classes
            if not any(issubclass(other, cls) and other.__name__ in built for other in classes)]
    assert dead == []
