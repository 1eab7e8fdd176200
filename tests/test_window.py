"""The window width is one fixed fact, ``cones.WINDOW``.

Predicates that fall back to a window scan read it themselves; only the
two functions that list a window take a ``width`` parameter.
"""

import ast
import importlib
import inspect
from pathlib import Path

from preordgrp import cones

MODULES = ("cones", "pog", "torsion", "factor", "descent", "oracle")

TAKES_WIDTH = {"cones.group_window", "cones.cone_window"}


def _functions(module):
    """(qualified name, function) for every function and method the module
    defines; cached functions are unwrapped."""
    for name, obj in vars(module).items():
        if getattr(obj, "__module__", None) != module.__name__:
            continue
        if inspect.isclass(obj):
            for attr, member in vars(obj).items():
                if inspect.isfunction(member):
                    yield f"{name}.{attr}", member
        elif callable(obj):
            yield name, inspect.unwrap(obj)


def test_only_the_window_checks_take_a_width():
    found = set()
    for short in MODULES:
        module = importlib.import_module(f"preordgrp.{short}")
        for name, fn in _functions(module):
            if "width" in inspect.signature(fn).parameters:
                found.add(f"{short}.{name}")
    assert found == TAKES_WIDTH


def _window_callers():
    """(module, function) around every ``cone_window(`` call in ``src/``."""
    found = set()
    for path in sorted(Path(cones.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text())
        for fn in ast.walk(tree):
            if not isinstance(fn, ast.FunctionDef):
                continue
            for node in ast.walk(fn):
                if isinstance(node, ast.Call) and getattr(
                        node.func, "id", None) == "cone_window":
                    found.add((path.stem, fn.name))
    return found


def test_one_entry_point_to_the_window():
    assert _window_callers() == {("cones", "deciding_members")}
    for short in ("pog", "torsion", "descent"):
        tree = ast.parse(Path(cones.__file__).with_name(
            f"{short}.py").read_text())
        imported = {alias.name for node in ast.walk(tree)
                    if isinstance(node, ast.ImportFrom)
                    for alias in node.names}
        assert not imported & {"WINDOW", "cone_window", "group_window"}, short


def test_one_window_constant():
    pog = importlib.import_module("preordgrp.pog")
    assert cones.WINDOW == 8
    assert not hasattr(pog, "DEFAULT_WINDOW")
