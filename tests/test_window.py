"""No verdict of the package rests on a window scan.

Every cone predicate is decided exactly on linear pieces, so no module of
``src/`` defines or calls a window.  The window lives on in
``tests/conftest.py`` only, as the brute-force reference of the tests.
"""

import ast
import importlib
import inspect
from pathlib import Path

import conftest
from preordgrp import cli, cones

MODULES = ("cones", "pog", "torsion", "factor", "descent", "oracle")

WINDOW_NAMES = {"WINDOW", "cone_window", "group_window", "deciding_members"}


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
    for module in [importlib.import_module(f"preordgrp.{short}")
                   for short in MODULES] + [conftest]:
        short = module.__name__.rsplit(".", 1)[-1]
        for name, fn in _functions(module):
            if "width" in inspect.signature(fn).parameters:
                found.add(f"{short}.{name}")
    assert found == {"conftest.group_window", "conftest.cone_window"}


def _window_names(path):
    """Window names the module at ``path`` defines, assigns, imports or
    reads."""
    found = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            found.add(node.name)
        elif isinstance(node, ast.Name):
            found.add(node.id)
        elif isinstance(node, ast.Attribute):
            found.add(node.attr)
        elif isinstance(node, ast.alias):
            found.add(node.name)
    return found & WINDOW_NAMES


def test_one_entry_point_to_the_window():
    # the test-side reference is the only one
    paths = sorted(Path(cones.__file__).parent.glob("*.py"))
    assert len(paths) > len(MODULES)
    assert {path.stem: _window_names(path) for path in paths
            if _window_names(path)} == {}
    assert _window_names(Path(conftest.__file__)) == {"cone_window",
                                                       "group_window"}


def test_one_window_constant():
    # ``--window`` is echoed in every report; no computation reads it
    assert cli.build_parser().parse_args(["validate"]).window == 8
    assert not WINDOW_NAMES & set(vars(cones))
