"""Every docstring example in the preordgrp modules runs as a test."""

import doctest
import importlib
import pkgutil

import pytest

import preordgrp

# __main__ runs the command line on import
MODULES = sorted(m.name for m in pkgutil.iter_modules(preordgrp.__path__,
                                                      "preordgrp.")
                 if m.name != "preordgrp.__main__")


@pytest.mark.parametrize("name", MODULES)
def test_module_doctests(name):
    result = doctest.testmod(importlib.import_module(name))
    assert result.failed == 0, f"{result.failed} of {result.attempted} failed"


def test_doctests_are_found():
    finder = doctest.DocTestFinder()
    found = [t for name in MODULES
             for t in finder.find(importlib.import_module(name)) if t.examples]
    assert len(found) >= 19
