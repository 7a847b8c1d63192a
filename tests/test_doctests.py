"""Run the docstring examples of every lucasdensity module."""

import doctest
import importlib
import pkgutil

import pytest

import lucasdensity

MODULES = sorted(
    f"lucasdensity.{info.name}" for info in pkgutil.iter_modules(lucasdensity.__path__)
)


@pytest.mark.parametrize("name", MODULES)
def test_module_doctests(name):
    result = doctest.testmod(importlib.import_module(name))
    assert result.failed == 0, name


def test_doctests_are_collected():
    finder = doctest.DocTestFinder()
    examples = sum(
        len(test.examples)
        for name in MODULES
        for test in finder.find(importlib.import_module(name))
    )
    assert examples >= 19
