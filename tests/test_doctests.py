"""The docstring examples of every fgrow module run and pass."""

import doctest
import importlib
import pkgutil

import pytest

import fgrow

MODULES = ["fgrow"] + [f"fgrow.{m.name}" for m in pkgutil.iter_modules(fgrow.__path__)]


@pytest.mark.parametrize("name", MODULES)
def test_module_doctests(name):
    failures, _ = doctest.testmod(importlib.import_module(name))
    assert failures == 0
