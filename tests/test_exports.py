"""Every name fgrow exports exists, and each has one import path: a
deletion that leaves a stale ``__all__`` entry behind fails here, by
name, and so does a re-export added to the package root."""

import ast
import importlib
import pathlib

import pytest

PACKAGE = pathlib.Path(__file__).resolve().parent.parent / "src" / "fgrow"
MODULES = sorted(p.stem for p in PACKAGE.glob("*.py") if p.stem != "__init__")


@pytest.mark.parametrize("name", MODULES)
def test_module_all_names_exist(name):
    module = importlib.import_module(f"fgrow.{name}")
    missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
    assert missing == []


def test_package_root_imports_nothing():
    # names are imported from the submodules; the root holds __version__
    tree = ast.parse((PACKAGE / "__init__.py").read_text(encoding="utf-8"))
    imports = [
        ast.unparse(node)
        for node in ast.walk(tree)
        if isinstance(node, (ast.Import, ast.ImportFrom))
    ]
    assert imports == []
