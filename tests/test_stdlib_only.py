"""fgrow runs on the Python standard library alone."""

import ast
import os
import pathlib
import subprocess
import sys

SRC = pathlib.Path(__file__).resolve().parent.parent / "src"


def absolute_imports(path):
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module


def test_fgrow_imports_only_the_standard_library():
    outside = [
        (path.name, name)
        for path in sorted((SRC / "fgrow").glob("*.py"))
        for name in absolute_imports(path)
        if name.partition(".")[0] not in sys.stdlib_module_names
    ]
    assert outside == []
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    probe = "import sys, fgrow.cli; print('numpy' in sys.modules)"
    done = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True
    )
    assert done.stdout == "False\n"
