"""The package's only runtime dependency is numpy."""

import ast
import pathlib
import sys

SRC = pathlib.Path(__file__).resolve().parents[1] / "src" / "normreg"


def test_runtime_imports_are_numpy_or_stdlib():
    modules = set()
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), filename=str(path))):
            if isinstance(node, ast.Import):
                modules.update(alias.name.split(".")[0] for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                modules.add(node.module.split(".")[0])
    assert modules, f"no imports found under {SRC}"
    assert modules - set(sys.stdlib_module_names) <= {"numpy"}
