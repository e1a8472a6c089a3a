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


def _unused_imports(source: str) -> list[str]:
    """Module-level imports that nothing in the module reads.

    Lines marked `# noqa: F401` are kept on purpose and not reported.
    """
    tree = ast.parse(source)
    lines = source.splitlines()
    bound = {}
    for node in tree.body:
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if "# noqa: F401" in lines[node.lineno - 1]:
            continue
        for alias in node.names:
            name = alias.asname or alias.name.split(".")[0]
            bound[name] = alias.lineno
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"line {line}: {name}" for name, line in sorted(bound.items()) if name not in read]


def test_every_module_level_import_is_used():
    unused = {}
    for path in sorted(SRC.glob("*.py")):
        if path.name == "__init__.py":  # its imports are the package's exports
            continue
        found = _unused_imports(path.read_text(encoding="utf-8"))
        if found:
            unused[path.name] = found
    assert not unused, f"unused imports: {unused}"


def test_the_unused_import_check_sees_a_stray_name():
    source = "import math\nfrom os import path, sep\nfrom re import sub  # noqa: F401\nsep\n"
    assert _unused_imports(source) == ["line 1: math", "line 2: path"]
