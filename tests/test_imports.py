"""The package's only runtime dependency is numpy."""

import ast
import json
import os
import pathlib
import subprocess
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


def _private_names(tree: ast.Module) -> list[str]:
    """The module-level private functions, classes and constants of a
    module, an unpacked assignment's names included. A decorated definition
    is left out: its decorator reads it."""
    names = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            if not node.decorator_list:
                names.append(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names += [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
    return [name for name in names if name.startswith("_") and not name.startswith("__")]


def _unread_private_names(sources: dict[str, str]) -> list[str]:
    """Module-level private names that nothing in the package reads.

    A name counts as read when its own module loads it, or when any module
    reads it as an attribute (module._name) or imports it by name."""
    trees = {module: ast.parse(text) for module, text in sources.items()}
    shared = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute):
                shared.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                shared.update(alias.name for alias in node.names)
    unread = []
    for module, tree in trees.items():
        loaded = {
            node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
        }
        unread += [
            f"{module}: {name}" for name in _private_names(tree)
            if name not in loaded and name not in shared
        ]
    return unread


def test_every_module_level_private_name_is_read():
    # a helper that a refactor leaves behind shows up here
    sources = {path.name: path.read_text(encoding="utf-8") for path in sorted(SRC.glob("*.py"))}
    assert not _unread_private_names(sources)


def test_the_private_name_check_sees_a_stray_name():
    sources = {
        "a.py": "_A = 1\n_B, _C = 2, 3\ndef _f():\n    return _B\n"
                "@register\ndef _g():\n    pass\nclass _K:\n    pass\ndef _h():\n    pass\n",
        "b.py": "from a import _h\nimport a\na._K\n",
    }
    assert _unread_private_names(sources) == ["a.py: _A", "a.py: _C", "a.py: _f"]


# Counts the ArgumentParsers constructed in a fresh interpreter: on importing
# normreg.cli, then after each of two calls of main.
_PARSER_PROBE = """
import argparse
import json
built = 0
init = argparse.ArgumentParser.__init__

def counted(self, *args, **kwargs):
    global built
    built += 1
    init(self, *args, **kwargs)

argparse.ArgumentParser.__init__ = counted
import normreg.cli
counts = [built]
for _ in range(2):
    normreg.cli.main(["--version"])
    counts.append(built)
print(json.dumps(counts))
"""


def test_the_cli_builds_its_parser_on_the_first_call_only():
    # importing normreg.cli builds nothing (its import time is the
    # benchmark's setup_s); main builds the parser, subparsers included, once
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(SRC.parent), *filter(None, [os.environ.get("PYTHONPATH")])]))
    done = subprocess.run([sys.executable, "-c", _PARSER_PROBE], env=env,
                          capture_output=True, text=True, check=True)
    imported, once, twice = json.loads(done.stdout.splitlines()[-1])
    assert imported == 0
    assert once > 0 and twice == once
