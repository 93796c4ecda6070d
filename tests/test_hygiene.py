"""Source hygiene: every name a library module imports is used there."""
from __future__ import annotations

import ast
from pathlib import Path

import fibera

SRC = Path(fibera.__file__).resolve().parent


def _unused_imports(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    imported = {}
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
        elif isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            used.update(ast.literal_eval(node.value))
    return sorted((line, name) for name, line in imported.items()
                  if name not in used)


def test_library_modules_have_no_unused_imports():
    found = {}
    for path in sorted(SRC.glob("*.py")):
        if path.name != "__init__.py":
            unused = _unused_imports(path)
            if unused:
                found[path.name] = unused
    assert found == {}


def test_scan_flags_an_unused_name(tmp_path):
    mod = tmp_path / "mod.py"
    mod.write_text("import os\nfrom math import gcd, lcm\n"
                   "__all__ = ['gcd']\nprint(lcm)\n")
    assert _unused_imports(mod) == [(1, "os")]
