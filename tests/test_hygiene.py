"""Source hygiene: every name a library module imports is used there,
every name it defines at module level is used somewhere, and every private
one is used in the library itself."""
from __future__ import annotations

import ast
import importlib
from pathlib import Path

import fibera

SRC = Path(fibera.__file__).resolve().parent
ROOT = Path(__file__).resolve().parents[1]


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


def _dead_names(modules, sources):
    """(module, name) for each function, class or assigned name defined at
    the top level of a module and never used in any source file.  A use is
    a loaded name, an attribute, or a string constant spelling the name (so
    names listed in __all__ or looked up by string count); dunders are exempt."""
    used = set()
    for path in sources:
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
            elif isinstance(node, ast.Constant) and isinstance(node.value, str) \
                    and node.value.isidentifier():
                used.add(node.value)
    dead = []
    for path in modules:
        for node in ast.parse(path.read_text(), filename=str(path)).body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, ast.Assign):
                names = [t.id for t in node.targets if isinstance(t, ast.Name)]
            else:
                continue
            dead += [(path.stem, name) for name in names
                     if name not in used
                     and not (name.startswith("__") and name.endswith("__"))]
    return sorted(dead)


def test_library_modules_define_no_dead_names():
    sources = [p for d in ("src", "tests", "perfbench")
               for p in sorted((ROOT / d).rglob("*.py"))]
    assert _dead_names(sorted(SRC.glob("*.py")), sources) == []


def test_dead_name_scan_flags_an_unused_name(tmp_path):
    mod = tmp_path / "mod.py"
    mod.write_text("__version__ = '1'\nAlias = tuple\nLOADED = 1\n"
                   "def helper():\n    return LOADED\n"
                   "def by_attribute():\n    pass\n"
                   "def by_string():\n    pass\n"
                   "class Unused:\n    pass\n")
    user = tmp_path / "user.py"
    user.write_text("import mod\nmod.by_attribute()\nNAMES = ['by_string']\n"
                    "helper = None\n")
    assert _dead_names([mod], [mod, user]) == [("mod", "Alias"), ("mod", "Unused"),
                                               ("mod", "helper")]


def _unused_private_names(modules):
    """The names of _dead_names that are private (one leading underscore),
    counting uses in the given modules alone."""
    return [dead for dead in _dead_names(modules, modules)
            if dead[1].startswith("_")]


def test_library_private_names_are_used_in_the_library():
    # a helper the library no longer calls is dead even when a test calls it
    assert _unused_private_names(sorted(SRC.glob("*.py"))) == []


def test_private_name_scan_flags_a_name_only_a_test_uses(tmp_path):
    mod = tmp_path / "mod.py"
    mod.write_text("__version__ = '1'\n_LIMIT = 3\n"
                   "def _helper():\n    return _LIMIT\n"
                   "def _tested():\n    pass\n"
                   "def public():\n    return _helper()\n")
    user = tmp_path / "test_mod.py"
    user.write_text("import mod\nmod._tested()\nmod.public()\n")
    assert _dead_names([mod], [mod, user]) == []
    assert _unused_private_names([mod]) == [("mod", "_tested")]


def test_traced_entry_points_resolve():
    # perfbench/tracing.py wraps each (module, attribute path) of its
    # ENTRY_POINTS, reading the last attribute from its owner's __dict__; a
    # name that is gone breaks every traced benchmark run.  The file is
    # parsed, not imported.
    tree = ast.parse((ROOT / "perfbench" / "tracing.py").read_text())
    entry_points = [ast.literal_eval(node.value) for node in tree.body
                    if isinstance(node, ast.Assign)
                    and [getattr(t, "id", None) for t in node.targets]
                    == ["ENTRY_POINTS"]]
    assert len(entry_points) == 1 and len(entry_points[0]) > 20
    missing = []
    for module, path, _ in entry_points[0]:
        owner = importlib.import_module(f"fibera.{module}")
        *owner_path, attr = path.split(".")
        for part in owner_path:
            owner = getattr(owner, part, None)
        if owner is None or not callable(vars(owner).get(attr)):
            missing.append(f"{module}.{path}")
    assert missing == []
