"""The reference routes stay out of the production import graph."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import mixident

PACKAGE = Path(mixident.__file__).resolve().parent
REFERENCE_MODULES = {"scipy.integrate", "mixident.oracles"}


def test_import_does_not_load_quadrature():
    code = (
        "import sys, mixident; "
        "print('scipy.integrate' in sys.modules, 'mixident.oracles' in sys.modules)"
    )
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True,
        env={**os.environ, "PYTHONPATH": str(PACKAGE.parent)}, timeout=120,
    ).stdout.split()
    assert out == ["False", "False"]


def _imported_modules(path: Path) -> set[str]:
    names = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            names.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            base = node.module or ""
            if node.level:
                base = "mixident." + base if base else "mixident"
            names.add(base)
            names.update(f"{base}.{alias.name}" for alias in node.names)
    return names


def test_only_oracles_imports_reference_routes():
    offenders = {}
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name == "oracles.py":
            continue
        hits = {
            name for name in _imported_modules(path)
            if any(name == ref or name.startswith(ref + ".") for ref in REFERENCE_MODULES)
        }
        if hits:
            offenders[path.name] = sorted(hits)
    assert offenders == {}


def _unused_imports(path: Path) -> list[str]:
    """Names the module at ``path`` imports but neither uses nor lists in
    its ``__all__``."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    imported = set()
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update((a.asname or a.name).split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(a.asname or a.name for a in node.names)
        elif isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            used.update(ast.literal_eval(node.value))
    return sorted(imported - used)


def test_every_import_is_used_or_exported():
    unused = {}
    for path in sorted(PACKAGE.glob("*.py")):
        names = _unused_imports(path)
        if names:
            unused[path.name] = names
    assert unused == {}


def test_every_export_resolves():
    missing = [name for name in mixident.__all__ if not hasattr(mixident, name)]
    assert missing == []
    namespace = {}
    exec("from mixident import *", namespace)
    assert set(mixident.__all__) <= set(namespace)


def _names_read(node: ast.AST) -> set[str]:
    """Every name and attribute read anywhere under ``node``."""
    names = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            names.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            names.add(sub.attr)
    return names


def test_every_private_helper_is_used():
    # a module-level _name function or class that no code outside its own
    # definition reads is a dead helper, to be deleted
    statements = [
        stmt for path in sorted(PACKAGE.glob("*.py"))
        for stmt in ast.parse(path.read_text(encoding="utf-8")).body
    ]
    reads = [(stmt, _names_read(stmt)) for stmt in statements]
    helpers = [
        stmt for stmt in statements
        if isinstance(stmt, (ast.FunctionDef, ast.ClassDef))
        and stmt.name.startswith("_") and not stmt.name.startswith("__")
    ]
    unused = [
        h.name for h in helpers
        if not any(h.name in names for stmt, names in reads if stmt is not h)
    ]
    assert helpers
    assert unused == []
