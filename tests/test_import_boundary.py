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
        if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load):
            names.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            names.add(sub.attr)
    return names


def _names_defined(stmt: ast.stmt) -> set[str]:
    """The names a module-level statement defines: a function or class, or
    the names an assignment binds."""
    if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
        return {stmt.name}
    targets = (
        stmt.targets if isinstance(stmt, ast.Assign)
        else [stmt.target] if isinstance(stmt, ast.AnnAssign) else []
    )
    return {
        sub.id for target in targets for sub in ast.walk(target)
        if isinstance(sub, ast.Name)
    }


def _statements() -> list[ast.stmt]:
    """The module-level statements of every module of ``src``."""
    return [
        stmt for path in sorted(PACKAGE.glob("*.py"))
        for stmt in ast.parse(path.read_text(encoding="utf-8")).body
    ]


def _unread(names) -> list[str]:
    """The names of ``names`` that no module-level statement of ``src``
    reads, other than the statements that define them."""
    reads = [(_names_defined(stmt), _names_read(stmt)) for stmt in _statements()]
    return sorted(
        name for name in names
        if not any(name in read and name not in defined for defined, read in reads)
    )


def test_every_private_helper_is_used():
    # a module-level _name function, class or constant that no code
    # outside its own definition reads is dead, to be deleted
    statements = _statements()
    private = {
        name for stmt in statements for name in _names_defined(stmt)
        if name.startswith("_") and not name.startswith("__")
    }
    helpers = private & {
        stmt.name for stmt in statements if isinstance(stmt, (ast.FunctionDef, ast.ClassDef))
    }
    assert helpers and private - helpers
    assert _unread(private) == []


# public names that no src module reads, each kept for a reader outside src
EXPORTS_READ_OUTSIDE_SRC = {
    "draw_sample": "the bench's rebuild and gates; ROADMAP item 9 decides its fate",
    "build_eval_grid": "the bench's rebuild and gates; ROADMAP item 9 decides its fate",
    "sup_stat": "the bench's rebuild and gates; ROADMAP item 9 decides its fate",
    "run_replication": "the bench's rebuild and gates; ROADMAP item 9 decides its fate",
    "write_results_csv": "the bench and demo 05 write through it",
    "estimate_probability": "the one-scenario form of run_sweep, for digests and tests",
    "sandwich_bounds": "the paper's bracket, which ROADMAP item 5 reports",
    "predict_threshold_n": "ROADMAP item 18 reports it",
}


def test_every_export_is_read():
    # a public name that no src module reads, outside its own definition
    # and __init__'s re-export, goes, or is listed above with its reason;
    # a listed name that src comes to read leaves the list
    exports = [name for name in mixident.__all__ if not name.startswith("__")]
    assert _unread(exports) == sorted(EXPORTS_READ_OUTSIDE_SRC)
