"""Static checks on the package source."""

import ast
from pathlib import Path

import regcoreset

_PACKAGE = Path(regcoreset.__file__).parent


def _unused_imports(tree: ast.Module) -> list:
    """Names a module imports but never references (re-exports aside)."""
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(a.asname or a.name.split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(a.asname or a.name for a in node.names)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(imported - used)


def test_no_dead_imports():
    # __init__.py imports names to re-export them, so it is not checked.
    dead = {}
    for path in sorted(_PACKAGE.glob("*.py")):
        if path.name == "__init__.py":
            continue
        names = _unused_imports(ast.parse(path.read_text(encoding="utf-8")))
        if names:
            dead[path.name] = names
    assert dead == {}


def _private_definitions(tree: ast.Module) -> set:
    """Top-level functions, classes and constants whose names start with _."""
    names = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, ast.Assign):
            names.update(t.id for t in node.targets if isinstance(t, ast.Name))
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            names.add(node.target.id)
    return {name for name in names if name.startswith("_") and not name.startswith("__")}


def test_no_dead_private_definitions():
    # A private name must be read somewhere in the package: by name, in its
    # own module or in one that imports it, or as an attribute.
    trees = {
        path.name: ast.parse(path.read_text(encoding="utf-8"))
        for path in sorted(_PACKAGE.glob("*.py"))
    }
    used = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
    dead = {}
    for name, tree in trees.items():
        unused = sorted(_private_definitions(tree) - used)
        if unused:
            dead[name] = unused
    assert dead == {}
