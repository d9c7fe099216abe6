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
