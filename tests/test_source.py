"""Static checks on the package source."""

import ast
import runpy
import sys
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


def test_imports_only_numpy_and_the_standard_library():
    # pyproject.toml declares numpy as the one dependency; another import
    # (scipy.optimize for an LP, say) would fail where it is not installed
    # and would add its import time to every run.
    allowed = set(sys.stdlib_module_names) | {"numpy"}
    foreign = {}
    for path in sorted(_PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            outside = sorted({name.split(".")[0] for name in names} - allowed)
            if outside:
                foreign.setdefault(path.name, []).extend(outside)
    assert foreign == {}


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


def _benchmark_hooks() -> dict:
    """HOOKS of perfbench/spans.py, run from its file; running it wraps nothing."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"
    return runpy.run_path(str(path))["HOOKS"]


def test_benchmark_hooks_resolve():
    # The benchmark wraps each hooked name in the module that calls it, so
    # the module must bind the name and read it by name: a call that goes
    # around the name (a renamed function, a module-qualified call) is never
    # recorded and stops the benchmark.
    bound, read = {}, {}
    for hooks in _benchmark_hooks().values():
        for module_name, attr, *_ in hooks:
            package, _, module = module_name.partition(".")
            assert package == "regcoreset"
            if module not in bound:
                source = (_PACKAGE / f"{module}.py").read_text(encoding="utf-8")
                tree = ast.parse(source)
                bound[module] = {
                    alias.asname or alias.name
                    for node in tree.body if isinstance(node, ast.ImportFrom)
                    for alias in node.names
                } | {
                    node.name for node in tree.body
                    if isinstance(node, (ast.FunctionDef, ast.ClassDef))
                }
                read[module] = {
                    node.id for node in ast.walk(tree)
                    if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
                }
            assert attr in bound[module], f"{module_name} does not bind {attr}"
            assert attr in read[module], f"{module_name} never reads {attr} by name"


def _loads_at_definition(tree: ast.AST) -> list:
    """Name loads that run when their module or an enclosing def is executed.

    Only function and lambda bodies wait for a call.  A load at module or
    class level, in a default argument, a decorator or an annotation captures
    whatever the name holds at that moment.
    """
    found = []

    def visit(node, in_body):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            body = node.body if isinstance(node.body, list) else [node.body]
            for child in ast.iter_child_nodes(node):
                visit(child, child in body)
            return
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load) and not in_body:
            found.append(node)
        for child in ast.iter_child_nodes(node):
            visit(child, in_body)

    visit(tree, False)
    return found


def test_loads_at_definition_catch_captured_functions():
    captured = {
        "module-level table": "TABLE = {'ridge': solve_ridge}",
        "class attribute": "class C:\n    solver = solve_ridge",
        "default argument": "def f(solve=solve_ridge):\n    return solve()",
        "lambda default": "g = lambda solve=solve_ridge: solve()",
        "decorator": "@solve_ridge\ndef f():\n    pass",
        "default of a nested def": "def f():\n    def g(s=solve_ridge):\n        pass",
    }
    for what, source in captured.items():
        names = [n.id for n in _loads_at_definition(ast.parse(source))]
        assert "solve_ridge" in names, what
    deferred = (
        "def f():\n    return {'ridge': solve_ridge}['ridge']()",
        "g = lambda: solve_ridge()",
        "class C:\n    def f(self):\n        return solve_ridge()",
    )
    for source in deferred:
        assert _loads_at_definition(ast.parse(source)) == [], source


def test_benchmark_hooks_are_looked_up_when_called():
    # The benchmark replaces a hooked name after the package is imported, so
    # a reference taken earlier (a dispatch table, a default argument) keeps
    # calling the unwrapped function and its calls are never recorded.
    hooked = {}
    for hooks in _benchmark_hooks().values():
        for module_name, attr, *_ in hooks:
            hooked.setdefault(module_name.partition(".")[2], set()).add(attr)
    early = {}
    for module, attrs in sorted(hooked.items()):
        tree = ast.parse((_PACKAGE / f"{module}.py").read_text(encoding="utf-8"))
        lines = [
            f"{node.id}:{node.lineno}"
            for node in _loads_at_definition(tree) if node.id in attrs
        ]
        if lines:
            early[module] = lines
    assert early == {}


def _readers(tree: ast.AST, name: str) -> list:
    """The innermost enclosing def of every read of `name`, bare or as attribute."""
    found = []

    def visit(node, scope):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            scope = node.name
        elif isinstance(node, ast.Lambda):
            scope = "<lambda>"
        if (isinstance(node, ast.Name) and node.id == name
                and isinstance(node.ctx, ast.Load)) or (
                isinstance(node, ast.Attribute) and node.attr == name):
            found.append(scope)
        for child in ast.iter_child_nodes(node):
            visit(child, scope)

    visit(tree, "<module>")
    return found


def test_ng_instances_are_built_only_through_the_hooked_name():
    # The benchmark marks full-data solves by identity with what
    # build_experiment_instance returns; a harness that reaches the private
    # builder another way solves an instance the benchmark never saw, which
    # stops the benchmark instead of failing here.
    readers = {
        path.name: _readers(ast.parse(path.read_text(encoding="utf-8")),
                            "_build_ng_instance")
        for path in sorted(_PACKAGE.glob("*.py"))
    }
    assert {name: found for name, found in readers.items() if found} == {
        "experiments.py": ["build_experiment_instance"]
    }


def test_qr_runs_only_in_the_kernel_and_the_vertex_basis():
    # np.linalg.qr copies its whole input twice, once where tracemalloc does
    # not look.  A factorization of the n rows goes through linalg.tall_qr_r,
    # which hands it one block of rows at a time; solvers._vertex_basis
    # factors at most 2d rows.
    readers = {
        path.name: _readers(ast.parse(path.read_text(encoding="utf-8")), "qr")
        for path in sorted(_PACKAGE.glob("*.py"))
    }
    assert {name: set(found) for name, found in readers.items() if found} == {
        "linalg.py": {"tall_qr_r"},
        "solvers.py": {"_vertex_basis"},
    }
