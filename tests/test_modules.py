"""The package's internal import graph is acyclic, no module imports a
sibling from inside a function, and every exported name is bound."""

import ast
import importlib
from graphlib import TopologicalSorter
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "finlat"
MODULES = {path.stem for path in PACKAGE.glob("*.py")}


def _imported_modules(node):
    """The finlat modules an import statement names, as bare module names."""
    if isinstance(node, ast.Import):
        return [
            alias.name.partition(".")[2] or "__init__"
            for alias in node.names
            if alias.name.partition(".")[0] == "finlat"
        ]
    if not isinstance(node, ast.ImportFrom):
        return []
    module = node.module or ""
    if node.level == 0:
        if module.partition(".")[0] != "finlat":
            return []
        module = module.partition(".")[2]
    if module:
        return [module.partition(".")[0]]
    return [alias.name if alias.name in MODULES else "__init__" for alias in node.names]


def _parse(name):
    return ast.parse((PACKAGE / f"{name}.py").read_text(), filename=f"{name}.py")


def test_import_graph_is_acyclic():
    graph = {
        name: {dep for node in ast.walk(_parse(name)) for dep in _imported_modules(node)} - {name}
        for name in MODULES
    }
    assert graph["retractions"] >= {"morphisms", "oracle", "slim"}
    assert graph["morphisms"] == {"core"}
    list(TopologicalSorter(graph).static_order())  # raises CycleError on a cycle


def test_no_function_level_package_imports():
    nested = [
        f"{name}.py:{node.lineno}"
        for name in sorted(MODULES)
        for func in ast.walk(_parse(name))
        if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef))
        for node in ast.walk(func)
        if _imported_modules(node)
    ]
    assert nested == []


def test_every_exported_name_is_bound():
    unbound = []
    for name in sorted(MODULES - {"__main__"}):
        module = importlib.import_module("finlat" if name == "__init__" else f"finlat.{name}")
        exports = getattr(module, "__all__", ())
        unbound += [f"{name}.{export}" for export in exports if not hasattr(module, export)]
    assert unbound == []
