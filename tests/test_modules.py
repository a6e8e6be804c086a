"""The package's internal import graph is acyclic, no module imports a
sibling from inside a function, every exported name is bound, every
imported name is used, every definition is used somewhere and, outside
the tests and the export lists, by the package or the benchmark, every
finlat name the benchmark tracer wraps still resolves, every grid the
package builds goes through the intern table of `make_grid`, only `core`
names `_sub_jmask`, only `core` and `morphisms` name `_induced`, only
`slim` names `_trusted`, outside `core` only `retractions.retract_onto`
names `_memo`, and every `Congruence` goes through its constructor."""

import ast
import importlib
import importlib.util
from graphlib import TopologicalSorter
from pathlib import Path

TESTS = Path(__file__).resolve().parent
PACKAGE = TESTS.parent / "src" / "finlat"
BENCH = TESTS.parent / "bench"
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


def test_traced_entry_points_resolve():
    spec = importlib.util.spec_from_file_location("tracer", TESTS.parent / "bench" / "tracer.py")
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    unbound = []
    for _, module_name, attribute in tracer.ENTRY_POINTS:
        if module_name.partition(".")[0] != "finlat":
            continue
        target = importlib.import_module(module_name)
        for part in attribute.split("."):
            target = getattr(target, part, None)
        if target is None:
            unbound.append(f"{module_name}.{attribute}")
    assert unbound == []


def test_grids_are_built_only_by_make_grid():
    def grid_calls(tree):
        return {
            node
            for node in ast.walk(tree)
            if isinstance(node, ast.Call)
            and (getattr(node.func, "id", None) == "Grid" or getattr(node.func, "attr", None) == "Grid")
        }

    bypasses = []
    for name in sorted(MODULES):
        tree = _parse(name)
        allowed = set()
        for func in ast.walk(tree):
            if isinstance(func, ast.FunctionDef) and name == "grids" and func.name == "make_grid":
                allowed |= grid_calls(func)
        bypasses += [f"{name}.py:{node.lineno}" for node in grid_calls(tree) - allowed]
    assert bypasses == []


def _named_outside(name, allowed):
    """Each place where a module outside ``allowed`` names ``name``."""
    return [
        f"{module}.py:{node.lineno}"
        for module in sorted(MODULES - allowed)
        for node in ast.walk(_parse(module))
        if isinstance(node, (ast.Name, ast.Attribute, ast.alias))
        and name in (getattr(node, "id", None), getattr(node, "attr", None), getattr(node, "name", None))
    ]


def test_only_core_names_sub_jmask():
    """A sublattice's boolean or grid shape is decided by `core._grid_shape`
    alone, so no other module calls `_sub_jmask` to decide it again."""
    assert _named_outside("_sub_jmask", {"core"}) == []


def test_only_core_and_morphisms_name_induced():
    """Beyond `core.induced_lattice`, a sublattice is built from its mask
    only where a homomorphism's target is read; every other reader,
    `checks` included, works on the mask."""
    assert _named_outside("_induced", {"core", "morphisms"}) == []


def test_only_slim_names_trusted():
    """`OrientedLattice._trusted` skips validation on the strength of the
    fork theorem, so only the grids and forks of `slim` build through it;
    every other caller goes through the validating constructor."""
    assert _named_outside("_trusted", {"slim"}) == []


def test_only_core_names_memo():
    """Memo entries are kept through `core._memoised`, which keeps each value
    free of its lattice; only `retractions.retract_onto` names ``_memo``
    itself, for its dict of checked maps by closed mask."""
    (func,) = [
        node
        for node in ast.walk(_parse("retractions"))
        if isinstance(node, ast.FunctionDef) and node.name == "retract_onto"
    ]
    allowed = {f"retractions.py:{line}" for line in range(func.lineno, func.end_lineno + 1)}
    outside = _named_outside("_memo", {"core"})
    assert outside and set(outside) <= allowed, outside


def test_congruence_is_built_only_by_its_constructor():
    """`Congruence` defines no classmethod or staticmethod and no module calls
    ``__new__`` on it, so every congruence is validated, and a wrapper of the
    class sees every construction."""
    (cls,) = [
        node
        for node in ast.walk(_parse("morphisms"))
        if isinstance(node, ast.ClassDef) and node.name == "Congruence"
    ]
    alternative = [
        func.name
        for func in cls.body
        if isinstance(func, ast.FunctionDef)
        and any(getattr(d, "id", None) in ("classmethod", "staticmethod") for d in func.decorator_list)
    ]
    assert alternative == []
    bypasses = [
        f"{module}.py:{node.lineno}"
        for module in sorted(MODULES)
        for node in ast.walk(_parse(module))
        if isinstance(node, ast.Call)
        and getattr(node.func, "attr", None) == "__new__"
        and "Congruence" in {getattr(n, "id", None) or getattr(n, "attr", None) for n in ast.walk(node)}
    ]
    assert bypasses == []


def test_only_oracle_names_all_sublattices():
    """Package modules walk sublattices as the closed masks of
    `oracle._sublattice_masks`; the id sets are for callers outside it."""
    assert _named_outside("all_sublattices", {"oracle", "__init__"}) == []


def _used_names(tree):
    """Every name, attribute, import alias and string constant in a tree."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, ast.alias):
            yield node.asname or node.name.rpartition(".")[2]
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            yield node.value


def _definitions(tree):
    return {
        node.name
        for node in ast.walk(tree)
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
        and not (node.name.startswith("__") and node.name.endswith("__"))
    }


def test_every_definition_is_used():
    definitions = set()
    used = set()
    for path in sorted(PACKAGE.glob("*.py")) + sorted(TESTS.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=path.name)
        used.update(_used_names(tree))
        if path.parent == PACKAGE:
            definitions |= _definitions(tree)
    assert sorted(definitions - used) == []


def _references(tree):
    """Every name, attribute and string constant outside `__all__` lists."""
    exported = {
        id(inner)
        for node in ast.walk(tree)
        if isinstance(node, ast.Assign)
        and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)
        for inner in ast.walk(node.value)
    }
    for node in ast.walk(tree):
        if id(node) in exported:
            continue
        if isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            yield node.value


def test_every_definition_is_used_by_the_package_or_the_benchmark():
    """A definition that only tests call, or that is only listed in `__all__`
    or re-exported by `__init__.py`, is dead code.  The scan goes by name,
    so it cannot see a dead definition that shares its name with a live
    variable: `atoms` in `core` passed, since `bench/workloads.py` has a
    local of that name, and was deleted by hand."""
    definitions = set()
    used = set()
    for path in sorted(PACKAGE.glob("*.py")) + sorted(BENCH.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=path.name)
        if path.parent == PACKAGE:
            definitions |= _definitions(tree)
        if path != PACKAGE / "__init__.py":
            used.update(_references(tree))
    assert sorted(definitions - used) == []


def test_no_unused_imports():
    unused = []
    for name in sorted(MODULES - {"__init__"}):
        tree = _parse(name)
        exports = set()
        imported = {}
        for node in ast.walk(tree):
            if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
            ):
                exports = set(ast.literal_eval(node.value))
            if isinstance(node, ast.Import):
                imported.update((a.asname or a.name.partition(".")[0], node.lineno) for a in node.names)
            elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
                imported.update((a.asname or a.name, node.lineno) for a in node.names)
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        unused += [
            f"{name}.py:{line} {alias}"
            for alias, line in imported.items()
            if alias not in used and alias not in exports
        ]
    assert unused == []
