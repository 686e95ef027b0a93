"""The package's import graph, read from its sources with ast: every
rainlink import is at module level but one, the loader in
`rainlink.__getattr__`, which imports a submodule on first use of a name
it exports; and no module reaches itself, counting an edge from the
package to each submodule in that loader's table."""

from __future__ import annotations

import ast
import graphlib
from pathlib import Path

import rainlink

SOURCES = Path(rainlink.__file__).parent


def package_imports(node: ast.AST) -> list[str]:
    """The rainlink modules one statement imports, by file stem ("__init__"
    for the package itself); none for any other statement."""
    if isinstance(node, ast.Import):
        names = [a.name for a in node.names]
    elif isinstance(node, ast.ImportFrom):
        base = f"rainlink.{node.module or ''}".rstrip(".") if node.level else node.module
        names = [f"{base}.{a.name}" for a in node.names] if base == "rainlink" else [base]
    else:
        return []
    stems = [name.split(".")[1:2] for name in names if name.split(".")[0] == "rainlink"]
    return [stem[0] if stem and (SOURCES / f"{stem[0]}.py").exists() else "__init__"
            for stem in stems]


def loads_by_name(node: ast.AST) -> bool:
    """Whether node is a call that imports a module named at run time."""
    func = node.func if isinstance(node, ast.Call) else None
    return (isinstance(func, ast.Attribute) and func.attr == "import_module"
            or isinstance(func, ast.Name) and func.id in ("import_module", "__import__"))


def trees():
    for path in sorted(SOURCES.glob("*.py")):
        yield path, ast.parse(path.read_text(encoding="utf-8"))


def test_no_package_import_inside_a_function():
    # a function-local import is how a cycle hides from the module level;
    # the one loader's edges are in the graph below
    found = [f"{path.name}:{func.name}" for path, tree in trees()
             for func in ast.walk(tree)
             if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef))
             for node in ast.walk(func) if package_imports(node) or loads_by_name(node)]
    assert found == ["__init__.py:__getattr__"]


def test_import_graph_is_acyclic():
    edges = {path.stem: {stem for node in ast.walk(tree) for stem in package_imports(node)}
             for path, tree in trees()}
    assert set(rainlink._EXPORTS) < edges.keys()
    edges["__init__"] |= set(rainlink._EXPORTS)
    assert "rain_data" in edges["analysis"] and "__init__" in edges["cli"]
    graphlib.TopologicalSorter(edges).prepare()  # a CycleError names the cycle
