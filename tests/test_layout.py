"""Source layout rules that no behavioural test would notice."""

import ast
import pathlib

import tripatrol

PACKAGE = pathlib.Path(tripatrol.__file__).resolve().parent


def _private(name: str) -> bool:
    return name.startswith("_") and not (name.startswith("__") and name.endswith("__"))


def _package_module(node: ast.ImportFrom) -> bool:
    return node.level > 0 or (node.module or "").split(".")[0] == "tripatrol"


def private_imports(source: str) -> list[str]:
    """Private names one module takes from another tripatrol module, either
    imported by name or read as an attribute of an imported module."""
    found = []
    modules = set()  # local names bound to tripatrol modules
    tree = ast.parse(source)
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and _package_module(node):
            for alias in node.names:
                if _private(alias.name):
                    found.append(f"line {node.lineno}: {alias.name}")
                elif node.module is None or node.level == 0 and node.module == "tripatrol":
                    modules.add(alias.asname or alias.name)  # `from . import geom`
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.split(".")[0] == "tripatrol":
                    if any(_private(part) for part in alias.name.split(".")):
                        found.append(f"line {node.lineno}: {alias.name}")
                    modules.add(alias.asname or alias.name.split(".")[0])
    for node in ast.walk(tree):
        if (
            isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id in modules
            and _private(node.attr)
        ):
            found.append(f"line {node.lineno}: {node.value.id}.{node.attr}")
    return found


def test_no_module_imports_a_private_name_of_another():
    offenders = {
        path.name: found
        for path in sorted(PACKAGE.glob("*.py"))
        if (found := private_imports(path.read_text(encoding="utf-8")))
    }
    assert offenders == {}


def test_private_import_check_catches_each_form():
    assert private_imports("from .orthic import _build, reflection_chain") == ["line 1: _build"]
    assert private_imports("from tripatrol.geom import _line_dir") == ["line 1: _line_dir"]
    assert private_imports("from . import geom\nx = geom._EDGE_ENDS") == ["line 2: geom._EDGE_ENDS"]
    assert private_imports("import tripatrol.orthic as o\no._last_unfolding") == [
        "line 2: o._last_unfolding"
    ]
    assert private_imports("def f():\n    from .search import _min_cycle_6") == [
        "line 2: _min_cycle_6"
    ]
    # Dunders and the module's own private names are allowed.
    assert private_imports("from . import __version__, geom\n_x = 1\ngeom.__name__") == []
