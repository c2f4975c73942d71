"""Source layout rules that no behavioural test would notice."""

import ast
import builtins
import importlib
import pathlib
from collections import Counter

import tripatrol

PACKAGE = pathlib.Path(tripatrol.__file__).resolve().parent
REPO = pathlib.Path(__file__).resolve().parents[1]


def _private(name: str) -> bool:
    return name.startswith("_") and not (name.startswith("__") and name.endswith("__"))


def _package_module(node: ast.ImportFrom) -> bool:
    return node.level > 0 or (node.module or "").split(".")[0] == "tripatrol"


def _imports(tree: ast.AST) -> tuple[list[str], set[str]]:
    """Private names imported from tripatrol modules, and the local names
    bound to tripatrol modules."""
    found = []
    modules = set()
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
    return found, modules


def private_imports(source: str) -> list[str]:
    """Private names one module takes from another tripatrol module, either
    imported by name or read as an attribute of an imported module."""
    tree = ast.parse(source)
    found, modules = _imports(tree)
    for node in ast.walk(tree):
        if (
            isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id in modules
            and _private(node.attr)
        ):
            found.append(f"line {node.lineno}: {node.value.id}.{node.attr}")
    return found


def _root_name(node: ast.AST) -> str | None:
    while isinstance(node, ast.Attribute):
        node = node.value
    return node.id if isinstance(node, ast.Name) else None


def foreign_assignments(source: str) -> list[str]:
    """Attributes of an imported tripatrol module that a module assigns,
    augments, deletes or setattr()s: module state that another module changes."""
    tree = ast.parse(source)
    _, modules = _imports(tree)
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, (ast.Store, ast.Del)):
            target = node
        elif (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id in ("setattr", "delattr")
            and node.args
        ):
            target = node.args[0]
        else:
            continue
        if _root_name(target) in modules:
            found.append(f"line {node.lineno}: {ast.unparse(target)}")
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


def test_no_module_assigns_to_another_modules_attribute():
    offenders = {
        path.name: found
        for path in sorted(PACKAGE.glob("*.py"))
        if (found := foreign_assignments(path.read_text(encoding="utf-8")))
    }
    assert offenders == {}


def test_foreign_assignment_check_catches_each_form():
    assert foreign_assignments("from . import geom\ngeom.DEFAULT_REL_TOL = 1e-7") == [
        "line 2: geom.DEFAULT_REL_TOL"
    ]
    assert foreign_assignments("import tripatrol.geom\ntripatrol.geom.X += 1") == [
        "line 2: tripatrol.geom.X"
    ]
    assert foreign_assignments("from tripatrol import geom as g\ndel g.X") == ["line 2: g.X"]
    assert foreign_assignments("from . import geom\ngeom.X, y = 1, 2") == ["line 2: geom.X"]
    assert foreign_assignments("from . import geom\nsetattr(geom, 'X', 1)") == ["line 2: geom"]
    assert foreign_assignments("def f():\n    from . import orthic\n    orthic._last = None") == [
        "line 3: orthic._last"
    ]
    # Reading a module's attribute, or setting one on a local object, is allowed.
    assert foreign_assignments(
        "from . import geom\nfrom .geom import DEFAULT_REL_TOL\nx = geom.DEFAULT_REL_TOL\n"
        "DEFAULT_REL_TOL = 2\nself.y = 1\nobject.__setattr__(self, 'z', 1)"
    ) == []


def _numpy_names(node: ast.AST) -> list[str] | None:
    """For an import statement, the numpy modules it imports; None for any other node."""
    if isinstance(node, ast.Import):
        names = [alias.name for alias in node.names]
    elif isinstance(node, ast.ImportFrom) and node.level == 0:
        names = [node.module]
    else:
        return None
    return [name for name in names if name.split(".")[0] == "numpy"]


def module_level_numpy_imports(source: str) -> list[str]:
    """The imports of numpy, or of a numpy submodule, that run when a module
    is imported: anywhere outside a function body, class bodies and
    if/try blocks included."""
    found = []

    def visit(node: ast.AST) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            names = _numpy_names(child)
            if names is None:
                visit(child)
            else:
                found.extend(f"line {child.lineno}: {name}" for name in names)

    visit(ast.parse(source))
    return found


def numpy_imports(source: str) -> list[str]:
    """Every import of numpy, or of a numpy submodule, in a module, function
    bodies included."""
    return [
        f"line {node.lineno}: {name}"
        for node in ast.walk(ast.parse(source))
        for name in _numpy_names(node) or ()
    ]


def test_no_module_imports_numpy_at_import_time():
    """Only the grid oracles use numpy, and each imports it in the body of
    the function that does, so importing the package never loads it."""
    offenders = {
        path.name: found
        for path in sorted(PACKAGE.glob("*.py"))
        if (found := module_level_numpy_imports(path.read_text(encoding="utf-8")))
    }
    assert offenders == {}


def test_numpy_import_check_catches_each_form():
    assert module_level_numpy_imports("import math, numpy as np") == ["line 1: numpy"]
    assert module_level_numpy_imports("from numpy import hypot\nimport numpy.linalg") == [
        "line 1: numpy", "line 2: numpy.linalg"
    ]
    assert module_level_numpy_imports("try:\n    import numpy\nexcept ImportError:\n    pass") == [
        "line 2: numpy"
    ]
    assert module_level_numpy_imports("class C:\n    import numpy as np") == ["line 2: numpy"]
    # An import in a function body, a package-relative import and another
    # module whose name starts with "num" are allowed.
    assert module_level_numpy_imports(
        "def f():\n    import numpy as np\nclass C:\n    def m(self):\n        from numpy import nan\n"
        "from .numpy import x\nimport numbers"
    ) == []


def test_only_search_imports_numpy():
    """The 6-periodic grid oracle is the package's one numpy user: every
    other module, greedy's ratio landscape included, and the 3-periodic
    oracle beside it run on math alone."""
    users = {
        path.name: found
        for path in sorted(PACKAGE.glob("*.py"))
        if (found := numpy_imports(path.read_text(encoding="utf-8")))
    }
    assert list(users) == ["search.py"]


def test_numpy_anywhere_check_catches_each_form():
    assert numpy_imports("import math, numpy as np") == ["line 1: numpy"]
    assert numpy_imports(
        "def f():\n    import numpy as np\nclass C:\n    async def m(self):\n        from numpy import nan"
    ) == ["line 2: numpy", "line 5: numpy"]
    assert numpy_imports("if x:\n    try:\n        import numpy.linalg\n    except ImportError:\n        pass") == [
        "line 3: numpy.linalg"
    ]
    # A package-relative import and another module whose name starts with "num" are allowed.
    assert numpy_imports("def f():\n    from .numpy import x\n    import numbers") == []


def _small_float(node: ast.AST) -> bool:
    return isinstance(node, ast.Constant) and isinstance(node.value, float) and 0.0 < abs(node.value) < 1e-6


def small_float_literals(source: str) -> Counter:
    """How often each float literal below 1e-6 in magnitude occurs in a module."""
    return Counter(node.value for node in ast.walk(ast.parse(source)) if _small_float(node))


def test_thresholds_outside_geom_are_single_site_parameters():
    """geom names the shared tolerances; every other small literal is one
    algorithm's own parameter at one site: greedy's settle test, angle-sum
    check and ratio-grid filter, the slack of verify_1gap_optimality, and
    grid3's pruning margin and u2 walk slack, 1e-9 and 1e-12 of the
    diameter of geom.local_frame's copy, in [1, 2)."""
    found = {
        path.name: dict(literals)
        for path in sorted(PACKAGE.glob("*.py"))
        if path.name != "geom.py" and (literals := small_float_literals(path.read_text(encoding="utf-8")))
    }
    assert found == {"greedy.py": {1e-9: 1, 1e-12: 2}, "orthic.py": {1e-9: 1}, "search.py": {1e-9: 1, 1e-12: 1}}


def unnamed_small_literals(source: str) -> list[str]:
    """The float literals below 1e-6 in magnitude in a module that are not
    the whole value of a module-level ALL_CAPS assignment to one name."""
    tree = ast.parse(source)
    named = set()
    for node in tree.body:
        if isinstance(node, ast.Assign):
            targets = node.targets
        elif isinstance(node, ast.AnnAssign):
            targets = [node.target]
        else:
            continue
        if isinstance(node.value, ast.Constant) and all(
            isinstance(target, ast.Name) and _is_constant(target.id) for target in targets
        ):
            named.add(node.value)
    return [
        f"line {node.lineno}: {node.value!r}"
        for node in ast.walk(tree)
        if _small_float(node) and node not in named
    ]


def test_geom_thresholds_are_named():
    """geom holds the tolerance policy: each of its small thresholds is a
    named constant that every site applying it reads."""
    assert unnamed_small_literals((PACKAGE / "geom.py").read_text(encoding="utf-8")) == []


def test_unnamed_small_literal_check_catches_each_form():
    assert unnamed_small_literals("def f(n):\n    return n <= 1e-12") == ["line 2: 1e-12"]
    assert unnamed_small_literals("class C:\n    TOL = 1e-9") == ["line 2: 1e-09"]
    assert unnamed_small_literals("tol = 1e-9\nX_TOL = 2 * 1e-9\nA_TOL, B_TOL = 1e-9, 1e-12") == [
        "line 1: 1e-09", "line 2: 1e-09", "line 3: 1e-09", "line 3: 1e-12"
    ]
    # A named constant, plain or annotated, and a literal of 1e-6 or more are allowed.
    assert unnamed_small_literals("X_TOL = 1e-9\nY_TOL: float = 2e-12\nZ = W = 1e-14\nr = 1e-6 * x") == []


def unconstructed_exceptions(modules: dict[str, str]) -> list[str]:
    """The exception classes that `modules` (name -> source) define and
    that no module calls or raises, by name or as an attribute: each
    subclasses a builtin exception or another such class of the modules."""
    trees = {name: ast.parse(source) for name, source in modules.items()}
    exceptions = {}
    for name, tree in trees.items():
        for node in tree.body:
            if isinstance(node, ast.ClassDef) and any(
                isinstance(base, ast.Name)
                and (base.id in exceptions or isinstance(getattr(builtins, base.id, None), type)
                     and issubclass(getattr(builtins, base.id), BaseException))
                for base in node.bases
            ):
                exceptions[node.name] = f"{name}.{node.name}"
    # `raise E` constructs E, as `raise E()` does.
    targets = [
        node.func if isinstance(node, ast.Call) else node.exc
        for tree in trees.values()
        for node in ast.walk(tree)
        if isinstance(node, (ast.Call, ast.Raise))
    ]
    called = {
        node.id if isinstance(node, ast.Name) else node.attr
        for node in targets
        if isinstance(node, (ast.Name, ast.Attribute))
    }
    return [qualified for cls, qualified in exceptions.items() if cls not in called]


def test_every_exception_class_is_constructed():
    """An exception class outlives its last raise only by mistake: each one
    the package defines is constructed somewhere in the package."""
    modules = {path.stem: path.read_text(encoding="utf-8") for path in sorted(PACKAGE.glob("*.py"))}
    assert unconstructed_exceptions(modules) == []


def test_exception_construction_check_catches_each_form():
    modules = {
        "geom": "class Off(ValueError):\n    pass\nclass Stale(RuntimeError):\n    pass\n"
        "class Base(Exception):\n    pass\nclass Sub(Base):\n    pass\nclass Shape:\n    pass\n"
        "def off(p):\n    return Off(p)",
        "greedy": "from . import geom\nraise geom.Base('x')",
    }
    # A call by name or as a module attribute counts; a subclass of another
    # exception class counts as one; a class that is no exception is exempt.
    assert unconstructed_exceptions(modules) == ["geom.Stale", "geom.Sub"]
    # Naming, catching or subclassing a class is no construction.
    modules["greedy"] += "\ntry:\n    pass\nexcept geom.Stale:\n    pass\nE = geom.Sub"
    assert unconstructed_exceptions(modules) == ["geom.Stale", "geom.Sub"]
    # A bare raise of the class constructs it.
    modules["greedy"] += "\nraise geom.Sub()\nraise Stale"
    assert unconstructed_exceptions(modules) == []


def names_read(tree: ast.AST) -> set[str]:
    """Every name and attribute name a piece of code reads."""
    return {
        node.id if isinstance(node, ast.Name) else node.attr
        for node in ast.walk(tree)
        if isinstance(node, (ast.Name, ast.Attribute)) and isinstance(node.ctx, ast.Load)
    }


def attributes_read(tree: ast.AST) -> list[str]:
    """The attribute name of every attribute read in a piece of code."""
    return [
        node.attr
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
    ]


def _outside_names(tree: ast.Module) -> dict[str, object]:
    """The builtins, and what a module's top-level imports from outside the
    package bind."""
    bound = dict(vars(builtins))
    for node in tree.body:
        if isinstance(node, ast.Import):
            for alias in node.names:
                root = alias.name.split(".")[0]
                if root != "tripatrol":
                    module = importlib.import_module(alias.name)
                    bound[alias.asname or root] = module if alias.asname else importlib.import_module(root)
        elif isinstance(node, ast.ImportFrom) and not _package_module(node):
            module = importlib.import_module(node.module)
            for alias in node.names:
                bound[alias.asname or alias.name] = getattr(module, alias.name)
    return bound


def _resolve(node: ast.AST, bound: dict[str, object]) -> object:
    if isinstance(node, ast.Name):
        return bound.get(node.id)
    if isinstance(node, ast.Attribute):
        return getattr(_resolve(node.value, bound), node.attr, None)
    return None


def _inherited_from_outside(cls: ast.ClassDef, bound: dict[str, object]) -> set[str]:
    """The attribute names of the bases of cls that come from outside the package."""
    bases = [_resolve(base, bound) for base in cls.bases]
    return set().union(*(dir(base) for base in bases if isinstance(base, type)))


def unused_public_names(modules: dict[str, str], used_elsewhere: set[str]) -> list[str]:
    """Public top-level functions and classes of `modules` (name -> source)
    that no other module reads, that their own module reads only inside
    their own definition, and that are not in `used_elsewhere`; and public
    methods and properties of the modules' classes whose name no module
    reads as an attribute outside the method's own body and that is not in
    `used_elsewhere`.  A method that overrides one of a base class from
    outside the package is its caller's to call.  Matching is by name
    alone, so a same-named attribute anywhere counts as a use."""
    trees = {name: ast.parse(source) for name, source in modules.items()}
    attributes = Counter(attr for tree in trees.values() for attr in attributes_read(tree))
    found = []
    for name, tree in trees.items():
        others = set().union(*(names_read(t) for n, t in trees.items() if n != name))
        bound = _outside_names(tree)
        for node in tree.body:
            if isinstance(node, ast.ClassDef):
                inherited = _inherited_from_outside(node, bound)
                for method in node.body:
                    if (
                        isinstance(method, ast.FunctionDef)
                        and not method.name.startswith("_")
                        and method.name not in inherited | used_elsewhere
                        and attributes[method.name] == attributes_read(method).count(method.name)
                    ):
                        found.append(f"{name}.{node.name}.{method.name}")
            # Dunders such as a module __getattr__ are the interpreter's to call.
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)) or node.name.startswith("_"):
                continue
            own = set().union(*(names_read(other) for other in tree.body if other is not node))
            if node.name not in others | own | used_elsewhere:
                found.append(f"{name}.{node.name}")
    return found


def _script_names() -> set[str]:
    """Every name and attribute name the demos and perfbench scripts read."""
    scripts = [path for folder in ("demos", "perfbench") for path in (REPO / folder).glob("*.py")]
    return set().union(*(names_read(ast.parse(path.read_text(encoding="utf-8"))) for path in scripts))


def test_every_public_name_has_a_user():
    modules = {path.stem: path.read_text(encoding="utf-8") for path in sorted(PACKAGE.glob("*.py"))}
    assert unused_public_names(modules, set(tripatrol.__all__) | _script_names()) == []


def test_unused_public_name_check_catches_each_form():
    modules = {
        "geom": "def used(): pass\ndef unused(): pass\nclass Lonely: pass\n"
        "def _private(): pass\ndef __getattr__(name): pass",
        "orthic": "from .geom import unused\nfrom . import geom\ngeom.used()",
    }
    # An import that nothing reads is not a use.
    assert unused_public_names(modules, set()) == ["geom.unused", "geom.Lonely"]
    assert unused_public_names(modules, {"unused", "Lonely"}) == []
    # A use inside the module counts, but not one inside the name's own body.
    assert unused_public_names({"m": "def f(): return g()\ndef g(): return g()"}, set()) == ["m.f"]
    assert unused_public_names({"m": "def f(): pass\nif __name__ == '__main__': f()"}, set()) == []


def test_unused_method_check_catches_each_form():
    modules = {
        "geom": "import argparse\nfrom enum import IntEnum\n"
        "class Shape:\n    def used(self): pass\n    def unused(self): return self.unused()\n"
        "    @property\n    def lonely(self): pass\n    def _private(self): pass\n"
        "    def __len__(self): return 0\n"
        "class _Parser(argparse.ArgumentParser):\n    def error(self, message): pass\n"
        "    def note(self): pass\n"
        "class Edge(IntEnum):\n    def describe(self): pass\n"
        "class Square(Shape):\n    def error(self): pass",
        "orthic": "from .geom import Shape, _Parser, Edge, Square\nShape().used()\n_Parser()\n"
        "Edge.describe\nSquare()",
    }
    # A method read only inside its own body is unused; a method is exempt
    # as an override only where a base from outside the package defines it.
    assert unused_public_names(modules, set()) == [
        "geom.Shape.unused", "geom.Shape.lonely", "geom._Parser.note", "geom.Square.error"
    ]
    assert unused_public_names(modules, {"unused", "lonely", "note", "error"}) == []


def _is_constant(name: str) -> bool:
    return name.lstrip("_")[:1].isalpha() and name == name.upper()


def unread_constants(modules: dict[str, str], read_elsewhere: set[str]) -> list[str]:
    """The module-level ALL_CAPS names that `modules` (name -> source)
    assign, plainly, annotated or in a tuple, and that no module reads and
    that are not in `read_elsewhere`.  Matching is by name alone, so a
    same-named attribute anywhere counts as a read."""
    trees = {name: ast.parse(source) for name, source in modules.items()}
    read = read_elsewhere.union(*(names_read(tree) for tree in trees.values()))
    found = []
    for name, tree in trees.items():
        for node in tree.body:
            if isinstance(node, ast.Assign):
                targets = node.targets
            elif isinstance(node, ast.AnnAssign):
                targets = [node.target]
            else:
                continue
            for target in targets:
                for leaf in ast.walk(target):
                    if isinstance(leaf, ast.Name) and _is_constant(leaf.id) and leaf.id not in read:
                        found.append(f"{name}.{leaf.id}")
    return list(dict.fromkeys(found))


def test_every_module_constant_has_a_reader():
    """A named tolerance or table outlives its last reader only by mistake:
    each module-level constant of the package is read by the package, the
    demos or perfbench, not by the tests alone."""
    modules = {path.stem: path.read_text(encoding="utf-8") for path in sorted(PACKAGE.glob("*.py"))}
    assert unread_constants(modules, _script_names()) == []


def test_unread_constant_check_catches_each_form():
    modules = {
        "geom": "A_TOL = 1\nB_TOL: float = 2\nC_TOL, (D_TOL, _E_TABLE) = 3, (4, 5)\nF_TOL = G_TOL = 6\n"
        "G_TOL = 7\nlower = 8\nMixed_Case = 9\n_ = 10\nclass K:\n    H_TOL = 11\ndef f():\n    I_TOL = 12",
        "orthic": "from .geom import A_TOL\nfrom . import geom\ngeom.B_TOL + C_TOL",
    }
    # Importing a constant, or assigning it again, is no read; a read by
    # name or as a module attribute is.  Names in a class or a function,
    # and names not in ALL_CAPS, are no module constants.
    assert unread_constants(modules, set()) == [
        "geom.A_TOL", "geom.D_TOL", "geom._E_TABLE", "geom.F_TOL", "geom.G_TOL"
    ]
    modules["orthic"] += "\nprint(A_TOL, _E_TABLE)"
    assert unread_constants(modules, {"D_TOL", "F_TOL", "G_TOL"}) == []


def global_users(source: str) -> list[str]:
    """The functions, by qualified name, that declare a name `global`
    ("<module>" for a module-level declaration)."""
    found = []

    def visit(node: ast.AST, scope: str) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.Global):
                found.append(scope or "<module>")
            elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                visit(child, f"{scope}.{child.name}" if scope else child.name)
            else:
                visit(child, scope)

    visit(ast.parse(source), "")
    return found


def test_only_reflection_chain_keeps_module_state():
    """Per-triangle data lives on Triangle or Unfolding: the unfolding memo
    is the package's one module-level state that a function rebinds."""
    users = [
        f"{path.stem}.{name}"
        for path in sorted(PACKAGE.glob("*.py"))
        for name in global_users(path.read_text(encoding="utf-8"))
    ]
    assert users == ["orthic._chain"]


def test_global_check_catches_each_form():
    assert global_users("def f():\n    global x\n    x = 1") == ["f"]
    assert global_users("class C:\n    def m(self):\n        def g():\n            global y") == ["C.m.g"]
    assert global_users("if True:\n    global z") == ["<module>"]
    # Reading, or mutating in place, a module-level name is allowed.
    assert global_users("x = []\ndef f():\n    x.append(1)\n    return x") == []


def construction_sites(source: str, cls: str) -> list[str]:
    """The functions, by qualified name, that call `cls` ("<module>" for a
    call at module level): by its name, by a name it is imported as, or as
    an attribute of a module."""
    tree = ast.parse(source)
    names = {cls} | {
        alias.asname
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
        if alias.name == cls and alias.asname
    }
    found = []

    def visit(node: ast.AST, scope: str) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.Call) and (
                isinstance(child.func, ast.Name) and child.func.id in names
                or isinstance(child.func, ast.Attribute) and child.func.attr == cls
            ):
                found.append(scope or "<module>")
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                visit(child, f"{scope}.{child.name}" if scope else child.name)
            else:
                visit(child, scope)

    visit(tree, "")
    return found


def test_unfolding_is_constructed_at_one_site():
    """One unfolding per triangle: _build assembles it, in the caller's
    coordinates, and nothing else in the package constructs one."""
    sites = [
        f"{path.stem}.{site}"
        for path in sorted(PACKAGE.glob("*.py"))
        for site in construction_sites(path.read_text(encoding="utf-8"), "Unfolding")
    ]
    assert sites == ["orthic._build"]


def test_construction_site_check_catches_each_form():
    assert construction_sites("def f():\n    return Unfolding(1)", "Unfolding") == ["f"]
    assert construction_sites("from . import orthic\nx = orthic.Unfolding()", "Unfolding") == ["<module>"]
    assert construction_sites(
        "from .orthic import Unfolding as U\nclass C:\n    def m(self):\n        return [U(), U()]",
        "Unfolding",
    ) == ["C.m", "C.m"]
    assert construction_sites("def f():\n    def g():\n        return Unfolding(Unfolding())", "Unfolding") == [
        "f.g", "f.g"
    ]
    # Naming the class, subclassing it or calling another name is not a construction.
    assert construction_sites(
        "from .orthic import Unfolding\nclass Sub(Unfolding):\n    pass\nx: Unfolding = make()\n"
        "isinstance(x, Unfolding)",
        "Unfolding",
    ) == []


def _is_assertion_error(node: ast.AST) -> bool:
    if isinstance(node, ast.Call):
        node = node.func
    return (
        isinstance(node, ast.Name) and node.id == "AssertionError"
        or isinstance(node, ast.Attribute) and node.attr == "AssertionError"
    )


def self_check_sites(source: str) -> list[str]:
    """The functions, by qualified name, that raise AssertionError or hold
    an assert statement ("<module>" for one at module level)."""
    found = []

    def visit(node: ast.AST, scope: str) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.Assert) or isinstance(child, ast.Raise) and _is_assertion_error(child.exc):
                found.append(scope or "<module>")
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                visit(child, f"{scope}.{child.name}" if scope else child.name)
            else:
                visit(child, scope)

    visit(ast.parse(source), "")
    return found


def test_package_makes_no_self_checks():
    """The exact identities of the orthic triangle and the unfolding are
    carried by tests (tests/test_reference_exact.py), not checked on every
    call, and so are the closures of the schedules built on them: the
    channel line's folded crossings close up
    (test_orthic.py::test_folded_trajectory_closes_up), and the greedy limit
    cycle closes onto its fixed point
    (test_greedy.py::test_limit_cycle_closes_onto_its_fixed_point)."""
    sites = [
        f"{path.stem}.{site}"
        for path in sorted(PACKAGE.glob("*.py"))
        for site in self_check_sites(path.read_text(encoding="utf-8"))
    ]
    assert sites == []


def test_self_check_site_check_catches_each_form():
    assert self_check_sites("def f():\n    raise AssertionError('x')") == ["f"]
    assert self_check_sites("class C:\n    def m(self):\n        if x:\n            raise AssertionError") == ["C.m"]
    assert self_check_sites("import builtins\nraise builtins.AssertionError()") == ["<module>"]
    assert self_check_sites("def f(x):\n    def g():\n        assert x") == ["f.g"]
    # Other exceptions, a bare re-raise, and catching or naming AssertionError are not self-checks.
    assert self_check_sites(
        "def f():\n    raise ValueError('x')\ntry:\n    f()\nexcept AssertionError:\n    raise\nE = AssertionError"
    ) == []
