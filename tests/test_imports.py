"""Every import in the package is used: no linter runs here, so this stdlib
check keeps names that a refactor left behind from piling up."""

import ast
from fractions import Fraction
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "treebound"
MODULES = sorted(p for p in PACKAGE.rglob("*.py") if p != PACKAGE / "__init__.py")


def unused_imports(source: str):
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return sorted((line, name) for name, line in imported.items()
                  if name not in used)


def test_the_check_sees_an_unused_import():
    assert unused_imports("import os\nfrom typing import List, Tuple\n"
                          "x: Tuple = ()\n") == [(1, "os"), (2, "List")]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: str(p.relative_to(PACKAGE)))
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


# -- functions that only tests call -------------------------------------------

FUNCTION = (ast.FunctionDef, ast.AsyncFunctionDef)

# attribute names of the builtin values the package computes with: a call
# such as "abc".index(...) reads like a call of any method named index
BUILTIN_ATTRIBUTES = frozenset().union(
    *(dir(t) for t in (str, list, dict, tuple, set, int, Fraction)))


def defined_functions(tree):
    """Every function and method defined in the tree, dunder methods aside."""
    return [node for node in ast.walk(tree) if isinstance(node, FUNCTION)
            and not (node.name.startswith("__") and node.name.endswith("__"))]


def referenced_names(node, dead, enclosing=frozenset()):
    """Names read or looked up as attributes under node, outside the dead
    functions, and apart from a function's references to itself."""
    if node in dead:
        return
    if isinstance(node, FUNCTION):
        enclosing = enclosing | {node.name}
    if isinstance(node, ast.Name) and node.id not in enclosing:
        yield node.id
    elif isinstance(node, ast.Attribute) and node.attr not in enclosing:
        yield node.attr
    for child in ast.iter_child_nodes(node):
        yield from referenced_names(child, dead, enclosing)


def unreferenced_functions(sources: dict):
    """{module: [(line, name)]} of functions that no live code references.

    A function is dead when no code outside dead functions names it; the
    check repeats until no new dead function turns up, so code that only
    dead functions call is dead too.  An import is no reference: neither a
    package export nor a module importing what only its dead code uses
    keeps a function alive.  Uses are matched by bare name, so a method
    named like a BUILTIN_ATTRIBUTES entry cannot be told used or not, and
    is reported whatever calls it.
    """
    trees = {module: ast.parse(src) for module, src in sources.items()}
    functions = {module: defined_functions(tree)
                 for module, tree in trees.items()}
    methods = {node for tree in trees.values() for cls in ast.walk(tree)
               if isinstance(cls, ast.ClassDef) for node in cls.body}
    dead = {node for nodes in functions.values() for node in nodes
            if node in methods and node.name in BUILTIN_ATTRIBUTES}
    while True:
        used = set()
        for tree in trees.values():
            used.update(referenced_names(tree, dead))
        new = {node for nodes in functions.values() for node in nodes
               if node not in dead and node.name not in used}
        if not new:
            break
        dead |= new
    return {module: sorted((node.lineno, node.name) for node in nodes
                           if node in dead)
            for module, nodes in functions.items()
            if any(node in dead for node in nodes)}


def test_the_check_sees_an_unreferenced_function():
    sources = {"a": "def f():\n    return g()\n\ndef g():\n    pass\n\n"
                    "class C:\n    def m(self):\n        pass\n"
                    "    def __eq__(self, o):\n        return self.n\n"
                    "    @property\n    def n(self):\n        return 1\n"
                    "\nf()\n",
               "b": "def h():\n    pass\n",
               "__init__": "from .b import h\n"}
    # an export is no use, and neither is a method's call of itself
    assert unreferenced_functions(sources) == {"a": [(8, "m")],
                                               "b": [(1, "h")]}
    # a method named like a list or str method is reported even where it is
    # called, and a function of that name is matched by name as ever
    sources["d"] = ("class D:\n    def index(self):\n        return 0\n"
                    "\ndef count():\n    return D().index()\n"
                    "\ncount()\n[].index(0)\n")
    assert unreferenced_functions(sources) == {"a": [(8, "m")],
                                               "b": [(1, "h")],
                                               "d": [(2, "index")]}
    del sources["d"]
    sources["a"] += ("\ndef r(n):\n    return r(n - 1) if n else g()\n"
                     "\ndef d1():\n    return d2()\n"
                     "\ndef d2():\n    return C().m()\n")
    # recursion keeps r no more alive than a chain from a dead caller keeps
    # d2 alive; g stays alive through the call at the end of the module
    assert unreferenced_functions(sources) == {
        "a": [(8, "m"), (18, "r"), (21, "d1"), (24, "d2")],
        "b": [(1, "h")]}
    del sources["a"]
    sources["c"] = "def f():\n    return f()\n\ndef g():\n    return f()\n"
    assert unreferenced_functions(sources) == {
        "b": [(1, "h")], "c": [(1, "f"), (4, "g")]}


def test_every_function_is_used_in_the_package():
    sources = {str(p.relative_to(PACKAGE)): p.read_text()
               for p in sorted(PACKAGE.rglob("*.py"))}
    assert unreferenced_functions(sources) == {}


def test_the_checker_imports_only_the_field_arithmetic():
    # the witness checker shares no kernel with the search: nothing from
    # geometry, search or spectral, and no module but numeric at all
    tree = ast.parse((PACKAGE / "check.py").read_text())
    imports = [node for node in ast.walk(tree)
               if isinstance(node, (ast.Import, ast.ImportFrom))]
    modules = {(node.level, node.module) for node in imports
               if isinstance(node, ast.ImportFrom)
               and node.module != "__future__"}
    assert modules == {(1, "numeric")}
    assert all(isinstance(node, ast.ImportFrom) for node in imports)
