"""Every import in the package is used: no linter runs here, so this stdlib
check keeps names that a refactor left behind from piling up."""

import ast
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


def defined_functions(source: str):
    """(line, name) of every function and method defined in source, dunder
    methods aside."""
    return [(node.lineno, node.name) for node in ast.walk(ast.parse(source))
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
            and not (node.name.startswith("__") and node.name.endswith("__"))]


def referenced_names(source: str):
    """Names the source reads or looks up as attributes."""
    names = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
    return names


def exported_names(source: str):
    """Names the package `__init__.py` imports, i.e. its public API."""
    return {alias.asname or alias.name for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.ImportFrom) for alias in node.names}


def unreferenced_functions(sources: dict, init_source: str):
    """{module: [(line, name)]} of functions that no module references and
    the package does not export."""
    used = exported_names(init_source).union(
        *(referenced_names(src) for src in sources.values()))
    out = {}
    for module, src in sources.items():
        dead = [(line, name) for line, name in defined_functions(src)
                if name not in used]
        if dead:
            out[module] = dead
    return out


def test_the_check_sees_an_unreferenced_function():
    sources = {"a": "def f():\n    return g()\n\ndef g():\n    pass\n\n"
                    "class C:\n    def m(self):\n        pass\n"
                    "    def __eq__(self, o):\n        return self.n\n"
                    "    @property\n    def n(self):\n        return 1\n",
               "b": "def h():\n    pass\n"}
    assert unreferenced_functions(sources, "from .b import h\n") == {
        "a": [(1, "f"), (8, "m")]}


def test_every_function_is_used_in_the_package():
    sources = {str(p.relative_to(PACKAGE)): p.read_text()
               for p in sorted(PACKAGE.rglob("*.py"))}
    init = (PACKAGE / "__init__.py").read_text()
    assert unreferenced_functions(sources, init) == {}
