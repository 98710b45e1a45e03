"""Source hygiene: no module of the package imports a name it never uses,
and every plain function or class it defines is referenced by the package,
its tests or its benchmark."""

import ast
import pathlib

import pytest

import cubehom

MODULES = sorted(pathlib.Path(cubehom.__file__).parent.glob("*.py"))


def unused_imports(source):
    """Names bound by the imports of ``source`` that nothing references."""
    tree = ast.parse(source)
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = (alias.asname or alias.name).partition(".")[0]
                bound[name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in bound.items()
                  if name not in used)


def test_scan_finds_an_unused_import():
    assert unused_imports("import os\nfrom math import pi, tau\nprint(pi)\n") \
        == [(1, "os"), (2, "tau")]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_import_is_used(path):
    assert unused_imports(path.read_text()) == []


ROOT = pathlib.Path(__file__).resolve().parent.parent
REFERENCING = MODULES + sorted((ROOT / "tests").glob("*.py")) \
    + sorted((ROOT / "perfbench").glob("*.py"))


def names_used(sources):
    """Every name and attribute name the ``sources`` reference."""
    refs = set()
    for text in sources:
        for node in ast.walk(ast.parse(text)):
            if isinstance(node, ast.Name):
                refs.add(node.id)
            elif isinstance(node, ast.Attribute):
                refs.add(node.attr)
    return refs


def unreferenced_defs(source, refs):
    """Undecorated, non-dunder functions and classes defined in ``source``
    whose names are not in ``refs``."""
    defs = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    return sorted((node.lineno, node.name)
                  for node in ast.walk(ast.parse(source))
                  if isinstance(node, defs) and not node.decorator_list
                  and not (node.name.startswith("__")
                           and node.name.endswith("__"))
                  and node.name not in refs)


def test_scan_finds_an_unreferenced_definition():
    source = ("class Box:\n"
              "    def __init__(self): pass\n"
              "    def used(self): pass\n"
              "    def unused(self): pass\n"
              "    @staticmethod\n"
              "    def decorated(): pass\n"
              "def helper(): pass\n"
              "def dead(): pass\n"
              "class Lost: pass\n")
    refs = names_used([source, "Box().used()\nhelper()\n"])
    assert unreferenced_defs(source, refs) \
        == [(4, "unused"), (8, "dead"), (9, "Lost")]


@pytest.fixture(scope="module")
def package_refs():
    return names_used(p.read_text() for p in REFERENCING)


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_definition_is_referenced(path, package_refs):
    assert unreferenced_defs(path.read_text(), package_refs) == []
