"""Source hygiene: no module of the package or of the tests imports a
name it never uses, and every function, method or class the package
defines is referenced by the package or its benchmark; a definition that
only the tests reach is dead library code."""

import ast
import pathlib

import pytest

import cubehom

MODULES = sorted(pathlib.Path(cubehom.__file__).parent.glob("*.py"))
TESTS = sorted(pathlib.Path(__file__).resolve().parent.glob("*.py"))


def unused_imports(source):
    """Names bound by the imports of ``source`` that nothing references;
    a name listed in the module's ``__all__`` is a re-export, so used."""
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
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                getattr(t, "id", None) == "__all__" for t in node.targets):
            used.update(elt.value for elt in node.value.elts)
    return sorted((line, name) for name, line in bound.items()
                  if name not in used)


def test_scan_finds_an_unused_import():
    assert unused_imports("import os\nfrom math import pi, tau\nprint(pi)\n") \
        == [(1, "os"), (2, "tau")]
    assert unused_imports("from math import e, pi, tau\n"
                          "__all__ = ['pi']\nprint(e)\n") == [(1, "tau")]


@pytest.mark.parametrize(
    "path", MODULES + TESTS,
    ids=lambda p: p.name if p in MODULES else "tests/" + p.name)
def test_every_import_is_used(path):
    assert unused_imports(path.read_text()) == []


ROOT = pathlib.Path(__file__).resolve().parent.parent
REFERENCING = MODULES + sorted((ROOT / "perfbench").glob("*.py"))

# name -> why it stays in the package with no referrer in the package or
# its benchmark
ALLOWED = {}


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


def _registered(node):
    """Whether a ``@register(...)`` decorator, which puts the definition in
    a catalog that is read by name, decorates ``node``."""
    for dec in node.decorator_list:
        fn = dec.func if isinstance(dec, ast.Call) else dec
        if getattr(fn, "id", getattr(fn, "attr", None)) == "register":
            return True
    return False


def unreferenced_defs(source, refs):
    """Non-dunder functions, methods and classes defined in ``source``,
    other than registered ones, whose names are not in ``refs``."""
    defs = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    return sorted((node.lineno, node.name)
                  for node in ast.walk(ast.parse(source))
                  if isinstance(node, defs) and not _registered(node)
                  and not (node.name.startswith("__")
                           and node.name.endswith("__"))
                  and node.name not in refs)


def test_scan_finds_an_unreferenced_definition():
    source = ("class Box:\n"
              "    def __init__(self): pass\n"
              "    def used(self): pass\n"
              "    def unused(self): pass\n"
              "    @staticmethod\n"
              "    def build(): pass\n"
              "    @staticmethod\n"
              "    def lost_build(): pass\n"
              "def helper(): pass\n"
              "def dead(): pass\n"
              "class Lost: pass\n"
              "@register('suite.name')\n"
              "def suite_body(): pass\n")
    refs = names_used([source, "Box().used()\nhelper()\nBox.build()\n"])
    assert unreferenced_defs(source, refs) \
        == [(4, "unused"), (8, "lost_build"), (10, "dead"), (11, "Lost")]


@pytest.fixture(scope="module")
def package_refs():
    return names_used(p.read_text() for p in REFERENCING) | set(ALLOWED)


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_definition_is_referenced(path, package_refs):
    assert unreferenced_defs(path.read_text(), package_refs) == []



def unread_parameters(source):
    """(line, function, parameter) for every parameter of an undecorated,
    non-dunder module-level function or method that its body never reads.
    A method's own first parameter is exempt, and so is ``_``, the name of
    a parameter unused on purpose (the ``**_`` of the suite bodies)."""
    funcs = (ast.FunctionDef, ast.AsyncFunctionDef)
    found = []

    def scan(fn, is_method):
        if fn.decorator_list or (fn.name.startswith("__")
                                 and fn.name.endswith("__")):
            return
        a = fn.args
        params = a.posonlyargs + a.args + a.kwonlyargs \
            + [p for p in (a.vararg, a.kwarg) if p is not None]
        read = {node.id for node in ast.walk(fn)
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
        found.extend((fn.lineno, fn.name, p.arg)
                     for p in params[1 if is_method else 0:]
                     if p.arg not in read and p.arg != "_")

    for node in ast.parse(source).body:
        if isinstance(node, funcs):
            scan(node, False)
        elif isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, funcs):
                    scan(item, True)
    return sorted(found)


def test_scan_finds_an_unread_parameter():
    source = ("def f(a, b, *rest, c=1, **kw):\n"
              "    return a + c\n"
              "def g(x, **_):\n"
              "    def inner(y):\n"
              "        return x\n"
              "    return inner\n"
              "class Box:\n"
              "    def __init__(self, unused): pass\n"
              "    def m(self, v, w):\n"
              "        w = v\n"
              "    @staticmethod\n"
              "    def s(z): pass\n")
    assert unread_parameters(source) == [
        (1, "f", "b"), (1, "f", "kw"), (1, "f", "rest"), (9, "m", "w")]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_parameter_is_read(path):
    assert unread_parameters(path.read_text()) == []
