"""Source hygiene: no module of the package or of the tests imports a
name it never uses, and every function, method or class the package
defines is referenced by the package or its benchmark (a method through
an attribute); a definition that only the tests reach is dead library
code.  Every parameter is read, and
a default that every call of the package and its benchmark leaves at one
value is a constant, not an option."""

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
    """(names, attributes): every bare name and every attribute name the
    ``sources`` reference."""
    names, attrs = set(), set()
    for text in sources:
        for node in ast.walk(ast.parse(text)):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                attrs.add(node.attr)
    return names, attrs


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
    other than registered ones, that ``refs`` = (names, attributes) does
    not reference: a method (a def in a class body) is referenced by an
    attribute of its name, any other definition by its name either way."""
    names, attrs = refs
    tree = ast.parse(source)
    funcs = (ast.FunctionDef, ast.AsyncFunctionDef)
    methods = {id(item) for node in ast.walk(tree)
               if isinstance(node, ast.ClassDef)
               for item in node.body if isinstance(item, funcs)}
    return sorted((node.lineno, node.name)
                  for node in ast.walk(tree)
                  if isinstance(node, funcs + (ast.ClassDef,))
                  and not _registered(node)
                  and not (node.name.startswith("__")
                           and node.name.endswith("__"))
                  and node.name not in attrs
                  and (id(node) in methods or node.name not in names))


def test_scan_finds_an_unreferenced_definition():
    source = ("class Box:\n"
              "    def __init__(self): pass\n"
              "    def used(self): pass\n"
              "    def unused(self): pass\n"
              "    @staticmethod\n"
              "    def build(): pass\n"
              "    @staticmethod\n"
              "    def lost_build(): pass\n"
              "    def shadowed(self): pass\n"
              "def helper(): pass\n"
              "def dead(): pass\n"
              "class Lost: pass\n"
              "@register('suite.name')\n"
              "def suite_body(): pass\n")
    # a parameter named like a method does not reference the method
    refs = names_used([source, "Box().used()\nhelper()\nBox.build()\n"
                               "def apply(shadowed): return shadowed()\n"])
    assert unreferenced_defs(source, refs) \
        == [(4, "unused"), (8, "lost_build"), (9, "shadowed"), (11, "dead"),
            (12, "Lost")]


@pytest.fixture(scope="module")
def package_refs():
    names, attrs = names_used(p.read_text() for p in REFERENCING)
    return names | set(ALLOWED), attrs | set(ALLOWED)


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


# "module.function.parameter" -> why its default stays although every call
# in the package and its benchmark leaves it at one value
ALLOWED_DEFAULTS = {
    "cli.main.argv": "the argv seam the CLI tests drive main through",
    "rand.rnd_matrix.density": "test_exactlin draws matrices at densities "
                               "0.3 to 0.9",
    "rand.rnd_ccomplex.steps": "test_ccx needs C-complexes with at least "
                               "one cone step",
}


def _literal(node):
    """(True, value) for a literal expression, (False, None) otherwise."""
    try:
        return True, ast.literal_eval(node)
    except ValueError:
        return False, None


def _defaulted(fn, is_method):
    """The parameters of ``fn`` callers may pass, in positional order, and
    {name: default expression} for those with a default."""
    a = fn.args
    static = any(getattr(d, "id", None) == "staticmethod"
                 for d in fn.decorator_list)
    positional = a.posonlyargs + a.args
    defaults = dict(zip([p.arg for p in positional[len(positional)
                                                   - len(a.defaults):]],
                        a.defaults))
    defaults.update((p.arg, d) for p, d in zip(a.kwonlyargs, a.kw_defaults)
                    if d is not None)
    skip = 1 if is_method and not static else 0
    return [p.arg for p in positional[skip:]], defaults


def _calls(sources):
    """name -> [(positional args, {keyword: value}, spread)] for every call
    of a bare or attribute name in ``sources``; ``partial(fn, ...)`` is a
    call of fn, and ``spread`` marks a call with ``*`` or ``**``."""
    out = {}
    for text in sources:
        for node in ast.walk(ast.parse(text)):
            if not isinstance(node, ast.Call):
                continue
            fn, args = node.func, node.args
            if getattr(fn, "id", None) == "partial" and args:
                fn, args = args[0], args[1:]
            name = getattr(fn, "id", getattr(fn, "attr", None))
            if name is None:
                continue
            spread = any(isinstance(x, ast.Starred) for x in args) \
                or any(k.arg is None for k in node.keywords)
            out.setdefault(name, []).append(
                (args, {k.arg: k.value for k in node.keywords}, spread))
    return out


def constant_defaults(modules, calls):
    """"module.function.parameter" for every defaulted parameter of a
    function or method in ``modules`` ({module name: source}) whose calls
    by name in ``calls`` (see ``_calls``) all give it one literal value,
    the default counting where a call omits it.  A constructor's calls are
    those of its class, and a parameter with no call is not judged.  A call
    that passes more positionals than the definition takes, or a keyword
    it lacks, is a call of another definition of that name."""
    funcs = (ast.FunctionDef, ast.AsyncFunctionDef)
    found = []

    def judge(qual, name, fn, is_method):
        params, defaults = _defaulted(fn, is_method)
        a = fn.args
        names = set(params) | {p.arg for p in a.kwonlyargs}
        sites = [(args, kw, spread) for args, kw, spread in calls.get(name, [])
                 if (a.vararg or len(args) <= len(params))
                 and (a.kwarg or all(k is None or k in names for k in kw))]
        for p, default in defaults.items():
            values = set()
            for args, kw, spread in sites:
                given = kw.get(p)
                if given is None and p in params[:len(args)]:
                    given = args[params.index(p)]
                ok, value = _literal(default if given is None else given)
                if spread or not ok:
                    break
                values.add(repr(value))
            else:
                if len(values) == 1:
                    found.append("%s.%s" % (qual, p))

    for module, source in modules.items():
        for node in ast.parse(source).body:
            if isinstance(node, funcs):
                judge("%s.%s" % (module, node.name), node.name, node, False)
            elif isinstance(node, ast.ClassDef):
                for item in node.body:
                    if isinstance(item, funcs):
                        name = node.name if item.name == "__init__" \
                            else item.name
                        judge("%s.%s.%s" % (module, node.name, item.name),
                              name, item, True)
    return sorted(found)


def test_scan_finds_a_constant_default():
    source = ("def draw(rng, span=3, scale=1, mode='a', seen=frozenset()):\n"
              "    return rng\n"
              "def lone(x=0):\n"
              "    return x\n"
              "class Box:\n"
              "    def __init__(self, size=2): pass\n"
              "    def fill(self, v, times=1): pass\n")
    calls = _calls([source, "draw(r, 3)\ndraw(r, scale=2)\n"
                            "partial(draw, r, 3, mode='a')\n"
                            "Box(2).fill(0)\nb.fill(1, 5)\nBox(*s)\n"])
    assert constant_defaults({"m": source}, calls) \
        == ["m.draw.mode", "m.draw.span"]


def test_scan_judges_a_default_by_the_calls_its_definition_can_take():
    # b.validate(h, g) passes two positionals, more than A.validate takes,
    # and d.fill(v, mode=m) passes a keyword C.fill lacks: both call the
    # other definition of the name, so neither varies A's or C's default
    source = ("class A:\n"
              "    def validate(self, exactness=True): pass\n"
              "class B:\n"
              "    def validate(self, frm, to): pass\n"
              "class C:\n"
              "    def fill(self, times=1): pass\n"
              "class D:\n"
              "    def fill(self, value, mode='x'): pass\n")
    calls = _calls([source, "a.validate()\nb.validate(h, g)\n"
                            "c.fill()\nd.fill(v, mode=m)\n"])
    assert constant_defaults({"m": source}, calls) \
        == ["m.A.validate.exactness", "m.C.fill.times"]


def test_every_default_is_varied():
    modules = {p.stem: p.read_text() for p in MODULES}
    calls = _calls(p.read_text() for p in REFERENCING)
    assert constant_defaults(modules, calls) == sorted(ALLOWED_DEFAULTS)
