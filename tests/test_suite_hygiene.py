import ast
import importlib
import pathlib
import tomllib

import pytest

TESTS = sorted(pathlib.Path(__file__).parent.glob("*.py"))


def duplicate_definitions(tree: ast.Module) -> list[str]:
    """Names that a module or a class body defines twice with def or class.

    The later definition replaces the earlier one, so pytest never sees the
    tests of the first: they stop running without any failure.
    """
    found = []

    def scan(body, scope):
        seen = {}
        for node in body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                if node.name in seen:
                    found.append(f"{scope}{node.name} (lines {seen[node.name]} and {node.lineno})")
                seen[node.name] = node.lineno
                if isinstance(node, ast.ClassDef):
                    scan(node.body, f"{scope}{node.name}.")

    scan(tree.body, "")
    return found


@pytest.mark.parametrize("path", TESTS, ids=lambda p: p.name)
def test_no_name_defined_twice(path):
    assert duplicate_definitions(ast.parse(path.read_text(), str(path))) == []


def test_duplicates_are_found():
    source = "class A:\n    def t(self): pass\n    def t(self): pass\nclass A: pass\n"
    assert duplicate_definitions(ast.parse(source)) == [
        "A.t (lines 2 and 3)",
        "A (lines 1 and 4)",
    ]


ROOT = pathlib.Path(__file__).parent.parent
SOURCES = sorted((ROOT / "src" / "polydrive").glob("*.py"))
# Kept although nothing outside the tests names them.
UNCALLED_ALLOWED: set[str] = set()


def imported_names(tree: ast.AST, strings: bool = False) -> set[str]:
    """Names a module takes from other modules: attributes, imports and, with
    ``strings``, dotted identifier strings (perfbench names the functions it
    traces as "module", "Class.method")."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.alias):
            names.add(node.name.rsplit(".", 1)[-1])
        elif strings and isinstance(node, ast.Constant) and isinstance(node.value, str):
            if all(part.isidentifier() for part in node.value.split(".")):
                names.update(node.value.split("."))
    return names


def uncalled_functions(modules: dict[str, ast.Module], imported: set[str]) -> list[str]:
    """Module-level functions that their own module never reads by name and
    that are not in ``imported``.  A local variable of another module that
    happens to share the name does not count."""
    found = []
    for name, tree in modules.items():
        read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
        found += [
            f"{name}.{node.name}"
            for node in tree.body
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
            and node.name not in read | imported
        ]
    return sorted(found)


def test_every_function_is_called_outside_the_tests():
    modules = {p.stem: ast.parse(p.read_text(), str(p)) for p in SOURCES}
    imported = set().union(*(imported_names(tree) for tree in modules.values()))
    for path in sorted((ROOT / "perfbench").glob("*.py")):
        imported |= imported_names(ast.parse(path.read_text(), str(path)), strings=True)
    scripts = tomllib.loads((ROOT / "pyproject.toml").read_text())["project"]["scripts"]
    imported |= {target.rsplit(":", 1)[-1] for target in scripts.values()}
    assert [f for f in uncalled_functions(modules, imported) if f not in UNCALLED_ALLOWED] == []


def test_uncalled_functions_are_found():
    source = "def used(): pass\ndef unused(): pass\ndef f():\n    unused = 1\n    used()\n"
    assert uncalled_functions({"m": ast.parse(source)}, set()) == ["m.f", "m.unused"]
    assert uncalled_functions({"m": ast.parse(source)}, {"f", "unused"}) == []
    strings = ast.parse("x = ('simworld', 'World.step')\ny = 'not a name'")
    assert imported_names(strings) == set()
    assert imported_names(strings, strings=True) == {"simworld", "World", "step"}


def traced_names(tree: ast.Module) -> list[tuple[str, str]]:
    """The (module, dotted name) pairs of a TRACED list of tuples, read from
    the source as imported_names reads perfbench strings."""
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "TRACED" for t in node.targets):
            return [(entry.elts[0].value, entry.elts[1].value) for entry in node.value.elts]
    return []


def test_every_traced_name_resolves():
    # perfbench times these by name; a rename in src/ would leave its
    # per-layer split silently empty.
    traced = traced_names(ast.parse((ROOT / "perfbench" / "tracing.py").read_text()))
    assert len(traced) > 30
    missing = []
    for module, name in traced:
        obj = importlib.import_module(f"polydrive.{module}")
        for part in name.split("."):
            obj = getattr(obj, part, None)
        if not callable(obj):
            missing.append(f"{module}.{name}")
    assert missing == []


def test_traced_names_are_read():
    tree = ast.parse("TRACED = [\n    ('simworld', 'World.step', None),\n    ('kernels', 'f', _n),\n]\n")
    assert traced_names(tree) == [("simworld", "World.step"), ("kernels", "f")]


# Defaults that no call in src/ or perfbench/ passes, kept on purpose.
DEFAULT_UNPASSED_ALLOWED = {
    "cli.main(argv)",  # the console script calls main()
    "simworld.AgentState.route_s",  # World.step and drive_task assign it
}


def defaulted_parameters(modules: dict[str, ast.Module]) -> list[tuple[str, str, str, int | None]]:
    """(label, call name, parameter, position) of each parameter with a default,
    of every module-level function and class method.  A method's position
    leaves out self, an __init__ is called by its class name, and a
    keyword-only parameter has no position."""
    found = []

    def scan(fn, label, call, skip):
        args = fn.args.posonlyargs + fn.args.args
        first = len(args) - len(fn.args.defaults)
        found.extend((f"{label}({a.arg})", call, a.arg, i - skip) for i, a in enumerate(args) if i >= first)
        found.extend(
            (f"{label}({a.arg})", call, a.arg, None)
            for a, d in zip(fn.args.kwonlyargs, fn.args.kw_defaults)
            if d is not None
        )

    for name, tree in modules.items():
        for node in tree.body:
            if isinstance(node, ast.FunctionDef):
                scan(node, f"{name}.{node.name}", node.name, 0)
            elif isinstance(node, ast.ClassDef):
                for fn in node.body:
                    if isinstance(fn, ast.FunctionDef):
                        static = any(getattr(d, "id", "") == "staticmethod" for d in fn.decorator_list)
                        call = node.name if fn.name == "__init__" else fn.name
                        scan(fn, f"{name}.{node.name}.{fn.name}", call, 0 if static else 1)
    return found


def defaulted_fields(modules: dict[str, ast.Module]) -> list[tuple[str, str, str, int]]:
    """(label, class name, field, position) of each field with a default of
    every module-level dataclass, whose __init__ takes its fields in order."""
    found = []
    for name, tree in modules.items():
        for node in tree.body:
            if not isinstance(node, ast.ClassDef):
                continue
            decorators = [d.func if isinstance(d, ast.Call) else d for d in node.decorator_list]
            if not any("dataclass" in (getattr(d, "id", None), getattr(d, "attr", None)) for d in decorators):
                continue
            fields = [f for f in node.body if isinstance(f, ast.AnnAssign) and isinstance(f.target, ast.Name)]
            found.extend(
                (f"{name}.{node.name}.{f.target.id}", node.name, f.target.id, i)
                for i, f in enumerate(fields)
                if f.value is not None
            )
    return found


def unpassed_defaults(modules: dict[str, ast.Module], callers: list[ast.AST]) -> list[str]:
    """Defaulted parameters and dataclass fields that no call of the same
    name in ``callers`` passes, by keyword or by position; a call with *args
    or **kwargs passes whatever it may, and a keyword of a replace call
    (dataclasses.replace) passes that field of every dataclass."""
    passed: dict[str, list[tuple[int, set, bool]]] = {}
    for tree in callers:
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                name = getattr(node.func, "id", None) or getattr(node.func, "attr", None)
                star = any(isinstance(a, ast.Starred) for a in node.args)
                keywords = {k.arg for k in node.keywords}
                passed.setdefault(name, []).append((len(node.args), keywords, star))
    replaced = set().union(*(keywords for _, keywords, _ in passed.get("replace", [])))

    def unpassed(call, param, pos):
        return not any(
            param in keywords or None in keywords or pos is not None and (pos < n or star)
            for n, keywords, star in passed.get(call, [])
        )

    params = [label for label, *use in defaulted_parameters(modules) if unpassed(*use)]
    fields = [
        label for label, *use in defaulted_fields(modules)
        if unpassed(*use) and not replaced & {use[1], None}
    ]
    return sorted(params + fields)


def test_every_default_is_passed_somewhere():
    modules = {p.stem: ast.parse(p.read_text(), str(p)) for p in SOURCES}
    callers = list(modules.values())
    callers += [ast.parse(p.read_text(), str(p)) for p in sorted((ROOT / "perfbench").glob("*.py"))]
    assert [f for f in unpassed_defaults(modules, callers) if f not in DEFAULT_UNPASSED_ALLOWED] == []


def test_unpassed_defaults_are_found():
    source = (
        "def f(a, b=1, c=2, *, d=3): pass\n"
        "class K:\n"
        "    def __init__(self, x=0): pass\n"
        "    def m(self, y=0, z=0): pass\n"
        "    @staticmethod\n"
        "    def s(w=0): pass\n"
    )
    modules = {"mod": ast.parse(source)}
    assert unpassed_defaults(modules, []) == [
        "mod.K.__init__(x)", "mod.K.m(y)", "mod.K.m(z)", "mod.K.s(w)",
        "mod.f(b)", "mod.f(c)", "mod.f(d)",
    ]
    calls = ast.parse("f(0, 1)\nf(0, d=4)\nK(1)\nk.m(1)\nK.s(1)\ng(*args)\n")
    assert unpassed_defaults(modules, [calls]) == ["mod.K.m(z)", "mod.f(c)"]
    assert unpassed_defaults(modules, [ast.parse("f(*a)\nk.m(**kw)")]) == [
        "mod.K.__init__(x)", "mod.K.s(w)", "mod.f(d)",
    ]
    # Dataclass fields with a default, passed by position, by keyword or
    # through dataclasses.replace.
    source = (
        "@dataclass\n"
        "class D:\n"
        "    a: int\n"
        "    b: int = 0\n"
        "    c: list = field(default_factory=list)\n"
        "    d: int = 0\n"
        "@dataclasses.dataclass(frozen=True)\n"
        "class F:\n"
        "    e: int = 0\n"
        "class Plain:\n"
        "    g: int = 0\n"
    )
    modules = {"dc": ast.parse(source)}
    assert unpassed_defaults(modules, []) == ["dc.D.b", "dc.D.c", "dc.D.d", "dc.F.e"]
    # A str.replace call's positions pass no field; replace's keywords do.
    calls = ast.parse("D(0, 1)\nD(0, d=2)\nreplace(x, c=[])\nkey.replace('e', 'f')\n")
    assert unpassed_defaults(modules, [calls]) == ["dc.F.e"]
    assert unpassed_defaults(modules, [ast.parse("D(*row)\ndataclasses.replace(x, **kw)")]) == []
    assert unpassed_defaults(modules, [ast.parse("F(1)")]) == ["dc.D.b", "dc.D.c", "dc.D.d"]
