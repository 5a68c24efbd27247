import ast
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
UNCALLED_ALLOWED = {"simworld.replay_episode"}  # the determinism tests replay logs


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
