import ast
import pathlib

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
