import ast
from pathlib import Path

SOURCES = sorted((Path(__file__).resolve().parents[1] / "src" / "ferns").glob("*.py"))


def test_package_has_no_assert_statements():
    # python -O strips assert statements, so a guard written as one stops
    # checking anything; guards raise real exceptions instead
    found = [f"{path.name}:{node.lineno}"
             for path in SOURCES
             for node in ast.walk(ast.parse(path.read_text()))
             if isinstance(node, ast.Assert)]
    assert SOURCES and not found, found
