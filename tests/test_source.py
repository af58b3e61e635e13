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


SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"

# public names that nothing in the package calls, each kept for a reason
UNCALLED_ALLOWED = {}


def test_public_names_have_callers():
    # a public top-level function or class, and a public method or property
    # of a package class, must be named somewhere else in the package, or
    # be looked up by name from the benchmark's tracer
    defined, named = set(), set()
    for path in SOURCES:
        tree = ast.parse(path.read_text())
        for top in tree.body:
            members = top.body if isinstance(top, ast.ClassDef) else []
            defined.update(node.name for node in [top, *members]
                           if isinstance(node, (ast.FunctionDef, ast.ClassDef))
                           and not node.name.startswith("_"))
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                named.add(node.id)
            elif isinstance(node, ast.Attribute):
                named.add(node.attr)
            elif isinstance(node, ast.alias):
                named.add(node.name)
    named.update(node.value for node in ast.walk(ast.parse(SPANS.read_text()))
                 if isinstance(node, ast.Constant) and isinstance(node.value, str))
    assert set(UNCALLED_ALLOWED) <= defined
    uncalled = defined - named - set(UNCALLED_ALLOWED)
    assert not uncalled, sorted(uncalled)


def test_package_imports_only_at_module_level():
    # every module of the package already imports from the modules it
    # needs at the top, so a function-local import hides no cycle
    found = [f"{path.name}:{node.lineno}"
             for path in SOURCES
             for func in ast.walk(ast.parse(path.read_text()))
             if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef))
             for node in ast.walk(func)
             if isinstance(node, ast.ImportFrom) and node.level]
    assert SOURCES and not found, found
