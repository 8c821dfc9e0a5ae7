import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "phl"


def test_package_has_no_assert_statements():
    """python -O strips assert statements, so every check in the package
    raises an explicit error instead."""
    found = [f"{path.name}:{node.lineno}"
             for path in sorted(PACKAGE.glob("*.py"))
             for node in ast.walk(ast.parse(path.read_text()))
             if isinstance(node, ast.Assert)]
    assert found == []
