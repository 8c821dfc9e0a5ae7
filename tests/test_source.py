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


def test_package_raises_no_system_exit_but_at_the_cli_entry_point():
    """Input errors raise PhlError, which main() turns into one stderr line
    and exit status 1, so in-process callers of main() get a status back;
    only the `__main__` line of cli.py raises SystemExit."""
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        source = path.read_text()
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, ast.Raise) and "SystemExit" in ast.unparse(node):
                found.append((path.name, ast.get_source_segment(source, node)))
    assert found == [("cli.py", "raise SystemExit(main())")]
