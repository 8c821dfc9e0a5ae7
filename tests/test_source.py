import ast
import importlib.util
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "phl"


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


def test_every_traced_name_exists_in_its_module():
    """bench/tracing.py wraps each name WRAPPED lists by getattr on its phl
    module, so a name deleted or renamed there breaks every traced run."""
    spec = importlib.util.spec_from_file_location("tracing", ROOT / "bench" / "tracing.py")
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    names = [(short, name) for short, names in tracing.WRAPPED.items() for name in names]
    assert names
    missing = [f"phl.{short}.{name}" for short, name in names
               if not callable(getattr(importlib.import_module(f"phl.{short}"), name, None))]
    assert missing == []


def test_no_module_imports_a_name_it_does_not_use():
    """An import no code reads hides what a module depends on.  __init__.py
    is exempt: it imports to re-export."""
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text())
        read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        for node in ast.walk(tree):
            if isinstance(node, (ast.Import, ast.ImportFrom)) and getattr(
                    node, "module", None) != "__future__":
                bound = [alias.asname or alias.name.split(".")[0] for alias in node.names]
                found += [f"{path.name}:{name}" for name in bound if name not in read]
    assert found == []


def test_package_imports_only_at_module_level():
    """An import inside a function body hides what a module depends on and
    runs again on every call.  canonical.py's `if TYPE_CHECKING:` import is
    at module level, so it is allowed."""
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        for fn in ast.walk(ast.parse(path.read_text())):
            if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                found += [f"{path.name}:{node.lineno}" for node in ast.walk(fn)
                          if isinstance(node, (ast.Import, ast.ImportFrom))]
    assert found == []


def test_every_module_begins_with_the_future_import():
    """An annotation evaluated at import can put phl's classes into a
    process-wide cache (typing caches what it builds), which keeps an old
    import's modules alive after a fresh one.  __init__.py is exempt: it
    only re-exports."""
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text())
        body = tree.body[1:] if ast.get_docstring(tree) is not None else tree.body
        if not (body and isinstance(body[0], ast.ImportFrom) and body[0].module == "__future__"
                and [alias.name for alias in body[0].names] == ["annotations"]):
            found.append(path.name)
    assert found == []


def _first_hom(node) -> bool:
    """Is node the call next(<...>.homs(...), None)?"""
    return (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
            and node.func.id == "next" and len(node.args) == 2
            and isinstance(node.args[0], ast.Call)
            and isinstance(node.args[0].func, ast.Attribute) and node.args[0].func.attr == "homs"
            and isinstance(node.args[1], ast.Constant) and node.args[1].value is None)


def test_no_module_asks_the_enumeration_a_yes_or_no_question():
    """`next(P.homs(Q, ...), None) is None` runs the ordered enumeration for
    its first map; `P.maps_to(Q, ...)` takes the same constraints and
    searches smallest domain first, which refutes far faster."""
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        source = path.read_text()
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, ast.Compare):
                operands = [node.left, *node.comparators]
                if any(map(_first_hom, operands)) and any(
                        isinstance(c, ast.Constant) and c.value is None for c in operands):
                    found.append(f"{path.name}:{node.lineno}")
    assert found == []


LEAK_CHECK = """
import gc, sys, weakref
import phl
from phl.report import RunContext, run_targets
run_targets(["sigma-pos"], RunContext())
first = weakref.ref(phl.syntax.Var)
for name in [m for m in sys.modules if m == "phl" or m.startswith("phl.")]:
    del sys.modules[name]
del phl, RunContext, run_targets
import phl
gc.collect()
print("alive" if first() is not None else "gone")
"""


def test_a_fresh_import_frees_the_previous_one():
    """The benchmark imports phl afresh for every set-up; nothing may keep
    the previous import's classes, and through them its modules, alive."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, "-c", LEAK_CHECK], capture_output=True,
                          text=True, env=env, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "gone\n"
