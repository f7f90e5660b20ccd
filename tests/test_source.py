"""Source-level guards over the package modules."""
import ast
import sys
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "bottclass"


def test_package_has_no_assert_statements():
    # `python -O` strips asserts, so every invariant check must raise
    modules = sorted(PACKAGE.glob("*.py"))
    assert len(modules) >= 9
    found = [f"{path.name}:{node.lineno}" for path in modules
             for node in ast.walk(ast.parse(path.read_text(), str(path)))
             if isinstance(node, ast.Assert)]
    assert found == []


def test_package_imports_only_the_standard_library():
    # dependency-free: every import is relative or names a stdlib module
    modules = sorted(PACKAGE.glob("*.py"))
    found = []
    for path in modules:
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and not node.level:
                names = [node.module]
            else:
                continue
            found += [f"{path.name}:{node.lineno}:{name}" for name in names
                      if name.partition(".")[0] not in sys.stdlib_module_names]
    assert found == []
