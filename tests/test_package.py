"""Rules that hold for every module of the package."""

import ast
from pathlib import Path

import symplat


def test_no_assert_statements():
    # Invariants raise the package's errors: ``python -O`` strips asserts.
    root = Path(symplat.__file__).parent
    found = [f"{path.name}:{node.lineno}"
             for path in sorted(root.rglob("*.py"))
             for node in ast.walk(ast.parse(path.read_text()))
             if isinstance(node, ast.Assert)]
    assert found == []
