"""Rules that hold for every module of the package."""

import ast
from pathlib import Path


def test_no_assert_statements():
    # Invariants raise the package's errors: ``python -O`` strips asserts.
    # Scans src/symplat itself, wherever the imported package lives.
    paths = sorted((Path(__file__).resolve().parents[1] / "src" / "symplat").glob("*.py"))
    assert {"cli.py", "errors.py", "lattice.py", "_kernels.py"} <= {p.name for p in paths}
    found = [f"{path.name}:{node.lineno}"
             for path in paths
             for node in ast.walk(ast.parse(path.read_text()))
             if isinstance(node, ast.Assert)]
    assert found == []
