"""Proof checks in the package must raise real errors: an `assert`
statement vanishes under `python -O`, and the check with it."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "regtail"


def test_package_has_no_assert_statements():
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(SRC.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert len(list(SRC.glob("*.py"))) > 5
    assert found == []
