"""Checks on the library source itself."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "braidbracket"


def test_no_bare_assert_in_library():
    # ``python -O`` strips assert statements, so an invariant guard written
    # as one silently stops guarding; guards raise real exceptions instead
    found = []
    for path in sorted(SRC.rglob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        found += [
            f"{path.relative_to(SRC)}:{node.lineno}"
            for node in ast.walk(tree)
            if isinstance(node, ast.Assert)
        ]
    assert found == []
