"""Static checks on the package source."""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "tritterlab"


def test_no_assert_statements():
    # invariants must hold under python -O, which strips assert statements
    sources = sorted(PACKAGE.rglob("*.py"))
    assert sources
    offenders = [
        f"{path.relative_to(PACKAGE.parent)}:{node.lineno}"
        for path in sources
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), filename=str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert offenders == []
