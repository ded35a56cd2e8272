"""Static checks on the package source."""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "tritterlab"


def _trees():
    sources = sorted(PACKAGE.rglob("*.py"))
    assert sources
    for path in sources:
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        yield path.relative_to(PACKAGE.parent), tree


def test_no_assert_statements():
    # invariants must hold under python -O, which strips assert statements
    offenders = [
        f"{path}:{node.lineno}"
        for path, tree in _trees()
        for node in ast.walk(tree)
        if isinstance(node, ast.Assert)
    ]
    assert offenders == []


def test_json_dumps_only_in_report_writer():
    # one writer keeps key order and indentation identical across every JSON output
    def owners(node, owner):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            owner = node.name
        # json.dumps calls, and `from json import dumps`
        if (isinstance(node, ast.Attribute) and node.attr == "dumps") or (
            isinstance(node, ast.alias) and node.name == "dumps"
        ):
            yield owner
        for child in ast.iter_child_nodes(node):
            yield from owners(child, owner)

    found = [f"{path}:{owner}" for path, tree in _trees() for owner in owners(tree, "<module>")]
    assert found == ["tritterlab/cli.py:report_to_json"]
