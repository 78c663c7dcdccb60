"""Static checks on the hkmod sources: no float enters the exact arithmetic."""

import ast
from pathlib import Path

import pytest

SOURCES = sorted((Path(__file__).resolve().parents[1] / "src" / "hkmod").glob("*.py"))


def float_uses(tree: ast.AST) -> list[str]:
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Constant) and type(node.value) is float:
            found.append(f"line {node.lineno}: float literal {node.value!r}")
        elif (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id in ("float", "round")
        ):
            found.append(f"line {node.lineno}: call to {node.func.id}()")
    return found


def test_scan_sees_floats():
    tree = ast.parse("x = 0.5\ny = float(x)\nz = round(x)\nw = 1\n")
    assert [s.split(":")[0] for s in float_uses(tree)] == ["line 1", "line 2", "line 3"]


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_source_is_float_free(path):
    assert float_uses(ast.parse(path.read_text(), filename=str(path))) == []
