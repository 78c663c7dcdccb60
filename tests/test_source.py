"""Static checks on the hkmod sources: no float enters the exact arithmetic, no refusal
rests on an `assert` that python -O strips, and the modules import without a cycle."""

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


def assert_lines(tree: ast.AST) -> list[int]:
    return [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Assert)]


def test_scan_sees_asserts():
    tree = ast.parse("x = 1\nassert x\n\ndef f():\n    assert x, 'msg'\n")
    assert sorted(assert_lines(tree)) == [2, 5]


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_source_has_no_assert(path):
    assert assert_lines(ast.parse(path.read_text(), filename=str(path))) == []


def relative_imports(tree: ast.AST) -> set[str]:
    """Sibling modules named by `from . import x` or `from .x import ...`,
    at module level or inside a function."""
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            if node.module:
                found.add(node.module.split(".")[0])
            else:
                found.update(alias.name for alias in node.names)
    return found


def find_cycle(graph: dict[str, set[str]]) -> list[str] | None:
    """One cycle of the directed graph as a closed path, or None."""
    state: dict[str, str] = {}

    def visit(node, path):
        state[node] = "open"
        for nxt in sorted(graph.get(node, ())):
            if state.get(nxt) == "open":
                return path[path.index(nxt):] + [nxt]
            if nxt not in state:
                cycle = visit(nxt, path + [nxt])
                if cycle:
                    return cycle
        state[node] = "done"
        return None

    for start in sorted(graph):
        if start not in state:
            cycle = visit(start, [start])
            if cycle:
                return cycle
    return None


def test_cycle_scan_sees_deferred_imports():
    tree = ast.parse("from .b import f\n\ndef g():\n    from . import c\n")
    assert relative_imports(tree) == {"b", "c"}
    assert find_cycle({"a": {"b"}, "b": {"c"}, "c": {"b"}}) == ["b", "c", "b"]
    assert find_cycle({"a": {"b"}, "b": {"c"}, "c": set()}) is None


def test_module_imports_are_acyclic():
    graph = {
        path.stem: relative_imports(ast.parse(path.read_text(), filename=str(path)))
        for path in SOURCES
        if path.stem != "__init__"
    }
    cycle = find_cycle(graph)
    assert cycle is None, "import cycle: " + " -> ".join(cycle)
