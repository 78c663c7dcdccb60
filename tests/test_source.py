"""Checks on the hkmod sources: no float enters the exact arithmetic, no refusal rests on
an `assert` that python -O strips, no import goes unread, the modules import without a
cycle, every `sys.stdout.write` lies in the one writer `cli._emit`, and every public
function, record, method, property and dunder is run by a subcommand or by verify-all."""

import ast
import importlib
import inspect
import json
import sys
import types
from functools import cached_property
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "hkmod"
SOURCES = sorted(PACKAGE.rglob("*.py"))


def module_name(path: Path) -> str:
    """The dotted name of a source file below hkmod: "cli", "_commands.walls"."""
    return ".".join(path.relative_to(PACKAGE).with_suffix("").parts)


def source_id(path: Path) -> str:
    return path.relative_to(PACKAGE).as_posix()


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


@pytest.mark.parametrize("path", SOURCES, ids=source_id)
def test_source_is_float_free(path):
    assert float_uses(ast.parse(path.read_text(), filename=str(path))) == []


def assert_lines(tree: ast.AST) -> list[int]:
    return [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Assert)]


def test_scan_sees_asserts():
    tree = ast.parse("x = 1\nassert x\n\ndef f():\n    assert x, 'msg'\n")
    assert sorted(assert_lines(tree)) == [2, 5]


@pytest.mark.parametrize("path", SOURCES, ids=source_id)
def test_source_has_no_assert(path):
    assert assert_lines(ast.parse(path.read_text(), filename=str(path))) == []


def unused_imports(tree: ast.AST) -> list[str]:
    """Each name an import binds (other than from __future__) that the module never reads."""
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                if name not in read:
                    found.append(f"line {node.lineno}: {name}")
    return found


def test_scan_sees_unused_imports():
    tree = ast.parse(
        "from __future__ import annotations\nimport os.path\nimport json as js\n"
        "from math import floor, gcd\n\ndef f():\n    import sys\n    return gcd(os.sep)\n"
    )
    assert unused_imports(tree) == ["line 3: js", "line 4: floor", "line 7: sys"]


TESTS = sorted((Path(__file__).resolve().parent).glob("*.py"))


@pytest.mark.parametrize(
    "path", [p for p in SOURCES if p.stem != "__init__"] + TESTS,
    ids=lambda p: f"{p.parent.name}/{p.name}",
)
def test_no_unused_imports(path):
    assert unused_imports(ast.parse(path.read_text(), filename=str(path))) == []


def stdout_writes(tree: ast.AST, where: str = "") -> list[str]:
    """Each sys.stdout.write in tree, called or not, as "function: line" with the innermost
    function around it ("" at module level)."""
    found = []
    for node in ast.iter_child_nodes(tree):
        if isinstance(node, ast.Attribute) and node.attr == "write" and (
                ast.unparse(node.value) == "sys.stdout"):
            found.append(f"{where}: {node.lineno}")
        inner = node.name if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) else where
        found.extend(stdout_writes(node, inner))
    return found


def test_scan_sees_stdout_writes():
    tree = ast.parse(
        "import sys\nsys.stdout.write('a')\n\ndef f():\n    def g():\n"
        "        sys.stdout.write('b')\n    out = sys.stdout.write\n    print('c')\n"
    )
    assert stdout_writes(tree) == [": 2", "g: 6", "f: 7"]


def test_every_stdout_write_is_in_the_one_writer():
    # one writer prints every payload: a handler that wrote its own would bring back a
    # one-shot write of a whole payload, which a closed stdout can cut short unseen
    writes = [f"{source_id(path)} {write}" for path in SOURCES
              for write in stdout_writes(ast.parse(path.read_text()))]
    assert writes and all(write.startswith("cli.py _emit: ") for write in writes), writes


def relative_imports(tree: ast.AST, module: str = "") -> set[str]:
    """The hkmod modules, as dotted names below hkmod, that the module of that name
    imports, relatively (`from . import x`, `from ..x import ...`) or by the full name
    (`import hkmod.x`, `from hkmod.x import ...`), at module level or inside a function."""
    package = ["hkmod", *module.split(".")[:-1]]
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            found.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            parts = package[:len(package) + 1 - node.level] if node.level else []
            origin = ".".join(parts + ([node.module] if node.module else []))
            if node.module and origin != "hkmod":
                found.add(origin)
            else:  # `from . import x` or `from hkmod import x`: each x may be a module
                found.update(f"{origin}.{alias.name}" for alias in node.names)
    return {name.removeprefix("hkmod.") for name in found if name.startswith("hkmod.")}


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
    tree = ast.parse("from ..b import f\nfrom . import c\nimport hkmod.d\nfrom hkmod import e\n"
                     "from hkmod.f import g\nimport json\n")
    assert relative_imports(tree, "sub.a") == {"b", "sub.c", "d", "e", "f"}
    assert find_cycle({"a": {"b"}, "b": {"c"}, "c": {"b"}}) == ["b", "c", "b"]
    assert find_cycle({"a": {"b"}, "b": {"c"}, "c": set()}) is None


def imports_of(path: Path) -> set[str]:
    return relative_imports(ast.parse(path.read_text(), filename=str(path)), module_name(path))


def test_module_imports_are_acyclic():
    graph = {module_name(path): imports_of(path) for path in SOURCES if path.stem != "__init__"}
    cycle = find_cycle(graph)
    assert cycle is None, "import cycle: " + " -> ".join(cycle)


HANDLERS = sorted(p for p in (PACKAGE / "_commands").glob("*.py") if p.stem != "__init__")


@pytest.mark.parametrize("path", HANDLERS, ids=source_id)
def test_no_handler_module_imports_the_cli(path):
    # hkmod.cli imports a handler module by name when it runs, an edge the cycle scan cannot see
    assert not {"cli", "__main__"} & imports_of(path)


def test_every_handler_module_is_named_by_the_command_table():
    from hkmod.cli import COMMANDS

    named = {handler.split(":")[0] for _, handler, _ in COMMANDS.values() if isinstance(handler, str)}
    assert named == {p.stem for p in HANDLERS}


def codes_run(action) -> set:
    """Code objects of every Python function that action() calls, seen with sys.setprofile."""
    seen = set()

    def profile(frame, event, arg):
        if event == "call":
            seen.add(frame.f_code)

    old = sys.getprofile()
    sys.setprofile(profile)
    try:
        action()
    finally:
        sys.setprofile(old)
    return seen


# Record's own frozen-record protocol, which test_record pins against dataclass twins
RECORD_PROTOCOL = {
    f"record.Record.{attr}"
    for attr in ("__init_subclass__", "__eq__", "__hash__", "__repr__", "__setattr__",
                 "__delattr__")
}


def public_code(module) -> dict:
    """The code of each public function of a module and, for each public class, of its own
    __init__ and other dunders (but RECORD_PROTOCOL), its public methods (plain, class and
    static) and its property getters."""
    stem = module.__name__.rsplit(".", 1)[-1]
    found = {}
    for name, obj in vars(module).items():
        if name.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
            continue
        if inspect.isfunction(obj):
            found[f"{stem}.{name}"] = obj.__code__
        elif inspect.isclass(obj):
            for attr, member in vars(obj).items():
                private = attr.startswith("_") and not attr.endswith("__")
                if private or f"{stem}.{name}.{attr}" in RECORD_PROTOCOL:
                    continue
                if isinstance(member, (classmethod, staticmethod)):
                    member = member.__func__
                elif isinstance(member, property):
                    member = member.fget
                elif isinstance(member, cached_property):
                    member = member.func
                if inspect.isfunction(member):
                    key = f"{stem}.{name}" if attr == "__init__" else f"{stem}.{name}.{attr}"
                    found[key] = member.__code__
    return found


def never_run(modules, seen) -> list[str]:
    """Names from public_code whose code is not in seen."""
    return sorted(name for m in modules for name, code in public_code(m).items()
                  if code not in seen)


def test_reachability_scan_sees_an_unrun_function():
    module = types.ModuleType("probe")
    exec(
        "class Run:\n    def __init__(self): pass\n"
        "    def ran(self): pass\n"
        "    def idle(self): pass\n"
        "    @property\n    def seen(self): return 1\n"
        "    @property\n    def unseen(self): return 1\n"
        "    @classmethod\n    def make(cls): return cls()\n"
        "    @staticmethod\n    def idle_static(): pass\n"
        "    def _helper(self): pass\n"
        "    def __len__(self): return 1\n"
        "    def __neg__(self): return self\n"
        "class Idle:\n    def __init__(self): pass\n"
        "class Plain: pass\n"
        "def used(): r = Run.make(); r.ran(); return r.seen + len(r)\n"
        "def unused(): return Idle()\n"
        "def _private(): pass\n",
        vars(module),
    )
    assert never_run([module], codes_run(module.used)) == [
        "probe.Idle", "probe.Run.__neg__", "probe.Run.idle", "probe.Run.idle_static",
        "probe.Run.unseen", "probe.unused",
    ]


def test_every_public_name_is_run_by_the_cli_or_verify_all(tmp_path):
    from hkmod.cli import COMMANDS, main
    from hkmod.verify import verify_all

    def write(name, data):
        path = tmp_path / name
        path.write_text(json.dumps(data))
        return str(path)

    ns, v = write("ns.json", {"e": 4, "d": 1}), write("v.json", {"r": 2, "l": [1, 0], "s": 0})
    scenario = {
        "lattices": {"ns": {"e": 4, "d": 1}},
        "vectors": {"v": {"r": 2, "l": [1, 0], "s": 0}, "h": [1, 5]},
    }
    commands = [
        ["fujiki", "--setup", write("setup.json", {"kind": "K3^[2]", "gram": [[6]]}),
         "--classes", write("classes.json", [[1], [1], [1], [1]])],
        ["mukai", "--ns", ns, "--v", v, "--w", write("w.json", {"r": 1, "l": [0, 1], "s": 1})],
        ["walls", "--e", "4", "--d", "1", "--a", "12", "--suitability",
         "--h", write("h.json", [1, 5])],
        ["reduce", "--ns", ns, "--v", write("v3.json", {"r": 3, "l": [1, 0], "s": 0}),
         "--steps", write("steps.json", [{"r_b": 1, "deg_b": 0}])],
        ["rigid", "--ns", ns, "--v", v],
        ["nl", "--kind", "hk", "--e", "6", "--d", "74", "--i", "2"],
        ["nl-search", "--r0", "2", "--e", "6"],
        ["unicita", "--i", "2", "--r0", "2", "--e", "6"],
        ["vbk3ell", "--scenario", write("vb.json", {**scenario, "pipeline": "vbk3ell"})],
        ["casoprim", "--scenario", write("cp.json", {**scenario, "pipeline": "casoprim"})],
        ["sweep-econ", "--r0max", "2", "--emax", "20"],
        ["verify-all", "--filter", "lattice", "--json"],
    ]

    def run():
        verify_all()
        for argv in commands:
            assert main(argv) in (0, 1), argv

    seen = codes_run(run)
    assert sorted(argv[0] for argv in commands) == sorted(COMMANDS)
    # __init__ only re-exports; __main__.run is the process entry, which test_cli runs
    modules = [
        importlib.import_module(f"hkmod.{module_name(p)}") for p in SOURCES
        if not p.stem.startswith("__")
    ]
    assert never_run(modules, seen) == []
