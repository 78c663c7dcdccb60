"""Spans recorded from outside hkmod, around the benchmark's calls into it.

A span is [name, parent index, start ns, end ns, attrs]. Layer spans are
named "<module>.<function>"; root spans ("op.<name>", "cli.main") group
the layer calls of one operation. Nothing inside hkmod is changed: a
traced run calls the same functions through wrappers, either through a
module proxy (in-process workloads) or by rebinding the names that
hkmod.cli imported (the CLI workload).
"""

from __future__ import annotations

import importlib
import inspect
from contextlib import contextmanager
from time import perf_counter_ns
from types import SimpleNamespace

import oracle

LAYERS = (
    "lattice",
    "mukai",
    "fujiki",
    "walls",
    "reduction",
    "nl",
    "hilb2",
    "pipelines",
    "jsonio",
    "verify",
)


def odd_double_factorial(m: int) -> int:
    out = 1
    while m > 1:
        out *= m
        m -= 2
    return out


def _search_steps(args, kwargs, out, exc) -> dict:
    """Candidates examined by buonacompt_min_d: from the bound to the answer or the cap."""
    r0, e, i = args[:3]
    start, step = oracle.search_start(r0, e, i)
    if exc is None:
        return {"search_steps": (out - start) // step + 1}
    if type(exc).__name__ == "SearchCapExceeded":
        cap = args[3] if len(args) > 3 else kwargs.get(
            "cap", importlib.import_module("hkmod.nl").DEFAULT_SEARCH_CAP)
        return {"search_steps": max(0, (cap - start) // step + 1)}
    return {"search_steps": 0}


# Work counts derived from a call's inputs and result, not read from hkmod.
COMPUTED = {
    "walls.enumerate_wall_classes": lambda a, k, out, exc: {"classes_out": len(out)} if exc is None else {},
    "fujiki.top_intersection": lambda a, k, out, exc: {"matchings": odd_double_factorial(len(a[1]) - 1)},
    "nl.buonacompt_min_d": _search_steps,
    "jsonio.canonical_json": lambda a, k, out, exc: {"bytes_out": len(out.encode())} if exc is None else {},
}


class Tracer:
    """In-memory span recorder; spans are read once the run ends."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []

    def _open(self, name: str) -> list:
        rec = [name, self._stack[-1] if self._stack else -1, 0, 0, {}]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        rec[2] = perf_counter_ns()
        return rec

    @contextmanager
    def span(self, name: str, **attrs):
        rec = self._open(name)
        rec[4].update(attrs)
        try:
            yield rec
        except BaseException as exc:
            rec[4]["error"] = type(exc).__name__
            raise
        finally:
            rec[3] = perf_counter_ns()
            self._stack.pop()

    def wrap(self, name: str, fn):
        computed = COMPUTED.get(name)

        def traced(*args, **kwargs):
            rec = self._open(name)
            try:
                out = fn(*args, **kwargs)
            except BaseException as exc:
                rec[3] = perf_counter_ns()
                self._stack.pop()
                rec[4]["error"] = type(exc).__name__
                if computed:
                    rec[4].update(computed(args, kwargs, None, exc))
                raise
            rec[3] = perf_counter_ns()
            self._stack.pop()
            if computed:
                rec[4].update(computed(args, kwargs, out, None))
            return out

        traced.__wrapped__ = fn
        return traced


class _LayerProxy:
    """A module whose functions are traced; classes and constants pass through."""

    def __init__(self, module, layer: str, tracer: Tracer):
        self._module = module
        self._layer = layer
        self._tracer = tracer

    def __getattr__(self, name):
        obj = getattr(self._module, name)
        if inspect.isfunction(obj):
            obj = self._tracer.wrap(f"{self._layer}.{name}", obj)
        setattr(self, name, obj)
        return obj


def layer_modules(tracer: Tracer | None = None) -> SimpleNamespace:
    """The hkmod modules by layer name, traced when a tracer is given.

    Submodules are looked up by import path: hkmod/__init__.py re-exports
    a function named `lattice` that shadows the submodule attribute.
    """
    mods = {name: importlib.import_module(f"hkmod.{name}") for name in LAYERS}
    if tracer is None:
        return SimpleNamespace(**mods)
    return SimpleNamespace(**{n: _LayerProxy(m, n, tracer) for n, m in mods.items()})


def trace_cli_imports(cli_module, tracer: Tracer) -> None:
    """Rebind every hkmod function that hkmod.cli imported to a traced wrapper."""
    for name, obj in list(vars(cli_module).items()):
        mod = getattr(obj, "__module__", "") or ""
        if inspect.isfunction(obj) and mod.startswith("hkmod.") and mod != "hkmod.cli":
            setattr(cli_module, name, tracer.wrap(f"{mod.split('.', 1)[1]}.{name}", obj))


def self_times(spans: list[list]) -> list[int]:
    """Each span's duration minus the time covered by its direct children."""
    own = [s[3] - s[2] for s in spans]
    for s in spans:
        if s[1] >= 0:
            own[s[1]] -= s[3] - s[2]
    return own


def layer_summary(spans: list[list], passes: int) -> dict:
    """Per-pass calls, self time and raised calls per layer, plus the computed counts."""
    own = self_times(spans)
    out = {}
    for layer in LAYERS:
        out[f"{layer}.calls"] = 0
        out[f"{layer}.busy_ms"] = 0.0
        out[f"{layer}.fails"] = 0
    counts = {"classes_out": 0, "matchings": 0, "search_steps": 0, "bytes_out": 0, "cap_exceeded": 0}
    durations: dict[str, list[int]] = {}
    for s, t in zip(spans, own):
        layer = s[0].split(".", 1)[0]
        if layer not in LAYERS:
            continue
        out[f"{layer}.calls"] += 1
        out[f"{layer}.busy_ms"] += t / 1e6
        attrs = s[4]
        if "error" in attrs:
            out[f"{layer}.fails"] += 1
            if attrs["error"] == "SearchCapExceeded":
                counts["cap_exceeded"] += 1
        for key in ("classes_out", "matchings", "search_steps", "bytes_out"):
            counts[key] += attrs.get(key, 0)
        durations.setdefault(s[0], []).append(s[3] - s[2])
    per_pass = {k: v / passes for k, v in out.items()}
    for key, value in counts.items():
        per_pass[key] = value / passes

    def mean_ms(name):
        d = durations.get(name)
        return sum(d) / len(d) / 1e6 if d else 0.0

    per_pass["walls.enumerate_ms"] = mean_ms("walls.enumerate_wall_classes")
    per_pass["fujiki.top_intersection_ms"] = mean_ms("fujiki.top_intersection")
    return per_pass
