"""Self-check of the benchmark at a reduced size.

    python3 perfbench/selfcheck.py      (from the repository root; under a minute)

For each of the three workloads, with tracing off and on, it runs a
short operation list for two passes and checks that

* every metric BENCHMARK.json names for that mode is emitted, with its unit;
* every attempted operation was classified against the oracle, and none
  gave a wrong answer;
* with every expected answer corrupted, no operation passes, and every
  `survey` point is wrong, the ones refused at the search cap too, so
  each operation's output really is compared;
* with hkmod made to crash (a TypeError from inside a call), every
  operation is wrong, not merely failed.

Exit code 0 when all checks hold, 1 otherwise.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path
from types import SimpleNamespace

import run
from tracing import LAYERS

LIMITS = {"cli-mix": 6, "survey": 24, "large": None}


def corrupted(expected):
    if isinstance(expected, tuple):
        return expected[0], expected[1] + "corrupted"
    if isinstance(expected, str):  # a survey record: every step's answer changed
        return json.dumps({key: "corrupted" for key in json.loads(expected)})
    return object()


def _crash(*args, **kwargs):
    raise TypeError("injected by the self-check")


class _Crashing:
    """A module whose functions named in `names` (all of them if None) raise."""

    def __init__(self, module, names):
        self._module, self._names = module, names

    def __getattr__(self, name):
        obj = getattr(self._module, name)
        if callable(obj) and not isinstance(obj, type) and (self._names is None or name in self._names):
            return _crash
        return obj


def crashing_context(wl):
    if wl.name == "cli-mix":
        return lambda argv: (1, "", "Traceback (most recent call last):\nTypeError: injected\n")
    # survey: one step of each chain crashes while the others answer
    names = {"enumerate_wall_classes"} if wl.name == "survey" else None
    return SimpleNamespace(**{layer: _Crashing(getattr(wl.plain, layer), names) for layer in LAYERS})


def check_workload(name: str, spec: dict, root: Path, problems: list[str]) -> None:
    tmpdir = root / ".bench_tmp" / f"selfcheck-{name}"
    wl, setup_s = run.setup(name, 1, root, tmpdir, LIMITS[name])
    try:
        for trace, key in ((False, "end_to_end"), (True, "per_layer")):
            result = run.measure(wl, 0, trace)
            if trace:
                metrics = run.per_layer(wl, result, 1)
            else:
                metrics = run.end_to_end(wl, result, [setup_s], 1.0)
            want = {m["name"]: m["unit"] for m in spec[key]}
            got = {k: unit for k, (unit, _) in metrics.items()}
            if got != want:
                problems.append(f"{name} {key}: missing {sorted(set(want) - set(got))}, "
                                f"extra {sorted(set(got) - set(want))}, "
                                f"units {[k for k in want if k in got and got[k] != want[k]]}")
            outcomes = result["log"]["outcomes"]
            passes = len(result["plain"]) + len(result["traced"])
            if sum(outcomes.values()) != passes * len(wl.ops):
                problems.append(f"{name}: {sum(outcomes.values())} outcomes for "
                                f"{passes} passes of {len(wl.ops)} operations")
            if outcomes["wrong"]:
                problems.append(f"{name}: {outcomes['wrong']} wrong answers")
        log = {"outcomes": run.Counter(), "bad": run.Counter()}
        run.run_pass(wl, crashing_context(wl), None, log)
        if log["outcomes"]["wrong"] != len(wl.ops):
            problems.append(f"{name}: a crashing hkmod gave {dict(log['outcomes'])}, not all wrong")
        for op in wl.ops:
            op.expected = corrupted(op.expected)
        log = run.measure(wl, 0, False)["log"]
        if log["outcomes"]["ok"]:
            problems.append(f"{name}: {log['outcomes']['ok']} operations passed a corrupted oracle")
        if name == "survey" and log["outcomes"]["failed"]:
            problems.append(f"survey: {log['outcomes']['failed']} refused points not compared")
        print(f"{name}: {len(wl.ops)} operations checked")
    finally:
        run.shutil.rmtree(tmpdir, ignore_errors=True)


def main() -> int:
    root = Path.cwd()
    if not (root / "src" / "hkmod" / "__init__.py").is_file():
        print("error: run from the repository root", file=sys.stderr)
        return 2
    sys.path.insert(0, str(root / "src"))
    spec = json.loads((root / "BENCHMARK.json").read_text())
    problems: list[str] = []
    for workload in run.WORKLOADS:
        check_workload(workload, spec, root, problems)
    try:
        (root / ".bench_tmp").rmdir()
    except OSError:
        pass
    for problem in problems:
        print("FAIL", problem)
    print("selfcheck", "failed" if problems else "ok")
    return 1 if problems else 0


if __name__ == "__main__":
    raise SystemExit(main())
