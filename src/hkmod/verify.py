"""The runner of the randomized and exhaustive self-checks.

The checks themselves, and the brute-force oracles they compare
against, live in `hkmod.checks`; this module imports them only when a
run starts, so that importing the runner stays cheap. A check draws
only from its own generator, seeded by the string
"<_SEED>:<suite>.<name>" (hashed with SHA-512, so independent of
PYTHONHASHSEED): its inputs do not depend on any other check, and it
can run alone. Suites run in name order.
"""

from __future__ import annotations

from .errors import InputError
from .jsonio import _shown
from .record import Record, setfield

# Check and TheoremReport are imported where a run builds them, so that importing the runner
# (as hkmod.cli does in every process) does not load hkmod.report.

_SEED = 20240817


class VerifySummary(Record):
    def __init__(self, suites: tuple[TheoremReport, ...]):
        setfield(self, "suites", suites)

    @property
    def ok(self) -> bool:
        return all(s.verdict for s in self.suites)

    def failures(self) -> list[str]:
        return [f"{s.theorem}.{c.name}" for s in self.suites for c in s.failed()]

    def to_json_dict(self) -> dict:
        return {
            "ok": self.ok,
            "suites": [s.to_json_dict() for s in self.suites],
            "failures": self.failures(),
        }


def _check(suite: str, fn) -> Check:
    """Run one check on its own seeded generator.

    A crash is a failed check with the error as its data, not a crash of the runner.
    """
    from random import Random  # only a run of the checks needs it

    from .report import Check

    try:
        out = fn(Random(f"{_SEED}:{suite}.{fn.__name__}"))
    except Exception as exc:
        return Check(fn.__name__, False, {"error": f"{type(exc).__name__}: {exc}"})
    ok, data = out if isinstance(out, tuple) else (out, {})
    return Check(fn.__name__, bool(ok), data)


def verify_all(name_filter: str | None = None) -> VerifySummary:
    """Run every registered suite (or those whose name contains the filter)."""
    from .checks import SUITES
    from .report import TheoremReport

    names = sorted(SUITES)
    if name_filter is not None:
        names = [n for n in names if name_filter in n]
        if not names:
            raise InputError(f"no verification suite matches {_shown(name_filter)}")
    return VerifySummary(
        suites=tuple(
            TheoremReport(theorem=n, checks=tuple(_check(n, fn) for fn in SUITES[n]))
            for n in names
        )
    )
