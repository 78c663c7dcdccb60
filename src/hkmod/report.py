"""Structured pass/fail reports for multi-step verifications."""

from __future__ import annotations

from .record import Record, setfield


class Check(Record):
    """One named condition with the values it was decided on."""

    def __init__(self, name: str, passed: bool, data: dict | None = None):
        setfield(self, "name", name)
        setfield(self, "passed", passed)
        setfield(self, "data", {} if data is None else data)


class TheoremReport(Record):
    """Ordered checks plus reported (non-gating) values; the verdict is
    the conjunction of the checks alone."""

    def __init__(self, theorem: str, checks: tuple[Check, ...], data: dict | None = None):
        setfield(self, "theorem", theorem)
        setfield(self, "checks", checks)
        setfield(self, "data", {} if data is None else data)

    @property
    def verdict(self) -> bool:
        return all(c.passed for c in self.checks)

    def failed(self) -> tuple[Check, ...]:
        return tuple(c for c in self.checks if not c.passed)

    def to_json_dict(self) -> dict:
        return {
            "theorem": self.theorem,
            "verdict": self.verdict,
            "checks": [c.to_json_dict() for c in self.checks],
            "data": self.data,
        }
