"""`hkmod vbk3ell` and `casoprim`: run a scenario file through its pipeline."""

from __future__ import annotations

from ..errors import InputError
from ..jsonio import _shown
from ..pipelines import load_scenario, run_scenario


def cmd_scenario(args) -> tuple[dict, int]:
    sc = load_scenario(args.scenario)
    if sc.pipeline != args.command:
        raise InputError(
            f"scenario pipeline is {_shown(sc.pipeline)}, expected {args.command!r}"
        )
    report = run_scenario(sc)
    return report.to_json_dict(), 0 if report.verdict else 1
