"""`hkmod nl-search` and `unicita`: the two subcommands that run a capped search."""

from __future__ import annotations

from ..nl import (
    DEFAULT_SEARCH_CAP, buonacompt_bound, buonacompt_min_d, governing_divisibility, m0_s0,
    rigsuk_bound, rigsuk_min_d0,
)


def _cap(args) -> int:
    """--cap, or the searches' default when it is absent."""
    return DEFAULT_SEARCH_CAP if args.cap is None else args.cap


def cmd_nl_search(args) -> tuple[dict, int]:
    i = governing_divisibility(args.r0)
    min_d = buonacompt_min_d(args.r0, args.e, i, cap=_cap(args))
    m0, s0 = m0_s0(args.r0, args.e)
    return {
        "r0": args.r0,
        "e": args.e,
        "i": i,
        "min_d": min_d,
        "min_d_bound": buonacompt_bound(args.r0, args.e),
        "m0": m0,
        "s0": s0,
        "min_d0": rigsuk_min_d0(m0, args.r0),
        "min_d0_bound": rigsuk_bound(m0, args.r0),
    }, 0


def cmd_unicita(args) -> tuple[dict, int]:
    from ..hilb2 import unicita_report  # here, so that nl-search does not load hkmod.hilb2

    report = unicita_report(args.i, args.r0, args.e, cap=_cap(args))
    return report.to_json_dict(), 0 if report.verdict else 1
