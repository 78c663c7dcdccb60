"""`hkmod sweep-econ`: the slope congruence over a grid, one row per rank."""

from __future__ import annotations

from ..jsonio import _check_int
from ..nl import _econ_residue, governing_divisibility, m0_s0


def cmd_sweep_econ(args) -> tuple[dict, int]:
    """The payload's "rows" is an iterator, printed row by row as it is made."""
    _check_int(args.r0max, "--r0max", 1)
    _check_int(args.emax, "--emax", 1)

    def first_step_count(r0: int) -> tuple[int, int, int]:
        c, step = _econ_residue(r0)  # one class mod step, all of the governing degree type
        first = c or step  # the count is 0 when first > emax, as 0 < first <= step
        return first, step, (args.emax - first) // step + 1

    def rows():
        for r0 in range(1, args.r0max + 1):
            first, step, count = first_step_count(r0)
            hits = []
            for e in range(first, first + 3 * step, step)[:count]:
                m0, s0 = m0_s0(r0, e)  # exact: verify-all proves it in twist_numerics_integral_sweep
                hits.append({"e": e, "m0": m0, "s0": s0})
            yield {"r0": r0, "i": governing_divisibility(r0), "count": count, "first": hits}

    cases = sum(first_step_count(r0)[2] for r0 in range(1, args.r0max + 1))
    return {"r0max": args.r0max, "emax": args.emax, "cases": cases, "rows": rows()}, 0
