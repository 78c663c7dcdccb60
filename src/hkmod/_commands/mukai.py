"""`hkmod mukai`, `reduce` and `rigid`: the three subcommands that read an --ns lattice and
a --v Mukai vector."""

from __future__ import annotations

from ..errors import InputError
from ..jsonio import load_json_file, to_int
from ..lattice import IntLattice, latvec_from_json, ns_from_json, pair
from ..mukai import mukai_from_json, mukai_pairing, mukai_square, numerics

# reduce and rigid import hkmod.reduction themselves, so that mukai does not load it


def _ns_v(args):
    """The --ns lattice and the --v Mukai vector."""
    ns = ns_from_json(load_json_file(args.ns))
    return ns, mukai_from_json(load_json_file(args.v), ns.rank)


def _fiber_vec(args, ns: IntLattice):
    if args.f is not None:
        return latvec_from_json(load_json_file(args.f), ns.rank)
    if ns.rank != 2:
        raise InputError("--f is required unless the lattice has rank 2")
    return latvec_from_json([0, 1], 2)


def cmd_mukai(args) -> tuple[dict, int]:
    ns, v = _ns_v(args)
    if args.w is not None:
        w = mukai_from_json(load_json_file(args.w), ns.rank)
        return {
            "pairing": mukai_pairing(ns, v, w),
            "v_square": mukai_square(ns, v),
            "w_square": mukai_square(ns, w),
        }, 0
    num = numerics(ns, v)
    return {"v_square": num.v_square, "n": num.n_v, "a": num.a_v, "delta": num.delta}, 0


def cmd_reduce(args) -> tuple[dict, int]:
    from ..reduction import ModificationStep, reduction_trace

    ns, v = _ns_v(args)
    f = _fiber_vec(args, ns)
    steps_data = load_json_file(args.steps)
    if not isinstance(steps_data, list):
        raise InputError("steps must be a JSON array")
    steps = []
    for item in steps_data:
        if not isinstance(item, dict) or "r_b" not in item or "deg_b" not in item:
            raise InputError("each step needs keys r_b and deg_b")
        steps.append(ModificationStep(to_int(item["r_b"], "r_b"), to_int(item["deg_b"], "deg_b")))
    return reduction_trace(ns, v, steps, f).to_json_dict(), 0


def cmd_rigid(args) -> tuple[dict, int]:
    from ..reduction import bezout_r0_d0, rigid_vector

    ns, v = _ns_v(args)
    f = _fiber_vec(args, ns)
    w = rigid_vector(ns, v, f)
    k = pair(ns, v.l, f)
    r0, d0 = bezout_r0_d0(v.r, k)
    vsq = mukai_square(ns, v)
    return {
        "w": w.to_json_dict(),
        "w_square": mukai_square(ns, w),
        "v_square": vsq,
        "n": vsq // 2 + 1,
        "k": k,
        "r0": r0,
        "d0": d0,
    }, 0
