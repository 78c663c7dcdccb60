"""`hkmod nl`: admissibility of a fiber degree."""

from __future__ import annotations

from ..errors import InputError
from ..nl import nef_isotropic_classes, nl_hk_admissible, nl_k3_admissible


def cmd_nl(args) -> tuple[dict, int]:
    if args.kind == "k3":
        if args.i is not None:
            raise InputError("--kind k3 does not read --i")
        if args.r0 is None or args.vsq is None:
            raise InputError("--kind k3 needs --r0 and --vsq")
        from ..mukai import MukaiNumerics  # only --kind k3 reads a Mukai vector

        num = MukaiNumerics.from_square(args.r0, args.vsq)
        rep = nl_k3_admissible(args.e, args.d, num)
    else:
        if args.r0 is not None or args.vsq is not None:
            raise InputError("--kind hk does not read --r0 or --vsq")
        if args.i is None:
            raise InputError("--kind hk needs --i")
        rep = nl_hk_admissible(args.e, args.d, args.i)
    payload = rep.to_json_dict()
    if args.e > 0 and args.e % 2 == 0:
        payload["isotropic"] = nef_isotropic_classes(args.e, args.d).to_json_dict()
    return payload, 0 if rep.ok else 1
