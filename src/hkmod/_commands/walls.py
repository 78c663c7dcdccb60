"""`hkmod walls`: the wall classes of a level, and optionally the suitability of a
polarization."""

from __future__ import annotations

from ..errors import InputError
from ..jsonio import load_json_file, to_rational
from ..lattice import latvec_from_json
from ..walls import (
    EllipticNS,
    _perpendicular,
    _wall_fields,
    _wall_stream,
    is_suitable,
    min_negative_norm,
    suitability_for,
)


def cmd_walls(args) -> tuple[dict, int]:
    if args.h is not None and not args.suitability:
        raise InputError("--h is read only with --suitability")
    ns = EllipticNS(args.e, args.d)
    a = to_rational(args.a)
    e, d = ns.e, ns.d
    found = []
    for x, y in _wall_stream(e, d, a):  # each printed wall straight from its integer row
        norm, pair_h, pair_f = _wall_fields(e, d, x, y)
        found.append({"lambda": [x, y], "norm": norm, "pair_h": pair_h, "pair_f": pair_f,
                      "ray": list(_perpendicular(e, d, x, y))})
    min_norm = min_negative_norm(ns) if ns.e >= 0 else None
    payload = {
        "e": ns.e,
        "d": ns.d,
        "a": a,
        "count": len(found),
        "walls": found,
        "min_negative_norm": min_norm,
        "has_minus_two_class": None if min_norm is None else min_norm == 2,
    }
    code = 0
    if args.suitability:
        if args.h is not None:
            h = latvec_from_json(load_json_file(args.h), 2)
            rep = suitability_for(ns, a, h)
        else:
            rep = is_suitable(ns, a)
        payload["suitability"] = rep.to_json_dict()
        if not rep.suitable:
            code = 1
    return payload, code
