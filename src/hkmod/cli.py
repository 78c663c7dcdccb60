"""Command line front end.

Every subcommand reads exact data (integers and p/q strings), runs one
of the library routines and prints either a human summary or canonical
JSON (--json). Exit codes: 0 success, 1 failed verdict or refused
mathematical check, 2 malformed input, 3 search cap exceeded.
"""

from __future__ import annotations

import argparse
import json
import sys

from .errors import InputError, MathCheckError, SearchCapExceeded
from .jsonio import _parse, _shown, canonical_json, encode, load_json_file, to_int, to_rational
from .lattice import IntLattice, lattice_from_json, latvec_from_json, pair
from .verify import verify_all  # the runner only: the checks load when verify-all runs

# Each handler imports the modules it runs, so a process compiles only those.


def _timestamp() -> str:
    from datetime import datetime, timezone  # only timestamped JSON needs it; keeps start-up lean

    return datetime.now(timezone.utc).strftime("%Y-%m-%dT%H:%M:%SZ")


def _scalar(value) -> str:
    if value is None or isinstance(value, (bool, list, dict)):
        return json.dumps(value)  # true, false, null, [] or {}
    return str(value)


def _human_lines(value, indent: int = 0) -> list[str]:
    """'key: item' lines of a dict or '- item' lines of a list, nested containers indented."""
    pad = "  " * indent
    if isinstance(value, dict):
        labelled = ((f"{key}:", item) for key, item in value.items())
    else:
        labelled = (("-", item) for item in value)
    lines: list[str] = []
    for label, item in labelled:
        if isinstance(item, (dict, list)) and item:
            lines.append(pad + label)
            lines.extend(_human_lines(item, indent + 1))
        else:
            lines.append(f"{pad}{label} {_scalar(item)}")
    return lines


def _emit(args, payload: dict) -> None:
    if args.json:
        if not args.no_timestamp:
            payload = dict(payload)
            payload["generated_at"] = _timestamp()
        sys.stdout.write(canonical_json(payload))
    else:
        for line in _human_lines(encode(payload)):
            print(line)


def _emit_rows(args, head: dict, rows) -> None:
    """_emit(args, {**head, "rows": list(rows)}) with each row printed as it is made, so no run
    holds its rows. "rows" sorts after every key of head, and rows is never empty."""
    if args.json:
        if not args.no_timestamp:
            head = {**head, "generated_at": _timestamp()}
        sys.stdout.write(canonical_json(head)[:-2] + ',"rows":[')  # head without its "}\n"
        for n, row in enumerate(rows):
            sys.stdout.write(("," if n else "") + canonical_json(row)[:-1])
        sys.stdout.write("]}\n")
    else:
        for line in _human_lines(encode(head)):
            print(line)
        print("rows:")
        for row in rows:
            for line in _human_lines([encode(row)], 1):
                print(line)


def _int(text: str) -> int:
    """argparse type: an integer of the jsonio grammar (no p/q), within jsonio.MAX_DIGITS."""
    try:
        return _parse(text, rational=False)
    except InputError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _ns_v(args):
    """The --ns lattice and the --v Mukai vector of mukai, reduce and rigid."""
    from .mukai import mukai_from_json
    from .walls import ns_from_json

    ns = ns_from_json(load_json_file(args.ns))
    return ns, mukai_from_json(load_json_file(args.v), ns.rank)


def _fiber_vec(args, ns: IntLattice):
    if args.f is not None:
        return latvec_from_json(load_json_file(args.f), ns.rank)
    if ns.rank != 2:
        raise InputError("--f is required unless the lattice has rank 2")
    return latvec_from_json([0, 1], 2)


def cmd_fujiki(args) -> int:
    from .fujiki import FujikiSetup, double_factorial, top_intersection

    setup_data = load_json_file(args.setup)
    if not isinstance(setup_data, dict):
        raise InputError("setup must be a JSON object")
    if "gram" not in setup_data:
        raise InputError("setup needs a 'gram' pairing matrix")
    pairing = lattice_from_json({"gram": setup_data["gram"]})
    n = setup_data.get("n")
    if n is not None:
        n = to_int(n, "n")
    if "kind" in setup_data:
        setup = FujikiSetup.for_kind(setup_data["kind"], pairing)
        if n not in (None, setup.n):
            raise InputError(f"kind {_shown(setup_data['kind'])} fixes n = {setup.n}, got n = {n}")
    else:
        if n is None or "c_x" not in setup_data:
            raise InputError("setup needs 'kind' or both 'n' and 'c_x'")
        setup = FujikiSetup(n=n, c_x=setup_data["c_x"], pairing=pairing)
    classes_data = load_json_file(args.classes)
    if not isinstance(classes_data, list):
        raise InputError("classes must be a JSON array of vectors")
    classes = [latvec_from_json(c, pairing.rank) for c in classes_data]
    value = top_intersection(setup, classes)
    _emit(
        args,
        {
            "value": value,
            "matchings": double_factorial(2 * setup.n - 1),
            "n": setup.n,
            "c_x": setup.c_x,
        },
    )
    return 0


def cmd_mukai(args) -> int:
    from .mukai import mukai_from_json, mukai_pairing, mukai_square, numerics

    ns, v = _ns_v(args)
    if args.w is not None:
        w = mukai_from_json(load_json_file(args.w), ns.rank)
        _emit(
            args,
            {
                "pairing": mukai_pairing(ns, v, w),
                "v_square": mukai_square(ns, v),
                "w_square": mukai_square(ns, w),
            },
        )
        return 0
    num = numerics(ns, v)
    _emit(
        args,
        {
            "v_square": num.v_square,
            "n": num.n_v,
            "a": num.a_v,
            "delta": num.delta,
        },
    )
    return 0


def cmd_walls(args) -> int:
    from .walls import (
        EllipticNS,
        _perpendicular,
        _wall_fields,
        _wall_stream,
        is_suitable,
        min_negative_norm,
        suitability_for,
    )

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
    _emit(args, payload)
    return code


def cmd_reduce(args) -> int:
    from .reduction import ModificationStep, reduction_trace

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
    trace = reduction_trace(ns, v, steps, f)
    _emit(args, trace.to_json_dict())
    return 0


def cmd_rigid(args) -> int:
    from .mukai import mukai_square
    from .reduction import bezout_r0_d0, rigid_vector

    ns, v = _ns_v(args)
    f = _fiber_vec(args, ns)
    w = rigid_vector(ns, v, f)
    k = pair(ns, v.l, f)
    r0, d0 = bezout_r0_d0(v.r, k)
    vsq = mukai_square(ns, v)
    _emit(
        args,
        {
            "w": w.to_json_dict(),
            "w_square": mukai_square(ns, w),
            "v_square": vsq,
            "n": vsq // 2 + 1,
            "k": k,
            "r0": r0,
            "d0": d0,
        },
    )
    return 0


def cmd_nl(args) -> int:
    from .nl import nef_isotropic_classes, nl_hk_admissible, nl_k3_admissible

    if args.kind == "k3":
        if args.i is not None:
            raise InputError("--kind k3 does not read --i")
        if args.r0 is None or args.vsq is None:
            raise InputError("--kind k3 needs --r0 and --vsq")
        from .mukai import MukaiNumerics

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
    _emit(args, payload)
    return 0 if rep.ok else 1


def _cap(args) -> int:
    """--cap, or the searches' default when it is absent."""
    from .nl import DEFAULT_SEARCH_CAP

    return DEFAULT_SEARCH_CAP if args.cap is None else args.cap


def cmd_nl_search(args) -> int:
    from .hilb2 import governing_divisibility, m0_s0
    from .nl import buonacompt_bound, buonacompt_min_d, rigsuk_bound, rigsuk_min_d0

    i = governing_divisibility(args.r0)
    min_d = buonacompt_min_d(args.r0, args.e, i, cap=_cap(args))
    m0, s0 = m0_s0(args.r0, args.e)
    _emit(
        args,
        {
            "r0": args.r0,
            "e": args.e,
            "i": i,
            "min_d": min_d,
            "min_d_bound": buonacompt_bound(args.r0, args.e),
            "m0": m0,
            "s0": s0,
            "min_d0": rigsuk_min_d0(m0, args.r0),
            "min_d0_bound": rigsuk_bound(m0, args.r0),
        },
    )
    return 0


def cmd_unicita(args) -> int:
    from .hilb2 import unicita_report

    report = unicita_report(args.i, args.r0, args.e, cap=_cap(args))
    _emit(args, report.to_json_dict())
    return 0 if report.verdict else 1


def cmd_scenario(args) -> int:
    from .pipelines import load_scenario, run_scenario

    sc = load_scenario(args.scenario)
    if sc.pipeline != args.command:
        raise InputError(
            f"scenario pipeline is {_shown(sc.pipeline)}, expected {args.command!r}"
        )
    report = run_scenario(sc)
    _emit(args, report.to_json_dict())
    return 0 if report.verdict else 1


def cmd_sweep_econ(args) -> int:
    from .hilb2 import governing_divisibility, m0_s0
    from .nl import _econ_residue

    if args.r0max < 1 or args.emax < 1:
        raise InputError("--r0max and --emax must be positive")

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
    _emit_rows(args, {"r0max": args.r0max, "emax": args.emax, "cases": cases}, rows())
    return 0


def cmd_verify_all(args) -> int:
    summary = verify_all(args.filter)
    if args.json:
        _emit(args, summary.to_json_dict())
    else:
        for suite in summary.suites:
            mark = "ok" if suite.verdict else "FAIL"
            print(f"[{mark}] {suite.theorem} ({len(suite.checks)} checks)")
            for c in suite.failed():
                print(f"       failed: {c.name} {c.data}")
        print(f"{'all suites passed' if summary.ok else 'FAILURES: ' + ', '.join(summary.failures())}")
    return 0 if summary.ok else 1


COMMON = [
    ("--json", {"action": "store_true", "help": "print canonical JSON"}),
    ("--no-timestamp", {"action": "store_true",
                        "help": "omit the generated_at field from JSON output"}),
]
CAP = ("--cap", {"type": _int, "help": "most candidates the search may examine "
                 "(default nl.DEFAULT_SEARCH_CAP)"})
SCENARIO = ("--scenario", {"required": True, "help": "JSON scenario file"})
FIBER = ("--f", {"help": "JSON fiber class (default (0,1) in rank 2)"})


def _required_ints(*flags: str) -> list:
    return [(flag, {"type": _int, "required": True}) for flag in flags]


# name -> (help, handler, the arguments after COMMON as (flag, argparse kwargs) pairs);
# CAP comes first, so the usage line lists it where it always has
COMMANDS = {
    "fujiki": ("top intersection numbers", cmd_fujiki, [
        ("--setup", {"required": True, "help": "JSON file with n, c_x or kind, gram"}),
        ("--classes", {"required": True, "help": "JSON array of 2n classes"})]),
    "mukai": ("pairings and derived numerics", cmd_mukai, [
        ("--ns", {"required": True, "help": "JSON lattice ({e,d} or {gram})"}),
        ("--v", {"required": True, "help": "JSON Mukai vector {r,l,s}"}),
        ("--w", {"help": "optional second vector: print the pairing"})]),
    "walls": ("wall classes of a level", cmd_walls, [
        *_required_ints("--e", "--d"),
        ("--a", {"required": True, "help": "level (integer or p/q)"}),
        ("--suitability", {"action": "store_true",
                           "help": "also test the polarization; exit 1 when unsuitable"}),
        ("--h", {"help": "JSON polarization vector for --suitability"})]),
    "reduce": ("run a modification trace", cmd_reduce, [
        ("--ns", {"required": True}), ("--v", {"required": True}),
        ("--steps", {"required": True, "help": "JSON array of {r_b, deg_b}"}), FIBER]),
    "rigid": ("rigid vector via Bezout twist", cmd_rigid, [
        ("--ns", {"required": True}), ("--v", {"required": True}), FIBER]),
    "nl": ("admissibility of a fiber degree", cmd_nl, [
        ("--kind", {"choices": ("k3", "hk"), "required": True}),
        *_required_ints("--e", "--d"),
        ("--i", {"type": _int, "help": "ambient divisibility (hk)"}),
        ("--r0", {"type": _int, "help": "Mukai rank (k3)"}),
        ("--vsq", {"type": _int, "help": "Mukai square (k3)"})]),
    "nl-search": ("minimal admissible parameters", cmd_nl_search,
                  [CAP, *_required_ints("--r0", "--e")]),
    "unicita": ("full admissibility report", cmd_unicita,
                [CAP, *_required_ints("--i", "--r0", "--e")]),
    "vbk3ell": ("run a vbk3ell scenario", cmd_scenario, [SCENARIO]),
    "casoprim": ("run a casoprim scenario", cmd_scenario, [SCENARIO]),
    "sweep-econ": ("sweep the slope congruence", cmd_sweep_econ,
                   _required_ints("--r0max", "--emax")),
    "verify-all": ("run the self-check suites", cmd_verify_all, [
        ("--filter", {"help": "only suites whose name contains this string"})]),
}


def build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """Every subcommand's name and help; arguments only on the subparser of `command`."""
    parser = argparse.ArgumentParser(
        prog="hkmod",
        description="Exact lattice computations for moduli of sheaves on "
        "K3 surfaces and their Hilbert schemes.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_text, _, arguments) in COMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        if name == command:
            for flag, kwargs in COMMON + arguments:
                p.add_argument(flag, **kwargs)
    return parser


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    # the top-level parser has only -h, so its first token not starting with "-" is the command
    command = next((a for a in argv if not a.startswith("-")), None)
    args = build_parser(command).parse_args(argv)
    # input numbers are bounded where they are read (jsonio.MAX_DIGITS); answers print in full
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        return COMMANDS[args.command][1](args)
    except SearchCapExceeded as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except MathCheckError as exc:
        print(f"refused: {exc}", file=sys.stderr)
        return 1
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        sys.set_int_max_str_digits(limit)


if __name__ == "__main__":
    raise SystemExit(main())
