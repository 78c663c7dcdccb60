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
from collections.abc import Iterator
from importlib import import_module

from .errors import InputError, MathCheckError, SearchCapExceeded
from .jsonio import _exact, _parse, canonical_json
from .verify import verify_all  # the runner only: the checks load when verify-all runs


def _scalar(value) -> str:
    if value is None or isinstance(value, (bool, list, tuple, dict)):
        return json.dumps(value)  # true, false, null, [] or {}
    return str(value)


def _human_lines(value, indent: int = 0) -> list[str]:
    """'key: item' lines of a dict or '- item' lines of a list or tuple, nested containers
    indented; any other item is lowered through jsonio._exact, as canonical_json lowers it."""
    pad = "  " * indent
    if isinstance(value, dict):
        labelled = ((f"{key}:", item) for key, item in value.items())
    else:
        labelled = (("-", item) for item in value)
    lines: list[str] = []
    for label, item in labelled:
        if not (item is None or isinstance(item, (str, int, list, tuple, dict))):
            item = _exact(item)
        if isinstance(item, (dict, list, tuple)) and item:
            lines.append(pad + label)
            lines.extend(_human_lines(item, indent + 1))
        else:
            lines.append(f"{pad}{label} {_scalar(item)}")
    return lines


def _emit(args, payload: dict) -> None:
    """Print payload as canonical JSON (--json, keys sorted) or as human lines (keys in order),
    a top-level value in one piece and a list or iterator one element per piece. No write
    holds the whole payload, an iterator prints as it is made, and every piece is followed by
    a write (the closing brace in JSON, print's line end in text) that raises once stdout has
    closed, so output cut short never passes for a whole answer."""
    if args.json and not args.no_timestamp:
        from datetime import datetime, timezone  # only timestamped JSON needs it: lean start-up
        stamp = datetime.now(timezone.utc).strftime("%Y-%m-%dT%H:%M:%SZ")
        payload = {**payload, "generated_at": stamp}
    for n, key in enumerate(sorted(payload) if args.json else payload):
        value = payload[key]
        if args.json:
            sys.stdout.write(("," if n else "{") + json.dumps(key) + ":")
        if not isinstance(value, (list, Iterator)):
            if args.json:
                sys.stdout.write(canonical_json(value)[:-1])
            else:
                print("\n".join(_human_lines({key: value})))
            continue
        empty = True
        for item in value:
            if args.json:
                sys.stdout.write(("[" if empty else ",") + canonical_json(item)[:-1])
            else:
                if empty:
                    print(f"{key}:")
                print("\n".join(_human_lines([item], 1)))
            empty = False
        if args.json:
            sys.stdout.write("[]" if empty else "]")
        elif empty:
            print(f"{key}: []")
    if args.json:
        sys.stdout.write("}\n" if payload else "{}\n")


def _int(text: str) -> int:
    """argparse type: an integer of the jsonio grammar (no p/q), within jsonio.MAX_DIGITS."""
    try:
        return _parse(text, rational=False)
    except InputError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


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
# CAP comes first, so the usage line lists it where it always has. A handler is named
# "module:function" of hkmod._commands (one module per subcommand or per group that shares
# a helper), which main imports once it knows the command, so importing this module
# compiles none of them; it returns the payload and the exit code, and _run prints the
# payload through _emit. verify-all's handler is cmd_verify_all itself, which prints its own text.
COMMANDS = {
    "fujiki": ("top intersection numbers", "fujiki:cmd_fujiki", [
        ("--setup", {"required": True, "help": "JSON file with n, c_x or kind, gram"}),
        ("--classes", {"required": True, "help": "JSON array of 2n classes"})]),
    "mukai": ("pairings and derived numerics", "mukai:cmd_mukai", [
        ("--ns", {"required": True, "help": "JSON lattice ({e,d} or {gram})"}),
        ("--v", {"required": True, "help": "JSON Mukai vector {r,l,s}"}),
        ("--w", {"help": "optional second vector: print the pairing"})]),
    "walls": ("wall classes of a level", "walls:cmd_walls", [
        *_required_ints("--e", "--d"),
        ("--a", {"required": True, "help": "level (integer or p/q)"}),
        ("--suitability", {"action": "store_true",
                           "help": "also test the polarization; exit 1 when unsuitable"}),
        ("--h", {"help": "JSON polarization vector for --suitability"})]),
    "reduce": ("run a modification trace", "mukai:cmd_reduce", [
        ("--ns", {"required": True}), ("--v", {"required": True}),
        ("--steps", {"required": True, "help": "JSON array of {r_b, deg_b}"}), FIBER]),
    "rigid": ("rigid vector via Bezout twist", "mukai:cmd_rigid", [
        ("--ns", {"required": True}), ("--v", {"required": True}), FIBER]),
    "nl": ("admissibility of a fiber degree", "nl:cmd_nl", [
        ("--kind", {"choices": ("k3", "hk"), "required": True}),
        *_required_ints("--e", "--d"),
        ("--i", {"type": _int, "help": "ambient divisibility (hk)"}),
        ("--r0", {"type": _int, "help": "Mukai rank (k3)"}),
        ("--vsq", {"type": _int, "help": "Mukai square (k3)"})]),
    "nl-search": ("minimal admissible parameters", "search:cmd_nl_search",
                  [CAP, *_required_ints("--r0", "--e")]),
    "unicita": ("full admissibility report", "search:cmd_unicita",
                [CAP, *_required_ints("--i", "--r0", "--e")]),
    "vbk3ell": ("run a vbk3ell scenario", "scenario:cmd_scenario", [SCENARIO]),
    "casoprim": ("run a casoprim scenario", "scenario:cmd_scenario", [SCENARIO]),
    "sweep-econ": ("sweep the slope congruence", "sweep_econ:cmd_sweep_econ",
                   _required_ints("--r0max", "--emax")),
    "verify-all": ("run the self-check suites", cmd_verify_all, [
        ("--filter", {"help": "only suites whose name contains this string"})]),
}


def build_parser(command: str | None = None, alone: bool = True) -> argparse.ArgumentParser:
    """The parser of a command line whose subcommand is `command`, with arguments on that
    subparser only.

    With `alone` and a known command it registers no other subparser; the metavar keeps the
    top-level usage line of the full parser. Otherwise it registers every subcommand's name
    and help: the top-level help lists them, and the errors for a missing or unknown
    subcommand name the action `command`."""
    parser = argparse.ArgumentParser(
        prog="hkmod",
        description="Exact lattice computations for moduli of sheaves on "
        "K3 surfaces and their Hilbert schemes.",
    )
    if alone and command in COMMANDS:
        sub = parser.add_subparsers(dest="command", required=True,
                                    metavar="{" + ",".join(COMMANDS) + "}")
        names = [command]
    else:
        sub = parser.add_subparsers(dest="command", required=True)
        names = list(COMMANDS)
    for name in names:
        help_text, _, arguments = COMMANDS[name]
        p = sub.add_parser(name, help=help_text)
        if name == command:
            for flag, kwargs in COMMON + arguments:
                p.add_argument(flag, **kwargs)
    return parser


def _run(args) -> int:
    """Run the subcommand's handler and print what it returns."""
    handler = COMMANDS[args.command][1]
    if callable(handler):
        return handler(args)
    module, name = handler.split(":")
    payload, code = getattr(import_module(f"{__package__}._commands.{module}"), name)(args)
    _emit(args, payload)
    return code


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    # the top-level parser has only -h, so its first token not starting with "-" is the command
    command = next((a for a in argv if not a.startswith("-")), None)
    # a token before the command (-h, say) is the top-level parser's, which then needs them all
    args = build_parser(command, alone=argv[:1] == [command]).parse_args(argv)
    # input numbers are bounded where they are read (jsonio.MAX_DIGITS); answers print in full
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        return _run(args)
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
