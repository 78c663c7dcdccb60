"""The CLI keeps the exit-code contract on any small JSON value and any small numeric flag.

One input file at a time, or one field of it, is replaced by an arbitrary
small JSON value and cli.main runs in process: it must return 0, 1, 2 or 3 without an
exception, and a nonzero exit must say why: a refusal or an input error
on stderr, a failed verdict in its report on stdout. The numeric flags of
walls, nl, nl-search, unicita, sweep-econ and verify-all get the same
contract on small argv values, with argparse's usage error counted as exit 2.
Integers stay small and numeric strings stay short, so no case reaches the scans
that nothing bounds yet (a wall level of 10**9, say). The exceptions are a number past the
input digit bound and a short exponent form such as 1e100000000, which every reader refuses
before any scan, and sweep-econ's --emax, which takes any integer of at most that many digits.
"""

import contextlib
import io
import json
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from hkmod import cli
from hkmod.cli import main
from hkmod.jsonio import MAX_DIGITS

SCENARIO_VECTORS = {"v": {"r": 2, "l": [1, 0], "s": 0}, "h": [1, 5]}
FILES = {
    "ns": {"e": 4, "d": 1},
    "v": {"r": 2, "l": [1, 0], "s": 0},
    "w": {"r": 1, "l": [0, 1], "s": 1},
    "v3": {"r": 3, "l": [1, 0], "s": 0},
    "steps": [{"r_b": 1, "deg_b": 0}, {"r_b": 2, "deg_b": 0}],
    "f": [0, 1],
    "setup": {"kind": "K3^[2]", "gram": [[6]]},
    "classes": [[1], [1], [1], [1]],
    "h": [1, 5],
    "scenario_vb": {"pipeline": "vbk3ell", "lattices": {"ns": {"e": 4, "d": 1}},
                    "vectors": SCENARIO_VECTORS},
    "scenario_cp": {"pipeline": "casoprim", "lattices": {"ns": {"e": 4, "d": 1}},
                    "vectors": SCENARIO_VECTORS},
}
# "@name" stands for the path of the input file FILES[name]
COMMANDS = {
    "mukai": ["mukai", "--ns", "@ns", "--v", "@v", "--w", "@w"],
    "rigid": ["rigid", "--ns", "@ns", "--v", "@v", "--f", "@f"],
    "reduce": ["reduce", "--ns", "@ns", "--v", "@v3", "--steps", "@steps", "--f", "@f"],
    "fujiki": ["fujiki", "--setup", "@setup", "--classes", "@classes"],
    "walls": ["walls", "--e", "4", "--d", "1", "--a", "12", "--suitability", "--h", "@h"],
    "vbk3ell": ["vbk3ell", "--scenario", "@scenario_vb"],
    "casoprim": ["casoprim", "--scenario", "@scenario_cp"],
}

# the keys and strings the input files use, so that arbitrary values often reach past the
# first shape check
KEYS = st.sampled_from(
    ["e", "d", "r", "l", "s", "gram", "rank", "label", "kind", "n", "c_x", "r_b", "deg_b",
     "pipeline", "lattices", "vectors", "ns", "v", "h"]
) | st.text("ab", max_size=3)
STRINGS = st.sampled_from(
    ["", "1/2", "-3", "1/0", " 2", "K3^[2]", "Kum_2", "vbk3ell", "casoprim", "twist"]
) | st.text("ab/", max_size=4)
# 10**4301, one value past the input digit bound: built, not written as a literal, since
# hypothesis prints its strategies and json.dumps writes it only with the bound lifted
HUGE = st.builds(pow, st.just(10), st.just(4301))
SCALARS = st.none() | st.booleans() | st.integers(-10, 10) | HUGE | STRINGS
JSON_VALUES = st.recursive(
    SCALARS,
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(KEYS, inner, max_size=4),
    max_leaves=16,
)


def dumps(value) -> str:
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        return json.dumps(value)
    finally:
        sys.set_int_max_str_digits(limit)


@pytest.mark.parametrize("command", sorted(COMMANDS))
@settings(max_examples=100, deadline=None, derandomize=True)
@given(data=st.data())
def test_any_small_json_input_keeps_the_exit_code_contract(command, data):
    argv = COMMANDS[command]
    names = [a[1:] for a in argv if a.startswith("@")]
    replaced = data.draw(st.sampled_from(names), label="file")
    value = data.draw(JSON_VALUES, label="value")
    if isinstance(FILES[replaced], dict) and data.draw(st.booleans(), label="one field"):
        field = data.draw(st.sampled_from(sorted(FILES[replaced])), label="field")
        value = {**FILES[replaced], field: value}
    out, err = io.StringIO(), io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        paths = {}
        for name in names:
            path = Path(tmp) / f"{name}.json"
            path.write_text(dumps(value if name == replaced else FILES[name]))
            paths["@" + name] = str(path)
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main([paths.get(a, a) for a in argv])
    assert code in (0, 1, 2, 3)
    if code == 1 and not err.getvalue():
        assert out.getvalue()  # a failed verdict: the report says why
    elif code:
        assert err.getvalue().startswith(("error:", "refused:")), err.getvalue()


# Argv values for the numeric flags: ints in [-10, 40], weighted toward the small positive
# ones most parameters need, short p/q strings, strings off the number grammar (decimal,
# exponent, underscore, inner-space and non-ASCII-digit forms, refused before any scan), and
# one number past the input digit bound. Other magnitudes stay small for the same reason as
# above: `walls --a 10000000` is a scan that nothing bounds yet. sweep-econ's --emax is not one:
# the sweep reads each row off a residue class, so it draws up to the input digit bound.
INTS = (st.integers(0, 8) | st.integers(-10, 40)).map(str)
WIDE_INTS = {("sweep-econ", "--emax"): INTS | st.integers(-10, 10**MAX_DIGITS - 1).map(str)}
ARG_VALUES = (
    INTS
    | st.builds("{}/{}".format, st.integers(-10, 40), st.integers(-3, 9))
    | st.sampled_from(["1.5", "1e1", "1e100000000", "1_000", "1 / 2", "\u0663", "nan", "inf",
                       "", "abc", "0x10", "1/0", "1" * 4301])
)
# the subcommand with its fixed arguments, then the flags that take a drawn value
ARGV_COMMANDS = {
    "walls": (["walls"], ["--e", "--d", "--a"]),
    "walls-suitability": (["walls", "--suitability"], ["--e", "--d", "--a"]),
    "nl-k3": (["nl", "--kind", "k3"], ["--e", "--d", "--r0", "--vsq"]),
    "nl-hk": (["nl", "--kind", "hk"], ["--e", "--d", "--i"]),
    "nl-search": (["nl-search"], ["--r0", "--e", "--cap"]),
    "unicita": (["unicita"], ["--i", "--r0", "--e", "--cap"]),
    "sweep-econ": (["sweep-econ"], ["--r0max", "--emax"]),
    "verify-all": (["verify-all"], ["--filter"]),
}


@pytest.mark.parametrize("command", sorted(ARGV_COMMANDS))
@settings(max_examples=60, deadline=None, derandomize=True)
@given(data=st.data())
def test_any_numeric_argv_keeps_the_exit_code_contract(command, data):
    fixed, flags = ARGV_COMMANDS[command]
    # at most one flag takes an arbitrary value, so most runs get past argparse's int check
    odd = data.draw(st.sampled_from([None, *flags]), label="odd flag")
    argv = list(fixed)
    for flag in flags:
        if flag == "--cap" and not data.draw(st.booleans(), label="with --cap"):
            continue
        ints = WIDE_INTS.get((command, flag), INTS)
        argv += [flag, data.draw(ARG_VALUES if flag == odd else ints, label=flag)]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse refuses a malformed value with exit 2
            code = exc.code
    stderr = err.getvalue()
    assert code in (0, 1, 2, 3)
    assert "Traceback" not in out.getvalue() + stderr
    if code == 1 and not stderr:
        assert out.getvalue()  # a failed verdict: the report says why
    elif code:
        assert stderr.startswith(("error:", "refused:", "usage:")), stderr
    else:
        assert not stderr


def test_every_subcommand_is_fuzzed():
    fuzzed = {argv[0] for argv in COMMANDS.values()}
    fuzzed |= {fixed[0] for fixed, _ in ARGV_COMMANDS.values()}
    assert fuzzed == set(cli.COMMANDS)
