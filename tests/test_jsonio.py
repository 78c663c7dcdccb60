import json
import re
import sys
from fractions import Fraction
from types import SimpleNamespace
from unittest import mock

import pytest
from hypothesis import given, strategies as st

from hkmod import fujiki, hilb2, mukai, nl, pipelines, reduction, walls
from hkmod._commands.sweep_econ import cmd_sweep_econ
from hkmod.errors import InputError
from hkmod.jsonio import (
    MAX_DIGITS, _exact, canonical_json, load_json_file, to_int, to_rational,
)
from hkmod.lattice import IntLattice, lattice, vec
from hkmod.verify import verify_all
from test_record import SPECS


def test_to_rational():
    assert to_rational(5) == Fraction(5)
    assert to_rational("3/4") == Fraction(3, 4)
    assert to_rational(" -7/2 ") == Fraction(-7, 2)
    assert to_rational(Fraction(1, 3)) == Fraction(1, 3)
    for bad in (True, 1.5, "abc", "1/0", None, [1]):
        with pytest.raises(InputError):
            to_rational(bad)


# One grammar on every supported Python: an optional sign, ASCII digits and, in a rational,
# "/" and a positive ASCII integer, inside surrounding whitespace
@pytest.mark.parametrize("text, value", [
    (" -7/2 ", Fraction(-7, 2)), ("+3/4", Fraction(3, 4)), ("\t5\n", 5), ("007", 7), ("-0", 0),
    ("8/2", 4), ("3/004", Fraction(3, 4)),
])
def test_number_grammar_accepts(text, value):
    assert to_rational(text) == value


@pytest.mark.parametrize("text", [
    "1e3", "1.5", "1_000", "1 / 2", "\u0663", "+-1", "1_0/2", "1/-2", "1/+2", "1/00", "0x10",
    "nan", "inf", "", "+", "/2", "1/", "\u0663/2", "1/\u0663", "\uff11",
])
def test_number_grammar_refuses(text):
    """Decimal, exponent, underscore, inner-space and non-ASCII-digit forms are refused."""
    with pytest.raises(InputError, match="cannot parse rational from"):
        to_rational(text)


def test_to_int():
    assert to_int(4) == 4
    assert to_int("8/2") == 4
    with pytest.raises(InputError, match="rank"):
        to_int("1/2", "rank")
    with pytest.raises(InputError):
        to_int(False)


def encode(value):
    """The json round trip through _exact that the text writer once printed from, kept as the
    oracle of the hook: JSON data, tuples as lists, keys in insertion order."""
    return json.loads(json.dumps(value, default=_exact))


def test_encode():
    assert encode(Fraction(6, 2)) == 3
    assert encode(Fraction(1, 3)) == "1/3"
    assert encode({"x": (Fraction(5, 4), None, True)}) == {"x": ["5/4", None, True]}
    assert encode(vec((1, -2))) == [1, -2]
    with pytest.raises(InputError):
        encode(object())


def walk_encode(value):
    """encode's former walk, type by type, kept as the oracle of the json round trip."""
    if isinstance(value, bool) or value is None or isinstance(value, (int, str)):
        return value
    if isinstance(value, Fraction):
        return int(value) if value.denominator == 1 else f"{value.numerator}/{value.denominator}"
    if isinstance(value, dict):
        return {str(k): walk_encode(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [walk_encode(v) for v in value]
    if hasattr(value, "to_json_dict"):
        return walk_encode(value.to_json_dict())
    raise InputError(f"cannot encode {type(value).__name__} as JSON")


big = 10**MAX_DIGITS - 1  # the largest int of MAX_DIGITS digits, which json writes unaided
fractions = st.builds(Fraction, st.integers(-10**30, 10**30), st.integers(1, 10**30))
scalars = st.none() | st.booleans() | st.text() | st.integers(-big, big) | fractions
vectors = st.lists(st.integers(-50, 50) | fractions, min_size=1, max_size=4).map(vec)
values = st.recursive(
    scalars | vectors,
    lambda inner: st.lists(inner, max_size=4) | st.lists(inner, max_size=4).map(tuple)
    | st.dictionaries(st.text(max_size=4), inner, max_size=4),
    max_leaves=20,
)


@given(values)
def test_json_round_trip_matches_the_walk(value):
    want = walk_encode(value)
    got = encode(value)
    assert got == want and repr(got) == repr(want)  # key order and int/str/bool types too
    assert canonical_json(value) == json.dumps(want, sort_keys=True, separators=(",", ":")) + "\n"


def dict_keys(value):
    """Every dict key inside a value, records read through their to_json_dict."""
    if hasattr(value, "to_json_dict"):
        value = value.to_json_dict()
    if isinstance(value, dict):
        yield from value
        value = list(value.values())
    if isinstance(value, (list, tuple)):
        for item in value:
            yield from dict_keys(item)


def test_records_write_only_str_keys():
    """json writes a key True as "true" where the walk wrote "True": no such key reaches it."""
    samples = [cls(*args) for cls, (_, args, _) in SPECS.items()] + [verify_all()]
    keys = [key for sample in samples for key in dict_keys(sample)]
    assert "suites" in keys and [key for key in keys if type(key) is not str] == []


def test_canonical_json():
    assert canonical_json({"b": 1, "a": Fraction(1, 2)}) == '{"a":"1/2","b":1}\n'
    assert canonical_json([]) == "[]\n"


def test_load_json_file(tmp_path):
    path = tmp_path / "x.json"
    path.write_text('{"k": 1}')
    assert load_json_file(path) == {"k": 1}
    bad = tmp_path / "bad.json"
    bad.write_text("{")
    with pytest.raises(InputError, match="invalid JSON"):
        load_json_file(bad)
    with pytest.raises(InputError, match="cannot read"):
        load_json_file(tmp_path / "absent.json")


def test_input_numbers_have_at_most_max_digits(tmp_path):
    """At the bound a number reads as the interpreter's int would; one digit more is refused."""
    at, past = "-" + "9" * MAX_DIGITS, "1" + "0" * MAX_DIGITS
    path = tmp_path / "n.json"
    path.write_text(f"[{at}]")
    assert load_json_file(path) == [1 - 10**MAX_DIGITS]
    for text in (f"[{past}]", f'{{"k": [-{past}]}}'):
        path.write_text(text)
        with pytest.raises(InputError, match=f"at most {MAX_DIGITS} digits, got {MAX_DIGITS + 1}"):
            load_json_file(path)
    assert to_rational(at) == 1 - 10**MAX_DIGITS
    with pytest.raises(InputError, match=f"at most {MAX_DIGITS} digits"):
        to_rational(past[:-1] + "/3")
    # the bound holds with the interpreter's own lifted, as cli.main lifts it
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        with pytest.raises(InputError, match=f"got {MAX_DIGITS + 1}"):
            to_rational(past)
    finally:
        sys.set_int_max_str_digits(limit)


@given(st.integers(-10**6, 10**6), st.integers(1, 10**4))
def test_rational_round_trip(p, q):
    x = Fraction(p, q)
    assert to_rational(encode(x)) == x


# The integer gate at every site that calls jsonio._check_int for a bound (and at the gram
# entries): (site, the routine with the parameter as its only argument, the parameter's name
# in the refusal, the least value). A stand-in record (SimpleNamespace) carries a field that
# the record's own gate would refuse first.
E4D1 = lattice(((4, 1), (1, 0)))
V1 = mukai.MukaiVector(1, vec((0, 0)), 0)
V2 = mukai.MukaiVector(2, vec((1, 0)), 1)  # square 0, fiber degree 1
F = vec((0, 1))


def _vector(r):
    return SimpleNamespace(r=r, l=V2.l, s=V2.s)


def _fujiki_constant(n):
    with mock.patch.object(fujiki, "parse_kind", return_value=("K3^[n]", n)):
        return fujiki.fujiki_constant("K3^[n]")


GATE_SITES = [
    ("fujiki.fujiki_constant", _fujiki_constant, "n", 1),
    ("fujiki.double_factorial", fujiki.double_factorial, "m", -1),
    ("lattice.IntLattice", lambda r: IntLattice(r, ((0,),)), "rank", 1),
    ("lattice.IntLattice-gram", lambda x: IntLattice(1, ((x,),)), "gram entry", None),
    ("walls.EllipticNS", lambda d: walls.EllipticNS(4, d), "fiber degree d", 1),
    ("mukai.MukaiVector", lambda r: mukai.MukaiVector(r, F, 0), "rank", 0),
    ("mukai.from_chern", lambda r: mukai.from_chern(E4D1, r, F, 0), "rank", 0),
    ("mukai.numerics", lambda r: mukai.numerics(E4D1, _vector(r)), "rank", 1),
    ("mukai.normalize_twist", lambda r: mukai.normalize_twist(E4D1, _vector(r), _vector(r), F),
     "rank", 1),
    ("pipelines.multacca_normalize",
     lambda r: pipelines.multacca_normalize(E4D1, _vector(r), vec((1, 0)), 1), "rank", 1),
    ("reduction.bezout_r0_d0", lambda r: reduction.bezout_r0_d0(r, 1), "rank", 2),
    ("reduction.rigid_vector", lambda r: reduction.rigid_vector(E4D1, _vector(r), F), "rank", 2),
    ("reduction.elementary_modification", lambda r: reduction.elementary_modification(
        E4D1, _vector(r), reduction.ModificationStep(1, 0), F), "rank", 2),
    ("reduction.hom_count_check", lambda r: reduction.hom_count_check(1, r, 1, 0), "rank", 2),
    ("reduction.nonlocally_free_dim_identity",
     lambda r: reduction.nonlocally_free_dim_identity(E4D1, _vector(r), 1), "rank", 1),
    ("walls.min_negative_norm", lambda e: walls.min_negative_norm(SimpleNamespace(e=e, d=1)),
     "e", 0),
    ("walls.no_wall_threshold", lambda e: walls.no_wall_threshold(e, 3), "e", 0),
    ("sweep-econ --r0max", lambda n: cmd_sweep_econ(SimpleNamespace(r0max=n, emax=10)),
     "--r0max", 1),
    ("sweep-econ --emax", lambda n: cmd_sweep_econ(SimpleNamespace(r0max=3, emax=n)),
     "--emax", 1),
    # the callers of the r0 gate
    ("nl.econ_check", lambda r0: nl.econ_check(r0, 2), "r0", 1),
    ("nl.governing_divisibility", nl.governing_divisibility, "r0", 1),
    ("nl.m0_s0", lambda r0: nl.m0_s0(r0, 2), "r0", 1),
    ("nl.buonacompt_bound", lambda r0: nl.buonacompt_bound(r0, 2), "r0", 1),
    ("nl.rigsuk_bound", lambda r0: nl.rigsuk_bound(0, r0), "r0", 1),
    ("hilb2.f2_invariants", hilb2.f2_invariants, "r0", 1),
    ("hilb2.h_polarization", lambda r0: hilb2.h_polarization(r0, 1), "r0", 1),
    ("hilb2.rosetta_check", lambda r0: hilb2.rosetta_check(r0, 1, 2, 1), "r0", 1),
    ("hilb2.unicita_report", lambda r0: hilb2.unicita_report(1, r0, 2), "r0", 1),
]
BOUND_TEXT = {-1: "at least -1", 0: "nonnegative", 1: "positive", 2: "at least 2"}


@pytest.mark.parametrize("call, what, least", [site[1:] for site in GATE_SITES],
                         ids=[site[0] for site in GATE_SITES])
def test_every_integer_gate_refuses_in_its_own_words(call, what, least):
    """A float or a bool is not an integer, one below the least value is refused, and the least
    value passes; no refusal echoes the value. No assert is involved, so python -O agrees."""
    for bad in (float(least or 0), True):
        with pytest.raises(InputError, match=f"^{re.escape(what)} must be an integer$"):
            call(bad)
    if least is not None:
        with pytest.raises(InputError, match=f"^{re.escape(what)} must be {BOUND_TEXT[least]}$"):
            call(least - 1)
    call(0 if least is None else least)
