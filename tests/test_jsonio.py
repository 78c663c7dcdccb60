import json
import sys
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from hkmod.errors import InputError
from hkmod.jsonio import (
    MAX_DIGITS, canonical_json, encode, load_json_file, to_int, to_rational,
)
from hkmod.lattice import vec
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
