"""Exact-rational JSON encoding and canonical serialization.

Rationals are encoded as plain integers when integral and as "p/q"
strings otherwise, so reports stay exact and reproducible by hand.
Canonical form (sorted keys, fixed separators) makes identical inputs
produce byte-identical output.
"""

from __future__ import annotations

import json
import re
import sys
from fractions import Fraction

from .errors import InputError

# The most digits an input number may have: the interpreter's default bound on int <-> str
# conversion. cli.main lifts that bound around a subcommand, so every exact answer prints.
MAX_DIGITS = sys.int_info.default_max_str_digits

# The one grammar of an input number, inside surrounding whitespace: an optional sign and ASCII
# digits, then in a rational only "/" and a positive ASCII integer ([0-9]: \d takes any digit)
_NUMBER = re.compile(r"([+-]?[0-9]+)(?:/(0*[1-9][0-9]*))?")

# The most characters of an input value that a refusal echoes
_SHOWN_WIDTH = 200


def _shown(value) -> str:
    """repr(value) for a refusal (a Fraction as "p/q"), cut to _SHOWN_WIDTH characters with
    "..." appended."""
    text = str(value) if isinstance(value, Fraction) else repr(value)
    return text if len(text) <= _SHOWN_WIDTH else text[:_SHOWN_WIDTH] + "..."


def _parse(text: str, rational: bool) -> int | Fraction:
    """The number text writes in _NUMBER, p/q only if rational, in at most MAX_DIGITS digits
    (p and q together, counted before int() reads any: cli.main lifts its bound)."""
    match = _NUMBER.fullmatch(text.strip())
    if match is None or (match[2] is not None and not rational):
        raise InputError(f"cannot parse rational from {_shown(text)}" if rational
                         else f"invalid int value: {_shown(text)}")  # argparse's type=int wording
    p, q = match.groups()
    count = len(p.lstrip("+-")) + len(q or "")
    if count > MAX_DIGITS:
        raise InputError(f"input numbers have at most {MAX_DIGITS} digits, got {count}")
    return int(p) if q is None else Fraction(int(p), int(q))


def to_rational(value) -> Fraction:
    """Parse an exact rational from an int, a Fraction, or a 'p/q' string."""
    if isinstance(value, bool):
        raise InputError(f"expected a rational, got boolean {value!r}")
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        return Fraction(_parse(value, rational=True))
    kind = type(value).__name__
    raise InputError(f"cannot parse rational from {_shown(value)} of type {kind}")


def to_exact(value) -> int | Fraction:
    """Parse an exact rational as to_rational does; an integral value comes back as an int."""
    if type(value) is int:
        return value
    q = to_rational(value)
    return q.numerator if q.denominator == 1 else q


def to_int(value, what: str = "value") -> int:
    """Parse an exact integer; rationals with denominator 1 are accepted."""
    q = to_exact(value)
    if type(q) is not int:
        raise InputError(f"{what} must be an integer, got {_shown(q)}")
    return q


def _check_int(value, what: str, least: int | None = None) -> None:
    """The one integer gate: refuse a parameter that is not an int (a float or a bool is not
    one) or, when least is given, that lies below it. The refusal never echoes the value."""
    if not isinstance(value, int) or isinstance(value, bool):
        raise InputError(f"{what} must be an integer")
    if least is not None and value < least:
        words = {1: "positive", 0: "nonnegative"}.get(least, f"at least {least}")
        raise InputError(f"{what} must be {words}")


def _level(a) -> Fraction:
    """A wall level: an exact rational, refused unless positive."""
    a = to_rational(a)
    if a <= 0:
        raise InputError(f"level must be positive, got {_shown(a)}")
    return a


def _exact(value):
    """Both output modes' hook: a Fraction as an int or "p/q", a record as its to_json_dict()."""
    if isinstance(value, Fraction):
        return value.numerator if value.denominator == 1 else str(value)
    if hasattr(value, "to_json_dict"):
        return value.to_json_dict()
    raise InputError(f"cannot encode {type(value).__name__} as JSON")


def canonical_json(value) -> str:
    """Serialize deterministically: sorted keys, no whitespace, trailing newline."""
    return json.dumps(value, default=_exact, sort_keys=True, separators=(",", ":")) + "\n"


def load_json_file(path: str):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh, parse_int=lambda text: _parse(text, rational=False))
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc}") from exc
    except (json.JSONDecodeError, RecursionError) as exc:  # RecursionError: nested too deep
        raise InputError(f"invalid JSON in {path}: {exc}") from exc
