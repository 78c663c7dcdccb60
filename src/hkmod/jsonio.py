"""Exact-rational JSON encoding and canonical serialization.

Rationals are encoded as plain integers when integral and as "p/q"
strings otherwise, so reports stay exact and reproducible by hand.
Canonical form (sorted keys, fixed separators) makes identical inputs
produce byte-identical output.
"""

from __future__ import annotations

import json
import sys
from fractions import Fraction

from .errors import InputError

# The most digits an input number may have: the interpreter's default bound on int <-> str
# conversion. cli.main lifts that bound around a subcommand, so every exact answer prints.
MAX_DIGITS = sys.int_info.default_max_str_digits


def check_digits(text: str) -> None:
    """Refuse a number written with more than MAX_DIGITS digits."""
    count = sum(ch.isdigit() for ch in text)
    if count > MAX_DIGITS:
        raise InputError(f"input numbers have at most {MAX_DIGITS} digits, got {count}")


def to_rational(value) -> Fraction:
    """Parse an exact rational from an int, a Fraction, or a 'p/q' string."""
    if isinstance(value, bool):
        raise InputError(f"expected a rational, got boolean {value!r}")
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        check_digits(value)
        try:
            return Fraction(value.strip())
        except (ValueError, ZeroDivisionError) as exc:
            raise InputError(f"cannot parse rational from {value!r}") from exc
    raise InputError(f"cannot parse rational from {value!r} of type {type(value).__name__}")


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
        raise InputError(f"{what} must be an integer, got {q}")
    return q


def encode(value):
    """Map a value (Fractions, tuples, objects with a to_json_dict method) to JSON-ready data."""
    if isinstance(value, bool) or value is None or isinstance(value, (int, str)):
        return value
    if isinstance(value, Fraction):
        return int(value) if value.denominator == 1 else f"{value.numerator}/{value.denominator}"
    if isinstance(value, dict):
        return {str(k): encode(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [encode(v) for v in value]
    if hasattr(value, "to_json_dict"):
        return encode(value.to_json_dict())
    raise InputError(f"cannot encode {type(value).__name__} as JSON")


def canonical_json(value) -> str:
    """Serialize deterministically: sorted keys, no whitespace, trailing newline."""
    return json.dumps(encode(value), sort_keys=True, separators=(",", ":")) + "\n"


def _json_int(text: str) -> int:
    check_digits(text)
    return int(text)


def load_json_file(path: str):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh, parse_int=_json_int)
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise InputError(f"invalid JSON in {path}: {exc}") from exc
