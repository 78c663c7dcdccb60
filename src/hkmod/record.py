"""Immutable value records with the semantics of frozen dataclasses.

A record class writes its own __init__, which validates the arguments
and stores each one with setfield, as a frozen dataclass's __init__
does. The parameters of that __init__ are the record's fields, in order.
From them the base class derives equality (same class, equal fields),
the hash of the tuple of fields, a Name(field=value, ...) repr,
__match_args__, AttributeError on assignment or deletion, and
to_json_dict(): the fields in order, with tuples as lists and nested
records as their own dicts. Five records override to_json_dict because
their JSON is not their fields: LatVec (a bare list), WallClass (key
"lambda"), NefIsotropicClasses (ray objects), TheoremReport (a derived
verdict) and VerifySummary (derived ok and failures).
Unlike @dataclass it generates no code, so importing hkmod neither
builds methods nor imports dataclasses, inspect and ast.
"""

from __future__ import annotations

from operator import attrgetter

setfield = object.__setattr__  # bypasses Record.__setattr__; for use in __init__ only


class Record:
    """Base class of hkmod's immutable values; see the module docstring."""

    def __init_subclass__(cls):
        code = cls.__init__.__code__
        cls._fields = cls.__match_args__ = code.co_varnames[1 : code.co_argcount]
        get = attrgetter(*cls._fields)
        cls._key = staticmethod(get if len(cls._fields) > 1 else lambda obj: (get(obj),))

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._key(self) == self._key(other)
        return NotImplemented

    def __hash__(self):
        return hash(self._key(self))

    def to_json_dict(self):
        return {name: _plain(getattr(self, name)) for name in self._fields}

    def __repr__(self):
        args = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({args})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


def _plain(value):
    """A field value as to_json_dict reports it; Fractions and dicts pass through unchanged."""
    if isinstance(value, tuple):
        return [_plain(item) for item in value]
    if isinstance(value, Record):
        return value.to_json_dict()
    return value
