"""Mukai vectors on a K3 surface and the numerics attached to them.

A vector is a triple (r, l, s) with r the rank, l an integral class in
the Neron-Severi lattice and s an integer. All arithmetic is exact; the
self-pairing is required to be even, which pins the lattice down as an
even one.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd

from .errors import InputError, MathCheckError
from .jsonio import _check_int, _shown, to_int
from .lattice import IntLattice, LatVec, latvec_from_json, norm, pair
from .record import Record, setfield


class MukaiVector(Record):
    def __init__(self, r: int, l: LatVec, s: int):
        _check_int(r, "rank", 0)
        if not isinstance(l, LatVec):
            raise InputError("middle component must be a lattice vector")
        if not l.integral:
            raise InputError("middle component must be integral")
        _check_int(s, "last component")
        setfield(self, "r", r)
        setfield(self, "l", l)
        setfield(self, "s", s)


def mukai_from_json(data, rank: int | None = None) -> MukaiVector:
    if not isinstance(data, dict):
        raise InputError("a Mukai vector is a JSON object with keys r, l, s")
    missing = {"r", "l", "s"} - set(data)
    if missing:
        raise InputError(f"Mukai vector is missing keys: {sorted(missing)}")
    return MukaiVector(
        r=to_int(data["r"], "r"),
        l=latvec_from_json(data["l"], rank),
        s=to_int(data["s"], "s"),
    )


def mukai_pairing(ns: IntLattice, v: MukaiVector, w: MukaiVector) -> int:
    """Pairing <v, w> = (l, l') - r*s' - r'*s."""
    return pair(ns, v.l, w.l) - v.r * w.s - w.r * v.s


def mukai_square(ns: IntLattice, v: MukaiVector) -> int:
    value = mukai_pairing(ns, v, v)
    if value % 2:
        raise MathCheckError(
            f"self-pairing {_shown(value)} is odd; the ambient lattice is not even"
        )
    return value


def from_chern(ns: IntLattice, r: int, c1: LatVec, c2: int) -> MukaiVector:
    """Mukai vector (r, c1, c1^2/2 - c2 + r) of a sheaf with these Chern data."""
    _check_int(r, "rank", 0)
    if not c1.integral:
        raise InputError("c1 must be integral")
    c1sq = norm(ns, c1)
    if c1sq % 2:
        raise MathCheckError(f"c1^2 = {_shown(c1sq)} must be an even integer")
    return MukaiVector(r, c1, c1sq // 2 - c2 + r)


class MukaiNumerics(Record):
    """Derived quantities of a positive-rank vector: square, moduli
    half-dimension offset n, wall-control constant a, and delta."""

    def __init__(self, v_square: int, n_v: int, a_v: Fraction, delta: int):
        setfield(self, "v_square", v_square)
        setfield(self, "n_v", n_v)
        setfield(self, "a_v", a_v)
        setfield(self, "delta", delta)

    @classmethod
    def from_square(cls, r: int, v_square: int) -> "MukaiNumerics":
        _check_int(r, "rank", 1)
        _check_int(v_square, "v_square")
        if v_square % 2:
            raise MathCheckError(f"square {_shown(v_square)} must be even")
        delta = v_square + 2 * r * r
        return cls(
            v_square=v_square,
            n_v=v_square // 2 + 1,
            a_v=Fraction(r * r * delta, 4),
            delta=delta,
        )


def numerics(ns: IntLattice, v: MukaiVector) -> MukaiNumerics:
    _check_int(v.r, "rank", 1)
    return MukaiNumerics.from_square(v.r, mukai_square(ns, v))


def _fiber_degree(ns: IntLattice, v: MukaiVector, f: LatVec) -> int:
    if norm(ns, f) != 0:
        raise InputError("fiber class must be isotropic: q(f,f) = 0")
    if f.is_zero or not f.integral:
        raise InputError("fiber class must be a nonzero integral class")
    return pair(ns, v.l, f)


def _twist(ns: IntLattice, v: MukaiVector, c: LatVec, m: int) -> MukaiVector:
    """Tensor by the m-th power of the line bundle with class c:
    (r, l + m*r*c, s + m*q(l, c) + m^2*r*q(c)/2). Refuses a shift of s that is not an integer."""
    shift = m * pair(ns, v.l, c) + Fraction(v.r * m * m * norm(ns, c), 2)
    if shift.denominator != 1:
        raise MathCheckError(
            f"twist shifts the last component by the non-integer {_shown(shift)}")
    return MukaiVector(v.r, v.l + (m * v.r) * c, v.s + shift.numerator)


def twist_by_mf(ns: IntLattice, v: MukaiVector, m: int, f: LatVec) -> MukaiVector:
    """Tensor by the m-th power of the line bundle with isotropic class f."""
    _fiber_degree(ns, v, f)
    _check_int(m, "m")
    return _twist(ns, v, f, m)


def normalize_twist(ns: IntLattice, v: MukaiVector, w: MukaiVector, f: LatVec) -> int:
    """Recover the unique m with w = twist_by_mf(v, m, f), or refuse.

    Checks are ordered so the most structural failure is reported first:
    fiber class, rank, coprimality hypothesis, fiber-direction difference,
    rank divisibility, and square. They leave no round trip to check: with
    q(f, f) = 0 and w.l = v.l + x*f, equal squares force
    w.s = v.s + (x/r)*q(v.l, f), which is twist_by_mf(v, x/r, f).
    """
    k = _fiber_degree(ns, v, f)
    if v.r != w.r:
        raise MathCheckError(f"rank mismatch: {_shown(v.r)} != {_shown(w.r)}")
    _check_int(v.r, "rank", 1)
    if gcd(v.r, k) != 1:
        raise MathCheckError(f"gcd(r, q(l,f)) = gcd({_shown(v.r)}, {_shown(k)}) != 1")
    diff = w.l - v.l
    # f is nonzero, so its first nonzero coordinate fixes the candidate multiple
    x = next(Fraction(a, b) for a, b in zip(diff.coords, f.coords) if b != 0)
    if x.denominator != 1 or diff != x * f:
        raise MathCheckError("difference of middle components is not an integer multiple of f")
    x = x.numerator
    if x % v.r:
        raise MathCheckError(
            f"fiber multiple {_shown(x)} is not divisible by the rank {_shown(v.r)}")
    if mukai_square(ns, w) != mukai_square(ns, v):
        raise MathCheckError("squares differ; the vectors are not twists of each other")
    return x // v.r
