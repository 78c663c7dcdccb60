"""Exact integer-lattice arithmetic.

A lattice is a finite-rank free module with an integral symmetric Gram
matrix; vectors carry exact coordinates: plain ints where integral,
Fractions otherwise. Everything here is tolerance-free:
arbitrary-precision integers and fractions only.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence
from fractions import Fraction
from math import gcd
from operator import mul

from .errors import InputError
from .jsonio import _shown, to_exact, to_int
from .record import Record, setfield


class LatVec(Record):
    """Vector with exact coordinates: ints where integral, Fractions otherwise. Build it with vec()."""

    def __init__(self, coords: tuple[int | Fraction, ...]):
        if not isinstance(coords, tuple) or not coords:
            raise InputError("coords must be a nonempty tuple")
        setfield(self, "coords", coords)

    @property
    def integral(self) -> bool:
        return all(type(c) is int for c in self.coords)

    def __len__(self) -> int:
        return len(self.coords)

    def __add__(self, other: "LatVec") -> "LatVec":
        if len(self) != len(other):
            raise InputError("vector length mismatch")
        return vec(a + b for a, b in zip(self.coords, other.coords))

    def __sub__(self, other: "LatVec") -> "LatVec":
        if len(self) != len(other):
            raise InputError("vector length mismatch")
        return vec(a - b for a, b in zip(self.coords, other.coords))

    def __rmul__(self, scalar) -> "LatVec":
        s = to_exact(scalar)
        return vec(s * c for c in self.coords)

    @property
    def is_zero(self) -> bool:
        return all(c == 0 for c in self.coords)

    def int_coords(self) -> tuple[int, ...]:
        if not self.integral:
            raise InputError(f"vector {self.coords} is not integral")
        return self.coords

    def to_json_dict(self):
        return list(self.coords)


def vec(coords: Iterable) -> LatVec:
    """Build a LatVec from ints, Fractions, or 'p/q' strings; integral coordinates become ints."""
    coords = tuple(coords)
    for c in coords:
        if type(c) is not int:  # nor is a bool: to_exact parses, or refuses, each coordinate
            return LatVec(tuple(map(to_exact, coords)))
    return LatVec(coords)


def latvec_from_json(data, rank: int | None = None) -> LatVec:
    if not isinstance(data, (list, tuple)):
        raise InputError(f"vector JSON must be an array, got {_shown(data)}")
    v = vec(data)
    if rank is not None and len(v) != rank:
        raise InputError(f"vector has length {len(v)}, expected {rank}")
    return v


class IntLattice(Record):
    """Finite-rank lattice with an integral symmetric Gram matrix."""

    def __init__(self, rank: int, gram: tuple[tuple[int, ...], ...]):
        if rank < 1:
            raise InputError("rank must be positive")
        if len(gram) != rank or any(len(row) != rank for row in gram):
            raise InputError(f"gram must be {rank}x{rank}")
        for i in range(rank):
            for j in range(rank):
                if not isinstance(gram[i][j], int) or isinstance(gram[i][j], bool):
                    raise InputError("gram entries must be integers")
                if gram[i][j] != gram[j][i]:
                    raise InputError("gram must be symmetric")
        setfield(self, "rank", rank)
        setfield(self, "gram", gram)


def lattice(gram: Sequence[Sequence[int]]) -> IntLattice:
    """Lattice of an integral symmetric Gram matrix given as an array of arrays.

    Lattices compare by rank and Gram matrix alone."""
    arrays = (list, tuple)
    if not isinstance(gram, arrays) or not all(isinstance(row, arrays) for row in gram):
        raise InputError("gram must be an array of arrays")
    rows = tuple(tuple(to_int(x, "gram entry") for x in row) for row in gram)
    return IntLattice(rank=len(rows), gram=rows)


def lattice_from_json(data) -> IntLattice:
    if not isinstance(data, dict) or "gram" not in data:
        raise InputError("lattice JSON must be an object with a 'gram' matrix")
    lat = lattice(data["gram"])
    if "rank" in data and to_int(data["rank"], "rank") != lat.rank:
        raise InputError(f"declared rank {data['rank']} does not match gram size {lat.rank}")
    return lat


def _check_len(L: IntLattice, v: LatVec):
    if len(v) != L.rank:
        raise InputError(f"vector length {len(v)} does not match lattice rank {L.rank}")


def pair(L: IntLattice, v: LatVec, w: LatVec) -> int | Fraction:
    """Evaluate the symmetric bilinear form v^T * gram * w: an int when both vectors are integral."""
    vc, wc, rank = v.coords, w.coords, L.rank  # _check_len's two tests, inline on this hot path
    if len(vc) != rank:
        raise InputError(f"vector length {len(vc)} does not match lattice rank {rank}")
    if len(wc) != rank:
        raise InputError(f"vector length {len(wc)} does not match lattice rank {rank}")
    total = 0
    for vi, row in zip(vc, L.gram):
        total += vi * sum(map(mul, row, wc))
    return total


def norm(L: IntLattice, v: LatVec) -> int | Fraction:
    """Self-pairing pair(v, v)."""
    return pair(L, v, v)


def content(v: LatVec) -> int:
    """Gcd of the integer coordinates (0 for the zero vector)."""
    return gcd(*v.int_coords())


def primitive_part(L: IntLattice, v: LatVec) -> LatVec:
    """Divide an integral vector by the gcd of its coordinates."""
    _check_len(L, v)
    if v.is_zero:
        raise InputError("the zero vector has no primitive part")
    c = content(v)
    return vec(x // c for x in v.int_coords())


def saturation_check(L: IntLattice, v1: LatVec, v2: LatVec) -> bool:
    """True iff the sublattice spanned by v1, v2 is saturated (gcd of 2x2 minors is 1)."""
    _check_len(L, v1)
    _check_len(L, v2)
    a = v1.int_coords()
    b = v2.int_coords()
    g = 0
    for i in range(L.rank):
        for j in range(i + 1, L.rank):
            g = gcd(g, abs(a[i] * b[j] - a[j] * b[i]))
    if g == 0:
        raise InputError("saturation check requires linearly independent vectors")
    return g == 1


def discriminant(L: IntLattice) -> int:
    """det(gram), computed by fraction-free (Bareiss) elimination."""
    n = L.rank
    a = [list(row) for row in L.gram]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if a[k][k] == 0:
            for i in range(k + 1, n):
                if a[i][k] != 0:
                    a[k], a[i] = a[i], a[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
        prev = a[k][k]
    return sign * a[n - 1][n - 1]
