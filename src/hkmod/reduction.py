"""Slope-reduction of Mukai vectors along an elliptic fibration.

Starting from a positive-rank vector coprime to the fiber degree, a
Bezout twist produces a rigid vector of square -2; elementary
modifications then walk the square down in controlled strictly
decreasing steps, never below the rigid bound.
"""

from __future__ import annotations

from math import gcd

from .errors import InputError, MathCheckError
from .jsonio import _check_int, _shown
from .lattice import IntLattice, LatVec
from .mukai import MukaiVector, _fiber_degree, mukai_square
from .record import Record, setfield


class AtiyahResult(Record):
    """Existence of a stable fiber bundle of coprime rank and degree; such
    a bundle is unique up to isomorphism whenever it exists."""

    def __init__(self, exists: bool, unique: bool):
        setfield(self, "exists", exists)
        setfield(self, "unique", unique)


def atiyah_exists(r: int, deg: int) -> AtiyahResult:
    _check_int(r, "rank", 1)
    _check_int(deg, "deg")
    ok = gcd(r, deg) == 1
    return AtiyahResult(exists=ok, unique=ok)


def bezout_r0_d0(r: int, k: int) -> tuple[int, int]:
    """The unique pair with k*r0 - r*d0 = 1 and 0 < r0 < r."""
    _check_int(r, "rank", 2)
    _check_int(k, "k")
    if gcd(r, k) != 1:
        raise MathCheckError(f"gcd({_shown(r)}, {_shown(k)}) != 1: no Bezout pair exists")
    r0 = pow(k, -1, r)
    return r0, (k * r0 - 1) // r


class ModificationStep(Record):
    """One elementary modification: a subsheaf of fiber rank r_b and degree deg_b."""

    def __init__(self, r_b: int, deg_b: int):
        _check_int(r_b, "fiber rank of a step", 1)
        _check_int(deg_b, "deg_b")
        setfield(self, "r_b", r_b)
        setfield(self, "deg_b", deg_b)


class ReductionTrace(Record):
    def __init__(
        self,
        start: MukaiVector,
        final: MukaiVector,
        steps: tuple[ModificationStep, ...],
        squares: tuple[int, ...],
    ):
        if len(squares) != len(steps) + 1:
            raise InputError("a trace has one more square than steps")
        if any(b >= a for a, b in zip(squares, squares[1:])):
            raise InputError("squares along a trace decrease strictly")
        if any(s < -2 for s in squares):
            raise InputError("squares along a trace are at least -2")
        setfield(self, "start", start)
        setfield(self, "final", final)
        setfield(self, "steps", steps)
        setfield(self, "squares", squares)


def rigid_vector(ns: IntLattice, v: MukaiVector, f: LatVec) -> MukaiVector:
    """Twist v to the vector of square -2 singled out by the Bezout pair."""
    _check_int(v.r, "rank", 2)
    vsq = mukai_square(ns, v)
    if vsq < -2:
        raise MathCheckError(f"square {_shown(vsq)} is below the rigid bound -2")
    k = _fiber_degree(ns, v, f)
    r0, d0 = bezout_r0_d0(v.r, k)
    n = vsq // 2 + 1
    return MukaiVector(v.r, v.l + (n * (v.r - r0)) * f, v.s + n * (k - d0))


def elementary_modification(
    ns: IntLattice, w: MukaiVector, step: ModificationStep, f: LatVec
) -> MukaiVector:
    """Apply one modification w -> w - (0, r_b*f, deg_b).

    The step must strictly decrease the slope, which makes the square
    drop by the positive amount 2*(r_b*k - r*deg_b).
    """
    _check_int(w.r, "rank", 2)
    if not 1 <= step.r_b <= w.r - 1:
        raise InputError(f"fiber rank must lie in [1, {_shown(w.r - 1)}], got {_shown(step.r_b)}")
    k = _fiber_degree(ns, w, f)
    if step.r_b * k - w.r * step.deg_b <= 0:
        raise MathCheckError(
            f"step ({_shown(step.r_b)}, {_shown(step.deg_b)}) does not strictly decrease the "
            f"slope {_shown(k)}/{_shown(w.r)}"
        )
    return MukaiVector(w.r, w.l - step.r_b * f, w.s - step.deg_b)


def reduction_trace(
    ns: IntLattice, w0: MukaiVector, steps, f: LatVec
) -> ReductionTrace:
    """Chain strict modifications from w0, tracking the squares.

    Refuses a start, or any step that would push the square, below -2.
    """
    current = w0
    squares = [mukai_square(ns, w0)]
    if squares[0] < -2:
        raise MathCheckError(f"square {_shown(squares[0])} is below the rigid bound -2")
    applied = []
    for step in steps:
        nxt = elementary_modification(ns, current, step, f)
        sq = mukai_square(ns, nxt)
        if sq < -2:
            raise MathCheckError(
                f"step ({_shown(step.r_b)}, {_shown(step.deg_b)}) drops the square to "
                f"{_shown(sq)}, below the rigid bound -2"
            )
        current = nxt
        squares.append(sq)
        applied.append(step)
    return ReductionTrace(
        start=w0, final=current, steps=tuple(applied), squares=tuple(squares)
    )


class HomCountResult(Record):
    def __init__(self, value: int, is_bezout_pair: bool):
        setfield(self, "value", value)
        setfield(self, "is_bezout_pair", is_bezout_pair)


def hom_count_check(k: int, r: int, r0: int, d0: int) -> HomCountResult:
    """Value k*r0 - r*d0, flagged when (r0, d0) is the canonical Bezout pair."""
    for value, what, least in ((k, "k", None), (r, "rank", 2), (r0, "r0", None), (d0, "d0", None)):
        _check_int(value, what, least)
    canonical = gcd(r, k) == 1 and (r0, d0) == bezout_r0_d0(r, k)
    return HomCountResult(value=k * r0 - r * d0, is_bezout_pair=canonical)


def nonlocally_free_dim_identity(
    ns: IntLattice, v: MukaiVector, dlen: int
) -> tuple[int, int]:
    """Both sides of the dimension count for sheaves failing local freeness
    along a length-dlen locus; they agree identically, and the common value
    stays below 2*n(v) exactly when the rank is at least 2."""
    _check_int(dlen, "locus length", 1)
    _check_int(v.r, "rank", 1)
    shifted = MukaiVector(v.r, v.l, v.s + dlen)
    lhs = mukai_square(ns, shifted) + 2 + dlen * (v.r + 1)
    n = mukai_square(ns, v) // 2 + 1
    return lhs, 2 * n - (v.r - 1) * dlen
