"""Wall classes in the positive cone of a rank-2 hyperbolic Picard lattice.

The lattice has Gram matrix [[e, d], [d, 0]] in the basis (h, f); f is
isotropic and h.f = d > 0. Wall classes are primitive integral classes
of bounded negative norm; everything downstream (suitability and
genericity of a polarization, thresholds) is a statement about their
signs against the two cone edges.
"""

from __future__ import annotations

from collections.abc import Iterator
from fractions import Fraction
from functools import cached_property
from math import ceil, floor, gcd, lcm

from .errors import InputError
from .jsonio import _check_int, _level
from .lattice import IntLattice, LatVec, _check_elliptic, lattice, pair, vec
from .record import Record, setfield


class EllipticNS(Record):
    """Rank-2 lattice [[e, d], [d, 0]] with distinguished basis (h, f)."""

    def __init__(self, e: int, d: int):
        _check_elliptic(e, d)
        setfield(self, "e", e)
        setfield(self, "d", d)

    @cached_property
    def lattice(self) -> IntLattice:
        return lattice(((self.e, self.d), (self.d, 0)))

    @property
    def h(self) -> LatVec:
        return vec((1, 0))

    @property
    def f(self) -> LatVec:
        return vec((0, 1))

    def q(self, v: LatVec, w: LatVec | None = None) -> int | Fraction:
        return pair(self.lattice, v, w if w is not None else v)


def as_elliptic(ns) -> EllipticNS:
    """Coerce an EllipticNS or a matching rank-2 IntLattice, kept as the result's lattice."""
    if isinstance(ns, EllipticNS):
        return ns
    if isinstance(ns, IntLattice):
        if ns.rank != 2 or ns.gram[1][1] != 0 or ns.gram[0][1] <= 0:
            raise InputError("lattice is not of the form [[e, d], [d, 0]] with d > 0")
        elliptic = EllipticNS(ns.gram[0][0], ns.gram[0][1])
        vars(elliptic)["lattice"] = ns  # where cached_property keeps it: no second build
        return elliptic
    raise InputError(f"cannot interpret {type(ns).__name__} as an elliptic lattice")


class WallClass(Record):
    """A primitive class lam = x*h + y*f with -a <= q(lam) < 0 and x >= 1."""

    def __init__(self, lam: LatVec, norm: int, pair_h: int, pair_f: int):
        setfield(self, "lam", lam)
        setfield(self, "norm", norm)
        setfield(self, "pair_h", pair_h)
        setfield(self, "pair_f", pair_f)

    def to_json_dict(self) -> dict:
        return {
            "lambda": self.lam.to_json_dict(),
            "norm": self.norm,
            "pair_h": self.pair_h,
            "pair_f": self.pair_f,
        }


class SuitabilityReport(Record):
    def __init__(self, suitable: bool, generic: bool, witnesses: tuple[WallClass, ...]):
        if not suitable and not witnesses:
            raise InputError("an unsuitable report must carry a witness")
        if suitable and witnesses:
            raise InputError("a suitable report carries no witness")
        setfield(self, "suitable", suitable)
        setfield(self, "generic", generic)
        setfield(self, "witnesses", witnesses)


def enumerate_wall_classes(ns: EllipticNS, a) -> list[WallClass]:
    """All wall classes of level a, in lexicographic (x, y) order.

    Normalization x >= 1 picks one representative per +-pair; y then
    ranges over the exact interval forced by -a <= x*(e*x + 2*d*y) < 0.
    Only the lower end reads the level; the upper end is an integer floor.
    """
    e, d = ns.e, ns.d
    return [_wall(e, d, x, y) for x, y in _wall_stream(e, d, a)]


def _wall_stream(e: int, d: int, a) -> Iterator[tuple[int, int]]:
    """The integer rows (x, y) of the wall classes of enumerate_wall_classes, in the same order;
    readers build a wall (_wall) only for the rows they keep."""
    a = _level(a)
    for x in range(1, floor(a) + 1):  # |q| >= x for any admissible y, so x is bounded by a
        lo = ceil((-a / x - e * x) / (2 * d))
        hi = (-1 - e * x) // (2 * d)
        for y in range(lo, hi + 1):
            if gcd(x, abs(y)) == 1:
                yield x, y


def _wall_fields(e: int, d: int, x: int, y: int) -> tuple[int, int, int]:
    """The norm and the pairings with h and f of the class x*h + y*f, as a wall stores them."""
    return x * (e * x + 2 * d * y), e * x + d * y, d * x


def _wall(e: int, d: int, x: int, y: int) -> WallClass:
    """The wall class x*h + y*f of an integer row."""
    return WallClass(LatVec((x, y)), *_wall_fields(e, d, x, y))


def orthogonal_wall(ns: EllipticNS, a, h: LatVec) -> WallClass | None:
    """The wall class of level a orthogonal to h, or None if there is none.

    h^perp has rank 1, spanned by (d*h1, -(e*h1 + d*h2)); h in the positive
    cone has h1 > 0, so its primitive generator with x >= 1 is unique and, h
    being positive, of negative norm. It is a wall exactly when that norm is at
    least -a. Coordinates of h are scaled to integers by the lcm of their
    denominators first. O(1) in a.
    """
    _polarization(ns, h)
    a = _level(a)
    e, d = ns.e, ns.d
    h1, h2 = h.coords  # ints and Fractions both carry numerator and denominator
    scale = lcm(h1.denominator, h2.denominator)
    h1, h2 = h1.numerator * (scale // h1.denominator), h2.numerator * (scale // h2.denominator)
    wall = _wall(e, d, *_perpendicular(e, d, h1, h2))
    return None if wall.norm < -a else wall


def suitability_for(ns: EllipticNS, a, h: LatVec) -> SuitabilityReport:
    """Suitability and genericity of h for the wall classes of level a.

    Every wall pairs positively with f (pair_f = d*x > 0), so h is
    suitable iff each wall pairs positively with h too; the witnesses
    are the walls with lam.h = h1*(e*x + d*y) + h2*d*x <= 0, tested on the
    integer rows as they stream past, so a wall is built and held only for a
    witness. Generic means no wall is orthogonal to h, which orthogonal_wall
    decides without the enumeration.
    """
    generic = orthogonal_wall(ns, a, h) is None
    e, d = ns.e, ns.d
    h1, h2 = h.coords
    witnesses = tuple(
        _wall(e, d, x, y)
        for x, y in _wall_stream(e, d, a)
        if h1 * (e * x + d * y) + h2 * d * x <= 0
    )
    return SuitabilityReport(suitable=not witnesses, generic=generic, witnesses=witnesses)


def is_suitable(ns: EllipticNS, a) -> SuitabilityReport:
    return suitability_for(ns, a, ns.h)


def min_negative_norm(ns: EllipticNS) -> int:
    """Smallest |q(w)| over integral classes with q(w) < 0, in O(log d) rounds.

    q(x*h + y*f) = -x*t with t = -(e*x + 2d*y), and x != 0 as e >= 0: the answer is the least x*t
    over the lattice t = -e*x (mod 2d) with x, t >= 1. A basis u, w of it keeps x >= 0 and
    t(u) > 0 >= t(w). A round reads the run u + j*w, 1 <= j <= k, k the most keeping t > 0, at its
    ends (x*t is concave in j), moves u to its end, and adds to w the most multiples of u keeping
    t(w) <= 0: Euclid's algorithm on (t(u), -t(w)). The README proves that no point is missed.
    """
    _check_int(ns.e, "e", 0)  # so negative-norm classes have x != 0
    n = 2 * ns.d
    (ux, ut), (wx, wt) = (0, n), (1, -ns.e % n - n)
    best = n
    while wt:
        k = (ut - 1) // -wt
        if k:
            best = min(best, (ux + wx) * (ut + wt), (ux + k * wx) * (ut + k * wt))
            ux, ut = ux + k * wx, ut + k * wt
        m = -wt // ut
        wx, wt = wx + m * ux, wt + m * ut
    return best


def no_wall_threshold(e: int, a) -> int:
    """Smallest fiber degree guaranteeing an empty wall set at level a.

    Returns floor(a*(1+e)/2) + 1. A wall class x*h + y*f has 1 <= x <= a
    and t = -(e*x + 2d*y) >= 1 with x*t <= a, so y <= -1 and
    2d <= e*x + a/x <= (e+1)*a. The verify-all check
    walls.threshold_guarantees_empty confirms the emptiness on the wall stream.
    """
    a = _level(a)
    _check_int(e, "e", 0)
    return floor(a * (1 + e) / 2) + 1


def _polarization(ns: EllipticNS, h: LatVec) -> None:
    """Refuse an h outside the positive cone: q(h) > 0 and h.f = d*h1 > 0."""
    if ns.q(h) <= 0:
        raise InputError("polarization must have positive self-pairing")
    if h.coords[0] <= 0:
        raise InputError("polarization must lie in the positive cone: h.f = d*h1 must be positive")


def _perpendicular(e: int, d: int, x: int, y: int) -> tuple[int, int]:
    """Primitive +-(d*x, -(e*x + d*y))/g spanning (x, y)^perp, first coordinate > 0; x != 0."""
    u, v = d * x, -(e * x + d * y)
    g = gcd(u, v) if u > 0 else -gcd(u, v)
    return u // g, v // g


def wall_ray(ns: EllipticNS, wall) -> LatVec:
    """Primitive generator of the positive-cone ray orthogonal to a wall."""
    lam = wall.lam if isinstance(wall, WallClass) else wall
    if not isinstance(lam, LatVec) or len(lam) != 2 or not lam.integral:
        raise InputError("wall must be an integral rank-2 class")
    x, y = lam.coords
    if x * (ns.e * x + 2 * ns.d * y) >= 0:
        raise InputError("wall classes have negative norm")
    return vec(_perpendicular(ns.e, ns.d, x, y))
