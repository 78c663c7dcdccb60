"""Top intersection products via the polarized Fujiki relation.

The integral of a product of 2n degree-2 classes equals the normalized
Fujiki constant times the sum, over all perfect matchings of the 2n
slots, of the products of pairwise form values. matchings_sum computes
it by a recursion on the multiplicities of the distinct classes;
perfect_matchings enumerates the matchings canonically (smallest
unmatched index first), each one exactly once, as the slow path.
"""

from __future__ import annotations

import re
from collections.abc import Callable, Iterator, Sequence
from fractions import Fraction
from math import factorial

from .errors import InputError
from .jsonio import _check_int, _parse, _shown, to_rational
from .lattice import IntLattice, LatVec, pair
from .record import Record, setfield

# Normalized Fujiki constants of the known deformation types, keyed by
# family name; each entry maps the half-dimension n to c_X.
FUJIKI_CONSTANTS: dict[str, Callable[[int], int]] = {
    "K3": lambda n: 1,
    "K3^[n]": lambda n: 1,
    "Kum_n": lambda n: n + 1,
    "OG6": lambda n: 4,
}

_KIND_RE = re.compile(r"K3\^\[([0-9]+)\]|Kum_([0-9]+)")
_FIXED_N = {"K3": 1, "OG6": 3}


def parse_kind(kind: str) -> tuple[str, int]:
    """Resolve a family name like 'K3^[3]', 'Kum_2' or 'OG6' to (table key, n)."""
    if not isinstance(kind, str):
        raise InputError(f"deformation type must be a string, got {_shown(kind)}")
    m = _KIND_RE.fullmatch(kind)
    if m:
        return ("K3^[n]" if m[1] else "Kum_n"), _parse(m[1] or m[2], rational=False)
    if kind in _FIXED_N:
        return kind, _FIXED_N[kind]
    raise InputError(f"unknown deformation type {_shown(kind)}")


def fujiki_constant(kind: str) -> int:
    key, n = parse_kind(kind)
    if n < 1:
        raise InputError("n must be positive")
    return FUJIKI_CONSTANTS[key](n)


class FujikiSetup(Record):
    """Evaluation context: half-dimension n, Fujiki constant, and the pairing lattice."""

    def __init__(self, n: int, c_x: Fraction, pairing: IntLattice):
        _check_int(n, "n", 1)
        c_x = to_rational(c_x)
        if c_x <= 0:
            raise InputError("the Fujiki constant must be positive")
        setfield(self, "n", n)
        setfield(self, "c_x", c_x)
        setfield(self, "pairing", pairing)

    @classmethod
    def for_kind(cls, kind: str, pairing: IntLattice) -> "FujikiSetup":
        key, n = parse_kind(kind)
        return cls(n=n, c_x=FUJIKI_CONSTANTS[key](n), pairing=pairing)

    def q(self, v: LatVec, w: LatVec) -> Fraction:
        return pair(self.pairing, v, w)


def double_factorial(m: int) -> int:
    """Product m(m-2)(m-4)...; equal to 1 for m in {-1, 0}."""
    _check_int(m, "m")
    if m < -1:
        raise InputError(f"double factorial undefined for {m}")
    out = 1
    while m > 1:
        out *= m
        m -= 2
    return out


def perfect_matchings(count: int) -> Iterator[tuple[tuple[int, int], ...]]:
    """Every perfect matching of range(count) once, smallest unmatched index first; a bad
    count is refused at the call, before the first matching is asked for."""
    _check_int(count, "count", 0)
    if count % 2:
        raise InputError("perfect matchings need an even number of elements")

    def rec(remaining: tuple[int, ...]) -> Iterator[tuple[tuple[int, int], ...]]:
        if not remaining:
            yield ()
            return
        first = remaining[0]
        for j in range(1, len(remaining)):
            rest = remaining[1:j] + remaining[j + 1:]
            for tail in rec(rest):
                yield ((first, remaining[j]),) + tail

    return rec(tuple(range(count)))


def matchings_sum(q_values: Callable[..., int | Fraction], classes: Sequence) -> int | Fraction:
    """Sum over all perfect matchings of the product of pairwise form values.

    Equal classes are grouped into distinct classes b_j with counts m_j, and q_values is
    called once per pair of distinct classes that a matching can hold. The sum is a recursion
    on the tuple of counts left: the first b_j with a copy left is matched with each b_k,
    k >= j, that has copies left, weighted by that count times q(b_j, b_k). It runs forward,
    one level per matched pair, with equal states merged, so it holds at most prod(m_j + 1)
    states and never recurses: about 4^n with 2n distinct classes, against the (2n-1)!!
    matchings of perfect_matchings, which stays the slow path the self-checks compare with.
    """
    items = list(classes)
    if len(items) % 2:
        raise InputError("matchings sum needs an even number of classes")
    distinct: list = []
    counts: list[int] = []
    for item in items:
        if item in distinct:
            counts[distinct.index(item)] += 1
        else:
            distinct.append(item)
            counts.append(1)
    size = len(distinct)
    q = [  # q[j][k - j] = q(b_j, b_k) for k >= j; a class with one copy is never paired with itself
        [q_values(distinct[j], distinct[k]) if k > j or counts[j] > 1 else 0
         for k in range(j, size)]
        for j in range(size)
    ]
    level = {tuple(counts): 1}
    for _ in range(len(items) // 2):
        following: dict = {}
        for state, weight in level.items():
            left = list(state)
            j = 0
            while not left[j]:
                j += 1
            left[j] -= 1
            for k, value in enumerate(q[j], j):
                copies = left[k]
                if copies and value:
                    left[k] = copies - 1
                    key = tuple(left)
                    following[key] = following.get(key, 0) + weight * copies * value
                    left[k] = copies
        level = following
    return sum(level.values())


def top_intersection(setup: FujikiSetup, classes: Sequence[LatVec]) -> Fraction:
    """Integral of the product of 2n degree-2 classes."""
    if len(classes) != 2 * setup.n:
        raise InputError(f"expected {2 * setup.n} classes, got {len(classes)}")
    return setup.c_x * matchings_sum(setup.q, classes)


def modular_delta_integral(setup: FujikiSetup, d_f, alphas: Sequence[LatVec]) -> Fraction:
    """Integral of the discriminant of a modular sheaf with modularity
    constant d_F against 2n-2 classes: d_F times their matchings sum."""
    if len(alphas) != 2 * setup.n - 2:
        raise InputError(f"expected {2 * setup.n - 2} classes, got {len(alphas)}")
    return to_rational(d_f) * matchings_sum(setup.q, alphas)


def fiber_restriction_integral(setup: FujikiSetup, lam: LatVec, h: LatVec, f: LatVec) -> Fraction:
    """Integral of lambda * h^(n-1) * f^n against an isotropic fiber class f."""
    if setup.q(f, f) != 0:
        raise InputError("fiber class must be isotropic: q(f,f) = 0")
    return factorial(setup.n) * setup.c_x * setup.q(h, f) ** (setup.n - 1) * setup.q(lam, f)


def propsemi_bound_check(setup: FujikiSetup, r: int, d_f, lambda_norm) -> bool:
    """True iff lambda's norm lies in [-r^2*d_F/(4*c_X), 0]."""
    _check_int(r, "rank", 1)
    lo = -r * r * to_rational(d_f) / (4 * setup.c_x)
    return lo <= to_rational(lambda_norm) <= 0


def discriminant_sum_identity(
    setup: FujikiSetup,
    q_h,
    r_e: int,
    int_delta_e,
    r_g: int,
    int_delta_g,
    d_f,
    lambda_norm,
) -> tuple[Fraction, Fraction]:
    """Two sides of the additive discriminant decomposition for an extension.

    For a short exact sequence with outer ranks r_e, r_g and middle term of
    modularity constant d_f, the h-integrals of the outer discriminants
    determine the middle one up to the norm of the slope-comparison class.
    Returns (lhs, rhs); equality holds exactly for consistent data.
    """
    _check_int(r_e, "r_e", 1)
    _check_int(r_g, "r_g", 1)
    r_f = r_e + r_g
    scale = double_factorial(2 * setup.n - 3) * to_rational(q_h) ** (setup.n - 1)
    lhs = r_f * r_g * to_rational(int_delta_e) + r_f * r_e * to_rational(int_delta_g)
    rhs = (r_e * r_g * to_rational(d_f) + setup.c_x * to_rational(lambda_norm)) * scale
    return lhs, rhs
