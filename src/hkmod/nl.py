"""Admissible fiber degrees for lattices [[e, d], [d, 0]].

Each predicate packages the arithmetic conditions under which the
lattice admits a unique nef isotropic ray and no walls in the relevant
range; the search routines return the minimal parameter meeting them,
prove the search empty, or stop at an explicit cap.

It also owns the (r0, e, i) degree arithmetic: the degrees e that a rank
r0 and a divisibility i admit, and the twist (m0, s0) they give.
"""

from __future__ import annotations

from fractions import Fraction
from math import floor, gcd

from .errors import (
    InputError,
    MathCheckError,
    NoAdmissibleParameter,
    SearchCapExceeded,
)
from .jsonio import _check_int, _level, _shown
from .lattice import LatVec, vec
from .record import Record, setfield

DEFAULT_SEARCH_CAP = 10**7


def check_i(i: int) -> None:
    _check_int(i, "divisibility")
    if i not in (1, 2):
        raise InputError(f"divisibility must be 1 or 2, got {_shown(i)}")


def check_parity(r0: int, i: int) -> None:
    if r0 % 2 != i % 2:
        raise MathCheckError(f"parity mismatch: r0 = {_shown(r0)} and i = {_shown(i)}")


def _econ_residue(r0: int) -> tuple[int, int]:
    """The class c mod M of the degrees e that make the twist slope integral, by r0 mod 4:
    e = 4*r0 - 10 (mod 8*r0)   when r0 = 0,
    e = (r0 - 5)/2 (mod 2*r0)  when r0 = 1,
    e = -10 (mod 8*r0)         when r0 = 2,
    e = -(r0 + 5)/2 (mod 2*r0) when r0 = 3."""
    modulus = 2 * r0 if r0 % 2 else 8 * r0
    return (4 * r0 - 10, (r0 - 5) // 2, -10, -(r0 + 5) // 2)[r0 % 4] % modulus, modulus


def econ_check(r0: int, e: int) -> bool:
    """Congruence on e that makes the twist slope integral: e in the class _econ_residue(r0)."""
    _check_int(r0, "r0", 1)
    _check_int(e, "e")
    c, modulus = _econ_residue(r0)
    return e % modulus == c


def check_econ(r0: int, e: int) -> None:
    if not econ_check(r0, e):
        raise MathCheckError(
            f"e = {_shown(e)} fails the congruence condition for r0 = {_shown(r0)}")


def divisibility_type(e: int, i: int) -> bool:
    """Arithmetic constraint on the polarization degree for divisibility i:
    e positive and even when i = 1, e positive and congruent to 6 mod 8
    when i = 2."""
    check_i(i)
    _check_int(e, "e")
    if i == 1:
        return e > 0 and e % 2 == 0
    return e > 0 and e % 8 == 6


def governing_divisibility(r0: int) -> int:
    """Divisibility forced by the rank parity: 1 for odd r0, 2 for even."""
    _check_int(r0, "r0", 1)
    return 1 if r0 % 2 else 2


def _shifted_r0(r0: int, sign: str) -> int:
    """r0 - 1 for the '+' twist, r0 + 1 for the '-' twist."""
    if sign not in ("+", "-"):
        raise InputError(f"sign must be '+' or '-', got {_shown(sign)}")
    _check_int(r0, "r0", 1)
    return r0 - 1 if sign == "+" else r0 + 1


def m0_s0(r0: int, e: int, sign: str = "+") -> tuple[int, int]:
    """Twist degree m0 and slope s0 = (m0+1)/r0 of the distinguished sheaf.

    m0 = e/2 + (r0 -+ 1)^2/4 for odd r0 and e/8 + (r0 -+ 1)^2/4 for even
    r0. The congruence conditions make both divisions exact; the
    verify-all check hilb2.twist_numerics_integral_sweep proves it.
    """
    shift = _shifted_r0(r0, sign)
    i = governing_divisibility(r0)
    if not divisibility_type(e, i):
        raise MathCheckError(f"e = {_shown(e)} is not a valid degree for divisibility {i}")
    check_econ(r0, e)
    m0 = (2 * e + shift**2) // 4 if r0 % 2 else (e + 2 * shift**2) // 8
    return m0, (m0 + 1) // r0


class NefIsotropicClasses(Record):
    """The isotropic rays on the nef boundary: the fiber class and the
    opposite primitive isotropic class alpha'."""

    def __init__(
        self,
        rays: tuple[tuple[LatVec, int], ...],
        alpha: LatVec,
        pairing_alpha_h: int,
        unique: bool,
        e_divides_d: bool,
        e_divides_2d: bool,
    ):
        setfield(self, "rays", rays)
        setfield(self, "alpha", alpha)
        setfield(self, "pairing_alpha_h", pairing_alpha_h)
        setfield(self, "unique", unique)
        setfield(self, "e_divides_d", e_divides_d)
        setfield(self, "e_divides_2d", e_divides_2d)

    def to_json_dict(self) -> dict:
        return {
            "rays": [{"class": v.to_json_dict(), "pair_h": p} for v, p in self.rays],
            "alpha": self.alpha.to_json_dict(),
            "pair_alpha_h": self.pairing_alpha_h,
            "unique": self.unique,
            "e_divides_d": self.e_divides_d,
            "e_divides_2d": self.e_divides_2d,
        }


def nef_isotropic_classes(e: int, d: int) -> NefIsotropicClasses:
    """Both isotropic rays of [[e, d], [d, 0]] and their pairings with h.

    Wants e > 0 even and d > 0. The second ray is the primitive part
    (2d, -e)/g, g = gcd(2d, e), and pairs to d*e/g with h; the fiber ray
    (0, 1) is distinguished (unique) exactly when the two rays pair
    differently with h, which happens iff e does not divide 2d.
    """
    _check_int(d, "d", 1)
    _check_int(e, "e")
    if e <= 0 or e % 2:
        raise InputError("e must be positive and even")
    g = gcd(2 * d, e)
    alpha = vec((2 * d // g, -e // g))
    q_alpha_h = d * e // g
    return NefIsotropicClasses(
        rays=((vec((0, 1)), d), (alpha, q_alpha_h)),
        alpha=alpha,
        pairing_alpha_h=q_alpha_h,
        unique=q_alpha_h != d,
        e_divides_d=d % e == 0,
        e_divides_2d=2 * d % e == 0,
    )


class Admissibility(Record):
    def __init__(self, ok: bool, reasons: tuple[str, ...], details: dict | None = None):
        setfield(self, "ok", ok)
        setfield(self, "reasons", reasons)
        setfield(self, "details", {} if details is None else details)


def _decide(conditions, details) -> Admissibility:
    reasons = tuple(name for name, holds in conditions if not holds)
    return Admissibility(ok=not reasons, reasons=reasons, details=details)


# the annotation is never evaluated (PEP 563), so nl need not import mukai for it
def nl_k3_admissible(e: int, d: int, num: MukaiNumerics) -> Admissibility:
    """Fiber degree large enough that level-a walls vanish and the nef
    isotropic ray is unique, for the surface-case constant a = a(v)."""
    _check_int(e, "e")
    if e <= 0 or e % 2:
        raise InputError("e must be positive and even")
    _check_int(d, "d", 1)
    bound = Fraction(e + 1) * num.a_v / 2
    conditions = [
        ("d exceeds (e+1)*a/2", d > bound),
        ("e does not divide d", d % e != 0),
    ]
    return _decide(conditions, {"e": e, "d": d, "a": num.a_v, "bound": bound})


def nl_hk_admissible(e: int, d: int, i: int) -> Admissibility:
    """Ambient-divisibility-aware version with the fixed constant 10."""
    _check_int(e, "e", 1)
    _check_int(d, "d", 1)
    check_i(i)
    conditions = [
        ("d exceeds 10*(e+1)", d > 10 * (e + 1)),
        ("e does not divide 2d", 2 * d % e != 0),
    ]
    if i == 2:
        conditions.append(("d is even", d % 2 == 0))
    return _decide(conditions, {"e": e, "d": d, "i": i})


def propriostab_admissible(e: int, d: int, i: int, a0, m: int) -> Admissibility:
    """Joint condition for a polarization of level a0 and a rank multiplier m."""
    _check_int(e, "e", 1)
    _check_int(d, "d", 1)
    check_i(i)
    if d % i:
        raise InputError(f"divisibility {i} must divide d = {_shown(d)}")
    _check_int(m, "multiplier", 1)
    a0 = _level(a0)
    bound = max(a0 * (e + 1) / 2, Fraction(10 * (e + 1)))
    conditions = [
        ("d exceeds max(a0*(e+1)/2, 10*(e+1))", d > bound),
        ("e does not divide 2d", 2 * d % e != 0),
        ("gcd(m*i, d/i) = 1", gcd(m * i, d // i) == 1),
    ]
    return _decide(
        conditions, {"e": e, "d": d, "i": i, "a0": a0, "m": m, "bound": bound}
    )


def buonacompt_bound(r0: int, e: int) -> Fraction:
    """Lower bound (5/16)*r0^6*(r0^2-1)*(e+1) that d must exceed."""
    _check_int(r0, "r0", 1)
    _check_int(e, "e")
    return Fraction(5, 16) * r0**6 * (r0**2 - 1) * (e + 1)


def buonacompt_min_d(r0: int, e: int, i: int, cap: int = DEFAULT_SEARCH_CAP) -> int:
    """Minimal d > bound with e not dividing 2d, d divisible by i.

    The candidates are the multiples of i above the bound. If two
    consecutive ones both had e | 2d, then e | 2i, which is exactly the
    provably empty case (NoAdmissibleParameter); so the answer is the
    first or the second candidate. The cap counts candidates examined:
    SearchCapExceeded means the answer needs more of them than the cap.
    """
    check_i(i)
    _check_int(e, "e", 1)
    _check_int(cap, "cap", 1)
    check_parity(r0, i)
    check_econ(r0, e)
    if (2 * i) % e == 0:
        raise NoAdmissibleParameter(
            f"e = {_shown(e)} divides 2*d for every d divisible by {i}: the search is empty"
        )
    bound = buonacompt_bound(r0, e)
    d = floor(bound) // i * i + i
    needed = 1 if (2 * d) % e else 2
    if needed > cap:
        raise SearchCapExceeded(
            f"cap reached: {_shown(cap)} candidate(s) above the bound {_shown(bound)} examined, "
            "none admissible"
        )
    return d if needed == 1 else d + i


def rigsuk_bound(m0: int, r0: int) -> Fraction:
    """Lower bound (2*m0+1)*r0^2*(r0^2-1)/4 that d0 must exceed."""
    _check_int(r0, "r0", 1)
    _check_int(m0, "m0", 0)
    return Fraction((2 * m0 + 1) * r0**2 * (r0**2 - 1), 4)


def rigsuk_min_d0(m0: int, r0: int) -> int:
    """Smallest d0 above rigsuk_bound with gcd(d0, r0) = 1."""
    bound = rigsuk_bound(m0, r0)
    d0 = floor(bound) + 1
    while gcd(d0, r0) != 1:
        d0 += 1
    return d0
