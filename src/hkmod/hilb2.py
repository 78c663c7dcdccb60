"""Modular sheaves on the Hilbert square of a K3 surface.

The ambient second cohomology is the K3 lattice plus an exceptional
(-2)-class; we work in the rank-3 sublattice spanned by a degree-e
polarization mu_D, a fiber class mu_C of h-degree d0, and half the
exceptional divisor. The congruence conditions of hkmod.nl pick out the
exterior-power sheaves whose slope-zero twists exist, and the check
routines confirm the dictionary between surface data (r0, e, d0) and
ambient data (h, f, divisibility i) identity by identity.
"""

from __future__ import annotations

from math import comb, gcd

from .errors import InputError, MathCheckError, NoAdmissibleParameter
from .jsonio import _check_int, _shown
from .lattice import IntLattice, LatVec, lattice, pair, saturation_check, vec
from .nl import (  # nl owns the (r0, e, i) degree arithmetic
    DEFAULT_SEARCH_CAP, _shifted_r0, buonacompt_bound, buonacompt_min_d, check_econ, check_i,
    check_parity, divisibility_type, econ_check, governing_divisibility, m0_s0,
    rigsuk_bound, rigsuk_min_d0,
)
from .record import Record, setfield
from .report import Check, TheoremReport

# bound here before nl took the degree arithmetic, so hilb2.<name> resolves; unused here
_REEXPORTS = (MathCheckError, check_econ, governing_divisibility)


class F2Invariants(Record):
    """Numerical invariants of the exterior-square sheaf of a rank-r0 input."""

    def __init__(self, rank: int, delta_coeff: int, d_mod: int, a_mod: int):
        setfield(self, "rank", rank)
        setfield(self, "delta_coeff", delta_coeff)
        setfield(self, "d_mod", d_mod)
        setfield(self, "a_mod", a_mod)


def f2_invariants(r0: int) -> F2Invariants:
    """rank r0^2, discriminant coefficient r0^2(r0^2-1)/12, modularity
    constant 5*binom(r0^2, 2), and wall-control constant rank^2*d_mod/4."""
    _check_int(r0, "r0", 1)
    rank = r0 * r0
    delta_coeff = rank * (rank - 1) // 12
    d_mod = 5 * comb(rank, 2)
    a_mod = rank * rank * d_mod // 4
    return F2Invariants(rank=rank, delta_coeff=delta_coeff, d_mod=d_mod, a_mod=a_mod)


def h_polarization(r0: int, i: int, sign: str = "+") -> LatVec:
    """Coordinates (mu_D, mu_C, delta-half) of the slope-zero polarization:
    (i, 0, -i*(r0 -+ 1)/2)."""
    _check_int(r0, "r0", 1)
    check_i(i)
    shift = _shifted_r0(r0, sign)
    check_parity(r0, i)
    return vec((i, 0, -i * shift // 2))


def hilb2_ns(m0: int, d0: int) -> IntLattice:
    """Rank-3 sublattice spanned by (mu_D, mu_C, delta-half), with q(mu_D) = 2*m0,
    q(mu_D, mu_C) = d0, the fiber class mu_C = (0, 1, 0) isotropic and q(delta-half) = -2."""
    _check_int(m0, "m0", 0)
    _check_int(d0, "d0", 1)
    return lattice(((2 * m0, d0, 0), (d0, 0, 0), (0, 0, -2)))


def ambient_divisibility(v: LatVec) -> int:
    """Divisibility of a class (a, b, c) inside the full ambient lattice:
    gcd(a, b, 2c), since the delta-half direction pairs evenly with
    everything outside this sublattice."""
    if len(v) != 3 or not v.integral:
        raise InputError("expected an integral rank-3 class")
    a, b, c = v.int_coords()
    g = gcd(gcd(abs(a), abs(b)), 2 * abs(c))
    if g == 0:
        raise InputError("the zero class has no divisibility")
    return g


def rosetta_check(r0: int, i: int, e: int, d0: int) -> TheoremReport:
    """Dictionary between surface data and ambient data, one identity per check:
    the slope-zero polarization has square e and divisibility i, pairs to
    i*d0 with the isotropic fiber class, the fiber class is isotropic, and
    the pair spans a saturated sublattice. m0_s0 refuses an e of the wrong
    degree type or congruence."""
    _check_int(r0, "r0", 1)
    check_i(i)
    _check_int(d0, "d0", 1)
    check_parity(r0, i)
    m0, _ = m0_s0(r0, e)
    ns = hilb2_ns(m0, d0)
    h = h_polarization(r0, i)
    f = vec((0, 1, 0))
    q_h = pair(ns, h, h)
    q_hf = pair(ns, h, f)
    q_f = pair(ns, f, f)
    div_h = ambient_divisibility(h)
    checks = (
        Check("q_h_equals_e", q_h == e, {"q_h": q_h, "e": e}),
        Check("divisibility_equals_i", div_h == i, {"div": div_h, "i": i}),
        Check("q_h_f_equals_i_d0", q_hf == i * d0, {"q_h_f": q_hf, "i*d0": i * d0}),
        Check("q_f_zero", q_f == 0, {"q_f": q_f}),
        Check(
            "h_f_saturated",
            saturation_check(ns, h, f),
            {"h": h.to_json_dict(), "f": f.to_json_dict()},
        ),
    )
    return TheoremReport(
        theorem="rosetta",
        checks=checks,
        data={"r0": r0, "i": i, "e": e, "d0": d0, "d": i * d0, "m0": m0},
    )


def restrango_check(kind: str, r: int, m: int) -> bool:
    """Rank constraint for descent of a rank-r sheaf twist: r | m^2 on the
    Hilbert square, r | 3*m^2 on the generalized Kummer fourfold."""
    _check_int(r, "rank", 1)
    _check_int(m, "m")
    if kind == "K3^[2]":
        return m * m % r == 0
    if kind == "Kum_2":
        return 3 * m * m % r == 0
    raise InputError(f"unsupported deformation type {_shown(kind)}")


def potenza_solve(n: int, d1: int, d2: int, r: int, a: int) -> list[int]:
    """All r0 >= 1 with r0^n = r*g1*g2, g1*g2 | r0^(n-1), gcd(r, a) =
    r0^(n-1)/(g1*g2), where g1 = gcd(r0, d1) and g2 = gcd(r0, d2).

    The first condition makes r0^(n-1)/(g1*g2) equal r/r0, so the third
    leaves r0 = r/gcd(r, a) as the only candidate; for it the first
    condition implies the other two.
    """
    for value, what in ((n, "n"), (d1, "d1"), (d2, "d2"), (r, "r"), (a, "a")):
        _check_int(value, what, 1)
    if d2 % d1:
        raise InputError(f"d1 = {_shown(d1)} must divide d2 = {_shown(d2)}")
    r0 = r // gcd(r, a)
    return [r0] if r0**n == r * gcd(r0, d1) * gcd(r0, d2) else []


def resemibis_ranks(kind: str, r_max: int) -> list[int]:
    """Ranks r <= r_max of the form r0^n/dd with dd | gcd(r0^n, c_X), for the n the kind fixes."""
    _check_int(r_max, "r_max", 1)
    from .fujiki import fujiki_constant, parse_kind  # the one hilb2 routine that needs a Fujiki constant

    c = fujiki_constant(kind)
    _, n = parse_kind(kind)
    found = set()
    r0 = 1
    while r0**n <= r_max * c:
        p = r0**n
        for dd in range(1, c + 1):
            if c % dd == 0 and p % dd == 0 and p // dd <= r_max:
                found.add(p // dd)
        r0 += 1
    return sorted(found)


class McKaySquare(Record):
    """Ext dimensions in degrees 0..4 on the Hilbert square, plus whether
    the traceless degree-0 part vanishes (the simple-sheaf pattern)."""

    def __init__(self, dims: tuple[int, int, int, int, int], end0_vanishing: bool):
        setfield(self, "dims", dims)
        setfield(self, "end0_vanishing", end0_vanishing)


def mckay_ext_dims(ext_dims) -> McKaySquare:
    """Ext dimensions of the induced sheaf on the Hilbert square from those
    on the surface.

    Input: the surface Ext dimensions (a0, a2, a4) in the even degrees; the
    odd ones vanish on a surface. The output in degrees 0..4 is the
    symmetric square (C(a0+1,2), a0*a2, a0*a4 + C(a2+1,2), a2*a4, C(a4+1,2)).
    """
    dims = tuple(ext_dims)
    if len(dims) != 3:
        raise InputError("expected the 3 even-degree Ext dimensions")
    for x in dims:
        _check_int(x, "Ext dimension", 0)
    a0, a2, a4 = dims
    out = (comb(a0 + 1, 2), a0 * a2, a0 * a4 + comb(a2 + 1, 2), a2 * a4, comb(a4 + 1, 2))
    return McKaySquare(dims=out, end0_vanishing=out == (1, 0, 1, 0, 1))


def _unicita_chain(i: int, r0: int, e: int, cap: int):
    """The checks of unicita_report in dependency order. A generator runs only as far as it is
    read, so each step runs once every check before it has passed; read no further than the
    first failed check, since a later step assumes the earlier ones hold."""
    yield Check("parity", r0 % 2 == i % 2, {"r0": r0, "i": i})
    rule = "e > 0 even" if i == 1 else "e > 0 and e = 6 mod 8"
    yield Check("divisibility_type", divisibility_type(e, i), {"e": e, "rule": rule})
    yield Check("econ", econ_check(r0, e), {"r0": r0, "e": e, "r0_mod_4": r0 % 4})
    m0, s0 = m0_s0(r0, e)
    yield Check("m0_s0", True, {"m0": m0, "s0": s0})
    inv = {**f2_invariants(r0).to_json_dict(), "c1_coeff": r0 // i, "hypothesis": "chi(End F) = 2"}
    yield Check("f2_invariants", True, inv)
    yield Check("rigsuk_min_d0", True, {"d0": rigsuk_min_d0(m0, r0), "bound": rigsuk_bound(m0, r0)})
    try:
        min_d = buonacompt_min_d(r0, e, i, cap=cap)
    except NoAdmissibleParameter as exc:
        yield Check("buonacompt_min_d", False, {"error": str(exc)})
    else:
        yield Check("buonacompt_min_d", True, {"min_d": min_d, "bound": buonacompt_bound(r0, e)})
    sub = rosetta_check(r0, i, e, min_d // i)
    verdicts = {c.name: c.passed for c in sub.checks}
    yield Check("rosetta", sub.verdict, {"d0": min_d // i, "d": min_d, "checks": verdicts})


def unicita_report(i: int, r0: int, e: int, cap: int = DEFAULT_SEARCH_CAP) -> TheoremReport:
    """Full admissibility pipeline for the exterior-square construction.

    Runs the checks in dependency order and stops at the first failure:
    parity of (r0, i), degree type, slope congruence, twist numerics,
    exterior-square invariants, the two minimal-parameter searches, and
    the ambient dictionary at the found parameter.
    """
    check_i(i)
    _check_int(r0, "r0", 1)
    _check_int(e, "e")
    _check_int(cap, "cap", 1)
    checks: list[Check] = []
    for check in _unicita_chain(i, r0, e, cap):
        checks.append(check)
        if not check.passed:
            break
    return TheoremReport(theorem="unicita", checks=tuple(checks), data={"i": i, "r0": r0, "e": e})
