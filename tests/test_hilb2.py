from collections import Counter
from fractions import Fraction
from math import gcd
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from hkmod import checks, errors, hilb2, nl
from hkmod.errors import InputError, MathCheckError
from hkmod.hilb2 import (
    ambient_divisibility,
    divisibility_type,
    econ_check,
    f2_invariants,
    governing_divisibility,
    h_polarization,
    hilb2_ns,
    m0_s0,
    mckay_ext_dims,
    potenza_solve,
    resemibis_ranks,
    restrango_check,
    rosetta_check,
    unicita_report,
)
from hkmod.jsonio import canonical_json
from hkmod.lattice import pair, vec


def test_hilb2_binds_nls_degree_arithmetic():
    # nl defines the (r0, e, i) degree arithmetic; hilb2 still binds each name it bound before
    for name in ("divisibility_type", "governing_divisibility", "_shifted_r0", "m0_s0",
                 "econ_check", "check_econ"):
        assert getattr(hilb2, name) is getattr(nl, name)
        assert getattr(nl, name).__module__ == "hkmod.nl"
    assert hilb2.MathCheckError is errors.MathCheckError


def test_divisibility_type():
    assert divisibility_type(6, 1)
    assert divisibility_type(2, 1)
    assert not divisibility_type(5, 1)
    assert not divisibility_type(-2, 1)
    assert not divisibility_type(0, 1)
    assert divisibility_type(6, 2)
    assert divisibility_type(14, 2)
    assert divisibility_type(22, 2)
    assert not divisibility_type(8, 2)
    assert not divisibility_type(16, 2)
    with pytest.raises(InputError):
        divisibility_type(6, 3)
    with pytest.raises(InputError):
        divisibility_type(6.0, 1)


def test_econ_check():
    good = [(2, 6), (2, 22), (1, 2), (3, 8), (4, 6), (5, 10), (4, 38)]
    for r0, e in good:
        assert econ_check(r0, e), (r0, e)
    assert not econ_check(2, 14)
    assert not econ_check(2, 8)
    assert not econ_check(4, 14)
    with pytest.raises(InputError):
        econ_check(0, 6)
    with pytest.raises(InputError):
        econ_check(2, "6")


def test_governing_divisibility():
    assert governing_divisibility(1) == 1
    assert governing_divisibility(2) == 2
    assert governing_divisibility(3) == 1
    assert governing_divisibility(4) == 2
    with pytest.raises(InputError):
        governing_divisibility(0)


def test_m0_s0_frozen():
    assert m0_s0(2, 6) == (1, 1)
    assert m0_s0(2, 22) == (3, 2)
    assert m0_s0(3, 8) == (5, 2)
    assert m0_s0(1, 2) == (1, 2)
    assert m0_s0(5, 10) == (9, 2)
    assert m0_s0(4, 6) == (3, 1)
    assert m0_s0(4, 38) == (7, 2)
    assert m0_s0(2, 6, sign="-") == (3, 2)
    with pytest.raises(InputError):
        m0_s0(2, 6, sign="x")
    with pytest.raises(MathCheckError):
        m0_s0(1, 5)  # wrong degree type
    with pytest.raises(MathCheckError):
        m0_s0(2, 14)  # fails the congruence


def test_f2_invariants_frozen():
    table = {
        1: (1, 0, 0, 0),
        2: (4, 1, 30, 120),
        3: (9, 6, 180, 3645),
        4: (16, 20, 600, 38400),
    }
    for r0, (rank, delta, d_mod, a_mod) in table.items():
        inv = f2_invariants(r0)
        assert (inv.rank, inv.delta_coeff, inv.d_mod, inv.a_mod) == (
            rank,
            delta,
            d_mod,
            a_mod,
        ), r0
    with pytest.raises(InputError):
        f2_invariants(0)


def test_h_polarization():
    assert h_polarization(2, 2).int_coords() == (2, 0, -1)
    assert h_polarization(2, 2, sign="-").int_coords() == (2, 0, -3)
    assert h_polarization(1, 1).int_coords() == (1, 0, 0)
    assert h_polarization(3, 1).int_coords() == (1, 0, -1)
    assert h_polarization(3, 1, "-").int_coords() == (1, 0, -2)
    with pytest.raises(MathCheckError):
        h_polarization(2, 1)
    with pytest.raises(InputError):
        h_polarization(0, 2)
    with pytest.raises(InputError):
        h_polarization(2, 2, sign="±")
    with pytest.raises(TypeError):
        h_polarization(2, 2, 1, "+")  # the old (r0, i, m0, sign) form


def test_hilb2_ns_and_divisibility():
    ns = hilb2_ns(1, 211)
    assert ns.gram == (
        (Fraction(2), Fraction(211), Fraction(0)),
        (Fraction(211), Fraction(0), Fraction(0)),
        (Fraction(0), Fraction(0), Fraction(-2)),
    )
    assert pair(ns, vec((1, 0, 0)), vec((0, 1, 0))) == 211
    assert pair(ns, vec((0, 0, 1)), vec((0, 0, 1))) == -2
    with pytest.raises(InputError):
        hilb2_ns(-1, 5)
    with pytest.raises(InputError):
        hilb2_ns(1, 0)
    assert ambient_divisibility(vec((2, 0, -1))) == 2
    assert ambient_divisibility(vec((1, 0, -1))) == 1
    assert ambient_divisibility(vec((0, 0, 1))) == 2
    assert ambient_divisibility(vec((4, 6, 1))) == 2
    with pytest.raises(InputError):
        ambient_divisibility(vec((0, 0, 0)))
    with pytest.raises(InputError):
        ambient_divisibility(vec((1, 0)))
    with pytest.raises(InputError):
        ambient_divisibility(vec((Fraction(1, 2), 0, 0)))


def test_rosetta_frozen():
    for r0, i, e, d0 in [(2, 2, 6, 211), (3, 1, 8, 127), (2, 2, 22, 691), (1, 1, 2, 1)]:
        rep = rosetta_check(r0, i, e, d0)
        assert rep.verdict, (r0, i, e, d0)
        assert [c.name for c in rep.checks] == [
            "q_h_equals_e",
            "divisibility_equals_i",
            "q_h_f_equals_i_d0",
            "q_f_zero",
            "h_f_saturated",
        ]
        assert rep.data["d"] == i * d0
    with pytest.raises(MathCheckError):
        rosetta_check(2, 2, 14, 5)
    with pytest.raises(MathCheckError):
        rosetta_check(2, 1, 6, 5)
    with pytest.raises(MathCheckError):
        rosetta_check(1, 1, 5, 5)
    with pytest.raises(InputError):
        rosetta_check(2, 2, 6, 0)


def test_restrango():
    assert restrango_check("K3^[2]", 4, 2)
    assert not restrango_check("K3^[2]", 8, 2)
    assert restrango_check("Kum_2", 3, 1)
    assert restrango_check("Kum_2", 9, 3)
    assert not restrango_check("Kum_2", 9, 2)
    with pytest.raises(InputError):
        restrango_check("K3", 2, 1)
    with pytest.raises(InputError):
        restrango_check("K3^[2]", 0, 1)


def test_potenza_solve_frozen():
    assert potenza_solve(2, 1, 1, 4, 2) == [2]
    assert potenza_solve(2, 1, 1, 4, 4) == []
    assert potenza_solve(2, 1, 3, 3, 3) == []
    assert potenza_solve(2, 1, 3, 3, 1) == [3]
    assert potenza_solve(3, 1, 1, 8, 4) == [2]
    with pytest.raises(InputError):
        potenza_solve(0, 1, 1, 4, 2)
    with pytest.raises(InputError):
        potenza_solve(2, 2, 3, 1, 1)  # d1 does not divide d2
    with pytest.raises(InputError):
        potenza_solve(2, 0, 1, 4, 2)


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 5), st.integers(1, 30), st.integers(1, 6), st.integers(1, 200),
       st.integers(1, 200), st.booleans())
def test_potenza_solve_matches_scan(n, d1, k, r, a, construct):
    d2 = k * d1
    r0 = r
    g = gcd(r0, d1) * gcd(r0, d2)
    solvable = construct and r0 ** (n - 1) % g == 0
    if solvable:  # read r as the root r0 and build the r, a it solves
        r = r0**n // g
        a = r // r0
    got = potenza_solve(n, d1, d2, r, a)
    assert got == checks._brute_potenza(n, d1, d2, r, a)
    if solvable:
        assert got == [r0]


def test_resemibis_ranks():
    assert resemibis_ranks("K3^[3]", 30) == [1, 8, 27]
    assert resemibis_ranks("OG6", 30) == [1, 2, 4, 8, 16, 27]
    assert resemibis_ranks("K3^[2]", 10) == [1, 4, 9]
    assert resemibis_ranks("Kum_2", 12) == [1, 3, 4, 9, 12]
    with pytest.raises(TypeError):
        resemibis_ranks("K3^[2]")
    with pytest.raises(TypeError):
        resemibis_ranks("OG6", 3, 30)  # the old (kind, n, r_max) form
    with pytest.raises(TypeError):
        resemibis_ranks("OG6", 30, n=3)  # a kind names its own n
    with pytest.raises(InputError):
        resemibis_ranks("Kum_n", 30)
    with pytest.raises(InputError):
        resemibis_ranks("K3^[2]", 0)


def test_mckay_frozen():
    sq = mckay_ext_dims((1, 0, 1))
    assert sq.dims == (1, 0, 1, 0, 1)
    assert sq.end0_vanishing
    assert sq.to_json_dict() == {"dims": [1, 0, 1, 0, 1], "end0_vanishing": True}
    cases = {
        (1, 1, 1): (1, 1, 2, 1, 1),
        (1, 0, 0): (1, 0, 0, 0, 0),
        (2, 1, 0): (3, 2, 1, 0, 0),
        (1, 2, 3): (1, 2, 6, 6, 6),
    }
    for dims, expected in cases.items():
        out = mckay_ext_dims(dims)
        assert out.dims == expected, dims
        assert not out.end0_vanishing
    with pytest.raises(InputError):
        mckay_ext_dims((1, 0, 0, 0, 1))  # only the 3 even degrees
    with pytest.raises(InputError):
        mckay_ext_dims((1, 0, 1, 0))
    with pytest.raises(InputError):
        mckay_ext_dims((1, -1, 1))


def test_unicita_frozen():
    rep = unicita_report(2, 2, 6)
    assert rep.verdict
    names = [c.name for c in rep.checks]
    assert names == [
        "parity",
        "divisibility_type",
        "econ",
        "m0_s0",
        "f2_invariants",
        "rigsuk_min_d0",
        "buonacompt_min_d",
        "rosetta",
    ]
    by_name = {c.name: c for c in rep.checks}
    assert by_name["m0_s0"].data == {"m0": 1, "s0": 1}
    inv = by_name["f2_invariants"].data
    assert (inv["rank"], inv["delta_coeff"], inv["d_mod"], inv["a_mod"]) == (
        4,
        1,
        30,
        120,
    )
    assert by_name["rigsuk_min_d0"].data["d0"] == 11
    assert by_name["buonacompt_min_d"].data["min_d"] == 422
    assert by_name["rosetta"].data["d0"] == 211

    assert unicita_report(2, 2, 22).verdict

    rep = unicita_report(2, 2, 14)
    assert not rep.verdict
    assert [c.name for c in rep.checks] == ["parity", "divisibility_type", "econ"]
    assert rep.failed()[0].name == "econ"

    rep = unicita_report(2, 2, 21)
    assert [c.name for c in rep.checks] == ["parity", "divisibility_type"]
    assert not rep.verdict

    rep = unicita_report(1, 2, 6)
    assert [c.name for c in rep.checks] == ["parity"]
    assert not rep.verdict

    rep = unicita_report(1, 3, 2)
    assert not rep.verdict
    assert rep.checks[-1].name == "buonacompt_min_d"
    assert "error" in rep.checks[-1].data

    rep = unicita_report(1, 1, 4)
    assert rep.verdict and len(rep.checks) == 8

    with pytest.raises(InputError):
        unicita_report(3, 2, 6)
    with pytest.raises(InputError):
        unicita_report(2, 0, 6)


def test_unicita_grid_is_frozen():
    """Every end of the chain, byte for byte: the parity, degree-type and congruence failures,
    an empty search and the full chain through rosetta."""
    reports = [
        unicita_report(i, r0, e)
        for i in (1, 2) for r0 in range(1, 9) for e in (2, 4, 6, 8, 14, 21, 22, 38)
    ]
    golden = Path(__file__).parent / "golden" / "unicita_grid.jsonl"
    assert "".join(map(canonical_json, reports)).encode() == golden.read_bytes()
    ends = Counter(rep.checks[-1].name for rep in reports)
    assert ends == {"parity": 64, "divisibility_type": 20, "econ": 24,
                    "buonacompt_min_d": 2, "rosetta": 18}


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 9), st.integers(0, 9), st.integers(0, 9))
def test_mckay_polynomial_law(a0, a2, a4):
    # degree-2k output coefficients come from (P(t)^2 + P(t^2)) / 2
    p = [a0, a2, a4]
    square = [0] * 5
    for i_, x in enumerate(p):
        for j_, y in enumerate(p):
            square[i_ + j_] += x * y
    doubled = [0] * 5
    for i_, x in enumerate(p):
        doubled[2 * i_] += x
    expected = tuple((square[k] + doubled[k]) // 2 for k in range(5))
    assert all((square[k] + doubled[k]) % 2 == 0 for k in range(5))
    assert mckay_ext_dims((a0, a2, a4)).dims == expected


@settings(max_examples=150, deadline=None)
@given(st.integers(1, 12), st.integers(0, 1600))
def test_m0_s0_integrality_sweep(r0, e):
    for sign in ("+", "-"):
        try:
            m0, s0 = m0_s0(r0, e, sign=sign)
        except MathCheckError:
            continue
        shift = r0 - 1 if sign == "+" else r0 + 1
        assert m0 == Fraction(e, 2 if r0 % 2 else 8) + Fraction(shift * shift, 4)
        assert m0 >= 0
        assert m0 + 1 == r0 * s0
        assert econ_check(r0, e)
        i = governing_divisibility(r0)
        assert h_polarization(r0, i, sign).coords[2] == Fraction(-i * shift, 2)
