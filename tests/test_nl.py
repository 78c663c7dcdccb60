from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings, strategies as st

from hkmod.errors import (
    InputError,
    MathCheckError,
    NoAdmissibleParameter,
    SearchCapExceeded,
)
from hkmod.fujiki import (
    FujikiSetup,
    discriminant_sum_identity,
    double_factorial,
    perfect_matchings,
    propsemi_bound_check,
)
from hkmod.hilb2 import (
    econ_check,
    hilb2_ns,
    mckay_ext_dims,
    potenza_solve,
    resemibis_ranks,
    restrango_check,
    rosetta_check,
    unicita_report,
)
from hkmod.lattice import lattice, vec
from hkmod.jsonio import _check_int
from hkmod.mukai import MukaiNumerics, MukaiVector
from hkmod.nl import (
    buonacompt_bound,
    buonacompt_min_d,
    nef_isotropic_classes,
    nl_hk_admissible,
    nl_k3_admissible,
    propriostab_admissible,
    rigsuk_bound,
    rigsuk_min_d0,
)
from hkmod.checks import _brute_min_d, _brute_min_d0
from hkmod.pipelines import multacca_normalize
from hkmod.reduction import (
    ModificationStep,
    atiyah_exists,
    bezout_r0_d0,
    hom_count_check,
    nonlocally_free_dim_identity,
)
from hkmod.walls import EllipticNS, no_wall_threshold


def test_nef_isotropic_frozen():
    cases = {
        (4, 3): ((3, -2), 6, True),
        (2, 5): ((5, -1), 5, False),
        (2, 3): ((3, -1), 3, False),
        (6, 9): ((3, -1), 9, False),
        (4, 2): ((1, -1), 2, False),
    }
    for (e, d), (alpha, p, unique) in cases.items():
        res = nef_isotropic_classes(e, d)
        assert res.alpha.int_coords() == alpha, (e, d)
        assert res.pairing_alpha_h == p
        assert res.unique is unique
        assert res.e_divides_2d == (2 * d % e == 0)
        assert [r[1] for r in res.rays] == [d, p]
        ns = EllipticNS(e, d)
        for ray, pairing in res.rays:
            assert ns.q(ray) == 0
            assert ns.q(ray, ns.h) == pairing
    with pytest.raises(InputError):
        nef_isotropic_classes(3, 2)
    with pytest.raises(InputError):
        nef_isotropic_classes(4, 0)
    with pytest.raises(InputError):
        nef_isotropic_classes(0, 2)
    for e in (4.0, True):  # a float or a bool is no degree, even where it would pass as even
        with pytest.raises(InputError, match="^e must be an integer$"):
            nef_isotropic_classes(e, 3)


def four_branch_econ(r0, e):
    """econ_check as four branches on r0 mod 4, before the congruence was one residue class."""
    _check_int(r0, "r0", 1)
    _check_int(e, "e")
    m = r0 % 4
    if m == 0:
        return e % (8 * r0) == (4 * r0 - 10) % (8 * r0)
    if m == 1:
        return e % (2 * r0) == ((r0 - 5) // 2) % (2 * r0)
    if m == 2:
        return e % (8 * r0) == (-10) % (8 * r0)
    return e % (2 * r0) == (-(r0 + 5) // 2) % (2 * r0)


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 300), st.integers(-(10**30), 10**30))
def test_econ_check_is_the_four_branch_congruence(r0, base):
    # both sides have period 8*r0, so one period from any base covers every degree
    for e in range(base, base + 8 * r0):
        assert econ_check(r0, e) == four_branch_econ(r0, e), (r0, e)


def outcome(fn, *args):
    try:
        return fn(*args)
    except InputError as exc:
        return str(exc)


NOT_INTS = st.sampled_from([True, False, 2.0, 6.5, "6", None, Fraction(6)])


@settings(max_examples=200, deadline=None)
@given(st.integers(-3, 12) | NOT_INTS, st.integers(-20, 40) | NOT_INTS)
def test_econ_check_refuses_as_the_four_branch_congruence(r0, e):
    # r0 is refused first, then e
    assert outcome(econ_check, r0, e) == outcome(four_branch_econ, r0, e)


def test_nl_k3_admissible():
    num = MukaiNumerics.from_square(2, 4)
    assert num.a_v == 12
    assert nl_k3_admissible(4, 31, num).ok
    rep = nl_k3_admissible(4, 30, num)
    assert not rep.ok and rep.reasons == ("d exceeds (e+1)*a/2",)
    rep = nl_k3_admissible(4, 32, num)
    assert not rep.ok and rep.reasons == ("e does not divide d",)
    with pytest.raises(InputError):
        nl_k3_admissible(3, 31, num)
    with pytest.raises(InputError):
        nl_k3_admissible(4, 0, num)


def test_nl_hk_admissible():
    assert nl_hk_admissible(4, 51, 1).ok
    assert "d is even" in nl_hk_admissible(4, 51, 2).reasons
    assert "d exceeds 10*(e+1)" in nl_hk_admissible(4, 50, 1).reasons
    assert "e does not divide 2d" in nl_hk_admissible(4, 52, 1).reasons
    with pytest.raises(InputError):
        nl_hk_admissible(4, 51, 3)


def test_propriostab_admissible():
    assert propriostab_admissible(6, 422, 2, 120, 2).ok
    rep = propriostab_admissible(6, 420, 2, 120, 2)
    assert not rep.ok and "d exceeds max(a0*(e+1)/2, 10*(e+1))" in rep.reasons
    rep = propriostab_admissible(6, 424, 2, 120, 2)
    assert not rep.ok and rep.reasons == ("gcd(m*i, d/i) = 1",)
    with pytest.raises(InputError):
        propriostab_admissible(6, 421, 2, 120, 2)  # i does not divide d
    with pytest.raises(InputError):
        propriostab_admissible(6, 422, 2, 120, 0)
    with pytest.raises(InputError):
        propriostab_admissible(6, 422, 2, 0, 2)
    with pytest.raises(InputError, match="e must be positive"):
        propriostab_admissible(0, 422, 2, 120, 2)
    with pytest.raises(InputError, match="d must be positive"):
        propriostab_admissible(6, 0, 2, 120, 2)


def test_buonacompt_frozen():
    assert buonacompt_bound(2, 6) == 420
    assert buonacompt_bound(1, 100) == 0
    assert buonacompt_min_d(2, 6, 2) == 422
    assert buonacompt_min_d(2, 22, 2) == 1382
    assert buonacompt_min_d(3, 8, 1) == 16403
    assert buonacompt_min_d(1, 4, 1) == 1
    assert buonacompt_min_d(4, 6, 2) == 134402
    # the first candidate above the bound 118702080 answers
    assert buonacompt_min_d(8, 22, 2, cap=1) == 118702082
    # the first candidate 15882616 has e | 2d; the cap counts candidates
    assert buonacompt_min_d(7, 8, 1, cap=2) == 15882617


def test_buonacompt_refusals():
    with pytest.raises(SearchCapExceeded, match="1 candidate"):
        buonacompt_min_d(7, 8, 1, cap=1)
    with pytest.raises(NoAdmissibleParameter):
        buonacompt_min_d(3, 2, 1)
    with pytest.raises(MathCheckError, match="parity"):
        buonacompt_min_d(2, 6, 1)
    with pytest.raises(MathCheckError, match="congruence"):
        buonacompt_min_d(2, 8, 2)
    with pytest.raises(InputError):
        buonacompt_min_d(2, 6, 3)
    with pytest.raises(InputError):
        buonacompt_min_d(2, 0, 2)
    with pytest.raises(InputError):
        buonacompt_min_d(2, 6, 2, cap=0)


def test_rigsuk_frozen():
    assert rigsuk_bound(1, 2) == 9
    assert rigsuk_min_d0(1, 2) == 11
    assert rigsuk_min_d0(3, 3) == 127
    assert rigsuk_min_d0(5, 3) == 199
    assert rigsuk_min_d0(0, 1) == 1
    assert rigsuk_min_d0(3, 2) == 23
    assert rigsuk_min_d0(7, 2) == 47
    assert rigsuk_min_d0(1, 4) == 181
    with pytest.raises(InputError):
        rigsuk_bound(-1, 2)
    with pytest.raises(InputError):
        rigsuk_bound(1, 0)


@settings(max_examples=150, deadline=None)
@given(st.integers(1, 12), st.integers(1, 60))
def test_nef_isotropic_properties(half_e, d):
    e = 2 * half_e
    res = nef_isotropic_classes(e, d)
    assert res.pairing_alpha_h == d * e // gcd(2 * d, e)
    assert res.unique == (2 * d % e != 0)
    if res.e_divides_d:
        assert res.e_divides_2d


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 10), st.integers(1, 8))
def test_rigsuk_minimality(m0, r0):
    d0 = rigsuk_min_d0(m0, r0)
    assert d0 > rigsuk_bound(m0, r0)
    assert gcd(d0, r0) == 1
    assert d0 == _brute_min_d0(m0, r0)


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 8), st.integers(0, 40))
def test_buonacompt_minimality(r0, e_seed):
    i = 2 - r0 % 2
    # walk the seed to a value passing the congruence screen for this r0
    e = None
    for cand in range(max(e_seed, 1), e_seed + 8 * r0 + 17):
        try:
            if econ_check(r0, cand) and (2 * i) % cand != 0:
                e = cand
                break
        except InputError:
            continue
    if e is None:
        return
    d = buonacompt_min_d(r0, e, i)
    assert d > buonacompt_bound(r0, e)
    assert d % i == 0
    assert (2 * d) % e != 0
    assert d == _brute_min_d(r0, e, i)


@pytest.mark.parametrize("bad", [0.5, "abc"])
def test_propriostab_level_must_be_exact(bad):
    with pytest.raises(InputError):
        propriostab_admissible(6, 422, 2, bad, 2)
    assert propriostab_admissible(6, 422, 2, "120", 2).ok


NUM = MukaiNumerics.from_square(2, 4)
SETUP = FujikiSetup(2, 1, lattice([[2]]))
E4D1 = lattice(((4, 1), (1, 0)))
V = MukaiVector(2, vec((1, 0)), 0)
# (routine, arguments with one integer parameter a float or a bool, the parameter's name)
NOT_INTEGERS = [
    (FujikiSetup, (2.0, 1, lattice([[2]])), "n"),
    (FujikiSetup, (True, 1, lattice([[2]])), "n"),
    (double_factorial, (3.0,), "m"),
    (nl_hk_admissible, (6, 74.5, 2), "d"),
    (nl_hk_admissible, (6, 74, 2.0), "divisibility"),
    (nl_hk_admissible, (True, 74, 1), "e"),
    (nl_k3_admissible, (4, 31.0, NUM), "d"),
    (nl_k3_admissible, (4.0, 31, NUM), "e"),
    (no_wall_threshold, (2.5, 3), "e"),
    (buonacompt_bound, (2, 2.5), "e"),
    (buonacompt_min_d, (2, 6, 2, 2.5), "cap"),
    (propriostab_admissible, (6, 74.0, 2, 12, 1), "d"),
    (propriostab_admissible, (6, 74, 2, 12, 1.0), "multiplier"),
    (rigsuk_bound, (1.5, 2), "m0"),
    (rigsuk_min_d0, (False, 2), "m0"),
    (hilb2_ns, (1.0, 2), "m0"),
    (hilb2_ns, (1, 2.0), "d0"),
    (rosetta_check, (3, 1, 2, 5.0), "d0"),
    # refused at entry, before the parity check can end the report
    (unicita_report, (1, 2, 2.5), "e"),
    (unicita_report, (1, 2, True), "e"),
    (resemibis_ranks, ("K3^[2]", 2.5), "r_max"),
    (restrango_check, ("K3^[2]", 4.0, 2), "rank"),
    (restrango_check, ("K3^[2]", 4, 2.0), "m"),
    (potenza_solve, (2.0, 1, 1, 2, 1), "n"),
    (potenza_solve, (2, 1.0, 1, 2, 1), "d1"),
    (potenza_solve, (2, 1, 1.0, 2, 1), "d2"),
    (potenza_solve, (2, 1, 1, 2.0, 1), "r"),
    (potenza_solve, (2, 1, 1, 2, True), "a"),
    (mckay_ext_dims, ([1, 0.0, 1],), "Ext dimension"),
    (perfect_matchings, (4.0,), "count"),
    (propsemi_bound_check, (SETUP, 2.0, 8, 0), "rank"),
    (discriminant_sum_identity, (SETUP, 2, 1.0, 0, 1, 0, 8, 0), "r_e"),
    (discriminant_sum_identity, (SETUP, 2, 1, 0, True, 0, 8, 0), "r_g"),
    (MukaiNumerics.from_square, (2.0, 4), "rank"),
    (MukaiNumerics.from_square, (2, 4.0), "v_square"),
    (ModificationStep, (1.0, 0), "fiber rank of a step"),
    (ModificationStep, (1, 0.0), "deg_b"),
    (nonlocally_free_dim_identity, (E4D1, V, 1.0), "locus length"),
    (atiyah_exists, (2.0, 1), "rank"),
    (atiyah_exists, (2, 1.0), "deg"),
    (bezout_r0_d0, (3.0, 2), "rank"),
    (bezout_r0_d0, (3, 2.0), "k"),
    (hom_count_check, (2.0, 3, 2, 1), "k"),
    (hom_count_check, (2, 3.0, 2, 1), "rank"),
    (hom_count_check, (2, 3, 2.0, 1), "r0"),
    (hom_count_check, (2, 3, 2, 1.0), "d0"),
    (multacca_normalize, (E4D1, V, vec((1, 0)), 1.0), "n"),
]


def not_an_int(args):
    """The type name of the one float or bool among args, or in a list among them."""
    flat = [y for x in args for y in (x if type(x) is list else [x])]
    return next(type(x).__name__ for x in flat if type(x) in (float, bool))


@pytest.mark.parametrize(
    "routine, args, name", NOT_INTEGERS,
    ids=[
        f"{routine.__name__}-{name}-{not_an_int(args)}"
        for routine, args, name in NOT_INTEGERS
    ],
)
def test_integer_parameters_refuse_floats_and_bools(routine, args, name):
    with pytest.raises(InputError, match=f"^{name} must be an integer$"):
        routine(*args)
