from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from hkmod.errors import InputError
from hkmod.fujiki import (
    FujikiSetup,
    discriminant_sum_identity,
    double_factorial,
    fiber_restriction_integral,
    fujiki_constant,
    matchings_sum,
    modular_delta_integral,
    parse_kind,
    perfect_matchings,
    propsemi_bound_check,
    top_intersection,
)
from hkmod.lattice import lattice, vec

ELL6 = lattice(((6, 1), (1, 0)))


def setup_for(gram, n, c_x):
    return FujikiSetup(n=n, c_x=Fraction(c_x), pairing=lattice(gram))


def test_constants_table():
    assert fujiki_constant("K3") == 1
    assert fujiki_constant("K3^[2]") == 1
    assert fujiki_constant("K3^[5]") == 1
    assert fujiki_constant("Kum_2") == 3
    assert fujiki_constant("Kum_4") == 5
    assert fujiki_constant("OG6") == 4
    with pytest.raises(InputError):
        fujiki_constant("K3^[0]")
    with pytest.raises(TypeError):
        fujiki_constant("Kum_n", 4)  # a kind names its own n


def test_parse_kind():
    assert parse_kind("K3^[3]") == ("K3^[n]", 3)
    assert parse_kind("Kum_2") == ("Kum_n", 2)
    assert parse_kind("K3") == ("K3", 1)
    assert parse_kind("OG6") == ("OG6", 3)
    # the table keys are not kinds; a kind is matched whole, with ASCII digits only
    for kind in ("OG10", "K3^[n]", "Kum_n", 5, "K3^[2]\n", "Kum_\u0662"):
        with pytest.raises(InputError):
            parse_kind(kind)


def test_double_factorial():
    assert double_factorial(-1) == 1
    assert double_factorial(0) == 1
    assert double_factorial(1) == 1
    assert double_factorial(3) == 3
    assert double_factorial(5) == 15
    assert double_factorial(7) == 105
    with pytest.raises(InputError):
        double_factorial(-3)


def test_perfect_matchings_canonical():
    assert list(perfect_matchings(0)) == [()]
    assert list(perfect_matchings(2)) == [((0, 1),)]
    four = list(perfect_matchings(4))
    assert len(four) == 3
    assert all(m[0][0] == 0 for m in four)
    assert len(list(perfect_matchings(6))) == 15
    assert len(list(perfect_matchings(8))) == 105
    with pytest.raises(InputError):
        list(perfect_matchings(3))
    with pytest.raises(InputError, match="^count must be nonnegative$"):
        perfect_matchings(-2)  # refused at the call; it used to yield one empty matching


def test_top_intersection_k3_2():
    setup = setup_for(((6, 1), (1, 0)), 2, 1)
    h = vec((1, 0))
    assert top_intersection(setup, [h, h, h, h]) == 108
    with pytest.raises(InputError):
        top_intersection(setup, [h, h])


def test_top_intersection_kummer():
    setup = setup_for(((2, 0), (0, -2)), 2, 3)
    h = vec((1, 0))
    assert top_intersection(setup, [h] * 4) == 36


def test_mixed_matchings_sum():
    setup = setup_for(((6, 1), (1, 0)), 2, 1)
    lam, h = vec((2, -1)), vec((1, 0))
    q = setup.q
    got = matchings_sum(q, [lam, h, h, h])
    assert got == 3 * q(lam, h) * q(h, h)
    with pytest.raises(InputError):
        matchings_sum(q, [lam, h, h])


def test_modular_delta_integral():
    setup = setup_for(((6, 1), (1, 0)), 2, 1)
    h = vec((1, 0))
    assert modular_delta_integral(setup, Fraction(30), [h, h]) == 180
    setup3 = setup_for(((2, 1), (1, 0)), 3, 1)
    assert modular_delta_integral(setup3, 1, [vec((1, 0))] * 4) == 12
    with pytest.raises(InputError):
        modular_delta_integral(setup, 30, [h])


def test_fiber_restriction_integral():
    setup = setup_for(((2, 1), (1, 0)), 2, 1)
    lam, h, f = vec((1, -1)), vec((1, 0)), vec((0, 1))
    assert fiber_restriction_integral(setup, lam, h, f) == 2
    with pytest.raises(InputError):
        fiber_restriction_integral(setup, lam, h, vec((1, 0)))  # q(f) != 0


def test_propsemi_bounds():
    setup = setup_for(((2, 1), (1, 0)), 2, 1)
    assert propsemi_bound_check(setup, 2, 8, -8)
    assert propsemi_bound_check(setup, 2, 8, 0)
    assert not propsemi_bound_check(setup, 2, 8, -10)
    assert not propsemi_bound_check(setup, 2, 8, 1)
    with pytest.raises(InputError):
        propsemi_bound_check(setup, 0, 8, 0)


def test_discriminant_sum_identity_balances():
    setup = setup_for(((6, 1), (1, 0)), 2, 1)
    # trivial extension of two rank-1 pieces with zero discriminants:
    # the middle constant must absorb exactly the norm of the slope class
    q_h = 6
    lam_sq = -4
    d_f = Fraction(4)  # r_e*r_g*d_f + c_x*lam_sq = 0
    lhs, rhs = discriminant_sum_identity(setup, q_h, 1, 0, 1, 0, d_f, lam_sq)
    assert lhs == rhs == 0
    lhs2, rhs2 = discriminant_sum_identity(setup, q_h, 1, 0, 1, 0, d_f, 0)
    assert lhs2 == 0 and rhs2 == 4 * 6
    with pytest.raises(InputError):
        discriminant_sum_identity(setup, q_h, 0, 0, 1, 0, d_f, 0)


def test_setup_validation():
    with pytest.raises(InputError):
        setup_for(((2, 0), (0, 2)), 0, 1)
    with pytest.raises(InputError):
        setup_for(((2, 0), (0, 2)), 2, 0)
    setup = FujikiSetup.for_kind("Kum_2", lattice(((2, 0), (0, -2))))
    assert setup.n == 2 and setup.c_x == 3


@given(st.integers(0, 4))
def test_matchings_count_is_double_factorial(k):
    assert sum(1 for _ in perfect_matchings(2 * k)) == double_factorial(2 * k - 1)


@given(
    st.integers(-4, 4),
    st.integers(-4, 4),
    st.integers(-4, 4),
    st.integers(-4, 4),
    st.permutations(range(4)),
)
def test_matchings_sum_is_symmetric(a, b, c, d, perm):
    setup = setup_for(((4, 1), (1, 0)), 2, 1)
    classes = [vec((a, b)), vec((c, d)), vec((1, 0)), vec((0, 1))]
    shuffled = [classes[i] for i in perm]
    assert matchings_sum(setup.q, classes) == matchings_sum(setup.q, shuffled)


@given(st.integers(1, 3), st.integers(-5, 5), st.integers(-5, 5), st.integers(1, 4))
def test_top_power_closed_form(n, x, y, c):
    setup = setup_for(((4, 1), (1, 0)), n, c)
    h = vec((x, y))
    got = top_intersection(setup, [h] * (2 * n))
    q = setup.q(h, h)
    assert got == c * double_factorial(2 * n - 1) * q**n


SETUP = setup_for(((6, 1), (1, 0)), 2, 1)


@pytest.mark.parametrize(
    "call",
    [
        lambda x: FujikiSetup(n=2, c_x=x, pairing=ELL6),
        lambda x: modular_delta_integral(SETUP, x, [vec((1, 0))] * 2),
        lambda x: propsemi_bound_check(SETUP, 2, x, -1),
        lambda x: propsemi_bound_check(SETUP, 2, 30, x),
        lambda x: discriminant_sum_identity(SETUP, x, 1, 2, 1, 2, 30, -1),
        lambda x: discriminant_sum_identity(SETUP, 6, 1, 2, 1, x, 30, -1),
        lambda x: discriminant_sum_identity(SETUP, 6, 1, 2, 1, 2, x, -1),
    ],
    ids=["c_x", "d_f", "propsemi_d_f", "propsemi_norm", "identity_q_h", "identity_delta_g",
         "identity_d_f"],
)
@pytest.mark.parametrize("bad", [0.5, "abc"])
def test_rational_arguments_must_be_exact(call, bad):
    with pytest.raises(InputError):
        call(bad)


def test_rational_arguments_accept_ints_and_strings():
    assert FujikiSetup(n=2, c_x="3/2", pairing=ELL6).c_x == Fraction(3, 2)
    assert modular_delta_integral(SETUP, "30", [vec((1, 0))] * 2) == 180
    assert propsemi_bound_check(SETUP, 2, "30", "-1/2")
