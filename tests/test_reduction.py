from math import gcd

import pytest
from hypothesis import assume, given, settings, strategies as st

from hkmod.errors import InputError, MathCheckError
from hkmod.lattice import lattice, pair, vec
from hkmod.mukai import MukaiVector, mukai_square
from hkmod.reduction import (
    ModificationStep,
    atiyah_exists,
    bezout_r0_d0,
    elementary_modification,
    hom_count_check,
    nonlocally_free_dim_identity,
    reduction_trace,
    rigid_vector,
)

E4D1 = lattice(((4, 1), (1, 0)))
E2D3 = lattice(((2, 3), (3, 0)))
E6D5 = lattice(((6, 5), (5, 0)))
F = vec((0, 1))


def test_atiyah():
    res = atiyah_exists(3, 5)
    assert res.exists and res.unique
    res = atiyah_exists(4, 2)
    assert not res.exists and not res.unique
    assert atiyah_exists(1, 0).exists
    with pytest.raises(InputError):
        atiyah_exists(0, 1)


def test_bezout_pairs():
    assert bezout_r0_d0(5, 3) == (2, 1)
    assert bezout_r0_d0(2, 1) == (1, 0)
    assert bezout_r0_d0(7, 3) == (5, 2)
    with pytest.raises(InputError):
        bezout_r0_d0(1, 5)
    with pytest.raises(MathCheckError):
        bezout_r0_d0(4, 2)


def test_rigid_vector_frozen():
    w = rigid_vector(E4D1, MukaiVector(2, vec((1, 0)), 0), F)
    assert w == MukaiVector(2, vec((1, 3)), 3)
    assert mukai_square(E4D1, w) == -2
    w2 = rigid_vector(E6D5, MukaiVector(3, vec((1, 2)), -1), F)
    assert w2 == MukaiVector(3, vec((1, 19)), 33)
    # already rigid: the twist is trivial
    v3 = MukaiVector(2, vec((1, 0)), 1)
    assert rigid_vector(E2D3, v3, F) == v3


def test_rigid_vector_refusals():
    with pytest.raises(MathCheckError, match="below the rigid bound -2"):
        rigid_vector(E4D1, MukaiVector(2, vec((0, 0)), 1), F)
    with pytest.raises(InputError):
        rigid_vector(E4D1, MukaiVector(1, vec((1, 0)), 0), F)
    with pytest.raises(MathCheckError, match="no Bezout pair"):
        rigid_vector(E2D3, MukaiVector(3, vec((1, 0)), 0), F)  # gcd(3, 3) != 1
    with pytest.raises(InputError):
        rigid_vector(E4D1, MukaiVector(2, vec((1, 0)), 0), vec((1, 0)))
    with pytest.raises(InputError):
        rigid_vector(E4D1, MukaiVector(2, vec((1, 0)), 0), vec((0, 0)))


def test_elementary_modification():
    w = MukaiVector(2, vec((1, 3)), 3)
    out = elementary_modification(E4D1, w, ModificationStep(1, 0), F)
    assert out == MukaiVector(2, vec((1, 2)), 3)
    assert mukai_square(E4D1, out) == mukai_square(E4D1, w) - 2
    # slope-preserving and slope-increasing steps are refused
    w2 = MukaiVector(3, vec((3, 0)), 0)
    with pytest.raises(MathCheckError, match=r"step \(1, 1\) does not strictly decrease the slope 3/3"):
        elementary_modification(E4D1, w2, ModificationStep(1, 1), F)
    with pytest.raises(MathCheckError, match=r"step \(1, 1\) does not strictly decrease the slope 1/2"):
        elementary_modification(E4D1, MukaiVector(2, vec((1, 0)), 0), ModificationStep(1, 1), F)
    with pytest.raises(InputError):
        elementary_modification(E4D1, w, ModificationStep(2, 0), F)  # r_b = r
    with pytest.raises(InputError):
        ModificationStep(0, 1)
    with pytest.raises(InputError):
        elementary_modification(
            E4D1, MukaiVector(1, vec((1, 0)), 0), ModificationStep(1, 0), F
        )


def test_reduction_trace():
    w0 = MukaiVector(3, vec((1, 0)), 0)
    steps = [ModificationStep(1, 0), ModificationStep(2, 0)]
    trace = reduction_trace(E4D1, w0, steps, F)
    assert trace.squares == (4, 2, -2)
    assert trace.final == MukaiVector(3, vec((1, -3)), 0)
    assert trace.start == w0
    data = trace.to_json_dict()
    assert data["squares"] == [4, 2, -2]
    assert data["steps"] == [{"r_b": 1, "deg_b": 0}, {"r_b": 2, "deg_b": 0}]
    with pytest.raises(MathCheckError, match="below the rigid bound -2"):
        reduction_trace(E4D1, w0, steps + [ModificationStep(1, 0)], F)
    low = MukaiVector(2, vec((1, 0)), 3)  # square 2 - 2*2*3 = -10 on [[2, 1], [1, 0]]
    with pytest.raises(MathCheckError, match="square -10 is below the rigid bound -2"):
        reduction_trace(lattice([[2, 1], [1, 0]]), low, [], F)


def test_hom_count_check():
    res = hom_count_check(3, 5, 2, 1)
    assert res.value == 1 and res.is_bezout_pair
    res = hom_count_check(3, 5, 4, 2)
    assert res.value == 2 and not res.is_bezout_pair
    assert not hom_count_check(2, 4, 1, 1).is_bezout_pair
    with pytest.raises(InputError):
        hom_count_check(3, 1, 1, 1)


def test_dim_identity_spot():
    lhs, rhs = nonlocally_free_dim_identity(E4D1, MukaiVector(2, vec((1, 0)), 0), 3)
    assert lhs == rhs == 3
    with pytest.raises(InputError):
        nonlocally_free_dim_identity(E4D1, MukaiVector(2, vec((1, 0)), 0), 0)
    with pytest.raises(InputError):
        nonlocally_free_dim_identity(E4D1, MukaiVector(0, vec((1, 0)), 0), 1)


@settings(deadline=None)
@given(st.integers(2, 6), st.integers(-5, 5), st.integers(-5, 5), st.integers(-5, 5), st.data())
def test_modification_drop_law(r, x, y, s, data):
    w = MukaiVector(r, vec((x, y)), s)
    k = int(pair(E4D1, w.l, F))
    r_b = data.draw(st.integers(1, r - 1), label="r_b")
    # the largest deg_b below the slope r_b*k/r, so every draw is a strict step
    top = (r_b * k - 1) // r
    deg_b = data.draw(st.integers(top - 6, top), label="deg_b")
    drop_half = r_b * k - r * deg_b
    assert drop_half > 0
    out = elementary_modification(E4D1, w, ModificationStep(r_b, deg_b), F)
    assert mukai_square(E4D1, out) == mukai_square(E4D1, w) - 2 * drop_half


@given(st.integers(2, 8), st.integers(-8, 8), st.integers(-8, 8), st.integers(-3, 3))
def test_rigid_vector_always_lands_on_minus_two(r, x, y, s):
    v = MukaiVector(r, vec((x, y)), s)
    k = int(pair(E4D1, v.l, F))
    assume(k != 0)
    assume(gcd(r, k) == 1)
    assume(mukai_square(E4D1, v) >= -2)
    w = rigid_vector(E4D1, v, F)
    assert mukai_square(E4D1, w) == -2
    assert w.r == v.r
