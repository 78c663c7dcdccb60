from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from hkmod.errors import InputError, MathCheckError
from hkmod.lattice import lattice, vec
from hkmod.mukai import (
    MukaiNumerics,
    MukaiVector,
    from_chern,
    mukai_from_json,
    mukai_pairing,
    mukai_square,
    normalize_twist,
    numerics,
    twist_by_mf,
)

E4D1 = lattice(((4, 1), (1, 0)))
F = vec((0, 1))
H = vec((1, 0))


def test_vector_validation():
    with pytest.raises(InputError):
        MukaiVector(-1, H, 0)
    with pytest.raises(InputError, match="rank must be an integer"):
        MukaiVector(True, H, 0)
    with pytest.raises(InputError, match="lattice vector"):
        MukaiVector(2, (1, 0), 0)
    with pytest.raises(InputError):
        MukaiVector(2, vec((Fraction(1, 2), 0)), 0)
    with pytest.raises(InputError):
        MukaiVector(2, H, Fraction(1, 2))
    v = mukai_from_json({"r": 2, "l": [1, 0], "s": 0})
    assert v == MukaiVector(2, H, 0)
    with pytest.raises(InputError):
        mukai_from_json({"r": 2, "l": [1, 0]})
    with pytest.raises(InputError):
        mukai_from_json([2, [1, 0], 0])


def test_pairing_and_square():
    v = MukaiVector(2, H, 0)
    w = MukaiVector(1, F, 1)
    assert mukai_pairing(E4D1, v, w) == 1 - 2 * 1 - 1 * 0
    assert mukai_square(E4D1, v) == 4
    assert mukai_square(E4D1, MukaiVector(1, vec((0, 0)), 1)) == -2
    odd = lattice(((1, 0), (0, 2)))
    with pytest.raises(MathCheckError):
        mukai_square(odd, MukaiVector(1, vec((1, 0)), 0))


def test_from_chern():
    zero = vec((0, 0))
    assert from_chern(E4D1, 1, zero, 0) == MukaiVector(1, zero, 1)
    assert from_chern(E4D1, 1, zero, 3) == MukaiVector(1, zero, -2)
    assert from_chern(E4D1, 2, zero, 2) == MukaiVector(2, zero, 0)
    assert from_chern(E4D1, 2, H, 3) == MukaiVector(2, H, 2 - 3 + 2)
    with pytest.raises(InputError):
        from_chern(E4D1, 2, vec((Fraction(1, 2), 0)), 0)
    with pytest.raises(InputError, match="rank must be nonnegative"):
        from_chern(E4D1, -1, zero, 0)
    odd = lattice(((1, 0), (0, 2)))
    with pytest.raises(MathCheckError):
        from_chern(odd, 2, vec((1, 0)), 0)


def test_numerics():
    num = numerics(E4D1, MukaiVector(2, vec((0, 0)), -1))
    assert num.v_square == 4
    assert num.n_v == 3
    assert num.delta == 12
    assert num.a_v == 12
    with pytest.raises(InputError):
        numerics(E4D1, MukaiVector(0, H, 1))
    with pytest.raises(MathCheckError):
        MukaiNumerics.from_square(2, 3)


def test_twist_example():
    v = MukaiVector(2, H, 0)
    w = twist_by_mf(E4D1, v, 1, F)
    assert w == MukaiVector(2, vec((1, 2)), 1)
    assert mukai_square(E4D1, w) == mukai_square(E4D1, v)
    with pytest.raises(InputError):
        twist_by_mf(E4D1, v, 1, H)  # q(h) != 0
    with pytest.raises(InputError, match="integral"):
        twist_by_mf(E4D1, v, 1, vec((0, Fraction(1, 2))))  # isotropic but not integral


def test_twist_refuses_the_zero_class():
    # 0 is isotropic and integral, but no fiber class: normalize_twist and reduction refuse it too
    v = MukaiVector(2, H, 0)
    for routine in (lambda f: twist_by_mf(E4D1, v, 1, f), lambda f: normalize_twist(E4D1, v, v, f)):
        with pytest.raises(InputError, match="^fiber class must be a nonzero integral class$"):
            routine(vec((0, 0)))


def test_normalize_twist_roundtrip():
    v = MukaiVector(3, vec((1, -2)), 4)
    for m in range(-3, 4):
        w = twist_by_mf(E4D1, v, m, F)
        assert normalize_twist(E4D1, v, w, F) == m


def test_normalize_twist_failures():
    v = MukaiVector(2, H, 0)
    # difference is f, not a multiple of r*f = 2f
    w = MukaiVector(2, vec((1, 1)), 0)
    with pytest.raises(MathCheckError, match="not divisible by the rank"):
        normalize_twist(E4D1, v, w, F)
    with pytest.raises(MathCheckError, match="rank mismatch"):
        normalize_twist(E4D1, v, MukaiVector(3, H, 0), F)
    # right fiber direction and rank divisibility, wrong last component
    w2 = MukaiVector(2, vec((1, 2)), 3)
    with pytest.raises(MathCheckError, match="squares differ"):
        normalize_twist(E4D1, v, w2, F)
    # middle components differ off the fiber direction
    w3 = MukaiVector(2, vec((2, 0)), 0)
    with pytest.raises(MathCheckError, match="multiple of f"):
        normalize_twist(E4D1, v, w3, F)
    # non-primitive fiber: the difference (0, 3) is not an integer multiple of (0, 2)
    v3 = MukaiVector(3, H, 0)
    with pytest.raises(MathCheckError, match="multiple of f"):
        normalize_twist(E4D1, v3, MukaiVector(3, vec((1, 3)), 0), vec((0, 2)))
    # coprimality hypothesis: k = pair(l, f) = 2 shares a factor with r = 2
    v2 = MukaiVector(2, vec((2, 0)), 0)
    with pytest.raises(MathCheckError, match="gcd"):
        normalize_twist(E4D1, v2, v2, F)
    with pytest.raises(InputError):
        normalize_twist(E4D1, v, v, H)
    with pytest.raises(InputError, match="integral"):
        normalize_twist(E4D1, v, v, vec((0, Fraction(1, 2))))
    with pytest.raises(InputError, match="^rank must be positive$"):
        normalize_twist(E4D1, MukaiVector(0, H, 1), MukaiVector(0, H, 1), F)


@given(st.integers(1, 5), st.integers(-6, 6), st.integers(-6, 6), st.integers(-6, 6),
       st.integers(-4, 4), st.integers(-4, 4))
def test_twist_composition(r, x, y, s, m1, m2):
    v = MukaiVector(r, vec((x, y)), s)
    one = twist_by_mf(E4D1, twist_by_mf(E4D1, v, m1, F), m2, F)
    both = twist_by_mf(E4D1, v, m1 + m2, F)
    assert one == both
    assert mukai_square(E4D1, one) == mukai_square(E4D1, v)


@given(st.integers(0, 4), st.integers(-6, 6), st.integers(-6, 6), st.integers(-6, 6),
       st.integers(0, 4), st.integers(-6, 6), st.integers(-6, 6), st.integers(-6, 6))
def test_pairing_symmetric(r1, x1, y1, s1, r2, x2, y2, s2):
    v = MukaiVector(r1, vec((x1, y1)), s1)
    w = MukaiVector(r2, vec((x2, y2)), s2)
    assert mukai_pairing(E4D1, v, w) == mukai_pairing(E4D1, w, v)
    assert mukai_square(E4D1, v) % 2 == 0
