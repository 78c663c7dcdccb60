from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from hkmod.errors import InputError
from hkmod.lattice import (
    IntLattice,
    content,
    discriminant,
    lattice,
    lattice_from_json,
    latvec_from_json,
    norm,
    ns_from_json,
    pair,
    primitive_part,
    saturation_check,
    vec,
)
from hkmod.walls import EllipticNS

HYP = lattice(((2, 3), (3, 0)))


def test_vec_infers_integrality():
    assert vec((1, 2)).integral
    assert not vec((Fraction(1, 2), 1)).integral


def test_latvec_arithmetic():
    u, v = vec((1, 2)), vec((3, -1))
    assert u + v == vec((4, 1))
    assert u - v == vec((-2, 3))
    assert 3 * u == vec((3, 6))
    assert -1 * u == vec((-1, -2))
    assert len(u) == 2
    assert not u.is_zero and vec((0, 0)).is_zero
    assert Fraction(1, 2) * u == vec(("1/2", 1))
    with pytest.raises(InputError):
        1.5 * u
    for op in (lambda a, b: a + b, lambda a, b: a - b):
        with pytest.raises(InputError, match="length mismatch"):
            op(u, vec((1, 2, 3)))
    with pytest.raises(InputError, match="not integral"):
        vec(("1/2", 1)).int_coords()


def test_latvec_from_json_rationals():
    v = latvec_from_json([1, "3/2"])
    assert v.coords == (Fraction(1), Fraction(3, 2))
    assert not v.integral
    with pytest.raises(InputError):
        latvec_from_json([1, 2], rank=3)
    with pytest.raises(InputError):
        latvec_from_json("nope")


def test_lattice_validation():
    with pytest.raises(InputError):
        lattice(((1, 2), (3, 4)))  # not symmetric
    with pytest.raises(InputError):
        lattice(((1, 2),))  # not square
    with pytest.raises(InputError):
        lattice(((Fraction(1, 2),),))  # not integral
    with pytest.raises(InputError, match="^gram entry must be an integer$"):
        IntLattice(1, ((Fraction(1, 2),),))
    for gram in (5, [1, 2], None, "12", ["12", "21"], [[1], 2]):
        with pytest.raises(InputError, match="array of arrays"):
            lattice(gram)
        with pytest.raises(InputError, match="array of arrays"):
            lattice_from_json({"gram": gram})
    # a "label" key is ignored like any other unknown key
    lat = lattice_from_json({"gram": [[2, 3], [3, 0]], "label": "hyp"})
    assert lat == HYP and lat.gram == ((2, 3), (3, 0))
    with pytest.raises(InputError):
        lattice_from_json({"nope": 1})
    assert lattice_from_json({"gram": [[2, 3], [3, 0]], "rank": 2}) == HYP
    with pytest.raises(InputError, match="declared rank 3"):
        lattice_from_json({"gram": [[2, 3], [3, 0]], "rank": 3})
    # the refusal echoes the rank's integer, cut like any echoed value, not the raw text
    for rank, shown in (("3" + " " * 100_000, "3"), ("9" * 4000, "9" * 200 + "...")):
        with pytest.raises(InputError) as caught:
            lattice_from_json({"gram": [[2, 3], [3, 0]], "rank": rank})
        assert str(caught.value) == f"declared rank {shown} does not match gram size 2"


def test_ns_reader_reads_both_forms():
    assert ns_from_json({"e": 2, "d": 3}) == lattice(((2, 3), (3, 0))) == ns_from_json(
        {"gram": [[2, 3], [3, 0]]}
    )
    assert ns_from_json({"e": "-4", "d": "6/2"}) == lattice(((-4, 3), (3, 0)))
    assert ns_from_json({"gram": [[2]], "e": 4, "d": 1}) == lattice(((2,),))  # gram wins


def test_equal_gram_matrices_give_equal_lattices():
    assert EllipticNS(4, 1).lattice == lattice(((4, 1), (1, 0)))
    assert lattice([[2, 3], [3, 0]]) == HYP
    assert hash(lattice([[2, 3], [3, 0]])) == hash(HYP)
    assert lattice(((2, 3), (3, 2))) != HYP


def test_pair_and_norm():
    assert pair(HYP, vec((1, 0)), vec((0, 1))) == 3
    assert norm(HYP, vec((1, 0))) == 2
    assert norm(HYP, vec((0, 1))) == 0
    assert norm(HYP, vec((1, -1))) == 2 - 6
    assert pair(HYP, vec((Fraction(1, 2), 0)), vec((1, 0))) == 1
    with pytest.raises(InputError):
        pair(HYP, vec((1, 0, 0)), vec((0, 1)))


def test_pair_is_int_exactly_for_integral_vectors():
    half = vec((Fraction(1, 2), 0))
    assert type(vec((1, 2)).coords[0]) is int and type(half.coords[0]) is Fraction
    for u in (vec((1, 0)), vec((0, 0)), half):
        for v in (vec((2, -1)), vec((0, 0)), vec((1, "3/2"))):
            assert (type(pair(HYP, u, v)) is int) == (u.integral and v.integral)


def test_elliptic_lattice_is_cached():
    ns = EllipticNS(4, 1)
    assert ns.lattice is ns.lattice


def test_content_and_primitive():
    assert content(vec((4, 6))) == 2
    assert content(vec((0, 0))) == 0
    assert primitive_part(HYP, vec((4, 6))) == vec((2, 3))
    with pytest.raises(InputError):
        primitive_part(HYP, vec((0, 0)))


def test_saturation():
    lat = lattice(((2, 1, 0), (1, 0, 0), (0, 0, -2)))
    assert saturation_check(lat, vec((1, 0, 0)), vec((0, 1, 0)))
    assert not saturation_check(lat, vec((2, 0, 0)), vec((0, 2, 0)))
    with pytest.raises(InputError):
        saturation_check(lat, vec((1, 2, 0)), vec((2, 4, 0)))


def test_discriminant():
    assert discriminant(HYP) == -9
    assert discriminant(lattice(((2, 1), (1, 0)))) == -1
    assert discriminant(lattice(((0, 1), (1, 0)))) == -1  # zero pivot swap
    assert discriminant(lattice(((2, 0, 0), (0, 3, 0), (0, 0, -2)))) == -12
    assert discriminant(lattice(((1, 1), (1, 1)))) == 0
    assert discriminant(lattice(((0, 0), (0, 1)))) == 0  # pivot column all zero
    for m0 in range(4):
        for d in range(1, 5):
            assert discriminant(lattice(((2 * m0, d), (d, 0)))) == -d * d


def test_json_roundtrip():
    data = HYP.to_json_dict()
    assert lattice_from_json(data) == HYP
    v = vec((1, Fraction(1, 2)))
    assert latvec_from_json(v.to_json_dict()) == v


coords = st.lists(st.integers(-30, 30), min_size=2, max_size=4)
ratio = st.builds(lambda p, q: f"{p}/{q}", st.integers(-30, 30), st.integers(1, 6))
mixed_coords = st.lists(st.one_of(st.integers(-30, 30), ratio), min_size=2, max_size=4)


@given(st.integers(-6, 6), st.integers(-6, 6), st.integers(-6, 6),
       mixed_coords, mixed_coords, mixed_coords)
def test_pair_is_symmetric_and_bilinear(a, b, c, xs, ys, zs):
    n = min(len(xs), len(ys), len(zs))
    gram = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            gram[i][j] = gram[j][i] = (a * i + b * j + c) % 7 - 3
    lat = lattice(tuple(tuple(r) for r in gram))
    u, v, w = vec(xs[:n]), vec(ys[:n]), vec(zs[:n])
    fu, fw = [Fraction(x) for x in xs[:n]], [Fraction(z) for z in zs[:n]]
    assert pair(lat, u, w) == sum(fu[i] * gram[i][j] * fw[j] for i in range(n) for j in range(n))
    assert pair(lat, u, v) == pair(lat, v, u)
    assert pair(lat, u + v, w) == pair(lat, u, w) + pair(lat, v, w)
    assert pair(lat, a * u, w) == a * pair(lat, u, w)


@given(coords)
def test_primitive_part_has_content_one(xs):
    v = vec(xs)
    lat = lattice(tuple(tuple(2 if i == j else 0 for j in range(len(xs))) for i in range(len(xs))))
    if v.is_zero:
        with pytest.raises(InputError):
            primitive_part(lat, v)
    else:
        p = primitive_part(lat, v)
        assert content(p) == 1
        assert content(v) * p == v
