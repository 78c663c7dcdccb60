import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from hkmod import checks
from hkmod.errors import InputError
from hkmod.jsonio import to_rational
from hkmod.lattice import lattice, norm, pair, primitive_part, vec
from hkmod.walls import (
    EllipticNS,
    WallClass,
    as_elliptic,
    elliptic_from_json,
    enumerate_wall_classes,
    is_suitable,
    min_negative_norm,
    no_wall_threshold,
    orthogonal_wall,
    suitability_for,
    wall_ray,
    _wall,
    _wall_stream,
)


def wall_tuples(ns, a):
    return [
        (w.lam.int_coords(), w.norm, w.pair_h, w.pair_f)
        for w in enumerate_wall_classes(ns, a)
    ]


def test_elliptic_ns_validation():
    ns = EllipticNS(4, 1)
    assert ns.lattice.gram == ((Fraction(4), Fraction(1)), (Fraction(1), Fraction(0)))
    assert ns.q(ns.h) == 4
    assert ns.q(ns.h, ns.f) == 1
    with pytest.raises(InputError):
        EllipticNS(4, 0)
    with pytest.raises(InputError):
        EllipticNS(4, -2)
    with pytest.raises(InputError):
        EllipticNS(4.0, 1)
    with pytest.raises(InputError, match="d must be an integer"):
        EllipticNS(4, 1.0)
    assert elliptic_from_json({"e": 2, "d": 3}) == EllipticNS(2, 3)
    with pytest.raises(InputError):
        elliptic_from_json({"e": 2})


def test_as_elliptic_coercion():
    assert as_elliptic(EllipticNS(2, 3)) == EllipticNS(2, 3)
    assert as_elliptic(lattice(((4, 1), (1, 0)))) == EllipticNS(4, 1)
    with pytest.raises(InputError):
        as_elliptic(lattice(((2, 1), (1, 2))))
    with pytest.raises(InputError):
        as_elliptic(lattice(((2, -1), (-1, 0))))
    with pytest.raises(InputError):
        as_elliptic("ns")


def test_enumeration_frozen_small():
    assert wall_tuples(EllipticNS(2, 3), 6) == [
        ((1, -1), -4, -1, 3),
        ((2, -1), -4, 1, 6),
    ]
    assert wall_tuples(EllipticNS(6, 5), 20) == [
        ((1, -2), -14, -4, 5),
        ((1, -1), -4, 1, 5),
        ((3, -2), -6, 8, 15),
        ((8, -5), -16, 23, 40),
    ]
    assert wall_tuples(EllipticNS(8, 3), 10) == [
        ((1, -3), -10, -1, 3),
        ((1, -2), -4, 2, 3),
        ((2, -3), -4, 7, 6),
        ((5, -7), -10, 19, 15),
    ]


def test_enumeration_frozen_e4_d1():
    assert wall_tuples(EllipticNS(4, 1), 12) == [
        ((1, -8), -12, -4, 1),
        ((1, -7), -10, -3, 1),
        ((1, -6), -8, -2, 1),
        ((1, -5), -6, -1, 1),
        ((1, -4), -4, 0, 1),
        ((1, -3), -2, 1, 1),
        ((2, -7), -12, 1, 2),
        ((2, -5), -4, 3, 2),
        ((3, -8), -12, 4, 3),
        ((3, -7), -6, 5, 3),
        ((4, -9), -8, 7, 4),
        ((5, -11), -10, 9, 5),
        ((6, -13), -12, 11, 6),
    ]


def test_enumeration_count_and_rational_level():
    walls = enumerate_wall_classes(EllipticNS(2, 1), 40)
    assert len(walls) == 53
    assert all(-40 <= w.norm < 0 for w in walls)
    assert wall_tuples(EllipticNS(2, 1), Fraction(7, 2)) == [((1, -2), -2, 0, 1)]
    with pytest.raises(InputError):
        enumerate_wall_classes(EllipticNS(2, 1), 0)
    with pytest.raises(InputError):
        enumerate_wall_classes(EllipticNS(2, 1), Fraction(-1, 2))


def test_min_negative_norm_frozen():
    cases = {
        (2, 3): 4,
        (4, 31): 30,
        (2, 1): 2,
        (4, 1): 2,
        (6, 5): 4,
        (20, 50): 80,
        (2, 50): 98,
        (8, 3): 4,
    }
    for (e, d), expected in cases.items():
        ns = EllipticNS(e, d)
        assert min_negative_norm(ns) == expected, (e, d)
        bound = -((-2 * d) // (1 + e))
        assert expected >= bound
    assert min_negative_norm(EllipticNS(4, 1)) == 2
    assert min_negative_norm(EllipticNS(2, 3)) != 2
    with pytest.raises(InputError):
        min_negative_norm(EllipticNS(-2, 1))


def min_negative_norm_x_loop(e, d):
    """The O(d/gcd(e, 2d)) x-loop min_negative_norm used before its square-root split: for
    each x >= 1 up to the running best, the least |q| is x * ((-e*x) mod 2d, 0 read as 2d)."""
    best = None
    x = 1
    while best is None or x <= best:
        t0 = (-e * x) % (2 * d)
        if t0 == 0:
            t0 = 2 * d
        cand = x * t0
        if best is None or cand < best:
            best = cand
        x += 1
    return best


def test_min_negative_norm_matches_the_x_loop_exhaustively():
    for e in range(41):
        for d in range(1, 151):
            assert min_negative_norm(EllipticNS(e, d)) == min_negative_norm_x_loop(e, d), (e, d)


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 10**4), st.integers(1, 2 * 10**4))
def test_min_negative_norm_matches_the_x_loop_at_random(e, d):
    assert min_negative_norm(EllipticNS(e, d)) == min_negative_norm_x_loop(e, d)


def test_min_negative_norm_frozen_at_large_d():
    # the x-loop runs x up to 10^8 here, about 24 s
    assert min_negative_norm(EllipticNS(2, 50_000_000)) == 99_999_998


def test_no_wall_threshold_frozen():
    assert no_wall_threshold(4, 12) == 31
    assert no_wall_threshold(2, 6) == 10
    assert no_wall_threshold(2, Fraction(1, 2)) == 1
    assert no_wall_threshold(20, 40) == 421
    with pytest.raises(InputError):
        no_wall_threshold(2, 0)
    with pytest.raises(InputError):
        no_wall_threshold(-2, 5)


def test_suitability_reports():
    ns = EllipticNS(4, 1)
    rep = is_suitable(ns, 12)
    assert not rep.suitable
    assert not rep.generic
    assert [w.lam.int_coords() for w in rep.witnesses] == [
        (1, -8),
        (1, -7),
        (1, -6),
        (1, -5),
        (1, -4),
    ]
    assert all(w.pair_f > 0 >= w.pair_h for w in rep.witnesses)
    # same lattice, polarization moved deep into the cone: every wall on one side
    rep2 = suitability_for(ns, 12, vec((1, 5)))
    assert rep2.suitable and rep2.generic and rep2.witnesses == ()
    # wall set is empty, so trivially suitable and generic
    rep3 = is_suitable(EllipticNS(4, 31), 12)
    assert rep3.suitable and rep3.generic and rep3.witnesses == ()
    with pytest.raises(InputError):
        suitability_for(ns, 12, vec((0, 1)))
    # half-integral h: q((1, -3), h) = 1/2 is positive, not truncated to 0
    rep4 = suitability_for(ns, 4, vec((Fraction(1, 2), 0)))
    assert [w.lam.int_coords() for w in rep4.witnesses] == [(1, -4)]
    # h^perp holds one primitive class, (1, -4) of norm -4: a wall from level 4 on
    assert orthogonal_wall(ns, 12, ns.h) == WallClass(vec((1, -4)), -4, 0, 1)
    assert orthogonal_wall(ns, 4, vec(("1/2", 0))) == WallClass(vec((1, -4)), -4, 0, 1)
    assert orthogonal_wall(ns, "7/2", ns.h) is None
    assert orthogonal_wall(ns, 12, vec((1, 5))) is None
    with pytest.raises(InputError, match="polarization must have positive self-pairing"):
        orthogonal_wall(ns, 12, vec((0, 1)))
    with pytest.raises(InputError, match="level must be positive, got 0"):
        orthogonal_wall(ns, 0, ns.h)
    with pytest.raises(InputError, match="level must be positive, got -1/2"):
        orthogonal_wall(ns, "-1/2", ns.h)


def test_wall_ray():
    ns = EllipticNS(2, 3)
    assert wall_ray(ns, vec((1, -1))).int_coords() == (3, 1)
    assert wall_ray(ns, vec((-1, 1))).int_coords() == (3, 1)
    assert wall_ray(ns, enumerate_wall_classes(ns, 6)[0]).int_coords() == (3, 1)
    with pytest.raises(InputError):
        wall_ray(ns, vec((1, 0)))
    with pytest.raises(InputError):
        wall_ray(ns, vec((Fraction(1, 2), -1)))
    with pytest.raises(InputError):
        wall_ray(ns, vec((1, -1, 0)))


# levels as ints or as p/q with q <= 7, below 1 included
LEVELS = st.one_of(
    st.integers(1, 200),
    st.fractions(min_value=Fraction(1, 7), max_value=200, max_denominator=7),
)


@settings(max_examples=120, deadline=None)
@given(st.integers(-6, 12), st.integers(1, 8), LEVELS)
def test_enumeration_matches_brute_scan(e, d, a):
    ns = EllipticNS(e, d)
    found = enumerate_wall_classes(ns, a)
    assert [w.lam.int_coords() for w in found] == checks._brute_walls(e, d, a)
    lat = ns.lattice
    for w in found:
        assert w.norm == pair(lat, w.lam, w.lam)
        assert w.pair_h == pair(lat, w.lam, ns.h)
        assert w.pair_f == pair(lat, w.lam, ns.f)
        assert w.pair_f > 0
        ray = wall_ray(ns, w)
        assert pair(lat, ray, w.lam) == 0
        assert ns.q(ray) > 0


@settings(max_examples=80, deadline=None)
@given(st.integers(0, 10), st.integers(1, 30))
def test_min_norm_bound(half_e, d):
    e = 2 * half_e
    ns = EllipticNS(e, d)
    value = min_negative_norm(ns)
    assert value >= -((-2 * d) // (1 + e))
    # the reported minimum is achieved by some primitive class
    walls = enumerate_wall_classes(ns, value)
    assert walls and min(-w.norm for w in walls) == value


exact = st.integers(-6, 12) | st.builds("{}/{}".format, st.integers(-20, 40), st.integers(2, 5))
level = st.integers(1, 12) | st.builds("{}/{}".format, st.integers(1, 40), st.integers(2, 5))


def lattice_ray(ns, lam):
    """wall_ray's former route: flip lam to x > 0, then the lattice's primitive part of
    (d*x, -(e*x + d*y))."""
    x, y = lam.int_coords()
    if x < 0:
        x, y = -x, -y
    return primitive_part(ns.lattice, vec((ns.d * x, -(ns.e * x + ns.d * y))))


@settings(max_examples=200, deadline=None)
@given(st.integers(-6, 30), st.integers(1, 12), level, st.integers(-30, 30), st.integers(-30, 30))
def test_wall_ray_matches_lattice_route(e, d, a, x, y):
    ns = EllipticNS(e, d)
    lams = [w.lam for w in enumerate_wall_classes(ns, a)]
    if x * (e * x + 2 * d * y) < 0:
        lams.append(vec((x, y)))  # any class of negative norm, primitive or not
    else:
        with pytest.raises(InputError, match="negative norm"):
            wall_ray(ns, vec((x, y)))
    for lam in lams:
        for signed in (lam, -1 * lam):
            assert wall_ray(ns, signed) == lattice_ray(ns, signed)


@st.composite
def polarization(draw, ns):
    if draw(st.booleans()):
        return vec((draw(exact), draw(exact)))
    # orthogonal to the wall x*h + y*f, up to a rational multiple
    x, y = draw(st.integers(1, 4)), draw(st.integers(-12, 0))
    scale = draw(st.sampled_from((1, 2, Fraction(1, 2), Fraction(3, 2))))
    return scale * vec((ns.d * x, -(ns.e * x + ns.d * y)))


@settings(max_examples=300, deadline=None)
@given(st.data(), st.integers(-6, 10), st.integers(1, 6), level)
def test_one_pairing_rule_matches_two_sign_rule(data, e, d, a):
    ns = EllipticNS(e, d)
    h = data.draw(polarization(ns))
    if ns.q(h) > 0 and h.coords[0] > 0:  # h in the positive cone
        rep = suitability_for(ns, a, h)
        assert rep == checks._two_sign_suitability(ns, a, h)
        lat = ns.lattice
        box_orthogonal = [
            WallClass(lam, norm(lat, lam), pair(lat, lam, ns.h), pair(lat, lam, ns.f))
            for lam in map(vec, checks._brute_walls(e, d, to_rational(a)))
            if pair(lat, lam, h) == 0
        ]
        wall = orthogonal_wall(ns, a, h)
        assert box_orthogonal == ([] if wall is None else [wall])
        assert rep.generic == (wall is None)
    else:
        with pytest.raises(InputError):
            suitability_for(ns, a, h)
        with pytest.raises(InputError):
            orthogonal_wall(ns, a, h)


def test_two_sign_oracle_does_not_read_the_enumeration(monkeypatch):
    ns, h = EllipticNS(2, 3), vec((12, -3))
    want = checks._two_sign_suitability(ns, 6, h)
    monkeypatch.setattr(
        "hkmod.walls._wall_stream", lambda e, d, a: iter(list(_wall_stream(e, d, a))[:-1])
    )
    assert suitability_for(ns, 6, h) != want  # the dropped wall is a witness
    assert checks._two_sign_suitability(ns, 6, h) == want


def test_wall_stream_is_lazy():
    # the rows of this level hold more walls than memory does; the first row is at x = 1
    assert next(_wall_stream(4, 1, 10**12)) == (1, -500000000002)
    assert _wall(4, 1, 1, -500000000002).norm == -10**12
    with pytest.raises(InputError):
        _wall_stream(4, 1, 0).__next__()


@pytest.mark.parametrize("e, d, a, h", [
    (4, 50, 20000, (1, 50)),  # 1,191 walls, 150 of them witnesses
    (4, 50, 20000, (1, 0)),  # 596 witnesses of h itself, which is not generic
    (2, 3, 6, ("1/2", "-1/8")),  # both walls are witnesses
    (6, 7, 40, (1, 9)),  # suitable: none of the 7 walls is a witness
])
def test_suitability_builds_a_wall_only_for_a_witness(monkeypatch, e, d, a, h):
    ns, h = EllipticNS(e, d), vec(h)
    want = suitability_for(ns, a, h)
    built = []

    def counted(*row):
        built.append(row)
        return _wall(*row)

    monkeypatch.setattr("hkmod.walls._wall", counted)
    assert suitability_for(ns, a, h) == want
    assert len(built) == len(want.witnesses) + 1  # and orthogonal_wall's one


def peak_bytes(call):
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_suitability_holds_only_the_witnesses():
    # 1,191 walls, of which 150 are witnesses of h: those with 4*x + 50*y + 2500*x <= 0
    ns, a, h = EllipticNS(4, 50), 20000, vec((1, 50))
    assert peak_bytes(lambda: suitability_for(ns, a, h)) < peak_bytes(
        lambda: enumerate_wall_classes(ns, a)
    ) / 2
