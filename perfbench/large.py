"""`large`: a fixed list of heavy single computations.

Each call costs hkmod as it stands about 0.1 to 1 s, spent in the
algorithm rather than in per-call overhead: the (2n-1)!! matching sum
at n = 6, the O(a) wall scans at a near 10^5, the O(d) minimal-norm
loop, the O(root) power scan, and the minimal-d search at r0 >= 6,
which hits the default cap at once on hkmod as it stands. The seed
varies the inputs only within ranges of equal cost.
"""

from __future__ import annotations

import random
from fractions import Fraction
from math import gcd

import oracle as ref
from common import Op


def _generic_classes(rng: random.Random, gram, count: int) -> list[tuple[int, ...]]:
    """Classes whose pairings are all nonzero, so no matching is cut short."""
    while True:
        classes = [tuple(rng.randint(-3, 3) for _ in range(3)) for _ in range(count)]
        if all(ref.gram_pair(gram, u, w) for u in classes for w in classes):
            return classes


def build(seed: int, limit: int | None = None) -> list[Op]:
    rng = random.Random(f"large:{seed}")
    ops = []

    gram = [[2 * rng.randint(1, 3) if i == j else 0 for j in range(3)] for i in range(3)]
    for i, j in ((0, 1), (0, 2), (1, 2)):
        gram[i][j] = gram[j][i] = rng.randint(-2, 2)
    gram = tuple(map(tuple, gram))
    classes = _generic_classes(rng, gram, 12)
    ops.append(Op(
        "top_intersection_n6",
        lambda L: L.fujiki.top_intersection(
            L.fujiki.FujikiSetup.for_kind("K3^[6]", L.lattice.lattice(gram)),
            [L.lattice.vec(c) for c in classes]),
        lambda: ref.top_intersection(1, gram, classes),
    ))

    e, d = rng.choice((2, 4, 6)), rng.randint(2, 5)
    fiber_gram = ((e, d), (d, 0))
    while True:  # only the pairings with f vanish, as in every draw
        lam, h = (rng.randint(1, 3), rng.randint(-3, 3)), (1, rng.randint(0, 3))
        if all(ref.gram_pair(fiber_gram, u, w) for u, w in ((lam, lam), (lam, h), (h, h))):
            break
    fiber_classes = [lam] + [h] * 5 + [(0, 1)] * 6
    ops.append(Op(
        "fiber_restriction_n6",
        lambda L: L.fujiki.fiber_restriction_integral(
            L.fujiki.FujikiSetup.for_kind("K3^[6]", L.walls.EllipticNS(e, d).lattice),
            L.lattice.vec(lam), L.lattice.vec(h), L.lattice.vec((0, 1))),
        lambda: ref.top_intersection(1, fiber_gram, fiber_classes),
    ))

    we, wd, wa = rng.choice((2, 4)), rng.randint(900, 1100), 100_000 + rng.randint(0, 99)
    ops.append(Op(
        "enumerate_wall_classes_a1e5",
        lambda L: [(*w.lam.int_coords(), w.norm, w.pair_h, w.pair_f)
                   for w in L.walls.enumerate_wall_classes(L.walls.EllipticNS(we, wd), wa)],
        lambda: ref.wall_classes(we, wd, wa),
    ))

    te, ta = rng.choice((2, 4)), 70_000 + rng.randint(0, 99)

    def threshold():
        d = Fraction(ta * (1 + te), 2) // 1 + 1
        if ref.wall_classes(te, d, ta):
            raise RuntimeError(f"reference threshold {d} leaves walls at level {ta}")
        return d

    ops.append(Op(
        "no_wall_threshold_a7e4",
        lambda L: L.walls.no_wall_threshold(te, ta),
        threshold,
    ))

    md = 1_000_000 + rng.randint(0, 999)
    ops.append(Op(
        "min_negative_norm_e0_d1e6",
        lambda L: L.walls.min_negative_norm(L.walls.EllipticNS(0, md)),
        lambda: ref.min_negative_norm(0, md),
    ))

    r, v_sq = 10, 1800 + 2 * rng.randint(0, 50)
    a_v = Fraction(r * r * (v_sq + 2 * r * r), 4)
    ne = rng.choice((2, 4, 6))
    nd = int(Fraction(ne + 1) * a_v / 2) + 1
    if nd % ne == 0:
        nd += 1
    ops.append(Op(
        "nl_k3_admissible_a5e4",
        lambda L: L.nl.nl_k3_admissible(ne, nd, L.mukai.MukaiNumerics.from_square(r, v_sq)).to_json_dict(),
        lambda: ref.nl_k3(ne, nd, a_v),
    ))

    big_r = rng.randint(640, 660)
    pa = next(p for p in (7, 11, 13, 17) if gcd(p, big_r) == 1)
    pd2 = big_r * 2_500_000
    ops.append(Op(
        "potenza_solve_scan1e6",
        lambda L: L.hilb2.potenza_solve(2, 1, pd2, big_r, pa),
        lambda: ref.potenza(2, 1, pd2, big_r, pa),
    ))

    r0 = rng.choice((6, 7, 8))
    e0 = next(e for e in range(2, 10_000, 2) if ref.econ_passes(r0, e))
    i0 = ref.governing_divisibility(r0)
    ops.append(Op(
        f"buonacompt_min_d_r0={r0}_e={e0}",
        lambda L: L.nl.buonacompt_min_d(r0, e0, i0),
        lambda: ref.min_d(r0, e0, i0),
    ))
    return ops[:limit] if limit else ops


def warm(L, ops: list[Op]) -> None:
    """Call every routine once at tiny sizes, so the first timed pass pays no first-call costs."""
    ns = L.walls.EllipticNS(2, 3)
    h, f = L.lattice.vec((1, 0)), L.lattice.vec((0, 1))
    setup = L.fujiki.FujikiSetup.for_kind("K3^[1]", ns.lattice)
    L.fujiki.top_intersection(setup, [h, f])
    L.fujiki.fiber_restriction_integral(setup, h, h, f)
    L.walls.enumerate_wall_classes(ns, 10)
    L.walls.no_wall_threshold(2, 10)
    L.walls.min_negative_norm(ns)
    L.nl.nl_k3_admissible(2, 101, L.mukai.MukaiNumerics.from_square(2, 2))
    L.hilb2.potenza_solve(2, 1, 6, 6, 5)
    L.nl.buonacompt_min_d(2, 6, 2)
