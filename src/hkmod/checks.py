"""The self-checks that `verify-all` runs, grouped by module.

Every check re-derives an identity from first principles on small or
random inputs, so a corrupted constant or a broken formula anywhere in
the package turns at least one check red. Each check is a module-level
function `name(rng)` whose name is the check's name; SUITES lists them
per suite, in the order they run and report. The runner in
`hkmod.verify` gives each check its own generator. The brute-force
oracles the checks compare against live here too, for the tests to
import.
"""

from __future__ import annotations

import random
from fractions import Fraction
from itertools import product
from math import floor, gcd

from . import fujiki, hilb2, mukai, nl, pipelines, reduction, walls
from .errors import NoAdmissibleParameter
from .jsonio import canonical_json, to_rational
from .lattice import (
    content,
    discriminant,
    lattice,
    norm,
    pair,
    primitive_part,
    saturation_check,
    vec,
)
from .mukai import MukaiVector, from_chern, mukai_square, normalize_twist, numerics, twist_by_mf
from .report import Check, TheoremReport


def _rand_sym(rng: random.Random, n: int, lo: int = -5, hi: int = 5) -> tuple:
    rows = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            rows[i][j] = rows[j][i] = rng.randint(lo, hi)
    return tuple(tuple(r) for r in rows)


def _rand_even_sym(rng: random.Random, n: int) -> tuple:
    rows = [list(r) for r in _rand_sym(rng, n)]
    for i in range(n):
        rows[i][i] = 2 * rng.randint(-4, 4)
    return tuple(tuple(r) for r in rows)


def _rand_vec(rng: random.Random, n: int):
    return vec(tuple(rng.randint(-5, 5) for _ in range(n)))


def pairing_bilinear_symmetric(rng):
    for _ in range(200):
        n = rng.randint(1, 4)
        lat = lattice(_rand_sym(rng, n))
        u = vec(tuple(rng.randint(-6, 6) for _ in range(n)))
        v = vec(tuple(rng.randint(-6, 6) for _ in range(n)))
        w = vec(tuple(rng.randint(-6, 6) for _ in range(n)))
        c = rng.randint(-3, 3)
        if pair(lat, u, v) != pair(lat, v, u):
            return False, {"gram": lat.gram}
        if pair(lat, u + c * v, w) != pair(lat, u, w) + c * pair(lat, v, w):
            return False, {"gram": lat.gram}
    return True


def rank2_discriminant(rng):
    for m0 in range(0, 8):
        for d in range(1, 8):
            lat = lattice(((2 * m0, d), (d, 0)))
            if discriminant(lat) != -d * d:
                return False, {"m0": m0, "d": d}
    return True


def primitive_part_idempotent(rng):
    for _ in range(200):
        n = rng.randint(1, 4)
        lat = lattice(_rand_sym(rng, n))
        coords = tuple(rng.randint(-9, 9) for _ in range(n))
        if all(c == 0 for c in coords):
            continue
        p = primitive_part(lat, vec(coords))
        if content(p) != 1 or primitive_part(lat, p) != p:
            return False, {"coords": coords}
    return True


def saturation_detects_imprimitive_span(rng):
    lat = lattice(((2, 1, 0), (1, 0, 0), (0, 0, -2)))
    u, v = vec((1, 0, 0)), vec((0, 1, 0))
    if not saturation_check(lat, u, v):
        return False, {}
    return not saturation_check(lat, 2 * u, v)


def constants_table(rng):
    expect = [("K3", 1), ("OG6", 4)]
    expect += [(f"K3^[{n}]", 1) for n in range(1, 7)]
    expect += [(f"Kum_{n}", n + 1) for n in range(1, 7)]
    for kind, value in expect:
        if fujiki.fujiki_constant(kind) != value:
            return False, {"kind": kind, "expected": value}
    return True


def matchings_count_double_factorial(rng):
    for k in range(1, 5):
        got = sum(1 for _ in fujiki.perfect_matchings(2 * k))
        if got != fujiki.double_factorial(2 * k - 1):
            return False, {"k": k, "count": got}
    return True


def top_power_closed_form(rng):
    for _ in range(20):
        n = rng.randint(1, 3)
        lat = lattice(_rand_sym(rng, 2))
        setup = fujiki.FujikiSetup(n=n, c_x=Fraction(rng.randint(1, 4)), pairing=lat)
        h = vec((rng.randint(-3, 3), rng.randint(-3, 3)))
        got = fujiki.top_intersection(setup, [h] * (2 * n))
        want = setup.c_x * fujiki.double_factorial(2 * n - 1) * norm(lat, h) ** n
        if got != want:
            return False, {"gram": lat.gram, "n": n}
    return True


def _walked_matchings_sum(q_values, classes) -> int | Fraction:
    """The slow path of fujiki.matchings_sum: the explicit sum over every perfect matching."""
    total = 0
    for matching in fujiki.perfect_matchings(len(classes)):
        term = 1
        for i, j in matching:
            term *= q_values(classes[i], classes[j])
        total += term
    return total


def matchings_sum_permutation_invariant(rng):
    """The top intersection does not read the order of its classes, and the multiplicity
    recursion of matchings_sum equals the matching walk, on distinct and repeated classes."""
    lat = lattice(((4, 1), (1, 0)))
    setup = fujiki.FujikiSetup(n=2, c_x=Fraction(3), pairing=lat)
    classes = [vec((1, 0)), vec((0, 1)), vec((1, -1)), vec((2, 3))]
    h, f, lam = classes[:3]
    for sample in (classes, [h, h, f, f], [lam, h, h, h], [h, f, h, lam, f, h]):
        if fujiki.matchings_sum(setup.q, sample) != _walked_matchings_sum(setup.q, sample):
            return False, {"classes": [c.to_json_dict() for c in sample]}
    base = fujiki.top_intersection(setup, classes)
    for _ in range(10):
        rng.shuffle(classes)
        if fujiki.top_intersection(setup, classes) != base:
            return False, {}
    return True


def fiber_integral_closed_form(rng):
    for e in (2, 4, 6):
        for d in (1, 2, 5):
            lat = lattice(((e, d), (d, 0)))
            for n in (2, 3):
                setup = fujiki.FujikiSetup(n=n, c_x=Fraction(n + 1), pairing=lat)
                lam, h, f = vec((rng.randint(-4, 4), rng.randint(-4, 4))), vec((1, 0)), vec((0, 1))
                closed = fujiki.fiber_restriction_integral(setup, lam, h, f)
                if closed != fujiki.top_intersection(setup, [lam] + [h] * (n - 1) + [f] * n):
                    return False, {"e": e, "d": d, "n": n, "closed": closed}
    return True


def modular_integral_scales_linearly(rng):
    lat = lattice(((6, 1), (1, 0)))
    setup = fujiki.FujikiSetup(n=2, c_x=Fraction(1), pairing=lat)
    h = vec((1, 0))
    a1 = fujiki.modular_delta_integral(setup, 30, [h, h])
    a2 = fujiki.modular_delta_integral(setup, 60, [h, h])
    return a2 == 2 * a1 and a1 == 180, {"a1": a1}


def semistable_bound_interval(rng):
    lat = lattice(((2, 1), (1, 0)))
    setup = fujiki.FujikiSetup(n=2, c_x=Fraction(1), pairing=lat)
    lo = -Fraction(4 * 8, 4)
    inside = fujiki.propsemi_bound_check(setup, 2, 8, lo)
    zero = fujiki.propsemi_bound_check(setup, 2, 8, 0)
    below = fujiki.propsemi_bound_check(setup, 2, 8, lo - 1)
    above = fujiki.propsemi_bound_check(setup, 2, 8, 1)
    return inside and zero and not below and not above


def discriminant_decomposition_balance(rng):
    for _ in range(40):
        n = rng.randint(2, 3)
        lat = lattice(_rand_sym(rng, 2))
        c_x = Fraction(rng.randint(1, 4))
        setup = fujiki.FujikiSetup(n=n, c_x=c_x, pairing=lat)
        q_h = rng.randint(1, 9)
        r_e, r_g = rng.randint(1, 4), rng.randint(1, 4)
        r_f = r_e + r_g
        d_e, d_g = Fraction(rng.randint(0, 30)), Fraction(rng.randint(0, 30))
        lam_sq = rng.randint(-20, 0)
        # middle constant chosen so the decomposition balances
        d_f = (Fraction(r_f * r_g) * d_e + Fraction(r_f * r_e) * d_g - c_x * lam_sq) / (r_e * r_g)
        scale = fujiki.double_factorial(2 * n - 3) * Fraction(q_h) ** (n - 1)
        lhs, rhs = fujiki.discriminant_sum_identity(
            setup, q_h, r_e, d_e * scale, r_g, d_g * scale, d_f, lam_sq
        )
        if lhs != rhs:
            return False, {"n": n, "q_h": q_h}
    return True


def square_even_on_even_lattices(rng):
    for _ in range(100):
        n = rng.randint(1, 3)
        lat = lattice(_rand_even_sym(rng, n))
        v = MukaiVector(rng.randint(0, 4), _rand_vec(rng, n), rng.randint(-5, 5))
        if mukai_square(lat, v) % 2:
            return False, {"gram": lat.gram}
    return True


def twist_preserves_square(rng):
    lat = lattice(((4, 1), (1, 0)))
    f = vec((0, 1))
    for _ in range(100):
        v = MukaiVector(rng.randint(1, 5), _rand_vec(rng, 2), rng.randint(-5, 5))
        m = rng.randint(-4, 4)
        w = twist_by_mf(lat, v, m, f)
        if mukai_square(lat, w) != mukai_square(lat, v):
            return False, {}
    return True


def normalize_recovers_twist(rng):
    lat = lattice(((2, 1), (1, 0)))
    f = vec((0, 1))
    for _ in range(100):
        r = rng.randint(1, 5)
        x = rng.randint(-5, 5)
        if gcd(r, x) != 1:
            continue
        v = MukaiVector(r, vec((x, rng.randint(-5, 5))), rng.randint(-5, 5))
        m = rng.randint(-4, 4)
        w = twist_by_mf(lat, v, m, f)
        if normalize_twist(lat, v, w, f) != m:
            return False, {"r": r, "m": m}
    return True


def chern_dictionary_cases(rng):
    lat = lattice(((2, 1), (1, 0)))
    zero = vec((0, 0))
    if from_chern(lat, 1, zero, 0) != MukaiVector(1, zero, 1):
        return False, {"case": "structure sheaf"}
    if from_chern(lat, 1, zero, 3) != MukaiVector(1, zero, -2):
        return False, {"case": "colength 3"}
    if from_chern(lat, 2, zero, 2) != MukaiVector(2, zero, 0):
        return False, {"case": "rank 2"}
    h = vec((1, 0))
    got = from_chern(lat, 2, h, 1)
    return got == MukaiVector(2, h, 2), {"got": got.to_json_dict()}


def derived_numerics_identities(rng):
    lat = lattice(((4, 1), (1, 0)))
    for _ in range(100):
        v = MukaiVector(rng.randint(1, 5), _rand_vec(rng, 2), rng.randint(-5, 5))
        num = numerics(lat, v)
        if num.delta != num.v_square + 2 * v.r * v.r:
            return False, {}
        if 4 * num.a_v != v.r * v.r * num.delta:
            return False, {}
        if 2 * (num.n_v - 1) != num.v_square:
            return False, {}
    return True


def _brute_walls(e: int, d: int, a: Fraction) -> list[tuple[int, int]]:
    out = []
    x = 1
    while x <= a:
        # -a <= x*(e*x + 2*d*y) < 0 with x >= 1 forces -a - e*x <= 2*d*y < -e*x
        for y in range((-a - e * x) // (2 * d) - 1, -((e * x) // (2 * d)) + 2):
            q = x * (e * x + 2 * d * y)
            if -a <= q < 0 and gcd(x, abs(y)) == 1:
                out.append((x, y))
        x += 1
    return sorted(out)


def _sign(x) -> int:
    return (x > 0) - (x < 0)


def _two_sign_suitability(ns, a, h) -> walls.SuitabilityReport:
    """The rule walls.suitability_for used before it read one pairing:
    a wall witnesses unsuitability when h and f pair with it to different signs.
    The walls come from the box scan _brute_walls, not from the enumeration under test."""
    lat = ns.lattice
    witnesses, generic = [], True
    for lam in map(vec, _brute_walls(ns.e, ns.d, to_rational(a))):
        ph, pf = pair(lat, lam, h), pair(lat, lam, ns.f)
        generic = generic and ph != 0
        if _sign(ph) != _sign(pf):
            witnesses.append(walls.WallClass(lam, norm(lat, lam), pair(lat, lam, ns.h), pf))
    return walls.SuitabilityReport(not witnesses, generic, tuple(witnesses))


def enumeration_matches_box_scan(rng):
    for e in (2, 4):
        for d in (1, 3):
            for a in (Fraction(6), Fraction(12), Fraction(7, 2)):
                ns = walls.EllipticNS(e, d)
                got = [tuple(w.lam.int_coords()) for w in walls.enumerate_wall_classes(ns, a)]
                if got != _brute_walls(e, d, a):
                    return False, {"e": e, "d": d, "a": a}
    return True


def wall_fields_match_lattice(rng):
    ns = walls.EllipticNS(4, 3)
    lat = ns.lattice
    for w in walls.enumerate_wall_classes(ns, 25):
        if w.norm != norm(lat, w.lam):
            return False, {}
        if w.pair_h != pair(lat, w.lam, ns.h) or w.pair_f != pair(lat, w.lam, ns.f):
            return False, {}
    return True


def threshold_guarantees_empty(rng):
    for e in (0, 2, 4, 8):
        for a in (Fraction(3), Fraction(12), Fraction(5, 2)):
            thr = walls.no_wall_threshold(e, a)
            for d in (thr, thr + 1, thr + 5):
                if next(walls._wall_stream(e, d, a), None):
                    return False, {"e": e, "a": a, "d": d}
    return True


def min_negative_norm_brute_force(rng):
    for e in (0, 2, 4, 6):
        for d in range(1, 8):
            ns = walls.EllipticNS(e, d)
            got = walls.min_negative_norm(ns)
            best = min(
                -(x * (e * x + 2 * d * y))
                for x in range(1, 2 * d + 2)
                for y in range(-4 * (e + 2 * d), 4 * (e + 2 * d))
                if x * (e * x + 2 * d * y) < 0
            )
            if got != best:
                return False, {"e": e, "d": d, "got": got, "best": best}
    return True


def rays_orthogonal_positive_primitive(rng):
    ns = walls.EllipticNS(4, 1)
    for w in walls.enumerate_wall_classes(ns, 12):
        ray = walls.wall_ray(ns, w)
        if ns.q(ray, w.lam) != 0 or ns.q(ray) <= 0 or content(ray) != 1:
            return False, {"wall": w.to_json_dict()}
    return True


def unsuitability_witnesses_violate_signs(rng):
    """is_suitable against the sign rule, and orthogonal_wall against the
    box-scan walls that pair to 0 with h: for h itself and for "p/q"
    polarizations orthogonal to the first and last wall and to the class
    (1, y - 1) just beyond the level, (1, y) being the first wall."""
    for e, d, a in ((2, 3, 6), (4, 1, 12), (6, 5, 20)):
        ns = walls.EllipticNS(e, d)
        if walls.is_suitable(ns, a) != _two_sign_suitability(ns, a, ns.h):
            return False, {"e": e, "d": d}
        lat = ns.lattice
        box = _brute_walls(e, d, Fraction(a))
        perps = [vec((Fraction(d * x, 2), Fraction(-(e * x + d * y), 2)))
                 for x, y in (box[0], box[-1], (1, box[0][1] - 1))]
        for h in (ns.h, *perps):
            want = [walls.WallClass(lam, norm(lat, lam), pair(lat, lam, ns.h), pair(lat, lam, ns.f))
                    for lam in map(vec, box) if pair(lat, lam, h) == 0]
            wall = walls.orthogonal_wall(ns, a, h)
            if ([] if wall is None else [wall]) != want:
                return False, {"e": e, "d": d, "h": h.to_json_dict()}
    return True


def bezout_pair_sweep(rng):
    for r in range(2, 41):
        for k in range(-20, 21):
            if gcd(r, k) != 1:
                continue
            r0, d0 = reduction.bezout_r0_d0(r, k)
            if not (0 < r0 < r and k * r0 - r * d0 == 1):
                return False, {"r": r, "k": k}
            hom = reduction.hom_count_check(k, r, r0, d0)
            if hom.value != 1 or not hom.is_bezout_pair:
                return False, {"r": r, "k": k}
    return True


def rigid_vector_square_minus_two(rng):
    for _ in range(200):
        e = 2 * rng.randint(1, 5)
        d = rng.randint(1, 6)
        lat = lattice(((e, d), (d, 0)))
        r = rng.randint(2, 5)
        l = vec((rng.randint(-4, 4), rng.randint(-4, 4)))
        v = MukaiVector(r, l, rng.randint(-4, 4))
        k = pair(lat, l, vec((0, 1)))
        if gcd(r, k) != 1 or mukai_square(lat, v) < -2:
            continue
        w = reduction.rigid_vector(lat, v, vec((0, 1)))
        if mukai_square(lat, w) != -2 or w.r != r:
            return False, {"v": v.to_json_dict()}
    return True


def modification_drop_law(rng):
    lat = lattice(((4, 1), (1, 0)))
    f = vec((0, 1))
    for _ in range(200):
        r = rng.randint(2, 5)
        w = MukaiVector(r, vec((rng.randint(1, 6), rng.randint(-4, 4))), rng.randint(-4, 4))
        k = pair(lat, w.l, f)
        r_b = rng.randint(1, r - 1)
        lo = None
        for deg in range(-6, 7):
            if r_b * k - r * deg > 0:
                lo = deg
        if lo is None:
            continue
        step = reduction.ModificationStep(r_b, lo)
        out = reduction.elementary_modification(lat, w, step, f)
        want = mukai_square(lat, w) - 2 * (r_b * k - r * lo)
        if mukai_square(lat, out) != want:
            return False, {}
    return True


def coprime_fiber_bundle_cases(rng):
    good = reduction.atiyah_exists(3, 5)
    bad = reduction.atiyah_exists(4, 6)
    return good.exists and good.unique and not bad.exists and not bad.unique


def nonlocally_free_dimension_identity(rng):
    lat = lattice(((2, 1), (1, 0)))
    for _ in range(100):
        r = rng.randint(1, 5)
        v = MukaiVector(r, vec((rng.randint(-4, 4), rng.randint(-4, 4))), rng.randint(-4, 4))
        dlen = rng.randint(1, 6)
        lhs, rhs = reduction.nonlocally_free_dim_identity(lat, v, dlen)
        n = mukai_square(lat, v) // 2 + 1
        if lhs != rhs:
            return False, {}
        if (lhs < 2 * n) != (r >= 2):
            return False, {"r": r, "dlen": dlen}
    return True


def _brute_min_d(r0: int, e: int, i: int) -> int | None:
    """Smallest d above the bound (5/16)*r0^6*(r0^2-1)*(e+1) with i | d and e not dividing 2d,
    by scanning; None when no d qualifies."""
    start = 5 * r0**6 * (r0**2 - 1) * (e + 1) // 16 + 1
    # both conditions depend on d mod i*e only, so one period decides
    return next((d for d in range(start, start + i * e) if d % i == 0 and 2 * d % e != 0), None)


def _brute_min_d0(m0: int, r0: int) -> int:
    """Smallest d0 above the bound (2*m0+1)*r0^2*(r0^2-1)/4 coprime to r0, by scanning the box
    floor(bound) - r0 < d0 <= floor(bound) + r0: the r0 integers above floor(bound)
    include one that is 1 mod r0."""
    bound = Fraction((2 * m0 + 1) * r0**2 * (r0**2 - 1), 4)
    top = floor(bound) + r0
    return min(d0 for d0 in range(top - 2 * r0 + 1, top + 1) if d0 > bound and gcd(d0, r0) == 1)


def isotropic_ray_unique_iff_indivisible(rng):
    for e in (2, 4, 6, 8, 10, 12):
        for d in range(1, 41):
            rep = nl.nef_isotropic_classes(e, d)
            if rep.unique != (2 * d % e != 0):
                return False, {"e": e, "d": d}
            x, y = rep.alpha.coords
            if x * (e * x + 2 * d * y) != 0 or rep.pairing_alpha_h != d * e // gcd(2 * d, e):
                return False, {"e": e, "d": d}
            if rep.e_divides_d != (d % e == 0):
                return False, {"e": e, "d": d}
    return True


def min_d_search_is_minimal(rng):
    for r0, e, want in ((2, 6, 420), (3, 2, Fraction(10935, 2)), (4, 22, 441600)):
        if nl.buonacompt_bound(r0, e) != want:
            return False, {"r0": r0, "e": e, "bound": nl.buonacompt_bound(r0, e), "want": want}
    for r0, e, i in ((2, 6, 2), (1, 4, 1), (2, 22, 2)):
        got, want = nl.buonacompt_min_d(r0, e, i), _brute_min_d(r0, e, i)
        if got != want:
            return False, {"r0": r0, "e": e, "got": got, "want": want}
    return True


def min_d0_search_is_minimal(rng):
    for m0, r0, want in ((1, 2, 9), (2, 3, 90)):
        if nl.rigsuk_bound(m0, r0) != want:
            return False, {"m0": m0, "r0": r0, "bound": nl.rigsuk_bound(m0, r0), "want": want}
    for m0 in range(0, 6):
        for r0 in range(1, 7):
            got, want = nl.rigsuk_min_d0(m0, r0), _brute_min_d0(m0, r0)
            if got != want:
                return False, {"m0": m0, "r0": r0, "got": got, "want": want}
    return True


def admissibility_examples(rng):
    num = mukai.MukaiNumerics.from_square(2, 4)
    if not nl.nl_k3_admissible(4, 31, num).ok:
        return False, {"case": 31}
    if next(walls._wall_stream(4, 31, num.a_v), None):
        return False, {"case": "31 walls"}
    if nl.nl_k3_admissible(4, 30, num).ok or nl.nl_k3_admissible(4, 32, num).ok:
        return False, {"case": "30/32"}
    if not nl.nl_hk_admissible(6, 74, 2).ok or nl.nl_hk_admissible(6, 72, 2).ok:
        return False, {"case": "hk"}
    if not nl.nl_hk_admissible(6, 71, 1).ok:
        return False, {"case": "hk 71"}
    # the joint condition is the hk condition, an empty wall set at level a0, and gcd(m*i, d/i) = 1
    for e, i, a0, m in product((6, 8), (1, 2), (Fraction(7, 2), Fraction(60)), (1, 3)):
        thr = walls.no_wall_threshold(e, a0)
        start = max(thr, 10 * (e + 1)) // i * i
        for d in range(start - 2 * i, start + 3 * i, i):
            want = nl.nl_hk_admissible(e, d, i).ok and d >= thr and gcd(m * i, d // i) == 1
            if nl.propriostab_admissible(e, d, i, a0, m).ok != want:
                return False, {"case": "propriostab", "e": e, "d": d, "i": i, "a0": a0, "m": m}
    if not nl.propriostab_admissible(6, 74, 2, 12, 1).ok:
        return False, {"case": "propriostab 74"}
    if next(walls._wall_stream(6, 74, 12), None):
        return False, {"case": "propriostab 74 walls"}
    return True


def _brute_potenza(n: int, d1: int, d2: int, r: int, a: int) -> list[int]:
    out = []
    r0 = 1
    # an accepted r0 has r0^n = r*g1*g2 <= r*d1*d2
    while r0**n <= r * d1 * d2:
        g1, g2 = gcd(r0, d1), gcd(r0, d2)
        if r0**n == r * g1 * g2 and r0 ** (n - 1) % (g1 * g2) == 0:
            if gcd(r, a) == r0 ** (n - 1) // (g1 * g2):
                out.append(r0)
        r0 += 1
    return out


def twist_numerics_integral_sweep(rng):
    count = 0
    for r0 in range(1, 9):
        i = hilb2.governing_divisibility(r0)
        for e in range(1, 401):
            # the class is where the '+' m0 = num/den and s0 = (m0 + 1)/r0 are integral, of type i
            num, den = (2 * e + (r0 - 1) ** 2, 4) if r0 % 2 else (e + 2 * (r0 - 1) ** 2, 8)
            integral = num % den == 0 and (num // den + 1) % r0 == 0
            typed = not integral or hilb2.divisibility_type(e, i)
            if hilb2.econ_check(r0, e) != integral or not typed:
                return False, {"r0": r0, "e": e, "integral": integral}
            if not integral:
                continue
            for sign in ("+", "-"):
                m0, s0 = hilb2.m0_s0(r0, e, sign)
                shift = r0 - 1 if sign == "+" else r0 + 1
                want = (4 * e if r0 % 2 else e) + 2 * shift * shift  # 8 * (e/2 or e/8 + shift^2/4)
                h = hilb2.h_polarization(r0, i, sign)
                if 8 * m0 != want or (m0 + 1) != s0 * r0 or 2 * h.coords[2] != -i * shift:
                    return False, {"r0": r0, "e": e, "sign": sign}
            count += 1
    return count > 0, {"cases": count}


def exterior_square_invariants_closed_form(rng):
    for r0 in range(1, 31):
        inv = hilb2.f2_invariants(r0)
        if inv.rank != r0 * r0 or 12 * inv.delta_coeff != inv.rank * (inv.rank - 1):
            return False, {"r0": r0}
        if 8 * inv.a_mod != 5 * r0**6 * (inv.rank - 1):
            return False, {"r0": r0}
        if 4 * inv.a_mod != inv.rank * inv.rank * inv.d_mod:
            return False, {"r0": r0}
    return True


def _rosetta_from_parts(r0: int, i: int, e: int, d0: int) -> TheoremReport:
    """The report rosetta_check owes a case whose identities all hold: each check passes on
    the values its identity names."""
    h, f = hilb2.h_polarization(r0, i), vec((0, 1, 0))
    checks = (
        Check("q_h_equals_e", True, {"q_h": e, "e": e}),
        Check("divisibility_equals_i", True, {"div": i, "i": i}),
        Check("q_h_f_equals_i_d0", True, {"q_h_f": i * d0, "i*d0": i * d0}),
        Check("q_f_zero", True, {"q_f": 0}),
        Check("h_f_saturated", True, {"h": h.to_json_dict(), "f": f.to_json_dict()}),
    )
    data = {"r0": r0, "i": i, "e": e, "d0": d0, "d": i * d0, "m0": hilb2.m0_s0(r0, e)[0]}
    return TheoremReport("rosetta", checks, data)


def _unicita_from_parts(i: int, r0: int, e: int) -> TheoremReport:
    """The report unicita_report owes (i, r0, e) when its chain holds up to the fiber degree
    search, built from the routines the links call: an empty search ends it, a found degree
    adds the link of _rosetta_from_parts there."""
    m0, s0 = hilb2.m0_s0(r0, e)
    invariants = {**hilb2.f2_invariants(r0).to_json_dict(), "c1_coeff": r0 // i,
                  "hypothesis": "chi(End F) = 2"}
    checks = (
        Check("parity", True, {"r0": r0, "i": i}),
        Check("divisibility_type", True,
              {"e": e, "rule": "e > 0 even" if i == 1 else "e > 0 and e = 6 mod 8"}),
        Check("econ", True, {"r0": r0, "e": e, "r0_mod_4": r0 % 4}),
        Check("m0_s0", True, {"m0": m0, "s0": s0}),
        Check("f2_invariants", True, invariants),
        Check("rigsuk_min_d0", True, {"d0": nl.rigsuk_min_d0(m0, r0), "bound": nl.rigsuk_bound(m0, r0)}),
    )
    try:
        min_d = nl.buonacompt_min_d(r0, e, i)
    except NoAdmissibleParameter as exc:
        checks += (Check("buonacompt_min_d", False, {"error": str(exc)}),)
    else:
        rosetta = _rosetta_from_parts(r0, i, e, min_d // i)
        verdicts = {c.name: c.passed for c in rosetta.checks}
        checks += (
            Check("buonacompt_min_d", True, {"min_d": min_d, "bound": nl.buonacompt_bound(r0, e)}),
            Check("rosetta", True, {"d0": min_d // i, "d": min_d, "checks": verdicts}),
        )
    return TheoremReport("unicita", checks, {"i": i, "r0": r0, "e": e})


def ambient_dictionary_sweep(rng):
    """Whole rosetta_check and unicita_report reports, check names, flags and data, against
    the reports built from their parts: a check dropped or renamed is refuted too."""
    cases = list(product(range(1, 6), (1, 7, 211)))  # (r0, d0) at the first degree of each class
    for r0, d0 in cases:
        c, step = nl._econ_residue(r0)
        e, i = c or step, hilb2.governing_divisibility(r0)
        if hilb2.rosetta_check(r0, i, e, d0) != _rosetta_from_parts(r0, i, e, d0):
            return False, {"r0": r0, "e": e, "d0": d0, "report": "rosetta"}
        if hilb2.unicita_report(i, r0, e) != _unicita_from_parts(i, r0, e):
            return False, {"r0": r0, "e": e, "report": "unicita"}
    return True, {"cases": len(cases)}


def induced_ext_generating_function(rng):
    for _ in range(50):
        a = [rng.randint(0, 6) for _ in range(3)]
        got = hilb2.mckay_ext_dims(a).dims
        # coefficient k of (P(t)^2 + P(t^2)) / 2 with P supported in 0..2
        want = []
        for k in range(5):
            tot = sum(
                a[p] * a[k - p] for p in range(3) if 0 <= k - p <= 2
            )
            if k % 2 == 0:
                tot += a[k // 2]
            if tot % 2:
                return False, {"a": a, "k": k}
            want.append(tot // 2)
        if got != tuple(want):
            return False, {"a": a, "got": got, "want": want}
    return True


def induced_ext_vanishing_pattern(rng):
    if not hilb2.mckay_ext_dims((1, 0, 1)).end0_vanishing:
        return False, {"case": "rigid simple"}
    for a in ((1, 1, 1), (1, 0, 0), (2, 0, 2)):
        if hilb2.mckay_ext_dims(a).end0_vanishing:
            return False, {"case": a}
    return True


def rank_equation_brute_force(rng):
    for _ in range(60):
        n = rng.randint(1, 3)
        d1 = rng.randint(1, 4)
        d2 = d1 * rng.randint(1, 4)
        r = rng.randint(1, 30)
        a = rng.randint(1, 12)
        got = hilb2.potenza_solve(n, d1, d2, r, a)
        want = _brute_potenza(n, d1, d2, r, a)
        if got != want:
            return False, {"input": (n, d1, d2, r, a), "got": got, "want": want}
    return True


def power_rank_lists(rng):
    cases = (
        (("K3^[2]", 20), [1, 4, 9, 16]),
        (("Kum_2", 10), [1, 3, 4, 9]),
        (("K3^[3]", 30), [1, 8, 27]),
    )
    for args, want in cases:
        if hilb2.resemibis_ranks(*args) != want:
            return False, {"args": args}
    return True


def descent_rank_constraint(rng):
    ok = hilb2.restrango_check("K3^[2]", 4, 2)
    ok = ok and not hilb2.restrango_check("K3^[2]", 8, 2)
    ok = ok and hilb2.restrango_check("Kum_2", 3, 1)
    ok = ok and hilb2.restrango_check("Kum_2", 12, 2)
    return ok and not hilb2.restrango_check("Kum_2", 8, 2)


def parity_of_governing_divisibility(rng):
    for r0 in range(1, 12):
        if hilb2.governing_divisibility(r0) % 2 != r0 % 2:
            return False, {"r0": r0}
    return True


def reports_are_deterministic(rng):
    sc = pipelines.scenario_from_json(
        {
            "pipeline": "vbk3ell",
            "lattices": {"ns": {"e": 4, "d": 1}},
            "vectors": {"v": {"r": 2, "l": [1, 0], "s": 0}},
        }
    )
    a = canonical_json(pipelines.run_scenario(sc).to_json_dict())
    b = canonical_json(pipelines.run_scenario(sc).to_json_dict())
    return a == b and b == canonical_json(pipelines.run_scenario(sc).to_json_dict())


def pipeline_example_verdicts(rng):
    ns = walls.EllipticNS(4, 1)
    v = MukaiVector(2, vec((1, 0)), 0)
    rep = pipelines.vbk3ell_pipeline(ns, v)
    if not rep.verdict or rep.data["a"] != 12 or rep.data["expected_dim"] != 6:
        return False, {"stage": "vbk3ell"}
    if rep.data["suitability"]["suitable"]:
        return False, {"stage": "vbk3ell suitability"}
    bad = pipelines.casoprim_pipeline(ns, v, vec((1, 4)))
    if bad.verdict or not any(
        c.name == "polarization_generic" and not c.passed for c in bad.checks
    ):
        return False, {"stage": "casoprim"}
    good = pipelines.casoprim_pipeline(ns, v, vec((1, 5)))
    return good.verdict, {"stage": "casoprim generic"}


def twist_normalization_squares(rng):
    lat = lattice(((4, 1), (1, 0)))
    for _ in range(100):
        v = MukaiVector(
            rng.randint(1, 4),
            vec((rng.randint(-4, 4), rng.randint(-4, 4))),
            rng.randint(-4, 4),
        )
        out = pipelines.multacca_normalize(lat, v, vec((1, 0)), rng.randint(-3, 3))
        if mukai_square(lat, out.vector) != mukai_square(lat, v):
            return False, {}
        if out.ray is not None and out.vector.l != out.x * out.ray:
            return False, {}
        if out.r_l_coprime and out.x and out.gcd_r_x != 1:
            return False, {}
    return True


SUITES = {
    "fujiki": (constants_table, matchings_count_double_factorial, top_power_closed_form,
               matchings_sum_permutation_invariant, fiber_integral_closed_form,
               modular_integral_scales_linearly, semistable_bound_interval,
               discriminant_decomposition_balance),
    "hilb2": (twist_numerics_integral_sweep, exterior_square_invariants_closed_form,
              ambient_dictionary_sweep, induced_ext_generating_function,
              induced_ext_vanishing_pattern, rank_equation_brute_force, power_rank_lists,
              descent_rank_constraint, parity_of_governing_divisibility),
    "lattice": (pairing_bilinear_symmetric, rank2_discriminant, primitive_part_idempotent,
                saturation_detects_imprimitive_span),
    "mukai": (square_even_on_even_lattices, twist_preserves_square, normalize_recovers_twist,
              chern_dictionary_cases, derived_numerics_identities),
    "nl": (isotropic_ray_unique_iff_indivisible, min_d_search_is_minimal, min_d0_search_is_minimal,
           admissibility_examples),
    "pipelines": (reports_are_deterministic, pipeline_example_verdicts,
                  twist_normalization_squares),
    "reduction": (bezout_pair_sweep, rigid_vector_square_minus_two, modification_drop_law,
                  coprime_fiber_bundle_cases, nonlocally_free_dimension_identity),
    "walls": (enumeration_matches_box_scan, wall_fields_match_lattice, threshold_guarantees_empty,
              min_negative_norm_brute_force, rays_orthogonal_positive_primitive,
              unsuitability_witnesses_violate_signs),
}
