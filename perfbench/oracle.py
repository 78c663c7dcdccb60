"""Reference answers computed without hkmod.

Each function derives its answer by a different route from the library:
hafnians by a memoised subset recursion instead of matching enumeration,
wall classes by the hyperbola split of x*t <= a instead of the x <= a
scan, minimal searches by their closed forms with no cap. The benchmark
compares every hkmod result with these, so a wrong answer cannot pass
by agreeing with itself.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import gcd, isqrt


def gram_pair(gram, v, w) -> int:
    return sum(v[i] * gram[i][j] * w[j] for i in range(len(v)) for j in range(len(w)))


def hafnian(m) -> int:
    """Sum over perfect matchings of prod m[i][j], by recursion on the lowest index."""
    n = len(m)

    @lru_cache(maxsize=None)
    def rec(mask: int) -> int:
        if mask == 0:
            return 1
        i = (mask & -mask).bit_length() - 1
        rest = mask & ~(1 << i)
        total = 0
        bits = rest
        while bits:
            j = (bits & -bits).bit_length() - 1
            bits &= bits - 1
            if m[i][j]:
                total += m[i][j] * rec(rest & ~(1 << j))
        return total

    return rec((1 << n) - 1)


def top_intersection(c_x, gram, classes) -> Fraction:
    m = [[gram_pair(gram, u, w) for w in classes] for u in classes]
    return Fraction(c_x) * hafnian(m)


def wall_classes(e: int, d: int, a) -> list[tuple[int, int, int, int, int]]:
    """(x, y, norm, pair_h, pair_f) of primitive x*h + y*f, x >= 1, -a <= norm < 0.

    With t = -(e*x + 2*d*y) the conditions read t >= 1 and x*t <= a. Small x
    are scanned over t, small t over the progression of x solving
    e*x = -t (mod 2d), so the work is O(sqrt(a) + output).
    """
    A = int(Fraction(a) // 1)
    s = isqrt(A)
    m = 2 * d
    found = []

    def emit(x, t):
        y, r = divmod(-(e * x + t), m)
        if r == 0 and gcd(x, abs(y)) == 1:
            found.append((x, y, -x * t, e * x + d * y, d * x))

    for x in range(1, s + 1):
        t = (-e * x) % m or m
        while x * t <= A:
            emit(x, t)
            t += m
    g = gcd(e, m)
    mod = m // g
    for t in range(1, s + 1):
        if t % g:
            continue
        # e/g is invertible mod 2d/g; mod == 1 means every x solves it
        x0 = (-(t // g) * pow(e // g, -1, mod)) % mod if mod > 1 else 0
        x = s + 1 + (x0 - (s + 1)) % mod
        while x * t <= A:
            emit(x, t)
            x += mod
    found.sort()
    return found


def min_negative_norm(e: int, d: int) -> int:
    """min |x*(e*x + 2*d*y)| < 0 over x >= 1; the factor t is a multiple of gcd(e, 2d)."""
    g = gcd(e, 2 * d)
    best = None
    x = 1
    while best is None or x * g < best:
        t = (-e * x) % (2 * d) or 2 * d
        if best is None or x * t < best:
            best = x * t
        x += 1
    return best


def suitability(e: int, d: int, walls, h) -> tuple[bool, bool, int]:
    """(suitable, generic, witness count) of h against (x, y) wall tuples."""
    gram = ((e, d), (d, 0))
    witnesses = 0
    generic = True
    for x, y, *_ in walls:
        ph = gram_pair(gram, (x, y), h)
        pf = d * x
        if ph == 0:
            generic = False
        if (ph > 0) - (ph < 0) != (pf > 0) - (pf < 0):
            witnesses += 1
    return witnesses == 0, generic, witnesses


def bezout(r: int, k: int) -> tuple[int, int]:
    for r0 in range(1, r):
        if (k * r0 - 1) % r == 0:
            return r0, (k * r0 - 1) // r
    raise ValueError(f"no Bezout pair for ({r}, {k})")


def governing_divisibility(r0: int) -> int:
    return 1 if r0 % 2 else 2


def econ_passes(r0: int, e: int) -> bool:
    """The slope congruence, stated as integrality of m0 and s0."""
    i = governing_divisibility(r0)
    if e <= 0 or e % 2 or (i == 2 and e % 8 != 6):
        return False
    m0 = Fraction(e, 2 if r0 % 2 else 8) + Fraction((r0 - 1) ** 2, 4)
    return m0.denominator == 1 and (m0 + 1) % r0 == 0


def search_start(r0: int, e: int, i: int) -> tuple[int, int]:
    """First candidate of the minimal-d search, the least multiple of i above
    (5/16) r0^6 (r0^2-1) (e+1), and the stride i between candidates."""
    bound = Fraction(5, 16) * r0**6 * (r0**2 - 1) * (e + 1)
    d = bound.numerator // bound.denominator + 1
    return d + (-d) % i, i


def min_d(r0: int, e: int, i: int) -> int:
    """Least candidate d with e not dividing 2d."""
    if (2 * i) % e == 0:
        raise ValueError(f"e = {e} divides 2d for every d divisible by {i}")
    d, step = search_start(r0, e, i)
    while (2 * d) % e == 0:
        d += step
    return d


def unicita_summary(i: int, r0: int, e: int) -> list:
    """[verdict, m0, s0, min_d0, min_d] for a congruence-passing (i, r0, e)."""
    m0 = Fraction(e, 2 if r0 % 2 else 8) + Fraction((r0 - 1) ** 2, 4)
    m0 = int(m0)
    s0 = (m0 + 1) // r0
    b = Fraction((2 * m0 + 1) * r0**2 * (r0**2 - 1), 4)
    d0 = b.numerator // b.denominator + 1
    while gcd(d0, r0) != 1:
        d0 += 1
    if (2 * i) % e == 0:
        return [False, m0, s0, d0, None]
    return [True, m0, s0, d0, min_d(r0, e, i)]


def nl_hk(e: int, d: int, i: int) -> list:
    reasons = []
    if not d > 10 * (e + 1):
        reasons.append("d exceeds 10*(e+1)")
    if 2 * d % e == 0:
        reasons.append("e does not divide 2d")
    if i == 2 and d % 2:
        reasons.append("d is even")
    return [not reasons, reasons]


def nl_k3(e: int, d: int, a_v: Fraction) -> dict:
    bound = Fraction(e + 1) * a_v / 2
    reasons = []
    if not d > bound:
        reasons.append("d exceeds (e+1)*a/2")
    if d % e == 0:
        reasons.append("e does not divide d")
    return {"ok": not reasons, "reasons": reasons, "details": {"e": e, "d": d, "a": a_v, "bound": bound}}


def divisors(n: int) -> list[int]:
    small = [k for k in range(1, isqrt(n) + 1) if n % k == 0]
    return sorted(set(small + [n // k for k in small]))


def nth_root_exact(x: int, n: int):
    lo, hi = 0, 1
    while hi**n <= x:
        hi *= 2
    while lo < hi:
        mid = (lo + hi + 1) // 2
        if mid**n <= x:
            lo = mid
        else:
            hi = mid - 1
    return lo if lo**n == x else None


def potenza(n: int, d1: int, d2: int, r: int, a: int) -> list[int]:
    """All r0 with r0^n = r*g1*g2 etc., found from the divisor pairs (g1, g2)."""
    out = set()
    for g1 in divisors(d1):
        for g2 in divisors(d2):
            r0 = nth_root_exact(r * g1 * g2, n)
            if not r0 or gcd(r0, d1) != g1 or gcd(r0, d2) != g2:
                continue
            p = r0 ** (n - 1)
            if p % (g1 * g2) == 0 and gcd(r, a) == p // (g1 * g2):
                out.add(r0)
    return sorted(out)


def encode(value):
    """JSON-ready form with exact rationals as ints or 'p/q' strings."""
    if isinstance(value, Fraction):
        return int(value) if value.denominator == 1 else f"{value.numerator}/{value.denominator}"
    if isinstance(value, dict):
        return {str(k): encode(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [encode(v) for v in value]
    return value

