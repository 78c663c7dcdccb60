"""`survey`: a seeded grid of small parameters, one call chain per grid point.

Each operation walks one point through the public API in dependency
order: lattice vectors and pairings, Mukai numerics, the rigid vector
and a modification trace, wall classes at the point's level a(v) (at
most about 200), suitability and the minimal negative norm, both
admissibility predicates, `unicita_report` for a rank r0 in 1..8 on a
congruence-passing degree, a top intersection at n <= 3, a scenario
run, and the canonical JSON of the whole record. Points with r0 <= 5
also call the minimal-d search directly, where it succeeds. Per-call
overhead dominates here, not asymptotics. Points with r0 >= 6 hit the
default search cap on hkmod as it stands, as a real sweep does; they
count as failed operations, the rest of their chain still runs, and
every step that answered is still compared with the oracle.
"""

from __future__ import annotations

import json
import random
from fractions import Fraction
from math import gcd

import oracle as ref
from common import Op, StepErrors

SQ_MAX = {2: 60, 3: 30, 4: 14}  # keeps a(v) = r^2 (v^2 + 2r^2) / 4 at or below 184
# A point's cost follows its level a(v) and its wall count, about a(v)/d,
# so every pass gets the same (r, v^2, d) schedule and the same share of
# each r0 and n; the seed picks the rest. d is prime to r, as the rigid
# vector needs gcd(r, d*x) = 1.
FIBER_DEGREES = {r: [d for d in range(1, 13) if gcd(r, d) == 1] for r in (2, 3, 4)}
SCHEDULE = [
    (r, q, FIBER_DEGREES[r][(j + 5 * rep) % len(FIBER_DEGREES[r])])
    for rep in range(4)
    for j, (r, q) in enumerate((r, q) for r in (2, 3, 4) for q in range(-2, SQ_MAX[r] + 1, 2))
]


def _congruent_degrees(r0: int, count: int) -> list[int]:
    out, e = [], 2
    while len(out) < count:
        if ref.econ_passes(r0, e):
            out.append(e)
        e += 2
    return out


def make_point(rng: random.Random, r: int, v_sq: int, d: int, r0: int, n: int) -> dict:
    while True:  # s integral, and gcd(r, k) = 1 with k = d*x for the rigid vector
        e = rng.choice((2, 4, 6, 8, 10, 12))
        x, y = rng.randint(1, 3), rng.randint(-3, 3)
        l_sq = e * x * x + 2 * d * x * y
        if gcd(r, d * x) == 1 and (l_sq - v_sq) % (2 * r) == 0:
            break
    s = (l_sq - v_sq) // (2 * r)
    k = d * x
    steps, sq = [], v_sq
    for _ in range(3):
        r_b = rng.randint(1, r - 1)
        deg_b = (r_b * k - 1) // r - rng.randint(0, 1)
        drop = r_b * k - r * deg_b
        if sq - 2 * drop < -2:
            break
        steps.append((r_b, deg_b))
        sq -= 2 * drop
    return {
        "e": e, "d": d, "r": r, "l": (x, y), "s": s, "steps": steps,
        "i_hk": rng.choice((1, 2)),
        "r0": r0, "e0": rng.choice(_congruent_degrees(r0, 3)),
        "kind": rng.choice((f"K3^[{n}]", f"Kum_{n}")), "n": n,
        "classes": [(rng.randint(-3, 3), rng.randint(-3, 3)) for _ in range(2 * n)],
        "pipeline": rng.choice(("vbk3ell", "casoprim")),
        "h": (1, rng.randint(0, 4)),
    }


def searchable(p: dict) -> bool:
    """Whether the point also calls buonacompt_min_d directly: r0 <= 5, where
    the search succeeds at the default cap, and e0 not dividing 2*i0."""
    return p["r0"] <= 5 and (2 * ref.governing_divisibility(p["r0"])) % p["e0"] != 0


def expected(p: dict) -> str:
    e, d, r, (x, y), s = p["e"], p["d"], p["r"], p["l"], p["s"]
    gram = ((e, d), (d, 0))
    k = d * x
    l_sq = ref.gram_pair(gram, (x, y), (x, y))
    v_sq = l_sq - 2 * r * s
    delta = v_sq + 2 * r * r
    a_v = Fraction(r * r * delta, 4)
    n_v = v_sq // 2 + 1
    r0b, d0b = ref.bezout(r, k)
    rigid = {"r": r, "l": [x, y + n_v * (r - r0b)], "s": s + n_v * (k - d0b)}
    squares = [v_sq]
    for r_b, deg_b in p["steps"]:
        squares.append(squares[-1] - 2 * (r_b * k - r * deg_b))
    walls = ref.wall_classes(e, d, a_v)
    suit = ref.suitability(e, d, walls, (1, 0))
    i0 = ref.governing_divisibility(p["r0"])
    c_x = 1 if p["kind"].startswith("K3") else p["n"] + 1
    h = p["h"]
    if p["pipeline"] == "vbk3ell":
        hs = ref.suitability(e, d, walls, h)
        scenario = ["vbk3ell", v_sq >= -2, gcd(r, k) == 1, hs[0]]
    else:
        orthogonal = sum(1 for w in walls if ref.gram_pair(gram, w[:2], h) == 0)
        scenario = ["casoprim", v_sq >= -2, gcd(r, gcd(x, abs(y))) == 1, orthogonal]
    record = {
        "k": k,
        "l_sq": l_sq,
        "numerics": [v_sq, n_v, a_v, delta],
        "rigid": rigid,
        "squares": squares,
        "walls": [list(w) for w in walls],
        "suitable": list(suit),
        "min_neg": ref.min_negative_norm(e, d),
        "nl_hk": ref.nl_hk(e, d, p["i_hk"]),
        "nl_k3": ref.nl_k3(e, d, a_v)["ok"],
        "unicita": ref.unicita_summary(i0, p["r0"], p["e0"]),
        "top": ref.top_intersection(c_x, gram, p["classes"]),
        "scenario": scenario,
    }
    if searchable(p):
        record["min_d"] = ref.min_d(p["r0"], p["e0"], i0)
    return json.dumps(ref.encode(record), sort_keys=True, separators=(",", ":")) + "\n"


def _unicita_summary(report) -> list:
    data = {c.name: c.data for c in report.checks}
    min_d = data["buonacompt_min_d"].get("min_d") if report.verdict else None
    return [report.verdict, data["m0_s0"]["m0"], data["m0_s0"]["s0"], data["rigsuk_min_d0"]["d0"], min_d]


def chain(L, p: dict) -> str:
    """One grid point through the public API; every step runs even if one raises."""
    errors = {}
    rec = {}

    def step(name, fn):
        try:
            rec[name] = fn()
        except Exception as exc:
            errors[name] = type(exc).__name__
            rec[name] = f"error:{type(exc).__name__}"

    e, d, r = p["e"], p["d"], p["r"]
    ns = L.walls.EllipticNS(e, d)
    lat = ns.lattice
    l_vec = L.lattice.vec(p["l"])
    f = L.lattice.vec((0, 1))
    rec["k"] = L.lattice.pair(lat, l_vec, f)
    rec["l_sq"] = L.lattice.pair(lat, l_vec, l_vec)
    v = L.mukai.MukaiVector(r, l_vec, p["s"])
    num = L.mukai.numerics(lat, v)
    rec["numerics"] = [num.v_square, num.n_v, num.a_v, num.delta]
    step("rigid", lambda: L.reduction.rigid_vector(lat, v, f).to_json_dict())
    step("squares", lambda: list(L.reduction.reduction_trace(
        lat, v, [L.reduction.ModificationStep(*s) for s in p["steps"]], f).squares))
    step("walls", lambda: [[*w.lam.int_coords(), w.norm, w.pair_h, w.pair_f]
                           for w in L.walls.enumerate_wall_classes(ns, num.a_v)])

    def suitable():
        rep = L.walls.is_suitable(ns, num.a_v)
        return [rep.suitable, rep.generic, len(rep.witnesses)]

    step("suitable", suitable)
    step("min_neg", lambda: L.walls.min_negative_norm(ns))

    def nl_hk():
        adm = L.nl.nl_hk_admissible(e, d, p["i_hk"])
        return [adm.ok, list(adm.reasons)]

    step("nl_hk", nl_hk)
    step("nl_k3", lambda: L.nl.nl_k3_admissible(e, d, num).ok)
    step("unicita", lambda: _unicita_summary(L.hilb2.unicita_report(
        L.hilb2.governing_divisibility(p["r0"]), p["r0"], p["e0"])))
    if searchable(p):
        step("min_d", lambda: L.nl.buonacompt_min_d(
            p["r0"], p["e0"], L.hilb2.governing_divisibility(p["r0"])))

    def top():
        setup = L.fujiki.FujikiSetup.for_kind(p["kind"], lat)
        return L.fujiki.top_intersection(setup, [L.lattice.vec(c) for c in p["classes"]])

    step("top", top)

    def scenario():
        sc = L.pipelines.scenario_from_json({
            "pipeline": p["pipeline"],
            "lattices": {"ns": {"e": e, "d": d}},
            "vectors": {"v": {"r": r, "l": list(p["l"]), "s": p["s"]}, "h": list(p["h"])},
        })
        rep = L.pipelines.run_scenario(sc)
        flags = [c.passed for c in rep.checks]
        if rep.theorem == "vbk3ell":
            return ["vbk3ell", *flags[:2], rep.data["suitability"]["suitable"]]
        return ["casoprim", *flags[:2], len(rep.checks[2].data["witnesses"])]

    step("scenario", scenario)
    out = L.jsonio.canonical_json(rec)
    if errors:
        raise StepErrors(errors, out)
    return out


def build(seed: int, limit: int | None = None) -> list[Op]:
    rng = random.Random(f"survey:{seed}")
    grid = [(*point, 1 + j % 8, 1 + j % 3) for j, point in enumerate(SCHEDULE)]
    rng.shuffle(grid)
    points = [make_point(rng, *g) for g in grid[:limit]]
    ops = []
    for idx, p in enumerate(points):
        tag = f"r0={p['r0']},e={p['e0']}" if p["r0"] >= 6 else f"r0={p['r0']}"
        ops.append(Op(f"point{idx:03d}[{tag}]", lambda L, p=p: chain(L, p), lambda p=p: expected(p)))
    return ops


def warm(L, ops: list[Op]) -> None:
    """Run a few points once so the first timed pass pays no first-call costs."""
    for op in ops[:3]:
        try:
            op.call(L)
        except StepErrors:
            pass
