"""`cli-mix`: fresh `python -m hkmod` processes over a seeded list of small queries.

The list has one query per slot below, in seeded order, and each slot
takes one of VARIANTS seeded parameter sets. Together the slots cover
all twelve subcommands and every exit code of the contract: answers (0),
refusals (1), malformed input (2), and searches that need more than the
default cap on hkmod as it stands (3, where 0 is the correct answer).
Each query pays interpreter start and imports against well under a
millisecond of arithmetic, so this workload moves with import, argparse
and JSON output costs and should not move with arithmetic changes.

Expected exit codes and stdout come from cli_expected.json, written by
make_cli_oracle.py.
"""

from __future__ import annotations

import functools
import json
import os
import random
import subprocess
import sys
from math import gcd
from pathlib import Path

import oracle as ref
from common import Op

HERE = Path(__file__).resolve().parent
ORACLE_FILE = HERE / "cli_expected.json"
VARIANTS = 4
JSON_FLAGS = ["--json", "--no-timestamp"]
SUBCOMMANDS = (
    "fujiki", "mukai", "walls", "reduce", "rigid", "nl", "nl-search",
    "unicita", "vbk3ell", "casoprim", "sweep-econ", "verify-all",
)


def _vec(rng, rank, lo=-3, hi=3):
    return [rng.randint(lo, hi) for _ in range(rank)]


def _mukai_point(rng, coprime=True):
    """(e, d, r, l, s) with v^2 >= -2 and gcd(r, d*x) = 1 unless coprime is False."""
    while True:
        e, d, r = rng.choice((2, 4, 6)), rng.randint(1, 6), rng.randint(2, 4)
        x, y = rng.randint(1, 3), rng.randint(-2, 2)
        if (gcd(r, d * x) == 1) == coprime:
            break
    l_sq = e * x * x + 2 * d * x * y
    s = (l_sq + 2) // (2 * r) - rng.randint(0, 2)  # v^2 = l^2 - 2rs >= -2
    return e, d, r, [x, y], s


def _steps(e, d, r, l, s):
    k = d * l[0]
    sq = e * l[0] ** 2 + 2 * d * l[0] * l[1] - 2 * r * s
    steps = []
    while len(steps) < 2:
        deg_b = (k - 1) // r  # r_b = 1: the square drops by 2*(k - r*deg_b) in [2, 2r]
        drop = k - r * deg_b
        if sq - 2 * drop < -2:
            break
        steps.append({"r_b": 1, "deg_b": deg_b})
        sq -= 2 * drop
    return steps


def _slot_fujiki(rng):
    g = [[2 * rng.randint(1, 3), rng.randint(-2, 2)], [0, -2 * rng.randint(0, 2)]]
    g[1][0] = g[0][1]
    return ["fujiki", "--setup", "@setup", "--classes", "@classes"], {
        "setup": {"kind": "K3^[2]", "gram": g}, "classes": [_vec(rng, 2) for _ in range(4)]}


def _slot_fujiki_kum(rng):
    g = [[2 * rng.randint(1, 2), 1, 0], [1, -2, rng.randint(0, 1)], [0, 0, 2]]
    g[2][1] = g[1][2]
    return ["fujiki", "--setup", "@setup", "--classes", "@classes"], {
        "setup": {"kind": "Kum_2", "gram": g}, "classes": [_vec(rng, 3) for _ in range(4)]}


def _slot_fujiki_explicit(rng):
    return ["fujiki", "--setup", "@setup", "--classes", "@classes"], {
        "setup": {"n": 3, "c_x": f"{rng.randint(1, 5)}/2", "gram": [[2, 1], [1, -2 * rng.randint(1, 2)]]},
        "classes": [_vec(rng, 2) for _ in range(6)]}


def _slot_fujiki_badcount(rng):
    return ["fujiki", "--setup", "@setup", "--classes", "@classes"], {
        "setup": {"kind": "K3^[2]", "gram": [[2, 1], [1, 0]]}, "classes": [_vec(rng, 2) for _ in range(3)]}


def _slot_mukai(rng):
    e, d, r, l, s = _mukai_point(rng)
    return ["mukai", "--ns", "@ns", "--v", "@v"], {"ns": {"e": e, "d": d}, "v": {"r": r, "l": l, "s": s}}


def _slot_mukai_pair(rng):
    e, d, r, l, s = _mukai_point(rng)
    w = {"r": rng.randint(1, 3), "l": _vec(rng, 2), "s": rng.randint(-3, 3)}
    return ["mukai", "--ns", "@ns", "--v", "@v", "--w", "@w"], {
        "ns": {"e": e, "d": d}, "v": {"r": r, "l": l, "s": s}, "w": w}


def _slot_mukai_odd(rng):
    # an odd lattice: the Mukai square of (r, (1, 0), s) is 1 - 2rs, refused as odd
    return ["mukai", "--ns", "@ns", "--v", "@v"], {
        "ns": {"gram": [[1, 0], [0, -rng.randint(1, 3)]]}, "v": {"r": rng.randint(1, 3), "l": [1, 0], "s": rng.randint(-2, 2)}}


def _slot_walls(rng):
    return ["walls", "--e", str(rng.choice((2, 4, 6))), "--d", str(rng.randint(1, 5)),
            "--a", str(rng.randint(10, 40))], {}


def _slot_walls_suitability(rng):
    return ["walls", "--e", str(rng.choice((2, 4))), "--d", str(rng.randint(2, 8)),
            "--a", f"{rng.randint(10, 60)}/2", "--suitability"], {}


def _slot_reduce(rng):
    e, d, r, l, s = _mukai_point(rng)
    return ["reduce", "--ns", "@ns", "--v", "@v", "--steps", "@steps"], {
        "ns": {"e": e, "d": d}, "v": {"r": r, "l": l, "s": s}, "steps": _steps(e, d, r, l, s)}


def _slot_reduce_fractional(rng):
    # a fiber rank of 1.5 is malformed (exit 2); hkmod as it stands truncates it to 1
    steps = []
    while not steps:  # a valid trace once 1.5 is read as 1, so the truncation shows
        e, d, r, l, s = _mukai_point(rng)
        steps = _steps(e, d, r, l, s)
    steps[0]["r_b"] = 1.5
    return ["reduce", "--ns", "@ns", "--v", "@v", "--steps", "@steps"], {
        "ns": {"e": e, "d": d}, "v": {"r": r, "l": l, "s": s}, "steps": steps}


def _slot_rigid(rng):
    e, d, r, l, s = _mukai_point(rng)
    return ["rigid", "--ns", "@ns", "--v", "@v"], {"ns": {"e": e, "d": d}, "v": {"r": r, "l": l, "s": s}}


def _slot_rigid_refused(rng):
    e, d, r, l, s = _mukai_point(rng, coprime=False)
    return ["rigid", "--ns", "@ns", "--v", "@v"], {"ns": {"e": e, "d": d}, "v": {"r": r, "l": l, "s": s}}


def _slot_nl_k3(rng):
    return ["nl", "--kind", "k3", "--e", str(rng.choice((2, 4, 6))), "--d", str(rng.randint(5, 200)),
            "--r0", str(rng.randint(1, 3)), "--vsq", str(2 * rng.randint(0, 6))], {}


def _slot_nl_hk(rng):
    return ["nl", "--kind", "hk", "--e", str(rng.choice((2, 6, 14))), "--d", str(rng.randint(20, 300)),
            "--i", str(rng.randint(1, 2))], {}


def _passing_degree(rng, r0, first=3):
    return rng.choice([e for e in range(2, 2000, 2) if ref.econ_passes(r0, e)][:first])


def _slot_nl_search(rng):
    r0 = rng.randint(2, 5)
    return ["nl-search", "--r0", str(r0), "--e", str(_passing_degree(rng, r0))], {}


def _slot_nl_search_cap(rng):
    r0 = rng.choice((6, 7, 8))
    return ["nl-search", "--r0", str(r0), "--e", str(_passing_degree(rng, r0, 1))], {}


def _slot_unicita(rng):
    r0 = rng.randint(2, 5)
    return ["unicita", "--i", str(ref.governing_divisibility(r0)), "--r0", str(r0),
            "--e", str(_passing_degree(rng, r0))], {}


def _slot_unicita_cap(rng):
    r0 = rng.choice((6, 7, 8))
    return ["unicita", "--i", str(ref.governing_divisibility(r0)), "--r0", str(r0),
            "--e", str(_passing_degree(rng, r0, 1))], {}


def _slot_unicita_parity(rng):
    r0 = rng.randint(1, 5)
    return ["unicita", "--i", str(3 - ref.governing_divisibility(r0)), "--r0", str(r0), "--e", "6"], {}


def _scenario(rng, pipeline):
    e, d, r, l, s = _mukai_point(rng)
    return {"scenario": {"pipeline": pipeline, "lattices": {"ns": {"e": e, "d": d}},
                         "vectors": {"v": {"r": r, "l": l, "s": s}, "h": [1, rng.randint(0, 4)]}}}


def _slot_vbk3ell(rng):
    return ["vbk3ell", "--scenario", "@scenario"], _scenario(rng, "vbk3ell")


def _slot_casoprim(rng):
    return ["casoprim", "--scenario", "@scenario"], _scenario(rng, "casoprim")


def _slot_sweep_econ(rng):
    return ["sweep-econ", "--r0max", str(rng.randint(4, 8)), "--emax", str(rng.randint(40, 120))], {}


def _slot_verify_all(rng):
    return ["verify-all"], {}


def _slot_bad_json(rng):
    return ["mukai", "--ns", "@ns", "--v", "@v"], {"ns": "{\"e\": 2, \"d\": " + str(rng.randint(1, 9)), "v": {"r": 2, "l": [1, 0], "s": 0}}


def _slot_usage(rng):
    return [rng.choice(("frobnicate", "walls-all", "unicity", "nlsearch"))], {}


SLOTS = [
    ("fujiki", _slot_fujiki),
    ("fujiki-kum", _slot_fujiki_kum),
    ("fujiki-explicit", _slot_fujiki_explicit),
    ("fujiki-badcount", _slot_fujiki_badcount),
    ("mukai", _slot_mukai),
    ("mukai-pair", _slot_mukai_pair),
    ("mukai-odd", _slot_mukai_odd),
    ("walls", _slot_walls),
    ("walls-suitability", _slot_walls_suitability),
    ("reduce", _slot_reduce),
    ("reduce-fractional", _slot_reduce_fractional),
    ("rigid", _slot_rigid),
    ("rigid-refused", _slot_rigid_refused),
    ("nl-k3", _slot_nl_k3),
    ("nl-hk", _slot_nl_hk),
    ("nl-search", _slot_nl_search),
    ("nl-search-cap", _slot_nl_search_cap),
    ("unicita", _slot_unicita),
    ("unicita-cap", _slot_unicita_cap),
    ("unicita-parity", _slot_unicita_parity),
    ("vbk3ell", _slot_vbk3ell),
    ("casoprim", _slot_casoprim),
    ("sweep-econ", _slot_sweep_econ),
    ("verify-all", _slot_verify_all),
    ("verify-all-text", _slot_verify_all),  # the human-readable report
    ("verify-all-repeat", _slot_verify_all),
    ("bad-json", _slot_bad_json),
    ("usage", _slot_usage),
]
CAP_SLOTS = {"nl-search-cap", "unicita-cap"}  # exit 3 on hkmod as it stands; 0 is correct
# Exit codes that are documented shortfalls of hkmod as it stands, counted as
# failed rather than wrong: the default search cap (ROADMAP 3) and the
# fractional fiber rank read as an integer (ROADMAP 5).
KNOWN_EXITS = {**{slot: (3,) for slot in CAP_SLOTS}, "reduce-fractional": (0,)}
# verify-all takes no parameters. Three of the 28 queries run it in full, so
# the upper tenth of latencies (op_p90_ms) are self-check runs, not start-ups.
FIXED_SLOTS = {"verify-all", "verify-all-text", "verify-all-repeat"}


def query(slot: str, variant: int, tmpdir: Path) -> list[str]:
    """The argv of one pool query, with its input files written under tmpdir."""
    make = dict(SLOTS)[slot]
    argv, files = make(random.Random(f"{slot}:{variant}"))
    paths = {}
    for name, content in files.items():
        path = tmpdir / f"{slot}.{variant}.{name}.json"
        path.write_text(content if isinstance(content, str) else json.dumps(content))
        paths["@" + name] = str(path)
    argv = [paths.get(a, a) for a in argv]
    return argv + JSON_FLAGS if argv[0] in SUBCOMMANDS and slot != "verify-all-text" else argv


def child_env(root: Path) -> dict:
    """The environment of hkmod processes: ./src first on the import path."""
    env = dict(os.environ)
    src = str(root / "src")
    env["PYTHONPATH"] = src + os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else src
    return env


class Launcher:
    """Runs one CLI query in a fresh interpreter, traced when a tracer is given."""

    def __init__(self, root: Path, tracer=None, spans_file: Path | None = None):
        self.env = child_env(root)
        self.root = root
        self.tracer = tracer
        self.spans_file = spans_file
        if tracer is None:
            self.prefix = [sys.executable, "-m", "hkmod"]
        else:
            self.prefix = [sys.executable, str(HERE / "traced_cli.py")]
            self.env["HKMOD_BENCH_SPANS"] = str(spans_file)

    def __call__(self, argv: list[str]):
        proc = subprocess.run(self.prefix + argv, cwd=self.root, env=self.env,
                              capture_output=True, text=True, timeout=120)
        if self.tracer is not None:
            spans = json.loads(self.spans_file.read_text())
            base = len(self.tracer.spans)
            self.tracer.spans.extend([s[0], s[1] + base if s[1] >= 0 else -1, *s[2:]] for s in spans)
        return proc.returncode, proc.stdout, proc.stderr


def pool_ids() -> list[tuple[str, int]]:
    return [(slot, v) for slot, _ in SLOTS for v in range(1 if slot in FIXED_SLOTS else VARIANTS)]


@functools.lru_cache(maxsize=1)
def _oracle() -> dict:
    return json.loads(ORACLE_FILE.read_text())


def _expected(key: str) -> tuple[int, str]:
    want = _oracle()[key]
    return want["code"], want["stdout"]


def build(seed: int, tmpdir: Path, limit: int | None = None) -> list[Op]:
    rng = random.Random(f"cli-mix:{seed}")
    chosen = [(slot, 0 if slot in FIXED_SLOTS else rng.randrange(VARIANTS)) for slot, _ in SLOTS]
    rng.shuffle(chosen)
    ops = []
    for slot, variant in chosen[:limit] if limit else chosen:
        key = f"{slot}#{variant}"
        argv = query(slot, variant, tmpdir)
        ops.append(Op(key, lambda launch, argv=argv: launch(argv), lambda key=key: _expected(key),
                      argv, KNOWN_EXITS.get(slot, ())))
    return ops
