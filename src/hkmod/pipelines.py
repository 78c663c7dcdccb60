"""End-to-end pipelines combining vectors, walls and twists.

A scenario holds a lattice, a Mukai vector and an optional
polarization; running it dispatches to one of the named pipelines and
returns a TheoremReport whose checks gate the verdict and whose data
block carries everything that is merely reported.
"""

from __future__ import annotations

from math import gcd

from .errors import InputError
from .jsonio import _check_int, _shown, load_json_file
from .lattice import (
    IntLattice,
    LatVec,
    content,
    latvec_from_json,
    ns_from_json,
    pair,
    primitive_part,
)
from .mukai import MukaiNumerics, MukaiVector, _twist, mukai_from_json, numerics
from .record import Record, setfield
from .report import Check, TheoremReport
from .walls import (
    EllipticNS,
    SuitabilityReport,
    _polarization,
    as_elliptic,
    orthogonal_wall,
    suitability_for,
)


def _elliptic_start(ns, v: MukaiVector, h: LatVec) -> tuple[EllipticNS, MukaiNumerics, Check]:
    """The start both elliptic statements share, in this order: ns as an EllipticNS, h in its
    positive cone (at every level, the nonpositive ones included), v's numerics, and the check
    that v^2 >= -2. So malformed input (exit 2) is refused before a refusal of v (exit 1)."""
    ns = as_elliptic(ns)
    _polarization(ns, h)
    num = numerics(ns.lattice, v)
    square = Check("square_at_least_rigid_bound", num.v_square >= -2, {"v_square": num.v_square})
    return ns, num, square


def vbk3ell_pipeline(ns, v: MukaiVector, h: LatVec | None = None) -> TheoremReport:
    """Gate a vector on an elliptic surface: square above the rigid bound
    and rank coprime to the fiber degree. The wall-control constant, the
    expected dimension and the suitability of h (default ns.h) are reported, not gated.
    """
    ns = as_elliptic(ns)  # for its h
    h = ns.h if h is None else h
    ns, num, square = _elliptic_start(ns, v, h)
    k = pair(ns.lattice, v.l, ns.f)
    if num.a_v > 0:
        suit = suitability_for(ns, num.a_v, h)
    else:  # a nonpositive level means the wall set is empty by definition
        suit = SuitabilityReport(suitable=True, generic=True, witnesses=())
    return TheoremReport(
        theorem="vbk3ell",
        checks=(
            square,
            Check("rank_coprime_to_fiber_degree", gcd(v.r, k) == 1, {"r": v.r, "k": k}),
        ),
        data={
            "a": num.a_v,
            "n": num.n_v,
            "expected_dim": num.v_square + 2,
            "h": h.to_json_dict(),
            "suitability": suit.to_json_dict(),
        },
    )


def casoprim_pipeline(ns, v: MukaiVector, h: LatVec) -> TheoremReport:
    """Gate a vector for primitivity results: square above the rigid
    bound, rank coprime to the content of the middle component, and the
    polarization generic for the wall-control constant."""
    ns, num, square = _elliptic_start(ns, v, h)
    c = content(v.l)
    wall = orthogonal_wall(ns, num.a_v, h) if num.a_v > 0 else None
    return TheoremReport(
        theorem="casoprim",
        checks=(
            square,
            Check("rank_coprime_to_content", gcd(v.r, c) == 1, {"r": v.r, "content": c}),
            Check("polarization_generic", wall is None, {
                "h": h.to_json_dict(),
                "witnesses": [] if wall is None else [wall.to_json_dict()],
            }),
        ),
        data={"a": num.a_v, "n": num.n_v},
    )


class TwistResult(Record):
    """Outcome of normalizing a twist: the twisted vector, its middle
    component split as x times a primitive ray, and the coprimality facts
    the downstream statements need."""

    def __init__(
        self, vector: MukaiVector, x: int, ray: LatVec | None, gcd_r_x: int, r_l_coprime: bool
    ):
        setfield(self, "vector", vector)
        setfield(self, "x", x)
        setfield(self, "ray", ray)
        setfield(self, "gcd_r_x", gcd_r_x)
        setfield(self, "r_l_coprime", r_l_coprime)


def multacca_normalize(ns: IntLattice, v: MukaiVector, h: LatVec, n: int) -> TwistResult:
    """Twist v by the n-th power of the line bundle with class h and split
    the resulting middle component as x times a primitive class."""
    _check_int(n, "n")
    _check_int(v.r, "rank", 1)
    if not h.integral:
        raise InputError("twisting class must be integral")
    w = _twist(ns, v, h, n)
    x = content(w.l)
    ray = primitive_part(ns, w.l) if x else None
    return TwistResult(
        vector=w,
        x=x,
        ray=ray,
        gcd_r_x=gcd(v.r, x),
        r_l_coprime=gcd(v.r, content(v.l)) == 1,
    )


class Scenario(Record):
    """One pipeline run: the pipeline's name, the lattice 'ns', the Mukai
    vector 'v' and an optional polarization 'h'."""

    def __init__(self, pipeline: str, ns: IntLattice, v: MukaiVector, h: LatVec | None = None):
        setfield(self, "pipeline", pipeline)
        setfield(self, "ns", ns)
        setfield(self, "v", v)
        setfield(self, "h", h)


def scenario_from_json(data) -> Scenario:
    """Read 'ns' from the object "lattices" and 'v' and 'h' from "vectors";
    other names there are ignored."""
    if not isinstance(data, dict):
        raise InputError("a scenario is a JSON object")
    pipeline = data.get("pipeline")
    if not isinstance(pipeline, str) or not pipeline:
        raise InputError("scenario needs a pipeline name")
    lattices, vectors = data.get("lattices") or {}, data.get("vectors") or {}
    for key, named in (("lattices", lattices), ("vectors", vectors)):
        if not isinstance(named, dict):
            raise InputError(f"scenario {key!r} must be a JSON object")
    if "ns" not in lattices:
        raise InputError("scenario needs a lattice named 'ns'")
    if "v" not in vectors:
        raise InputError("scenario needs a vector named 'v'")
    ns = ns_from_json(lattices["ns"])
    if not isinstance(vectors["v"], dict):
        raise InputError("'v' must be a Mukai vector with keys r, l, s")
    h = None
    if "h" in vectors:
        if isinstance(vectors["h"], dict):
            raise InputError("'h' must be a plain lattice vector")
        h = latvec_from_json(vectors["h"])
    return Scenario(pipeline, ns, mukai_from_json(vectors["v"]), h)


def load_scenario(path) -> Scenario:
    return scenario_from_json(load_json_file(path))


def run_scenario(sc: Scenario) -> TheoremReport:
    """Dispatch a scenario to its pipeline; casoprim requires the polarization 'h'."""
    if sc.pipeline == "vbk3ell":
        return vbk3ell_pipeline(sc.ns, sc.v, sc.h)
    if sc.pipeline == "casoprim":
        if sc.h is None:
            raise InputError("casoprim needs a polarization vector named 'h'")
        return casoprim_pipeline(sc.ns, sc.v, sc.h)
    raise InputError(f"unknown pipeline {_shown(sc.pipeline)}")
