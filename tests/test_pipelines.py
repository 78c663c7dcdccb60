import json
import time
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from hkmod.errors import InputError, MathCheckError
from hkmod.lattice import IntLattice, lattice, vec
from hkmod.mukai import MukaiVector, mukai_square
from hkmod.pipelines import (
    Scenario,
    casoprim_pipeline,
    load_scenario,
    multacca_normalize,
    run_scenario,
    scenario_from_json,
    vbk3ell_pipeline,
)
from hkmod.walls import EllipticNS, as_elliptic

E4D1 = lattice(((4, 1), (1, 0)))
H = vec((1, 0))
V = MukaiVector(2, H, 0)


def test_vbk3ell_frozen():
    rep = vbk3ell_pipeline(EllipticNS(4, 1), V)
    assert rep.theorem == "vbk3ell"
    assert rep.verdict
    assert rep.data["a"] == 12
    assert rep.data["n"] == 3
    assert rep.data["expected_dim"] == 6
    assert rep.data["suitability"]["suitable"] is False
    # the suitability block is reported, not gated: the verdict stays True
    assert [c.name for c in rep.checks] == [
        "square_at_least_rigid_bound",
        "rank_coprime_to_fiber_degree",
    ]
    # an IntLattice of the right shape is accepted too
    assert vbk3ell_pipeline(E4D1, V).verdict


def test_vbk3ell_gates():
    rep = vbk3ell_pipeline(EllipticNS(4, 1), MukaiVector(2, vec((2, 0)), 0))
    assert not rep.verdict
    assert rep.failed()[0].name == "rank_coprime_to_fiber_degree"
    rep = vbk3ell_pipeline(EllipticNS(4, 1), MukaiVector(2, vec((0, 0)), 1))
    assert not rep.verdict
    assert rep.failed()[0].name == "square_at_least_rigid_bound"
    rep = vbk3ell_pipeline(EllipticNS(4, 1), V, h=vec((1, 5)))
    assert rep.verdict and rep.data["suitability"]["suitable"] is True
    with pytest.raises(InputError):
        vbk3ell_pipeline(lattice(((2, 1), (1, 2))), V)
    with pytest.raises(InputError):
        vbk3ell_pipeline(EllipticNS(4, 1), MukaiVector(0, H, 1))


def test_casoprim():
    rep = casoprim_pipeline(EllipticNS(4, 1), V, vec((1, 5)))
    assert rep.theorem == "casoprim"
    assert rep.verdict
    assert rep.data["a"] == 12
    rep = casoprim_pipeline(EllipticNS(4, 1), V, H)
    assert not rep.verdict
    gen = rep.failed()[0]
    assert gen.name == "polarization_generic"
    assert gen.data["witnesses"] == [
        {"lambda": [1, -4], "norm": -4, "pair_h": 0, "pair_f": 1}
    ]
    rep = casoprim_pipeline(EllipticNS(4, 1), MukaiVector(2, vec((2, 0)), 0), vec((1, 5)))
    assert not rep.verdict
    assert "rank_coprime_to_content" in [c.name for c in rep.failed()]
    # zero middle component: content counts as 0 and rank 1 is coprime to it
    rep = casoprim_pipeline(EllipticNS(4, 1), MukaiVector(1, vec((0, 0)), 0), vec((1, 5)))
    by_name = {c.name: c for c in rep.checks}
    assert by_name["rank_coprime_to_content"].passed
    with pytest.raises(InputError):
        casoprim_pipeline(EllipticNS(4, 1), V, vec((0, 1)))


LARGE_LEVEL = Path(__file__).with_name("casoprim_large_level.json")


def test_casoprim_genericity_does_not_scan_the_walls():
    # a(v) = 400,012 has about 10^6 wall classes; h^perp holds only (1, -9)
    v = MukaiVector(2, vec((1, 0)), -100000)
    start = time.perf_counter()
    rep = casoprim_pipeline(EllipticNS(4, 1), v, vec((1, 5)))
    elapsed = time.perf_counter() - start
    assert rep.data["a"] == 400012
    assert not rep.verdict
    assert [c.name for c in rep.failed()] == ["polarization_generic"]
    assert rep.failed()[0].data["witnesses"] == [
        {"lambda": [1, -9], "norm": -14, "pair_h": -5, "pair_f": 1}
    ]
    assert elapsed < 2, f"casoprim at a = 400012 took {elapsed:.2f}s, budget 2s"
    # the same scenario is checked in for the console-script timeout in CI
    assert load_scenario(LARGE_LEVEL) == Scenario("casoprim", E4D1, v, vec((1, 5)))


def test_multacca_frozen():
    res = multacca_normalize(E4D1, V, H, 1)
    assert res.vector == MukaiVector(2, vec((3, 0)), 8)
    assert res.x == 3
    assert res.ray.int_coords() == (1, 0)
    assert res.gcd_r_x == 1
    assert res.r_l_coprime
    assert res.to_json_dict()["vector"] == {"r": 2, "l": [3, 0], "s": 8}


def test_multacca_edges():
    # twist that cancels the middle component entirely
    res = multacca_normalize(E4D1, MukaiVector(1, vec((2, 0)), 0), H, -2)
    assert res.vector == MukaiVector(1, vec((0, 0)), -8)
    assert res.x == 0 and res.ray is None
    odd = lattice(((1, 0), (0, 0)))
    with pytest.raises(MathCheckError, match="non-integer"):
        multacca_normalize(odd, MukaiVector(1, vec((0, 0)), 0), vec((1, 0)), 1)
    with pytest.raises(InputError):
        multacca_normalize(E4D1, MukaiVector(0, H, 1), H, 1)
    with pytest.raises(InputError):
        multacca_normalize(E4D1, V, vec((Fraction(1, 2), 0)), 1)


def test_scenario_parsing(tmp_path):
    raw = {
        "pipeline": "casoprim",
        "lattices": {"ns": {"e": 4, "d": 1}, "aux": {"gram": [[2, 0], [0, -2]]}, "junk": 5},
        "vectors": {"v": {"r": 2, "l": [1, 0], "s": 0}, "h": [1, 5], "w": "junk"},
    }
    sc = scenario_from_json(raw)  # names other than ns, v and h are ignored
    assert sc == Scenario("casoprim", E4D1, V, vec((1, 5)))
    assert sc._fields == ("pipeline", "ns", "v", "h")
    assert run_scenario(sc).verdict
    gram = scenario_from_json({**raw, "lattices": {"ns": {"gram": [[4, 1], [1, 0]]}}})
    assert gram.ns == E4D1

    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(raw))
    assert run_scenario(load_scenario(path)).verdict

    with pytest.raises(InputError):
        scenario_from_json([])
    with pytest.raises(InputError):
        scenario_from_json({"lattices": {}})
    with pytest.raises(InputError):
        load_scenario(tmp_path / "missing.json")


def test_run_scenario_dispatch():
    base = {
        "pipeline": "vbk3ell",
        "lattices": {"ns": {"e": 4, "d": 1}},
        "vectors": {"v": {"r": 2, "l": [1, 0], "s": 0}},
    }
    sc = scenario_from_json(base)
    assert sc.h is None and run_scenario(sc).verdict
    refusals = [
        ({**base, "lattices": {}}, "needs a lattice named 'ns'"),
        ({**base, "vectors": {}}, "needs a vector named 'v'"),
        ({**base, "vectors": {"v": [1, 0]}}, "'v' must be a Mukai vector"),
        ({**base, "vectors": {**base["vectors"], "h": base["vectors"]["v"]}},
         "'h' must be a plain lattice vector"),
    ]
    for raw, message in refusals:
        with pytest.raises(InputError, match=message):
            scenario_from_json(raw)
    with pytest.raises(InputError, match="casoprim needs a polarization vector named 'h'"):
        run_scenario(Scenario("casoprim", EllipticNS(4, 1), V))
    with pytest.raises(InputError, match="unknown pipeline 'mystery'"):
        run_scenario(Scenario("mystery", EllipticNS(4, 1), V))


@pytest.mark.parametrize("pipeline", ["vbk3ell", "casoprim"])
def test_an_elliptic_scenario_builds_its_lattice_once(monkeypatch, pipeline):
    """The {e, d} shorthand's lattice is the one the pipeline pairs in, not a second build."""
    built = []
    init = IntLattice.__init__

    def counted(self, rank, gram):
        built.append(gram)
        init(self, rank, gram)

    monkeypatch.setattr(IntLattice, "__init__", counted)
    sc = scenario_from_json({
        "pipeline": pipeline,
        "lattices": {"ns": {"e": 4, "d": 1}},
        "vectors": {"v": {"r": 2, "l": [1, 0], "s": 0}, "h": [1, 5]},
    })
    run_scenario(sc)
    assert built == [((4, 1), (1, 0))]
    assert as_elliptic(sc.ns).lattice is sc.ns


def outcome(pipeline, ns, v, h):
    """What running the scenario gives: the refusal's type and text, or None for a report."""
    try:
        run_scenario(Scenario(pipeline, ns, v, h))
    except (InputError, MathCheckError) as exc:
        return type(exc), str(exc)
    return None


@settings(max_examples=300, deadline=None)
@given(st.integers(-3, 4), st.integers(1, 3), st.integers(0, 2), st.integers(-2, 2),
       st.integers(-2, 2), st.integers(-3, 3), st.integers(-2, 2), st.integers(-2, 3))
def test_both_pipelines_refuse_a_scenario_alike(e, d, r, x, y, s, h1, h2):
    """The pipelines share their start (the lattice, then h, then v's numerics), so a scenario
    that either refuses, h outside the positive cone, rank 0 or an odd square, both refuse with
    the same error; malformed h (exit 2) comes before a refusal of v (exit 1)."""
    ns, v, h = lattice(((e, d), (d, 0))), MukaiVector(r, vec((x, y)), s), vec((h1, h2))
    assert outcome("vbk3ell", ns, v, h) == outcome("casoprim", ns, v, h)


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 5), st.integers(-6, 6), st.integers(-6, 6), st.integers(-6, 6),
       st.integers(-4, 4), st.integers(-4, 4), st.integers(-3, 3))
def test_multacca_invariance(r, x, y, s, hx, hy, n):
    v = MukaiVector(r, vec((x, y)), s)
    h = vec((hx, hy))
    res = multacca_normalize(E4D1, v, h, n)
    assert mukai_square(E4D1, res.vector) == mukai_square(E4D1, v)
    if res.x:
        assert res.x * res.ray == res.vector.l
    back = multacca_normalize(E4D1, res.vector, h, -n)
    assert back.vector == v
