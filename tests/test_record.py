"""hkmod's record classes behave like the frozen dataclasses they replace.

Each class is checked against a twin built with dataclasses.make_dataclass
from the field list (names and defaults) the class had as a
frozen dataclass; the twin stores the same arguments without validating
them. The package itself never imports dataclasses.
"""

import copy
import importlib
import inspect
import pickle
from dataclasses import field, make_dataclass
from fractions import Fraction

import pytest

from hkmod import fujiki, hilb2, mukai, nl, pipelines, reduction, report, verify, walls
from hkmod.errors import InputError
from hkmod.lattice import vec

lattice = importlib.import_module("hkmod.lattice")  # hkmod.lattice the attribute is a function

V = vec((1, 0))
W = vec((0, 1))
NS = lattice.lattice([[2, 1], [1, 0]])
MV = mukai.MukaiVector(2, V, 0)
STEP = reduction.ModificationStep(1, 0)
WALL = walls.WallClass(vec((1, -1)), -4, -1, 3)
CHECK = report.Check("c", True, {"x": 1})
REPORT = report.TheoremReport("t", (CHECK,))

# class -> (fields as the dataclass declared them, sample arguments, arguments differing from them)
# A field is a name, or (name, default), or (name, dataclasses.field(...)).
SPECS = {
    lattice.LatVec: (["coords"], [(1, Fraction(1, 2))], [(1, 2)]),
    lattice.IntLattice: (["rank", "gram"], [2, ((2, 1), (1, 0))], [2, ((2, 1), (1, 2))]),
    mukai.MukaiVector: (["r", "l", "s"], [2, V, 0], [2, V, 1]),
    mukai.MukaiNumerics: (
        ["v_square", "n_v", "a_v", "delta"], [0, 1, Fraction(8), 8], [2, 2, Fraction(10), 10]
    ),
    walls.EllipticNS: (["e", "d"], [2, 3], [4, 3]),
    walls.WallClass: (["lam", "norm", "pair_h", "pair_f"], [V, -4, -1, 3], [W, -4, -1, 3]),
    walls.SuitabilityReport: (
        ["suitable", "generic", "witnesses"], [False, True, (WALL,)], [True, True, ()]
    ),
    reduction.AtiyahResult: (["exists", "unique"], [True, True], [False, False]),
    reduction.ModificationStep: (["r_b", "deg_b"], [1, 0], [2, 0]),
    reduction.ReductionTrace: (
        ["start", "final", "steps", "squares"],
        [MV, MV, (), (4,)],
        [MV, MV, (), (2,)],
    ),
    reduction.HomCountResult: (["value", "is_bezout_pair"], [1, True], [2, False]),
    report.Check: (
        ["name", "passed", ("data", field(default_factory=dict))],
        ["c", True, {"x": 1}],
        ["c", False, {"x": 1}],
    ),
    report.TheoremReport: (
        ["theorem", "checks", ("data", field(default_factory=dict))],
        ["t", (CHECK,), {"a": Fraction(1, 2)}],
        ["u", (CHECK,), {"a": Fraction(1, 2)}],
    ),
    fujiki.FujikiSetup: (["n", "c_x", "pairing"], [2, Fraction(1), NS], [3, Fraction(1), NS]),
    hilb2.F2Invariants: (
        ["rank", "delta_coeff", "d_mod", "a_mod"], [4, 1, 30, 120], [9, 6, 180, 3645]
    ),
    hilb2.McKaySquare: (
        ["dims", "end0_vanishing"], [(1, 0, 1, 0, 1), True], [(1, 0, 2, 0, 1), False]
    ),
    nl.NefIsotropicClasses: (
        ["rays", "alpha", "pairing_alpha_h", "unique", "e_divides_d", "e_divides_2d"],
        [((W, 3), (V, 6)), V, 6, True, False, False],
        [((W, 3), (V, 6)), V, 3, False, True, True],
    ),
    nl.Admissibility: (
        ["ok", "reasons", ("details", field(default_factory=dict))],
        [False, ("walls",), {"a": 3}],
        [True, (), {"a": 3}],
    ),
    pipelines.TwistResult: (
        ["vector", "x", "ray", "gcd_r_x", "r_l_coprime"],
        [MV, 1, V, 1, True],
        [MV, 1, None, 1, True],
    ),
    # Scenario's fields since it holds only what the pipelines read
    pipelines.Scenario: (
        ["pipeline", "ns", "v", ("h", None)],
        ["vbk3ell", NS, MV, V],
        ["casoprim", NS, MV, V],
    ),
    verify.VerifySummary: (["suites"], [(REPORT,)], [()]),
}


# to_json_dict() of each record that had a hand-written one before Record derived it from
# the fields, written from that code (IntLattice without the label field it has since
# lost). repr pins key order and scalar types as well.
PINNED_JSON = {
    lattice.LatVec: [1, Fraction(1, 2)],
    lattice.IntLattice: {"rank": 2, "gram": [[2, 1], [1, 0]]},
    mukai.MukaiVector: {"r": 2, "l": [1, 0], "s": 0},
    walls.EllipticNS: {"e": 2, "d": 3},
    walls.WallClass: {"lambda": [1, 0], "norm": -4, "pair_h": -1, "pair_f": 3},
    walls.SuitabilityReport: {
        "suitable": False,
        "generic": True,
        "witnesses": [{"lambda": [1, -1], "norm": -4, "pair_h": -1, "pair_f": 3}],
    },
    reduction.ModificationStep: {"r_b": 1, "deg_b": 0},
    reduction.ReductionTrace: {
        "start": {"r": 2, "l": [1, 0], "s": 0},
        "final": {"r": 2, "l": [1, 0], "s": 0},
        "steps": [],
        "squares": [4],
    },
    report.Check: {"name": "c", "passed": True, "data": {"x": 1}},
    report.TheoremReport: {
        "theorem": "t",
        "verdict": True,
        "checks": [{"name": "c", "passed": True, "data": {"x": 1}}],
        "data": {"a": Fraction(1, 2)},
    },
    hilb2.F2Invariants: {"rank": 4, "delta_coeff": 1, "d_mod": 30, "a_mod": 120},
    hilb2.McKaySquare: {"dims": [1, 0, 1, 0, 1], "end0_vanishing": True},
    nl.NefIsotropicClasses: {
        "rays": [{"class": [0, 1], "pair_h": 3}, {"class": [1, 0], "pair_h": 6}],
        "alpha": [1, 0],
        "pair_alpha_h": 6,
        "unique": True,
        "e_divides_d": False,
        "e_divides_2d": False,
    },
    nl.Admissibility: {"ok": False, "reasons": ["walls"], "details": {"a": 3}},
    pipelines.TwistResult: {
        "vector": {"r": 2, "l": [1, 0], "s": 0},
        "x": 1,
        "ray": [1, 0],
        "gcd_r_x": 1,
        "r_l_coprime": True,
    },
    verify.VerifySummary: {
        "ok": True,
        "suites": [
            {
                "theorem": "t",
                "verdict": True,
                "checks": [{"name": "c", "passed": True, "data": {"x": 1}}],
                "data": {},
            }
        ],
        "failures": [],
    },
}

def twin_of(cls):
    fields = [(f, object) if isinstance(f, str) else (f[0], object, f[1]) for f in SPECS[cls][0]]
    return make_dataclass(cls.__name__, fields, frozen=True)


def names(cls):
    return [f if isinstance(f, str) else f[0] for f in SPECS[cls][0]]


def hash_or_error(obj):
    try:
        return hash(obj)
    except TypeError as exc:  # a record holding a dict is unhashable, as a dataclass is
        return str(exc)


def test_every_former_dataclass_is_covered():
    assert len(SPECS) == 21
    modules = (fujiki, hilb2, lattice, mukai, nl, pipelines, reduction, report, verify, walls)
    found = {
        obj
        for module in modules
        for obj in vars(module).values()
        if inspect.isclass(obj) and obj.__module__ == module.__name__ and "_fields" in vars(obj)
    }
    assert found == set(SPECS)


@pytest.mark.parametrize("cls", list(SPECS), ids=lambda c: c.__name__)
def test_record_matches_frozen_dataclass(cls):
    twin = twin_of(cls)
    _, args, other = SPECS[cls]
    kwargs = dict(zip(names(cls), args))
    obj, tw = cls(*args), twin(*args)

    assert repr(obj) == repr(tw)
    assert repr(cls(**kwargs)) == repr(twin(**kwargs)) == repr(tw)
    assert hash_or_error(obj) == hash_or_error(tw)
    assert obj == cls(**kwargs) and tw == twin(**kwargs)
    assert (obj == cls(*other)) is (tw == twin(*other)) is False
    assert (obj != cls(*other)) is (tw != twin(*other)) is True
    assert obj != tw and tw != obj
    assert obj.__eq__(args) is NotImplemented
    assert cls.__match_args__ == twin.__match_args__
    assert list(inspect.signature(cls).parameters) == list(inspect.signature(twin).parameters)
    for name in names(cls):
        assert getattr(obj, name) is kwargs[name]
        with pytest.raises(AttributeError):
            setattr(obj, name, None)
        with pytest.raises(AttributeError):
            setattr(tw, name, None)
        with pytest.raises(AttributeError):
            delattr(obj, name)
    with pytest.raises(AttributeError):
        obj.not_a_field = 1
    assert copy.copy(obj) == obj and pickle.loads(pickle.dumps(obj)) == obj


WITH_DEFAULTS = [cls for cls, (fields, _, _) in SPECS.items() if not isinstance(fields[-1], str)]


@pytest.mark.parametrize("cls", WITH_DEFAULTS, ids=lambda c: c.__name__)
def test_record_defaults_match(cls):
    twin = twin_of(cls)
    fields, args, _ = SPECS[cls]
    required = [a for f, a in zip(fields, args) if isinstance(f, str)]
    obj, tw = cls(*required), twin(*required)
    assert repr(obj) == repr(tw)
    assert obj == cls(*required)
    for f in fields:
        if not isinstance(f, str) and getattr(f[1], "default_factory", None) is dict:
            # each instance gets its own empty dict
            assert getattr(obj, f[0]) == {}
            assert getattr(obj, f[0]) is not getattr(cls(*required), f[0])
            assert getattr(tw, f[0]) is not getattr(twin(*required), f[0])


def test_cached_lattice_stays_out_of_equality_and_repr():
    ns, fresh = walls.EllipticNS(2, 3), walls.EllipticNS(2, 3)
    assert ns.lattice is ns.lattice
    assert ns == fresh and hash(ns) == hash(fresh) == hash((2, 3))
    assert repr(ns) == repr(fresh) == "EllipticNS(e=2, d=3)"
    with pytest.raises(AttributeError):
        ns.lattice = None


@pytest.mark.parametrize("cls", list(PINNED_JSON), ids=lambda c: c.__name__)
def test_to_json_dict_is_pinned(cls):
    got, want = cls(*SPECS[cls][1]).to_json_dict(), PINNED_JSON[cls]
    assert got == want and repr(got) == repr(want)


def test_to_json_dict_keeps_a_missing_ray_as_none():
    got = pipelines.TwistResult(MV, 1, None, 1, True).to_json_dict()
    assert repr(got) == repr({**PINNED_JSON[pipelines.TwistResult], "ray": None})


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda: walls.SuitabilityReport(False, True, ()), "must carry a witness"),
        (lambda: walls.SuitabilityReport(True, True, (WALL,)), "carries no witness"),
        (lambda: reduction.ReductionTrace(MV, MV, (), (5, 3)), "one more square than steps"),
        (lambda: reduction.ReductionTrace(MV, MV, (STEP,), (3, 5)), "decrease strictly"),
        (lambda: reduction.ReductionTrace(MV, MV, (STEP,), (0, -4)), "at least -2"),
    ],
    ids=[
        "unsuitable_without_witness", "suitable_with_witness", "squares_and_steps",
        "squares_increase", "square_below_-2",
    ],
)
def test_inconsistent_record_is_an_input_error(build, message):
    # an exception, not an assert, so python -O refuses it too
    with pytest.raises(InputError, match=message):
        build()
