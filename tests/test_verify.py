import ast
import inspect
import os
import random
import subprocess
import sys
from fractions import Fraction
from itertools import chain, count
from math import floor, gcd
from pathlib import Path

import pytest

import hkmod
from hkmod import checks, fujiki, hilb2, mukai, nl, pipelines, reduction, verify, walls
from hkmod.errors import InputError
from hkmod.lattice import vec
from hkmod.checks import SUITES
from hkmod.verify import verify_all


def test_all_suites_pass():
    summary = verify_all()
    assert summary.ok
    assert summary.failures() == []
    assert [s.theorem for s in summary.suites] == sorted(SUITES)
    assert len(summary.suites) == 8
    for suite in summary.suites:
        assert suite.checks, suite.theorem


TABLE = [(suite, fn) for suite, fns in SUITES.items() for fn in fns]


@pytest.mark.parametrize("suite, fn", TABLE, ids=[f"{s}.{fn.__name__}" for s, fn in TABLE])
def test_check(suite, fn):
    check = verify._check(suite, fn)
    assert check.passed, check.data


def test_every_check_is_in_the_table_once():
    public = {
        name for name, obj in vars(checks).items()
        if inspect.isfunction(obj) and obj.__module__ == checks.__name__
        and not name.startswith("_")
    }
    listed = [fn.__name__ for _, fn in TABLE]
    assert len(set(listed)) == len(listed)  # check names are unique across suites
    assert set(listed) == public  # no public function is left out of the table


def test_filtered_run():
    summary = verify_all("walls")
    assert [s.theorem for s in summary.suites] == ["walls"]
    assert summary.ok
    data = summary.to_json_dict()
    assert data["ok"] is True


def test_unknown_filter():
    with pytest.raises(InputError):
        verify_all("nomatch")


def test_a_check_that_raises_fails_with_its_error_and_the_others_still_run(monkeypatch):
    def raises(rng):
        raise ValueError("no answer")

    first, *rest = SUITES["lattice"]
    monkeypatch.setitem(SUITES, "lattice", (first, raises, *rest))
    summary = verify_all("lattice")
    ran = summary.suites[0].checks
    assert [c.name for c in ran] == [first.__name__, "raises", *(fn.__name__ for fn in rest)]
    assert (ran[1].passed, ran[1].data) == (False, {"error": "ValueError: no answer"})
    assert summary.failures() == ["lattice.raises"]


def wide_box_walls(e, d, a):
    # the fixed +-10*(|e|+2d)*floor(a) y-box the self-check scanned before
    out = []
    x = 1
    while x <= a:
        bound = 10 * (abs(e) + 2 * d) * int(a) + 10
        for y in range(-bound, bound + 1):
            q = x * (e * x + 2 * d * y)
            if -a <= q < 0 and gcd(x, abs(y)) == 1:
                out.append((x, y))
        x += 1
    return sorted(out)


def test_narrowed_wall_box_matches_wide_scan():
    cases = [(e, d, a) for e in (2, 4) for d in (1, 3)
             for a in (Fraction(6), Fraction(12), Fraction(7, 2))]
    cases += [(e, d, a) for e in range(-6, 7) for d in (1, 2)
              for a in (Fraction(5), Fraction(9, 2), Fraction(11, 3))]
    for e, d, a in cases:
        assert checks._brute_walls(e, d, a) == wide_box_walls(e, d, a), (e, d, a)


def test_narrowed_potenza_range_matches_full_range():
    rng = random.Random(7)
    for _ in range(300):
        n, d1 = rng.randint(1, 3), rng.randint(1, 4)
        d2, r, a = d1 * rng.randint(1, 4), rng.randint(1, 30), rng.randint(1, 12)
        full = [
            r0 for r0 in range(1, r * d1 * d2 + 2)
            if r0**n == r * gcd(r0, d1) * gcd(r0, d2)
            and r0 ** (n - 1) % (gcd(r0, d1) * gcd(r0, d2)) == 0
            and gcd(r, a) == r0 ** (n - 1) // (gcd(r0, d1) * gcd(r0, d2))
        ]
        assert checks._brute_potenza(n, d1, d2, r, a) == full, (n, d1, d2, r, a)


def test_fiber_check_catches_a_wrong_top_intersection_without_asserts():
    # MUTATIONS["top_intersection_off_by_one"] under python -O, where every assert is stripped
    src = str(Path(hkmod.__file__).resolve().parents[1])
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    code = (
        "import sys\n"
        "from hkmod import fujiki\n"
        "from hkmod.verify import verify_all\n"
        "top = fujiki.top_intersection\n"
        "fujiki.top_intersection = lambda setup, classes: top(setup, classes) + 1\n"
        "print(sys.flags.optimize, *verify_all('fujiki').failures())\n"
    )
    proc = subprocess.run(
        [sys.executable, "-O", "-c", code],
        capture_output=True,
        text=True,
        timeout=60,
        env={**os.environ, "PYTHONPATH": path},
    )
    assert proc.returncode == 0, proc.stderr
    optimize, *failures = proc.stdout.split()
    assert optimize == "1"
    assert "fujiki.fiber_integral_closed_form" in failures


def changed(record, **fields):
    """A copy of a record with some fields replaced."""
    return type(record)(**{**{f: getattr(record, f) for f in record._fields}, **fields})


def bump_s(w):
    """The same Mukai vector with s + 1: its square moves by -2r."""
    return mukai.MukaiVector(w.r, w.l, w.s + 1)


def first_coprime_from(start, r0):
    """The least d0 >= start with gcd(d0, r0) = 1."""
    return next(d0 for d0 in count(start) if gcd(d0, r0) == 1)


def with_data(report, **data):
    """The same report with some data entries added or replaced."""
    return changed(report, data={**report.data, **data})


def numbering_calls(f):
    """f with each report it returns numbering the call: the same scenario, a different report."""
    calls = count()
    return lambda sc: with_data(f(sc), call=next(calls))


def without_last_check(report):
    """The same theorem report with its last check dropped: a verdict that stays true."""
    return changed(report, checks=report.checks[:-1])


def ignoring(rep, reason):
    """The same admissibility report with one condition no longer counted."""
    reasons = tuple(r for r in rep.reasons if r != reason)
    return changed(rep, ok=not reasons, reasons=reasons)


def matchings_sum_once_per_partner(q_values, classes):
    """matchings_sum with the multiplicities dropped: the first class is matched with each
    distinct class left once, however many copies of it are left. Right on distinct classes."""
    if not classes:
        return 1
    first, rest = classes[0], list(classes[1:])
    total = 0
    for partner in dict.fromkeys(rest):
        left = list(rest)
        left.remove(partner)
        total += q_values(first, partner) * matchings_sum_once_per_partner(q_values, left)
    return total


# (module the checks call the routine through, routine, wrong version, suite, check).
# The library computes these answers without re-proving them; each mutation
# gives one of them a wrong answer that only the named verify-all check sees.
MUTATIONS = {
    "wall_dropped": (
        walls, "enumerate_wall_classes",
        lambda f: lambda ns, a: f(ns, a)[:-1],
        "walls", "enumeration_matches_box_scan",
    ),
    "wall_of_positive_norm_added": (
        walls, "enumerate_wall_classes",
        lambda f: lambda ns, a: sorted(
            f(ns, a) + [walls.WallClass(ns.h, ns.q(ns.h), ns.e, ns.d)], key=lambda w: w.lam.coords
        ),
        "walls", "enumeration_matches_box_scan",
    ),
    "wall_pair_h_off_by_one": (
        walls, "enumerate_wall_classes",
        lambda f: lambda ns, a: [changed(w, pair_h=w.pair_h + 1) for w in f(ns, a)],
        "walls", "wall_fields_match_lattice",
    ),
    "min_negative_norm_off_by_one": (
        walls, "min_negative_norm",
        lambda f: lambda ns: f(ns) + 1,
        "walls", "min_negative_norm_brute_force",
    ),
    "wall_stream_adds_the_polarization": (
        walls, "_wall_stream",
        lambda f: lambda e, d, a: chain(f(e, d, a), [(1, 0)]),
        "nl", "admissibility_examples",
    ),
    "top_intersection_off_by_one": (
        fujiki, "top_intersection",
        lambda f: lambda setup, classes: f(setup, classes) + 1,
        "fujiki", "fiber_integral_closed_form",
    ),
    "isotropic_alpha_not_isotropic": (
        nl, "nef_isotropic_classes",
        lambda f: lambda e, d: changed(f(e, d), alpha=walls.EllipticNS(e, d).h),
        "nl", "isotropic_ray_unique_iff_indivisible",
    ),
    "isotropic_pairing_off_by_one": (
        nl, "nef_isotropic_classes",
        lambda f: lambda e, d: changed(f(e, d), pairing_alpha_h=f(e, d).pairing_alpha_h + 1),
        "nl", "isotropic_ray_unique_iff_indivisible",
    ),
    "isotropic_uniqueness_negated": (
        nl, "nef_isotropic_classes",
        lambda f: lambda e, d: changed(f(e, d), unique=not f(e, d).unique),
        "nl", "isotropic_ray_unique_iff_indivisible",
    ),
    "isotropic_e_divides_d_negated": (
        nl, "nef_isotropic_classes",
        lambda f: lambda e, d: changed(f(e, d), e_divides_d=not f(e, d).e_divides_d),
        "nl", "isotropic_ray_unique_iff_indivisible",
    ),
    "k3_admissible_always": (
        nl, "nl_k3_admissible",
        lambda f: lambda e, d, num: nl.Admissibility(True, ()),
        "nl", "admissibility_examples",
    ),
    "k3_admissible_needs_one_more": (
        nl, "nl_k3_admissible",
        lambda f: lambda e, d, num: f(e, d - 1, num),
        "nl", "admissibility_examples",
    ),
    "hk_admissible_ignores_divisibility": (
        nl, "nl_hk_admissible",
        lambda f: lambda e, d, i: ignoring(f(e, d, i), "e does not divide 2d"),
        "nl", "admissibility_examples",
    ),
    "hk_parity_whatever_i": (
        nl, "nl_hk_admissible",
        lambda f: lambda e, d, i: f(e, d, 2),
        "nl", "admissibility_examples",
    ),
    "buonacompt_bound_shifted": (
        nl, "buonacompt_bound",
        lambda f: lambda r0, e: f(r0, e) + 1,
        "nl", "min_d_search_is_minimal",
    ),
    "buonacompt_min_d_one_step_late": (
        nl, "buonacompt_min_d",
        lambda f: lambda r0, e, i, **cap: f(r0, e, i, **cap) + i,
        "nl", "min_d_search_is_minimal",
    ),
    "rigsuk_bound_shifted": (
        nl, "rigsuk_bound",
        lambda f: lambda m0, r0: f(m0, r0) + 1,
        "nl", "min_d0_search_is_minimal",
    ),
    "min_d0_may_equal_the_bound": (
        nl, "rigsuk_min_d0",
        lambda f: lambda m0, r0: first_coprime_from(floor(nl.rigsuk_bound(m0, r0)), r0),
        "nl", "min_d0_search_is_minimal",
    ),
    "propriostab_ignores_gcd": (
        nl, "propriostab_admissible",
        lambda f: lambda e, d, i, a0, m: ignoring(f(e, d, i, a0, m), "gcd(m*i, d/i) = 1"),
        "nl", "admissibility_examples",
    ),
    "twist_changes_square": (
        checks, "twist_by_mf",
        lambda f: lambda ns, v, m, fib: bump_s(f(ns, v, m, fib)),
        "mukai", "twist_preserves_square",
    ),
    "threshold_one_too_low": (
        walls, "no_wall_threshold",
        lambda f: lambda e, a: f(e, a) - 1,
        "walls", "threshold_guarantees_empty",
    ),
    "orthogonal_wall_missed": (
        walls, "orthogonal_wall",
        lambda f: lambda ns, a, h: None,
        "walls", "unsuitability_witnesses_violate_signs",
    ),
    "orthogonal_wall_ignores_level": (
        walls, "orthogonal_wall",
        lambda f: lambda ns, a, h: f(ns, 10**9, h),
        "walls", "unsuitability_witnesses_violate_signs",
    ),
    "ray_is_the_wall": (
        walls, "wall_ray",
        lambda f: lambda ns, wall: wall.lam,
        "walls", "rays_orthogonal_positive_primitive",
    ),
    "bezout_d0_off_by_one": (
        reduction, "bezout_r0_d0",
        lambda f: lambda r, k: (f(r, k)[0], f(r, k)[1] + 1),
        "reduction", "bezout_pair_sweep",
    ),
    "hom_count_off_by_one": (
        reduction, "hom_count_check",
        lambda f: lambda k, r, r0, d0: changed(f(k, r, r0, d0), value=f(k, r, r0, d0).value + 1),
        "reduction", "bezout_pair_sweep",
    ),
    "rigid_vector_not_rigid": (
        reduction, "rigid_vector",
        lambda f: lambda ns, v, fib: bump_s(f(ns, v, fib)),
        "reduction", "rigid_vector_square_minus_two",
    ),
    "modification_wrong_drop": (
        reduction, "elementary_modification",
        lambda f: lambda ns, w, step, fib: bump_s(f(ns, w, step, fib)),
        "reduction", "modification_drop_law",
    ),
    "dimension_sides_differ": (
        reduction, "nonlocally_free_dim_identity",
        lambda f: lambda ns, v, dlen: (f(ns, v, dlen)[0], f(ns, v, dlen)[1] + 1),
        "reduction", "nonlocally_free_dimension_identity",
    ),
    "dimension_sides_shifted_together": (
        reduction, "nonlocally_free_dim_identity",
        lambda f: lambda ns, v, dlen: tuple(side + dlen for side in f(ns, v, dlen)),
        "reduction", "nonlocally_free_dimension_identity",
    ),
    "f2_a_mod_off_by_one": (
        hilb2, "f2_invariants",
        lambda f: lambda r0: changed(f(r0), a_mod=f(r0).a_mod + 1),
        "hilb2", "exterior_square_invariants_closed_form",
    ),
    "f2_rank_off_by_one": (
        hilb2, "f2_invariants",
        lambda f: lambda r0: changed(f(r0), rank=f(r0).rank + 1),
        "hilb2", "exterior_square_invariants_closed_form",
    ),
    "f2_d_mod_off_by_one": (
        hilb2, "f2_invariants",
        lambda f: lambda r0: changed(f(r0), d_mod=f(r0).d_mod + 1),
        "hilb2", "exterior_square_invariants_closed_form",
    ),
    "multacca_changes_square": (
        pipelines, "multacca_normalize",
        lambda f: lambda ns, v, h, n: changed(f(ns, v, h, n), vector=bump_s(f(ns, v, h, n).vector)),
        "pipelines", "twist_normalization_squares",
    ),
    "multacca_gcd_not_one": (
        pipelines, "multacca_normalize",
        lambda f: lambda ns, v, h, n: changed(f(ns, v, h, n), gcd_r_x=f(ns, v, h, n).gcd_r_x + 1),
        "pipelines", "twist_normalization_squares",
    ),
    "multacca_ray_doubled": (
        pipelines, "multacca_normalize",
        lambda f: lambda ns, v, h, n: changed(
            f(ns, v, h, n), ray=None if f(ns, v, h, n).ray is None else 2 * f(ns, v, h, n).ray
        ),
        "pipelines", "twist_normalization_squares",
    ),
    "potenza_answers_shifted": (
        hilb2, "potenza_solve",
        lambda f: lambda n, d1, d2, r, a: [r0 + 1 for r0 in f(n, d1, d2, r, a)],
        "hilb2", "rank_equation_brute_force",
    ),
    "resemibis_drops_last": (
        hilb2, "resemibis_ranks",
        lambda f: lambda kind, r_max: f(kind, r_max)[:-1],
        "hilb2", "power_rank_lists",
    ),
    "restrango_negated": (
        hilb2, "restrango_check",
        lambda f: lambda kind, r, m: not f(kind, r, m),
        "hilb2", "descent_rank_constraint",
    ),
    "mckay_dim0_off_by_one": (
        hilb2, "mckay_ext_dims",
        lambda f: lambda a: changed(f(a), dims=(f(a).dims[0] + 1,) + f(a).dims[1:]),
        "hilb2", "induced_ext_generating_function",
    ),
    "end0_vanishing_negated": (
        hilb2, "mckay_ext_dims",
        lambda f: lambda a: changed(f(a), end0_vanishing=not f(a).end0_vanishing),
        "hilb2", "induced_ext_vanishing_pattern",
    ),
    "end0_vanishing_always": (
        hilb2, "mckay_ext_dims",
        lambda f: lambda a: changed(f(a), end0_vanishing=True),
        "hilb2", "induced_ext_vanishing_pattern",
    ),
    "propsemi_bound_negated": (
        fujiki, "propsemi_bound_check",
        lambda f: lambda setup, r, d_f, lam: not f(setup, r, d_f, lam),
        "fujiki", "semistable_bound_interval",
    ),
    "discriminant_rhs_off_by_one": (
        fujiki, "discriminant_sum_identity",
        lambda f: lambda *args: (f(*args)[0], f(*args)[1] + 1),
        "fujiki", "discriminant_decomposition_balance",
    ),
    "atiyah_negated": (
        reduction, "atiyah_exists",
        lambda f: lambda r, deg: changed(f(r, deg), exists=not f(r, deg).exists),
        "reduction", "coprime_fiber_bundle_cases",
    ),
    "m0_s0_off_by_one": (
        nl, "m0_s0",
        lambda f: lambda r0, e, sign="+": (f(r0, e, sign)[0] + 1, f(r0, e, sign)[1]),
        "hilb2", "twist_numerics_integral_sweep",
    ),
    "h_polarization_shifted": (
        hilb2, "h_polarization",
        lambda f: lambda r0, i, sign="+": f(r0, i, sign) + vec((0, 0, 1)),
        "hilb2", "ambient_dictionary_sweep",
    ),
    "rosetta_drops_saturation": (
        hilb2, "rosetta_check",
        lambda f: lambda *args: without_last_check(f(*args)),  # h_f_saturated is the last check
        "hilb2", "ambient_dictionary_sweep",
    ),
    "unicita_drops_last_check": (
        hilb2, "unicita_report",
        lambda f: lambda *args, **kwargs: without_last_check(f(*args, **kwargs)),
        "hilb2", "ambient_dictionary_sweep",
    ),
    "governing_divisibility_flipped": (
        nl, "governing_divisibility",
        lambda f: lambda r0: 3 - f(r0),
        "hilb2", "parity_of_governing_divisibility",
    ),
    "econ_residue_shifted": (
        nl, "_econ_residue",
        lambda f: lambda r0: ((f(r0)[0] + 2) % f(r0)[1], f(r0)[1]),
        "hilb2", "twist_numerics_integral_sweep",
    ),
    "pair_asymmetric": (
        checks, "pair",
        lambda f: lambda lat, u, v: f(lat, u, v) + v.coords[0],
        "lattice", "pairing_bilinear_symmetric",
    ),
    "pair_not_bilinear": (
        checks, "pair",
        lambda f: lambda lat, u, v: f(lat, u, v) + (u.coords[0] * v.coords[0]) ** 2,
        "lattice", "pairing_bilinear_symmetric",
    ),
    "discriminant_off_by_one": (
        checks, "discriminant",
        lambda f: lambda lat: f(lat) + 1,
        "lattice", "rank2_discriminant",
    ),
    "primitive_part_doubled": (
        checks, "primitive_part",
        lambda f: lambda lat, v: 2 * f(lat, v),
        "lattice", "primitive_part_idempotent",
    ),
    "saturation_negated": (
        checks, "saturation_check",
        lambda f: lambda lat, u, v: not f(lat, u, v),
        "lattice", "saturation_detects_imprimitive_span",
    ),
    "mukai_square_off_by_one": (
        checks, "mukai_square",
        lambda f: lambda ns, v: f(ns, v) + 1,
        "mukai", "square_even_on_even_lattices",
    ),
    "normalize_twist_off_by_one": (
        checks, "normalize_twist",
        lambda f: lambda ns, v, w, fib: f(ns, v, w, fib) + 1,
        "mukai", "normalize_recovers_twist",
    ),
    "from_chern_bumps_s": (
        checks, "from_chern",
        lambda f: lambda ns, r, c1, c2: bump_s(f(ns, r, c1, c2)),
        "mukai", "chern_dictionary_cases",
    ),
    "from_chern_ignores_c2": (
        checks, "from_chern",
        lambda f: lambda ns, r, c1, c2: f(ns, r, c1, 0),
        "mukai", "chern_dictionary_cases",
    ),
    "from_chern_reads_rank_one": (
        checks, "from_chern",
        lambda f: lambda ns, r, c1, c2: changed(f(ns, r, c1, c2), s=f(ns, r, c1, c2).s - r + 1),
        "mukai", "chern_dictionary_cases",
    ),
    "numerics_delta_off_by_one": (
        checks, "numerics",
        lambda f: lambda ns, v: changed(f(ns, v), delta=f(ns, v).delta + 1),
        "mukai", "derived_numerics_identities",
    ),
    "numerics_a_off_by_one": (
        checks, "numerics",
        lambda f: lambda ns, v: changed(f(ns, v), a_v=f(ns, v).a_v + 1),
        "mukai", "derived_numerics_identities",
    ),
    "numerics_n_off_by_one": (
        checks, "numerics",
        lambda f: lambda ns, v: changed(f(ns, v), n_v=f(ns, v).n_v + 1),
        "mukai", "derived_numerics_identities",
    ),
    "fujiki_constant_off_by_one": (
        fujiki, "fujiki_constant",
        lambda f: lambda kind: f(kind) + 1,
        "fujiki", "constants_table",
    ),
    "double_factorial_off_by_one": (
        fujiki, "double_factorial",
        lambda f: lambda n: f(n) + 1,
        "fujiki", "matchings_count_double_factorial",
    ),
    "top_intersection_doubled": (
        fujiki, "top_intersection",
        lambda f: lambda setup, classes: 2 * f(setup, classes),
        "fujiki", "top_power_closed_form",
    ),
    "top_intersection_reads_the_order": (
        fujiki, "top_intersection",
        lambda f: lambda setup, classes: f(setup, classes) + classes[0].coords[0],
        "fujiki", "matchings_sum_permutation_invariant",
    ),
    "matchings_sum_drops_multiplicity": (
        fujiki, "matchings_sum",
        lambda f: matchings_sum_once_per_partner,
        "fujiki", "matchings_sum_permutation_invariant",
    ),
    "modular_integral_off_by_one": (
        fujiki, "modular_delta_integral",
        lambda f: lambda setup, d_mod, classes: f(setup, d_mod, classes) + 1,
        "fujiki", "modular_integral_scales_linearly",
    ),
    "vbk3ell_expected_dim_off_by_one": (
        pipelines, "vbk3ell_pipeline",
        lambda f: lambda ns, v, h=None: with_data(
            f(ns, v, h), expected_dim=f(ns, v, h).data["expected_dim"] + 1
        ),
        "pipelines", "pipeline_example_verdicts",
    ),
    "vbk3ell_always_suitable": (
        pipelines, "vbk3ell_pipeline",
        lambda f: lambda ns, v, h=None: with_data(
            f(ns, v, h), suitability={**f(ns, v, h).data["suitability"], "suitable": True}
        ),
        "pipelines", "pipeline_example_verdicts",
    ),
    "casoprim_drops_genericity": (
        pipelines, "casoprim_pipeline",
        lambda f: lambda ns, v, h: without_last_check(f(ns, v, h)),  # polarization_generic
        "pipelines", "pipeline_example_verdicts",
    ),
    "run_scenario_counts_its_calls": (
        pipelines, "run_scenario",
        numbering_calls,
        "pipelines", "reports_are_deterministic",
    ),
}


@pytest.mark.parametrize("mutation", sorted(MUTATIONS))
def test_identity_check_catches_a_wrong_answer(monkeypatch, mutation):
    module, name, wrong, suite, check = MUTATIONS[mutation]
    monkeypatch.setattr(module, name, wrong(getattr(module, name)))
    fn = getattr(checks, check)
    assert fn in SUITES[suite]
    result = verify._check(suite, fn)
    assert not result.passed
    assert "error" not in result.data  # refuted by a comparison, not by a crash


def test_every_check_refutes_a_mutation():
    # as test_every_check_is_in_the_table_once does for the table: no check goes unproven
    refuting = {check for *_, check in MUTATIONS.values()}
    assert refuting == {fn.__name__ for _, fn in TABLE}


def returned_from(suite, check):
    """The line of hkmod/checks.py that a run of the check through verify._check returns from."""
    lines = []

    def local(frame, event, arg):
        if event == "return":
            lines.append(frame.f_lineno)
        return local

    previous = sys.gettrace()
    sys.settrace(lambda frame, event, arg: local if frame.f_code is check.__code__ else None)
    try:
        verify._check(suite, check)
    finally:
        sys.settrace(previous)
    return lines[-1]


def failure_returns(source):
    """The lines of the `return False, ...` statements of a module's source."""
    return {
        node.lineno for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Return) and isinstance(node.value, ast.Tuple)
        and isinstance(node.value.elts[0], ast.Constant) and node.value.elts[0].value is False
    }


def test_scan_sees_failure_returns():
    source = "def c(rng):\n    if rng:\n        return False, {}\n    return True, {}\n"
    assert failure_returns(source) == {3}


def test_every_failure_return_is_reached_by_a_mutation(monkeypatch):
    """Each `return False, ...` of a check is where some mutation's wrong answer is refuted,
    so no failure branch of verify-all is dead code."""
    reached = set()
    for module, name, wrong, suite, check in MUTATIONS.values():
        with monkeypatch.context() as patch:
            patch.setattr(module, name, wrong(getattr(module, name)))
            reached.add(returned_from(suite, getattr(checks, check)))
    unreached = failure_returns(Path(checks.__file__).read_text()) - reached
    assert not unreached, f"no mutation reaches the failure returns at checks.py lines {unreached}"
