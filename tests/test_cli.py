import argparse
import contextlib
import gc
import io
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import hkmod
import hkmod.checks
from hkmod.__main__ import run as run_process
from hkmod.cli import COMMANDS, _emit, _human_lines, build_parser, main
from hkmod.errors import InputError
from hkmod.jsonio import _exact, canonical_json
from hkmod.lattice import vec
from hkmod.nl import divisibility_type, econ_check, governing_divisibility, m0_s0


@pytest.fixture()
def files(tmp_path):
    def write(name, data):
        path = tmp_path / name
        path.write_text(json.dumps(data))
        return str(path)

    return {
        "ns": write("ns.json", {"e": 4, "d": 1}),
        "v": write("v.json", {"r": 2, "l": [1, 0], "s": 0}),
        "w": write("w.json", {"r": 1, "l": [0, 1], "s": 1}),
        "steps": write("steps.json", [{"r_b": 1, "deg_b": 0}, {"r_b": 2, "deg_b": 0}]),
        "v3": write("v3.json", {"r": 3, "l": [1, 0], "s": 0}),
        "fujiki_setup": write("setup.json", {"kind": "K3^[2]", "gram": [[6]]}),
        "fujiki_classes": write("classes.json", [[1], [1], [1], [1]]),
        "scenario_vb": write(
            "scenario_vb.json",
            {
                "pipeline": "vbk3ell",
                "lattices": {"ns": {"e": 4, "d": 1}},
                "vectors": {"v": {"r": 2, "l": [1, 0], "s": 0}},
            },
        ),
        "scenario_cp": write(
            "scenario_cp.json",
            {
                "pipeline": "casoprim",
                "lattices": {"ns": {"e": 4, "d": 1}},
                "vectors": {"v": {"r": 2, "l": [1, 0], "s": 0}, "h": [1, 5]},
            },
        ),
        "h_bad": write("h_bad.json", [1, 0]),
    }


def run(capsys, argv):
    try:
        code = main(argv)
    except SystemExit as exc:  # argparse usage errors
        code = exc.code
    out = capsys.readouterr()
    return code, out.out, out.err


def test_walls_canonical_json(capsys):
    code, out, _ = run(
        capsys, ["walls", "--e", "2", "--d", "3", "--a", "6", "--json", "--no-timestamp"]
    )
    assert code == 0
    assert out == (
        '{"a":6,"count":2,"d":3,"e":2,"has_minus_two_class":false,'
        '"min_negative_norm":4,"walls":['
        '{"lambda":[1,-1],"norm":-4,"pair_f":3,"pair_h":-1,"ray":[3,1]},'
        '{"lambda":[2,-1],"norm":-4,"pair_f":6,"pair_h":1,"ray":[6,-1]}]}\n'
    )


# Payloads for the writer: nested dicts and lists of exact scalars, tuples and one record kind
SCALARS = st.none() | st.booleans() | st.integers() | st.fractions() | st.text(max_size=4)
RECORDS = st.lists(st.integers() | st.fractions(), min_size=1, max_size=3).map(vec)
VALUES = st.recursive(
    SCALARS | RECORDS,
    lambda inner: (st.lists(inner, max_size=3) | st.lists(inner, max_size=3).map(tuple)
                   | st.dictionaries(st.text(max_size=3), inner, max_size=3)),
    max_leaves=12,
)
PAYLOADS = st.dictionaries(st.text(max_size=5), VALUES | st.lists(VALUES, max_size=4), max_size=5)


def emitted(payload, json_mode, no_timestamp, streamed=False):
    """What _emit prints for payload; with streamed, each top-level list goes as an iterator."""
    if streamed:
        payload = {key: iter(v) if isinstance(v, list) else v for key, v in payload.items()}
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        _emit(argparse.Namespace(json=json_mode, no_timestamp=no_timestamp), payload)
    return out.getvalue()


@settings(max_examples=300, deadline=None)
@given(PAYLOADS, st.booleans(), st.booleans())
def test_the_writer_prints_what_the_one_shot_forms_print(payload, no_timestamp, streamed):
    # the oracle is the whole-payload output: canonical_json of the payload, generated_at
    # added unless --no-timestamp, and the human lines of its json round trip (the copy the
    # text path once printed from); a top-level list handed over as an iterator, an empty one
    # included, prints the same bytes
    out = emitted(payload, True, no_timestamp, streamed)
    stamp = {} if no_timestamp else {"generated_at": json.loads(out)["generated_at"]}
    assert out == canonical_json({**payload, **stamp})
    lines = _human_lines(json.loads(json.dumps(payload, default=_exact)))
    assert emitted(payload, False, no_timestamp, streamed) == "".join(f"{x}\n" for x in lines)


@pytest.mark.parametrize("payload", [{"x": object()}, {"rows": [1, {"y": (2, object())}]}])
def test_both_modes_refuse_what_exact_cannot_lower(payload):
    refusals = []
    for json_mode in (True, False):
        with pytest.raises(InputError) as refused:
            emitted(payload, json_mode, True)
        refusals.append(str(refused.value))
    assert refusals == ["cannot encode object as JSON"] * 2


def test_walls_human_and_timestamp(capsys):
    code, out, _ = run(capsys, ["walls", "--e", "2", "--d", "3", "--a", "6"])
    assert code == 0
    assert "count: 2" in out
    assert "min_negative_norm: 4" in out
    code, out, _ = run(capsys, ["walls", "--e", "2", "--d", "3", "--a", "6", "--json"])
    payload = json.loads(out)
    assert "generated_at" in payload and payload["generated_at"].endswith("Z")


def test_walls_suitability_exit(capsys):
    code, out, _ = run(
        capsys,
        ["walls", "--e", "4", "--d", "1", "--a", "12", "--suitability", "--json",
         "--no-timestamp"],
    )
    assert code == 1
    payload = json.loads(out)
    assert payload["suitability"]["suitable"] is False
    assert len(payload["suitability"]["witnesses"]) == 5
    code, out, _ = run(
        capsys,
        ["walls", "--e", "4", "--d", "31", "--a", "12", "--suitability", "--json",
         "--no-timestamp"],
    )
    assert code == 0
    assert json.loads(out)["count"] == 0


def test_mukai_outputs(capsys, files):
    code, out, _ = run(
        capsys,
        ["mukai", "--ns", files["ns"], "--v", files["v"], "--json", "--no-timestamp"],
    )
    assert code == 0
    assert out == '{"a":12,"delta":12,"n":3,"v_square":4}\n'
    code, out, _ = run(
        capsys,
        ["mukai", "--ns", files["ns"], "--v", files["v"], "--w", files["w"],
         "--json", "--no-timestamp"],
    )
    assert code == 0
    assert json.loads(out) == {"pairing": -1, "v_square": 4, "w_square": -2}


def test_rigid_output(capsys, files):
    code, out, _ = run(
        capsys,
        ["rigid", "--ns", files["ns"], "--v", files["v"], "--json", "--no-timestamp"],
    )
    assert code == 0
    assert out == (
        '{"d0":0,"k":1,"n":3,"r0":1,"v_square":4,'
        '"w":{"l":[1,3],"r":2,"s":3},"w_square":-2}\n'
    )


def test_reduce_trace(capsys, files):
    code, out, _ = run(
        capsys,
        ["reduce", "--ns", files["ns"], "--v", files["v3"], "--steps", files["steps"],
         "--json", "--no-timestamp"],
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["squares"] == [4, 2, -2]
    assert payload["final"] == {"r": 3, "l": [1, -3], "s": 0}


def test_fujiki_output(capsys, files):
    code, out, _ = run(
        capsys,
        ["fujiki", "--setup", files["fujiki_setup"], "--classes",
         files["fujiki_classes"], "--json", "--no-timestamp"],
    )
    assert code == 0
    assert json.loads(out) == {"value": 108, "matchings": 3, "n": 2, "c_x": 1}


@pytest.mark.parametrize(
    "setup, code, err",
    [
        ({"kind": "K3^[2]", "n": 2}, 0, ""),
        ({"kind": "K3^[2]", "n": 3}, 2, "error: kind 'K3^[2]' fixes n = 2, got n = 3\n"),
        ({"kind": "OG6", "n": 2}, 2, "error: kind 'OG6' fixes n = 3, got n = 2\n"),
        ({"kind": "K3^[n]", "n": 2}, 2, "error: unknown deformation type 'K3^[n]'\n"),
        ({"kind": "Kum_n", "n": 2}, 2, "error: unknown deformation type 'Kum_n'\n"),
        # a kind is matched whole, with ASCII digits only
        ({"kind": "K3^[2]\n"}, 2, "error: unknown deformation type 'K3^[2]\\n'\n"),
        ({"kind": "Kum_\u0662"}, 2, "error: unknown deformation type 'Kum_\u0662'\n"),
        # the n a kind names is an input number: the digit bound holds for it too
        ({"kind": "Kum_" + "1" * 4301}, 2, "error: input numbers have at most 4300 digits, "
                                           "got 4301\n"),
        ({"n": 2}, 2, "error: setup needs 'kind' or both 'n' and 'c_x'\n"),
    ],
    ids=["same-n", "K3^[2]-n3", "OG6-n2", "K3^[n]", "Kum_n", "trailing-newline",
         "arabic-indic-digit", "digit-bound", "no-kind-no-c_x"],
)
def test_fujiki_kind_names_its_own_n(capsys, files, tmp_path, setup, code, err):
    path = tmp_path / "setup.json"
    path.write_text(json.dumps({**setup, "gram": [[6]]}))
    got = run(capsys, ["fujiki", "--setup", str(path), "--classes", files["fujiki_classes"]])
    assert got[0] == code and got[2] == err


@pytest.mark.parametrize(
    "command, data",
    [
        ("reduce", [{"r_b": 1.5, "deg_b": 0}]),
        ("fujiki", {"n": 2.7, "c_x": 1, "gram": [[6]]}),
        ("fujiki", {"n": "abc", "c_x": 1, "gram": [[6]]}),
        ("fujiki", {"kind": "Kum_n", "n": "abc", "gram": [[6]]}),
    ],
)
def test_non_integer_scalars_are_input_errors(capsys, files, tmp_path, command, data):
    path = tmp_path / "input.json"
    path.write_text(json.dumps(data))
    if command == "reduce":
        argv = ["reduce", "--ns", files["ns"], "--v", files["v3"], "--steps", str(path)]
    else:
        argv = ["fujiki", "--setup", str(path), "--classes", files["fujiki_classes"]]
    code, out, err = run(capsys, argv)
    assert code == 2 and err.startswith("error:") and out == ""


@pytest.mark.parametrize(
    "command, data",
    [
        ("fujiki", {"kind": 5, "gram": [[6]]}),
        ("vbk3ell", {"pipeline": "vbk3ell", "lattices": [1], "vectors": {}}),
        ("casoprim", {"pipeline": "casoprim", "lattices": {"ns": {"e": 4, "d": 1}},
                      "vectors": [1]}),
        # Gram matrices that are not arrays of arrays
        ("mukai", {"gram": 5}),
        ("mukai", {"gram": [1, 2]}),
        ("mukai", {"gram": None}),
        ("fujiki", {"kind": "K3^[2]", "gram": 5}),
        ("vbk3ell", {"pipeline": "vbk3ell", "lattices": {"ns": {"gram": [1, 2]}},
                     "vectors": {"v": {"r": 2, "l": [1, 0], "s": 0}}}),
        ("casoprim", {"pipeline": "casoprim", "lattices": {"ns": {"gram": None}},
                      "vectors": {"v": {"r": 2, "l": [1, 0], "s": 0}, "h": [1, 5]}}),
    ],
)
def test_malformed_structure_is_input_error(capsys, files, tmp_path, command, data):
    path = tmp_path / "input.json"
    path.write_text(json.dumps(data))
    if command == "fujiki":
        argv = ["fujiki", "--setup", str(path), "--classes", files["fujiki_classes"]]
    elif command == "mukai":
        argv = ["mukai", "--ns", str(path), "--v", files["v"]]
    else:
        argv = [command, "--scenario", str(path)]
    code, out, err = run(capsys, argv)
    assert code == 2 and err.startswith("error:") and out == ""
    assert "Traceback" not in err


def test_nl_exit_codes(capsys):
    code, out, _ = run(
        capsys,
        ["nl", "--kind", "k3", "--e", "4", "--d", "31", "--r0", "2", "--vsq", "4",
         "--json", "--no-timestamp"],
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["ok"] is True
    assert payload["isotropic"]["unique"] is True
    code, _, _ = run(
        capsys,
        ["nl", "--kind", "k3", "--e", "4", "--d", "30", "--r0", "2", "--vsq", "4"],
    )
    assert code == 1
    code, _, _ = run(capsys, ["nl", "--kind", "hk", "--e", "4", "--d", "51", "--i", "1"])
    assert code == 0
    code, _, err = run(capsys, ["nl", "--kind", "k3", "--e", "4", "--d", "31"])
    assert code == 2 and "error:" in err


def test_nl_search(capsys):
    code, out, _ = run(
        capsys, ["nl-search", "--r0", "2", "--e", "6", "--json", "--no-timestamp"]
    )
    assert code == 0
    assert json.loads(out) == {
        "r0": 2,
        "e": 6,
        "i": 2,
        "min_d": 422,
        "min_d_bound": 420,
        "m0": 1,
        "s0": 1,
        "min_d0": 11,
        "min_d0_bound": 9,
    }
    # the first candidate above the bound, 15882616, has e | 2d
    code, _, err = run(capsys, ["nl-search", "--r0", "7", "--e", "8", "--cap", "1"])
    assert code == 3 and "error:" in err and "1 candidate(s)" in err
    code, out, _ = run(capsys, ["nl-search", "--r0", "7", "--e", "8", "--cap", "2", "--json",
                                "--no-timestamp"])
    assert code == 0 and json.loads(out)["min_d"] == 15882617
    code, out, _ = run(capsys, ["nl-search", "--r0", "8", "--e", "22", "--json",
                                "--no-timestamp"])
    assert code == 0 and json.loads(out)["min_d"] == 118702082
    code, _, err = run(capsys, ["nl-search", "--r0", "2", "--e", "8"])
    assert code == 1 and "refused:" in err


def test_unicita_exit_codes(capsys):
    code, out, _ = run(capsys, ["unicita", "--i", "2", "--r0", "2", "--e", "6"])
    assert code == 0
    assert "verdict: true" in out
    code, out, _ = run(
        capsys, ["unicita", "--i", "2", "--r0", "2", "--e", "14", "--json",
                 "--no-timestamp"]
    )
    assert code == 1
    assert json.loads(out)["verdict"] is False
    code, _, err = run(capsys, ["unicita", "--i", "3", "--r0", "2", "--e", "6"])
    assert code == 2 and "error:" in err
    code, out, _ = run(capsys, ["unicita", "--i", "2", "--r0", "8", "--e", "22", "--json",
                                "--no-timestamp"])
    assert code == 0
    checks = {c["name"]: c for c in json.loads(out)["checks"]}
    assert checks["buonacompt_min_d"]["data"]["min_d"] == 118702082
    code, _, err = run(capsys, ["unicita", "--i", "1", "--r0", "7", "--e", "8", "--cap", "1"])
    assert code == 3 and "error:" in err


def test_scenario_commands(capsys, files, tmp_path):
    code, out, _ = run(
        capsys, ["vbk3ell", "--scenario", files["scenario_vb"], "--json",
                 "--no-timestamp"]
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["verdict"] is True and payload["data"]["a"] == 12
    code, _, _ = run(capsys, ["casoprim", "--scenario", files["scenario_cp"]])
    assert code == 0
    # a scenario file routed to the wrong subcommand is refused
    code, _, err = run(capsys, ["vbk3ell", "--scenario", files["scenario_cp"]])
    assert code == 2 and "error:" in err
    code, _, err = run(capsys, ["casoprim", "--scenario", "/nonexistent.json"])
    assert code == 2
    # v = (1, 0, 1) on [[2, 1], [1, 0]] has v^2 = -2, so a(v) = 0 and no wall is in range
    rigid = tmp_path / "rigid.json"
    rigid.write_text(json.dumps({"pipeline": "vbk3ell", "lattices": {"ns": {"e": 2, "d": 1}},
                                 "vectors": {"v": {"r": 1, "l": [0, 0], "s": 1}}}))
    code, out, _ = run(capsys, ["vbk3ell", "--scenario", str(rigid), "--json", "--no-timestamp"])
    assert code == 0
    data = json.loads(out)["data"]
    assert data["a"] == 0
    assert data["suitability"] == {"suitable": True, "generic": True, "witnesses": []}


def cone_scenario(pipeline, v, h):
    return {"pipeline": pipeline, "lattices": {"ns": {"e": 4, "d": 1}},
            "vectors": {"v": v, "h": h}}


SELF_PAIRING = "error: polarization must have positive self-pairing\n"
POSITIVE_CONE = "error: polarization must lie in the positive cone: h.f = d*h1 must be positive\n"
# (argv, the file @in holds, stderr): an h outside the positive cone is refused at every level
OUTSIDE_THE_CONE = [
    (["walls", "--e", "4", "--d", "1", "--a", "5", "--suitability", "--h", "@in"], [-1, 0],
     POSITIVE_CONE),
    (["casoprim", "--scenario", "@in"],
     cone_scenario("casoprim", {"r": 2, "l": [1, 0], "s": 0}, [-1, 0]), POSITIVE_CONE),
    # a(v) = 0, so there is no wall to read h against, and h is still refused
    (["vbk3ell", "--scenario", "@in"],
     cone_scenario("vbk3ell", {"r": 1, "l": [0, 0], "s": 1}, [0, 1]), SELF_PAIRING),
]


@pytest.mark.parametrize(
    "argv, data, err", OUTSIDE_THE_CONE, ids=[argv[0] for argv, _, _ in OUTSIDE_THE_CONE]
)
def test_a_polarization_outside_the_positive_cone_is_refused(capsys, tmp_path, argv, data, err):
    path = tmp_path / "in.json"
    path.write_text(json.dumps(data))
    argv = [str(path) if a == "@in" else a for a in argv]
    assert run(capsys, argv) == (2, "", err)


def test_both_pipelines_refuse_a_scenario_bad_in_h_and_v_alike(capsys):
    """h = [0, 1] has q(h) = 0, and v = (1, [1, 0], 0) has the odd square 3 on [[3, 1], [1, 0]]:
    both pipelines gate h before v's numerics, so both refuse the malformed input, exit 2."""
    outcomes = [run(capsys, [name, "--scenario", str(TESTS / f"{name}_bad_h_odd_v.json")])
                for name in ("vbk3ell", "casoprim")]
    assert outcomes == [(2, "", SELF_PAIRING)] * 2


def test_sweep_econ(capsys):
    code, out, _ = run(
        capsys, ["sweep-econ", "--r0max", "2", "--emax", "40", "--json",
                 "--no-timestamp"]
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["cases"] == 23
    assert payload["rows"][0]["count"] == 20
    assert payload["rows"][1]["first"][0] == {"e": 6, "m0": 1, "s0": 1}


def grid_sweep(r0max, emax):
    """The sweep-econ payload as the grid loop built it, testing every degree in 1..emax."""
    rows = []
    cases = 0
    for r0 in range(1, r0max + 1):
        i = governing_divisibility(r0)
        hits = []
        for e in range(1, emax + 1):
            if not (divisibility_type(e, i) and econ_check(r0, e)):
                continue
            m0, s0 = m0_s0(r0, e)
            hits.append({"e": e, "m0": m0, "s0": s0})
            cases += 1
        rows.append({"r0": r0, "i": i, "count": len(hits), "first": hits[:3]})
    return {"r0max": r0max, "emax": emax, "cases": cases, "rows": rows}


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 12), st.integers(1, 3000))
def test_sweep_econ_rows_equal_the_grid_loop(r0max, emax):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(["sweep-econ", "--r0max", str(r0max), "--emax", str(emax), "--json",
                     "--no-timestamp"])
    assert code == 0
    assert json.loads(out.getvalue()) == grid_sweep(r0max, emax)


def test_sweep_econ_cost_does_not_grow_with_emax(capsys):
    # each row is one residue class: its count is one division and its first hits are three
    start = time.perf_counter()
    code, out, _ = run(capsys, ["sweep-econ", "--r0max", "8", "--emax", "1000000000000",
                                "--json", "--no-timestamp"])
    elapsed = time.perf_counter() - start
    assert code == 0
    assert json.loads(out)["rows"][0]["count"] == 500000000000  # r0 = 1: every even e
    assert elapsed < 2, f"sweep-econ at emax = 10^12 took {elapsed:.2f}s, budget 2s"


# Runs argv in a grandchild and prints its exit code and the peak resident memory that
# os.wait4 reports for it. A child forked from the test process would count that process's
# resident memory in its own peak, so a small interpreter in between does the fork.
PEAK_RSS = """\
import os, subprocess, sys
proc = subprocess.Popen(sys.argv[1:], stdout=subprocess.DEVNULL)
_, status, usage = os.wait4(proc.pid, 0)
peak_mb = usage.ru_maxrss / (2**20 if sys.platform == "darwin" else 2**10)  # bytes on macOS, kB on Linux
print(os.waitstatus_to_exitcode(status), peak_mb)
"""


@pytest.mark.parametrize("mode", [[], ["--json", "--no-timestamp"]], ids=["text", "json"])
def test_sweep_econ_memory_does_not_grow_with_r0max(mode):
    # each row is printed as it is made; holding them all took 74 MB (text) and 41 MB (JSON)
    argv = ["-m", "hkmod", "sweep-econ", "--r0max", "20000", "--emax", "100000", *mode]
    proc = run_child("-c", PEAK_RSS, sys.executable, *argv)
    code, peak_mb = proc.stdout.split()
    assert code == "0", proc.stderr
    assert float(peak_mb) < 30, f"sweep-econ at r0max = 20000 peaked at {peak_mb} MB, budget 30 MB"


def walls_peak_mb(a, mode):
    proc = run_child("-c", PEAK_RSS, sys.executable, "-m", "hkmod", "walls", "--e", "4", "--d",
                     "50", "--a", a, *mode)
    code, peak_mb = proc.stdout.split()
    assert code == "0", proc.stderr
    return float(peak_mb)


@pytest.mark.parametrize("mode", [[], ["--json", "--no-timestamp"]], ids=["text", "json"])
def test_walls_memory_holds_no_copy_of_the_payload(mode):
    # the 6,933 walls of a = 10^5 are held once, as their dicts: no whole-payload JSON string
    # and no JSON-ready copy for text, which took the peak 12.9 MB (text) and 7.1 MB (JSON)
    # above a = 30; text lowers each value as it prints it
    growth = walls_peak_mb("100000", mode) - walls_peak_mb("30", mode)
    assert growth < 6, f"walls at a = 10^5 peaked {growth:.1f} MB above a = 30, budget 6 MB"


@pytest.mark.parametrize("command", ["rigid", "reduce"])
def test_rank_3_lattice_needs_a_fiber_class(capsys, files, tmp_path, command):
    ns = tmp_path / "ns3.json"
    ns.write_text(json.dumps({"gram": [[2, 1, 0], [1, 0, 0], [0, 0, -2]]}))
    v = tmp_path / "v3.json"
    v.write_text(json.dumps({"r": 2, "l": [1, 0, 0], "s": 0}))
    argv = [command, "--ns", str(ns), "--v", str(v)]
    if command == "reduce":
        argv += ["--steps", files["steps"]]
    assert run(capsys, argv) == (2, "", "error: --f is required unless the lattice has rank 2\n")


def test_verify_all_text_names_a_failed_check(capsys, monkeypatch):
    def broken(rng):
        return False, {"x": 1}

    monkeypatch.setitem(hkmod.checks.SUITES, "lattice", (broken,))
    assert run(capsys, ["verify-all", "--filter", "lattice"]) == (
        1,
        "[FAIL] lattice (1 checks)\n       failed: broken {'x': 1}\nFAILURES: lattice.broken\n",
        "",
    )


def test_verify_all(capsys):
    code, out, _ = run(capsys, ["verify-all"])
    assert code == 0
    assert "all suites passed" in out
    code, out, _ = run(capsys, ["verify-all", "--filter", "walls", "--json",
                                "--no-timestamp"])
    assert code == 0
    payload = json.loads(out)
    assert [s["theorem"] for s in payload["suites"]] == ["walls"]
    code, _, err = run(capsys, ["verify-all", "--filter", "nomatch"])
    assert code == 2 and "error:" in err


TESTS = Path(__file__).parent
GOLDEN = TESTS / "golden"


@pytest.mark.parametrize(
    "argv, golden",
    [
        (["verify-all"], "verify_all.txt"),
        (["verify-all", "--json", "--no-timestamp"], "verify_all.json"),
    ],
)
def test_verify_all_output_is_frozen(capsys, argv, golden):
    # check names, order and pass-time data are part of the CLI contract
    code, out, _ = run(capsys, argv)
    assert code == 0
    assert out == (GOLDEN / golden).read_text()


@pytest.mark.parametrize(
    "argv, code, golden",
    [
        (["reduce", "--ns", "ns", "--v", "v3", "--steps", "steps"], 0, "reduce.txt"),
        (["rigid", "--ns", "ns", "--v", "v"], 0, "rigid.txt"),
        (["walls", "--e", "4", "--d", "1", "--a", "12", "--suitability"], 1,
         "walls_suitability.txt"),
        (["unicita", "--i", "2", "--r0", "2", "--e", "6"], 0, "unicita.txt"),
        (["vbk3ell", "--scenario", "scenario_vb"], 0, "vbk3ell.txt"),
        (["casoprim", "--scenario", "scenario_cp"], 0, "casoprim.txt"),
        (["sweep-econ", "--r0max", "8", "--emax", "200"], 0, "sweep_econ.txt"),
        # the {e, d} shorthand and the {gram} matrix it stands for give the same answer
        (["mukai", "--ns", str(TESTS / "mukai_ns.json"), "--v", str(TESTS / "mukai_v.json")], 0,
         "mukai.txt"),
        (["mukai", "--ns", str(TESTS / "mukai_ns_gram.json"), "--v", str(TESTS / "mukai_v.json")],
         0, "mukai.txt"),
        (["mukai", "--ns", str(TESTS / "mukai_ns_gram.json"), "--v", str(TESTS / "mukai_v.json"),
          "--w", str(TESTS / "mukai_w.json")], 0, "mukai_w.txt"),
        (["nl-search", "--r0", "2", "--e", "6"], 0, "nl_search.txt"),
    ],
)
def test_human_output_is_frozen(capsys, files, argv, code, golden):
    # the human form prints keys in record field order, which canonical JSON sorts away
    got, out, _ = run(capsys, [files.get(a, a) for a in argv])
    assert got == code
    assert out == (GOLDEN / golden).read_text()


# Help and usage text as the parser printed it before it became one table; argparse wraps
# it to $COLUMNS, and Python 3.10 titles the options group "optional arguments".
USAGE_ERRORS = {
    "hkmod": [],
    **{name: [name] for name in COMMANDS},
    "verify-all": ["verify-all", "--filter"],  # the one subcommand with no required flag
    "edge-unknown-command": ["not-a-command"],
    "edge-json-before-command": ["--json", "walls", "--e", "2", "--d", "3", "--a", "6"],
    "edge-extra-token": ["walls", "--e", "2", "--d", "3", "--a", "6", "extra"],
    "edge-missing-value": ["walls", "--e", "2", "--d", "3", "--a"],
    "edge-unknown-flag": ["walls", "--e", "2", "--d", "3", "--a", "6", "--bogus"],
    "edge-bad-int": ["walls", "--e", "two", "--d", "3", "--a", "6"],
    "edge-bad-choice": ["nl", "--kind", "k4", "--e", "4", "--d", "31"],
}


def argparse_text(text):
    return text.replace("optional arguments:", "options:")


HELP_CALLS = [
    ("hkmod", ["--help"]),
    ("hkmod", ["-h", "walls"]),  # -h before the command asks for the top-level help
    *((name, [name, "--help"]) for name in COMMANDS),
]


@pytest.mark.parametrize(
    "golden, argv", HELP_CALLS, ids=[" ".join(argv) for _, argv in HELP_CALLS]
)
def test_help_is_frozen(capsys, monkeypatch, golden, argv):
    monkeypatch.setenv("COLUMNS", "80")
    code, out, err = run(capsys, argv)
    golden_text = (GOLDEN / "help" / f"{golden}.txt").read_text()
    assert (code, argparse_text(out), err) == (0, golden_text, "")


@pytest.mark.parametrize("name", USAGE_ERRORS)
def test_usage_errors_are_frozen(capsys, monkeypatch, name):
    monkeypatch.setenv("COLUMNS", "80")
    code, out, err = run(capsys, USAGE_ERRORS[name])
    assert (code, out, err) == (2, "", (GOLDEN / "usage" / f"{name}.txt").read_text())


def test_argparse_usage_errors():
    with pytest.raises(SystemExit) as exc:
        main(["walls"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["not-a-command"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit):
        main([])


def child_env():
    """The environment of a child interpreter that imports the same hkmod as this test."""
    src = str(Path(hkmod.__file__).resolve().parents[1])
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    return {**os.environ, "PYTHONPATH": path}


def run_child(*args, timeout=60):
    """Run the interpreter with args; the child imports the same hkmod as this test."""
    return subprocess.run(
        [sys.executable, *args],
        capture_output=True,
        text=True,
        timeout=timeout,
        env=child_env(),
    )


def test_module_entry_point_subprocess():
    proc = run_child("-m", "hkmod", "walls", "--e", "2", "--d", "3", "--a", "6")
    assert proc.returncode == 0
    assert "count: 2" in proc.stdout


RUN_ENTRY = "from hkmod.__main__ import run; raise SystemExit(run())"
EXIT_PATHS = {
    "answer": ["walls", "--e", "2", "--d", "3", "--a", "6"],
    "refusal": ["nl-search", "--r0", "2", "--e", "8"],
    "usage-error": ["walls", "--e", "two", "--d", "3", "--a", "6"],
    "help": ["walls", "--help"],
}


@pytest.mark.parametrize("argv", EXIT_PATHS.values(), ids=EXIT_PATHS)
@pytest.mark.parametrize("entry", [("-m", "hkmod"), ("-c", RUN_ENTRY), ("-m", "hkmod.cli")],
                         ids=["-m", "run", "-m-cli"])
def test_process_entry_points_match_main_in_process(capsys, monkeypatch, entry, argv):
    monkeypatch.setenv("COLUMNS", "80")
    expected = run(capsys, argv)
    proc = run_child(*entry, *argv)
    assert (proc.returncode, proc.stdout, proc.stderr) == expected


def test_only_the_process_entry_point_freezes_the_heap(capsys, monkeypatch):
    argv = ["walls", "--e", "2", "--d", "3", "--a", "6"]
    frozen = gc.get_freeze_count()
    assert main(argv) == 0
    assert gc.get_freeze_count() == frozen  # library and test callers keep collecting
    monkeypatch.setattr(sys, "argv", ["hkmod", *argv])
    try:
        assert run_process() == 0
        assert gc.get_freeze_count() > frozen
    finally:
        gc.unfreeze()
    assert "count: 2" in capsys.readouterr().out


def test_reduce_refuses_start_below_rigid_bound(capsys, files, tmp_path):
    ns = tmp_path / "ns2.json"
    ns.write_text(json.dumps({"e": 2, "d": 1}))
    v = tmp_path / "v_low.json"
    v.write_text(json.dumps({"r": 2, "l": [1, 0], "s": 3}))  # square -10
    steps = tmp_path / "no_steps.json"
    steps.write_text("[]")
    argv = ["reduce", "--ns", str(ns), "--v", str(v), "--steps", str(steps),
            "--json", "--no-timestamp"]
    code, out, err = run(capsys, argv)
    assert code == 1 and out == ""
    assert err.startswith("refused:") and "below the rigid bound -2" in err
    # the refusal must not rest on an assert that -O strips
    proc = run_child("-O", "-m", "hkmod", *argv)
    assert proc.returncode == 1 and proc.stdout == ""
    assert proc.stderr.startswith("refused:") and "Traceback" not in proc.stderr


# Runs `hkmod.cli.main(sys.argv[1:])` in a fresh interpreter and reports the hkmod modules
# that `import hkmod`, `import hkmod.cli` and then the subcommand itself each loaded.
IMPORT_FOOTPRINT = """\
import io, json, sys
from contextlib import redirect_stderr, redirect_stdout
def loaded():
    return {m for m in sys.modules if m == "hkmod" or m.startswith("hkmod.")}
import hkmod
package = loaded()
import hkmod.cli
cli = loaded() - package
with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
    try:
        code = hkmod.cli.main(sys.argv[1:])
    except SystemExit as exc:
        code = exc.code
command = loaded() - package - cli
std = [m for m in ("dataclasses", "datetime") if m in sys.modules]
print(json.dumps([sorted(package), sorted(cli), code, sorted(command), std]))
"""


def test_cli_import_leaves_dataclasses_and_datetime_unloaded():
    """Each entry point loads only the hkmod modules it runs."""
    proc = run_child("-c", IMPORT_FOOTPRINT, "walls", "--e", "2", "--d", "3", "--a", "6")
    assert proc.returncode == 0, proc.stderr
    package, cli, code, walls, std = json.loads(proc.stdout)
    assert package == ["hkmod", "hkmod.errors", "hkmod.jsonio", "hkmod.lattice", "hkmod.record"]
    # perfbench/run.py:218 (cli_costs) reads hkmod.verify's import time from `import hkmod.cli`
    assert "hkmod.verify" in cli
    assert cli == ["hkmod.cli", "hkmod.verify"]  # no handler, and no hkmod.report
    assert code == 0 and walls == ["hkmod._commands", "hkmod._commands.walls", "hkmod.walls"]
    assert std == []


# argv (file names are keys of the files fixture), exit code, the hkmod._commands module of
# its handler (None for verify-all, whose handler is in hkmod.cli, and for a usage error), and
# the library modules the subcommand loads beyond those of `import hkmod.cli`
FOOTPRINTS = [
    (["fujiki", "--setup", "fujiki_setup", "--classes", "fujiki_classes"], 0, "fujiki",
     ["fujiki"]),
    (["mukai", "--ns", "ns", "--v", "v"], 0, "mukai", ["mukai"]),
    (["walls", "--e", "4", "--d", "1", "--a", "12", "--suitability"], 1, "walls", ["walls"]),
    (["reduce", "--ns", "ns", "--v", "v3", "--steps", "steps"], 0, "mukai",
     ["mukai", "reduction"]),
    (["rigid", "--ns", "ns", "--v", "v"], 0, "mukai", ["mukai", "reduction"]),
    (["nl", "--kind", "hk", "--e", "3", "--d", "74", "--i", "1"], 0, "nl", ["nl"]),
    (["nl", "--kind", "hk", "--e", "6", "--d", "74", "--i", "2"], 0, "nl", ["nl"]),
    (["nl", "--kind", "k3", "--e", "4", "--d", "51", "--r0", "2", "--vsq", "0"], 0, "nl",
     ["mukai", "nl"]),
    (["nl-search", "--r0", "2", "--e", "6"], 0, "search", ["nl"]),
    (["unicita", "--i", "2", "--r0", "2", "--e", "6"], 0, "search", ["hilb2", "nl", "report"]),
    (["vbk3ell", "--scenario", "scenario_vb"], 0, "scenario",
     ["mukai", "pipelines", "report", "walls"]),
    (["casoprim", "--scenario", "scenario_cp"], 0, "scenario",
     ["mukai", "pipelines", "report", "walls"]),
    (["sweep-econ", "--r0max", "2", "--emax", "20"], 0, "sweep_econ", ["nl"]),
    (["verify-all", "--filter", "lattice"], 0, None,
     ["checks", "fujiki", "hilb2", "mukai", "nl", "pipelines", "reduction", "report", "walls"]),
    (["walls", "--e", "two", "--d", "3", "--a", "6"], 2, None, []),
]


@pytest.mark.parametrize(
    "argv, code, handler, extra", FOOTPRINTS, ids=[" ".join(argv) for argv, *_ in FOOTPRINTS]
)
def test_each_subcommand_loads_only_the_modules_it_runs(files, argv, code, handler, extra):
    proc = run_child("-c", IMPORT_FOOTPRINT, *(files.get(a, a) for a in argv))
    assert proc.returncode == 0, proc.stderr
    package, cli, got_code, command, std = json.loads(proc.stdout)
    base = {m.removeprefix("hkmod.") for m in package + cli}
    assert base == {"hkmod", "cli", "errors", "jsonio", "lattice", "record", "verify"}
    assert got_code == code
    handlers = [] if handler is None else ["_commands", f"_commands.{handler}"]
    assert command == sorted(f"hkmod.{m}" for m in handlers + extra)  # no other handler
    assert std == []


def test_cli_import_leaves_typing_and_random_unloaded():
    # -S: the site packages of some environments load both at start-up
    proc = run_child(
        "-S", "-c", "import hkmod.cli, sys; print(*(m in sys.modules for m in ('typing', 'random')))"
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["False", "False"]


GATE_REFUSALS = [
    (["nl-search", "--r0", "0", "--e", "6"], 2, "error: r0 must be positive"),
    (["nl-search", "--r0", "2", "--e", "8"], 1,
     "refused: e = 8 fails the congruence condition for r0 = 2"),
    (["nl-search", "--r0", "1", "--e", "2"], 1,
     "refused: e = 2 divides 2*d for every d divisible by 1: the search is empty"),
    (["nl-search", "--r0", "2", "--e", "-6"], 2, "error: e must be positive"),
    (["nl-search", "--r0", "2", "--e", "6", "--cap", "0"], 2, "error: cap must be positive"),
    (["unicita", "--i", "3", "--r0", "2", "--e", "6"], 2,
     "error: divisibility must be 1 or 2, got 3"),
    (["unicita", "--i", "2", "--r0", "0", "--e", "6"], 2,
     "error: r0 must be positive"),
    # the cap is refused before the econ check and the parity check can end the report
    (["unicita", "--i", "2", "--r0", "2", "--e", "8", "--cap", "0"], 2,
     "error: cap must be positive"),
    (["unicita", "--i", "1", "--r0", "2", "--e", "6", "--cap", "0"], 2,
     "error: cap must be positive"),
    (["sweep-econ", "--r0max", "0", "--emax", "10"], 2,
     "error: --r0max must be positive"),
    (["sweep-econ", "--r0max", "3", "--emax", "0"], 2, "error: --emax must be positive"),
    (["nl", "--kind", "hk", "--i", "3", "--e", "4", "--d", "51"], 2,
     "error: divisibility must be 1 or 2, got 3"),
    (["nl", "--kind", "hk", "--e", "6", "--d", "74"], 2, "error: --kind hk needs --i"),
]


UNREAD_FLAGS = [
    (["walls", "--e", "4", "--d", "1", "--a", "12", "--h", "@h"],
     "error: --h is read only with --suitability"),
    (["nl", "--kind", "hk", "--e", "6", "--d", "74", "--i", "2", "--r0", "5"],
     "error: --kind hk does not read --r0 or --vsq"),
    (["nl", "--kind", "hk", "--e", "6", "--d", "74", "--i", "2", "--vsq", "3"],
     "error: --kind hk does not read --r0 or --vsq"),
    (["nl", "--kind", "k3", "--e", "4", "--d", "31", "--r0", "2", "--vsq", "4", "--i", "1"],
     "error: --kind k3 does not read --i"),
]


@pytest.mark.parametrize(
    "argv, err", UNREAD_FLAGS, ids=[" ".join(argv) for argv, _ in UNREAD_FLAGS]
)
def test_flags_the_mode_does_not_read_are_refused(capsys, files, argv, err):
    """A flag that the chosen mode would ignore is bad input, not silently dropped."""
    argv = [files["h_bad"] if a == "@h" else a for a in argv]
    assert run(capsys, argv) == (2, "", err + "\n")


# only nl-search and unicita search, so only they take --cap
CAP_REFUSALS = [
    ["mukai", "--ns", "@ns", "--v", "@v", "--cap", "3"],
    ["walls", "--e", "4", "--d", "1", "--a", "12", "--cap", "3"],
    ["verify-all", "--filter", "lattice", "--cap", "3"],
]


@pytest.mark.parametrize("argv", CAP_REFUSALS, ids=[" ".join(argv) for argv in CAP_REFUSALS])
def test_cap_is_refused_outside_the_searches(capsys, files, argv):
    """argparse refuses --cap on a subcommand that does not search: its usage, then the error."""
    argv = [files[a[1:]] if a.startswith("@") else a for a in argv]
    err = build_parser().format_usage() + "hkmod: error: unrecognized arguments: --cap 3\n"
    assert run(capsys, argv) == (2, "", err)


@pytest.mark.parametrize(
    "argv, code, err", GATE_REFUSALS, ids=[" ".join(argv) for argv, _, _ in GATE_REFUSALS]
)
def test_parameter_gate_refusals(capsys, argv, code, err):
    """Each parameter refusal the CLI can reach: exact exit code and stderr line."""
    assert run(capsys, argv) == (code, "", err + "\n")


# Numbers past the interpreter's 4300-digit bound on int <-> str conversion, written as text
# so that the test itself converts none of them.
TEN_2200 = "1" + "0" * 2200
DIGITS_5001 = "1" + "0" * 5000
BOUND = "input numbers have at most 4300 digits, got 5001\n"
TOO_MANY = "error: " + BOUND
# argparse refuses an int flag past the bound after the subcommand's usage lines
WALLS_USAGE = "".join((GOLDEN / "usage" / "walls.txt").read_text().splitlines(True)[:2])
HUGE_FILES = {
    "setup_5001": '{"n": 1, "c_x": 1, "gram": [[%s]]}' % DIGITS_5001,
    "setup_2200": '{"n": 1, "c_x": 1, "gram": [[%s]]}' % TEN_2200,
    "classes_1": "[[1], [1]]",
    "classes_2200": "[[%s], [1]]" % TEN_2200,
    "ns_1": '{"gram": [[1]]}',
    "v_odd": '{"r": 1, "l": [%s], "s": 0}' % (TEN_2200[:-1] + "1"),
}
HUGE_CASES = [
    (["fujiki", "--setup", "@setup_5001", "--classes", "@classes_1"], 2, "", TOO_MANY),
    # an exact answer of 4401 digits: 10^2200 * 10^2200 * 1
    (["fujiki", "--setup", "@setup_2200", "--classes", "@classes_2200"], 0,
     "value: 1" + "0" * 4400 + "\nmatchings: 1\nn: 1\nc_x: 1\n", ""),
    # the refusal names the odd self-pairing (10^2200 + 1)^2, cut to its first 200 digits
    (["mukai", "--ns", "@ns_1", "--v", "@v_odd"], 1, "",
     "refused: self-pairing 1" + "0" * 199 + "... is odd; the ambient lattice is not even\n"),
    (["walls", "--e", "2", "--d", "3", "--a", DIGITS_5001], 2, "", TOO_MANY),
    (["walls", "--e", DIGITS_5001, "--d", "3", "--a", "1"], 2, "",
     WALLS_USAGE + "hkmod walls: error: argument --e: " + BOUND),
    # a p/q level counts the digits of p and q together
    (["walls", "--e", "2", "--d", "3", "--a", DIGITS_5001[:-1] + "/3"], 2, "", TOO_MANY),
]


@pytest.mark.parametrize("argv, code, out, err", HUGE_CASES,
                         ids=["json-int", "answer", "refusal", "argv-a", "argv-int", "argv-p/q"])
def test_huge_numbers_keep_the_exit_code_contract(
    capsys, monkeypatch, tmp_path, argv, code, out, err
):
    """Input past the digit bound exits 2; every exact answer prints in full, and a refusal
    prints the first 200 characters of a value it quotes."""
    monkeypatch.setenv("COLUMNS", "80")  # the width WALLS_USAGE was wrapped to
    for name, text in HUGE_FILES.items():
        (tmp_path / f"{name}.json").write_text(text)
    limit = sys.get_int_max_str_digits()
    argv = [str(tmp_path / f"{a[1:]}.json") if a.startswith("@") else a for a in argv]
    assert run(capsys, argv) == (code, out, err)
    assert sys.get_int_max_str_digits() == limit  # main lifts the bound only while it runs


# Forms off the one number grammar (an optional sign, ASCII digits and, in a level only, "/" and
# a positive ASCII integer), refused alike on every supported Python
OFF_GRAMMAR = ["1e3", "1.5", "1_000", "1 / 2", "\u0663", "+-1", "1_0/2"]


@pytest.mark.parametrize("text", OFF_GRAMMAR)
def test_a_level_off_the_grammar_is_refused(capsys, text):
    assert run(capsys, ["walls", "--e", "2", "--d", "3", "--a", text]) == (
        2, "", f"error: cannot parse rational from {text!r}\n"
    )


@pytest.mark.parametrize("text", [*OFF_GRAMMAR, "6/2"])
def test_an_integer_flag_off_the_grammar_is_a_usage_error(capsys, monkeypatch, text):
    monkeypatch.setenv("COLUMNS", "80")  # the width WALLS_USAGE was wrapped to
    assert run(capsys, ["walls", "--e", text, "--d", "3", "--a", "6"]) == (
        2, "", WALLS_USAGE + f"hkmod walls: error: argument --e: invalid int value: {text!r}\n"
    )


def test_a_number_in_a_json_string_keeps_the_grammar(capsys, files, tmp_path):
    path = tmp_path / "v.json"
    path.write_text('{"r": 1, "l": [0, 1], "s": "1e5000"}')
    assert run(capsys, ["mukai", "--ns", files["ns"], "--v", str(path)]) == (
        2, "", "error: cannot parse rational from '1e5000'\n"
    )
    path.write_text('{"r": 1, "l": [0, 1], "s": " -8/2 "}')
    assert run(capsys, ["mukai", "--ns", files["ns"], "--v", str(path)])[0] == 0


@pytest.mark.parametrize("level", ["1e5000", "1e100000000"])
def test_a_short_exponent_form_exits_2_at_once(level):
    """An exponent form is refused before any integer is built, so a level that would ask for
    a 10^8-digit integer, or scan a 5001-digit one, exits 2 at once.

    A child process with a timeout, so that a reader which expanded it would fail the test
    rather than hang the run."""
    proc = run_child("-m", "hkmod", "walls", "--e", "2", "--d", "3", "--a", level, timeout=10)
    assert (proc.returncode, proc.stdout, proc.stderr) == (
        2, "", f"error: cannot parse rational from {level!r}\n"
    )


@pytest.mark.parametrize("command", ["fujiki", "mukai"])
def test_json_nested_too_deep_exits_2(files, tmp_path, command):
    """A JSON file nested past the parser's recursion limit is invalid input, not a traceback.

    A child process, so that the exit code and stderr are the ones a caller sees."""
    path = tmp_path / "deep.json"
    path.write_text("[" * 100_000 + "]" * 100_000)
    if command == "fujiki":
        argv = ["fujiki", "--setup", files["fujiki_setup"], "--classes", str(path)]
    else:
        argv = ["mukai", "--ns", str(path), "--v", files["v"]]
    proc = run_child("-m", "hkmod", *argv)
    assert (proc.returncode, proc.stdout) == (2, "")
    assert proc.stderr.startswith(f"error: invalid JSON in {path}: ")
    assert "Traceback" not in proc.stderr


def test_a_long_value_is_echoed_cut(files, tmp_path):
    """A refusal echoes a bounded prefix of the offending value, not all of it.

    A child process, so that the exit code and stderr are the ones a caller sees."""
    path = tmp_path / "long.json"
    path.write_text(json.dumps({"r": 1, "l": [list(range(100_000)), 0], "s": 0}))
    proc = run_child("-m", "hkmod", "mukai", "--ns", files["ns"], "--v", str(path))
    assert (proc.returncode, proc.stdout) == (2, "")
    assert proc.stderr.startswith("error: cannot parse rational from [0, 1, 2, ")
    assert len(proc.stderr.encode()) < 1024
    assert "Traceback" not in proc.stderr


def test_a_long_declared_rank_is_echoed_cut(tmp_path):
    """A mismatched declared rank is echoed as the integer it parses to, not as the raw value.

    A child process, so that the exit code and stderr are the ones a caller sees."""
    path = tmp_path / "ns.json"
    path.write_text(json.dumps({"gram": [[2, 1], [1, 0]], "rank": "3" + " " * 100_000}))
    proc = run_child("-m", "hkmod", "mukai", "--ns", str(path), "--v", str(TESTS / "mukai_v.json"))
    assert (proc.returncode, proc.stdout) == (2, "")
    assert proc.stderr == "error: declared rank 3 does not match gram size 2\n"
    assert len(proc.stderr.encode()) < 1024
    assert "Traceback" not in proc.stderr


# Refusals that quote a value read from, or computed from, an over-long input; every file
# argument "@name" is ECHO_FILES[name], written as JSON. Each value has 4,000 digits, or
# 100,000 characters; a case whose name ends in "-" quotes a negative value.
BIG = "1" + "0" * 3999
ECHO_FILES = {
    "ns": {"e": 4, "d": 1}, "ns_e2": {"e": 2, "d": 3}, "ns_d": {"e": 4, "d": "-" + BIG},
    "v": {"r": 2, "l": [1, 0], "s": 1}, "v_r": {"r": "-" + BIG, "l": [1, 0], "s": 1},
    "v_s": {"r": 3, "l": [1, 1], "s": BIG},
    "step_r": [{"r_b": BIG, "deg_b": 0}], "step_r-": [{"r_b": "-" + BIG, "deg_b": 0}],
    "step_deg": [{"r_b": 1, "deg_b": BIG}],
    "setup_n": {"kind": "K3^[2]", "gram": [[2, 1], [1, 0]], "n": BIG},
    "setup_n-": {"kind": "K3^[2]", "gram": [[2, 1], [1, 0]], "n": "-" + BIG},
    "classes": [[1, 0], [0, 1]],
}
ECHO_CASES = {
    "verify-all-filter": (["verify-all", "--filter", "x" * 100_000], 2),
    "unicita-i": (["unicita", "--i", BIG, "--r0", "1", "--e", "2"], 2),
    "unicita-i-": (["unicita", "--i", "-" + BIG, "--r0", "1", "--e", "2"], 2),
    "nl-hk-i": (["nl", "--kind", "hk", "--i", BIG, "--e", "4", "--d", "51"], 2),
    "nl-search-e": (["nl-search", "--r0", "3", "--e", "4" + BIG[1:]], 1),
    "nl-search-e-": (["nl-search", "--r0", "3", "--e", "-4" + BIG[1:]], 2),
    "nl-search-r0": (["nl-search", "--r0", BIG[:-1] + "1", "--e", "6"], 1),
    "nl-search-r0-": (["nl-search", "--r0", "-" + BIG, "--e", "6"], 2),
    "walls-a-": (["walls", "--e", "4", "--d", "3", "--a", "-" + BIG], 2),
    "walls-d-": (["walls", "--e", "4", "--d", "-" + BIG, "--a", "3"], 2),
    "sweep-econ-r0max-": (["sweep-econ", "--r0max", "-" + BIG, "--emax", "10"], 2),
    "mukai-ns-d-": (["mukai", "--ns", "@ns_d", "--v", "@v"], 2),
    "mukai-v-r-": (["mukai", "--ns", "@ns", "--v", "@v_r"], 2),
    "rigid-square": (["rigid", "--ns", "@ns_e2", "--v", "@v_s"], 1),
    "reduce-square": (["reduce", "--ns", "@ns_e2", "--v", "@v_s", "--steps", "@step_deg"], 1),
    "reduce-step-rank": (["reduce", "--ns", "@ns", "--v", "@v", "--steps", "@step_r"], 2),
    "reduce-step-rank-": (["reduce", "--ns", "@ns", "--v", "@v", "--steps", "@step_r-"], 2),
    "reduce-step-degree": (["reduce", "--ns", "@ns", "--v", "@v", "--steps", "@step_deg"], 1),
    "fujiki-n": (["fujiki", "--setup", "@setup_n", "--classes", "@classes"], 2),
    "fujiki-n-": (["fujiki", "--setup", "@setup_n-", "--classes", "@classes"], 2),
}


@pytest.mark.parametrize("argv, code", ECHO_CASES.values(), ids=ECHO_CASES)
def test_a_refusal_echoes_an_over_long_value_cut(tmp_path, argv, code):
    """Each quoted value is cut to 200 characters, so the refusal stays under 1 KB.

    A child process, so that the exit code and stderr are the ones a caller sees."""
    for name, data in ECHO_FILES.items():
        (tmp_path / f"{name}.json").write_text(json.dumps(data))
    argv = [str(tmp_path / f"{a[1:]}.json") if a.startswith("@") else a for a in argv]
    proc = run_child("-m", "hkmod", *argv)
    assert (proc.returncode, proc.stdout) == (code, "")
    assert proc.stderr.startswith("refused: " if code == 1 else "error: ")
    assert len(proc.stderr.encode()) < 1024
    assert "Traceback" not in proc.stderr


# Commands that write more than two pipe buffers, line by line or element by element, for a
# reader that reads one chunk and leaves
CLOSED_PIPE = {
    "walls": ["walls", "--e", "4", "--d", "50", "--a", "100000"],
    "walls-json": ["walls", "--e", "4", "--d", "50", "--a", "100000", "--json", "--no-timestamp"],
    "sweep-econ-json": ["sweep-econ", "--r0max", "20000", "--emax", "100", "--json",
                        "--no-timestamp"],
}


def closed_pipe_child(argv, chunk, unbuffered=True, module="hkmod"):
    """Run `python -m module` with stdout a pipe that the parent closes after reading `chunk`
    bytes (before the child writes, at 0), with PYTHONUNBUFFERED=1 or without it; the child's
    exit code and stderr."""
    env = {key: value for key, value in child_env().items() if key != "PYTHONUNBUFFERED"}
    proc = subprocess.Popen([sys.executable, "-m", module, *argv], stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE,
                            env={**env, "PYTHONUNBUFFERED": "1"} if unbuffered else env)
    if chunk:
        assert len(proc.stdout.read(chunk)) == chunk
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    return proc.wait(timeout=60), err


@pytest.mark.parametrize("argv", CLOSED_PIPE.values(), ids=CLOSED_PIPE)
def test_a_reader_that_closes_stdout_early_gets_exit_1_and_no_stderr(argv):
    # read more than one pipe buffer (64 KiB on Linux), so the reader leaves while the child
    # still writes: walls writes about 0.9 MB here (0.56 MB in JSON), sweep-econ about 0.8 MB.
    # Unbuffered, each write goes straight to the pipe, and one that the reader cuts short
    # returns a short count that TextIOWrapper drops: only a later write can raise
    assert closed_pipe_child(argv, 1 << 17) == (1, b"")


@pytest.mark.parametrize("argv", CLOSED_PIPE.values(), ids=CLOSED_PIPE)
def test_a_reader_that_closes_buffered_stdout_early_gets_exit_1_and_no_stderr(argv):
    assert closed_pipe_child(argv, 1 << 17, unbuffered=False) == (1, b"")


def test_stdout_closed_before_the_child_writes_gets_exit_1_and_no_stderr():
    assert closed_pipe_child(["walls", "--e", "4", "--d", "3", "--a", "30"], 0) == (1, b"")


def test_buffered_stdout_closed_before_the_child_writes_gets_exit_1_and_no_stderr():
    # buffered, the short answer waits in the buffer, and only the flush in
    # hkmod.__main__.run meets the closed pipe
    argv = ["walls", "--e", "4", "--d", "3", "--a", "30"]
    assert closed_pipe_child(argv, 0, unbuffered=False) == (1, b"")


CLOSED_PIPE_CASES = {**{name: (argv, 1 << 17) for name, argv in CLOSED_PIPE.items()},
                     "before-writes": (["walls", "--e", "4", "--d", "3", "--a", "30"], 0)}


@pytest.mark.parametrize("unbuffered", [True, False], ids=["unbuffered", "buffered"])
@pytest.mark.parametrize("argv, chunk", CLOSED_PIPE_CASES.values(), ids=CLOSED_PIPE_CASES)
def test_python_m_hkmod_cli_hands_over_to_the_package_entry(argv, chunk, unbuffered):
    # every closed-pipe case above, through the module spelling: hkmod.cli runs
    # hkmod.__main__.run, so it too exits 1 with nothing on stderr
    assert closed_pipe_child(argv, chunk, unbuffered, module="hkmod.cli") == (1, b"")


# Bad --ns values and their refusals: every subcommand that reads a lattice file gives the same
BAD_NS = [
    ({"e": True, "d": 1}, "expected a rational, got boolean True"),
    ({"e": 4, "d": False}, "expected a rational, got boolean False"),
    ({"e": 4.0, "d": 1}, "cannot parse rational from 4.0 of type float"),
    ({"e": 4, "d": 1.5}, "cannot parse rational from 1.5 of type float"),
    ({"e": "7/2", "d": 1}, "e must be an integer, got 7/2"),
    ({"e": 4, "d": "3/2"}, "d must be an integer, got 3/2"),
    ({"e": "x", "d": 1}, "cannot parse rational from 'x'"),
    ({"e": 4, "d": 0}, "fiber degree d must be positive"),
    ({"e": 4, "d": -2}, "fiber degree d must be positive"),
    ({"e": 4}, "an elliptic lattice is a JSON object with keys e and d"),
    ({"d": 1}, "an elliptic lattice is a JSON object with keys e and d"),
    ([4, 1], "an elliptic lattice is a JSON object with keys e and d"),
    ("ns", "an elliptic lattice is a JSON object with keys e and d"),
    (None, "an elliptic lattice is a JSON object with keys e and d"),
    ({"gram": [[4, 1], [1, 0]], "rank": "two"}, "cannot parse rational from 'two'"),
    ({"gram": [[4, 1], [1, 0]], "rank": 2.5}, "cannot parse rational from 2.5 of type float"),
    ({"gram": [[4, 1], [1, 0]], "rank": True}, "expected a rational, got boolean True"),
    ({"gram": [[4, 1], [1, 0]], "rank": "3/2"}, "rank must be an integer, got 3/2"),
    ({"gram": [[4, 1], [1, 0]], "rank": 3}, "declared rank 3 does not match gram size 2"),
    ({"gram": [[4, 1], [1, 0]], "rank": "1"}, "declared rank 1 does not match gram size 2"),
]


@pytest.mark.parametrize("command", ["mukai", "reduce", "rigid", "vbk3ell"])
@pytest.mark.parametrize("ns, err", BAD_NS, ids=[json.dumps(ns) for ns, _ in BAD_NS])
def test_a_bad_ns_is_refused_alike_by_every_reader(capsys, files, tmp_path, command, ns, err):
    path = tmp_path / "bad.json"
    if command == "vbk3ell":
        path.write_text(json.dumps({"pipeline": "vbk3ell", "lattices": {"ns": ns},
                                    "vectors": {"v": {"r": 2, "l": [1, 0], "s": 0}}}))
        argv = ["vbk3ell", "--scenario", str(path)]
    else:
        path.write_text(json.dumps(ns))
        argv = [command, "--ns", str(path), "--v", files["v3" if command == "reduce" else "v"]]
        argv += ["--steps", files["steps"]] if command == "reduce" else []
    assert run(capsys, argv) == (2, "", f"error: {err}\n")
