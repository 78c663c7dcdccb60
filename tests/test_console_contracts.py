"""The console contracts that CI runs with the installed hkmod script, run here through
`python -m hkmod` by the same stdlib runner."""

import os
import shlex
import sys
from pathlib import Path

import pytest

import hkmod
from hkmod.cli import COMMANDS
import run_contracts  # tests/ is on sys.path as this module's directory

CONTRACTS = run_contracts.load()
MODULE = [sys.executable, "-m", "hkmod"]
UNICITA = ["unicita", "--i", "2", "--r0", "2", "--e", "6"]


@pytest.fixture(autouse=True)
def children_import_this_hkmod(monkeypatch):
    src = str(Path(hkmod.__file__).resolve().parents[1])
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    monkeypatch.setenv("PYTHONPATH", path)


@pytest.mark.parametrize("contract", CONTRACTS, ids=[shlex.join(c[0])[:60] for c in CONTRACTS])
def test_console_contract(contract):
    assert run_contracts.check(MODULE, contract) is None


def test_the_runner_reports_a_broken_contract():
    assert run_contracts.check(MODULE, (UNICITA, 1, None, None)).startswith("exit code 0, expected 1")
    assert run_contracts.check(MODULE, (UNICITA, 0, "tests/golden/sweep_econ.txt", None)) == (
        "stdout differs from tests/golden/sweep_econ.txt"
    )
    assert run_contracts.check(MODULE, (UNICITA, 0, None, 0.001)) == "still running after 0.001 s"
    assert run_contracts.check(MODULE, (UNICITA, 0, b"", None)) == (
        "stdout differs from the recorded answer"
    )
    # the exit code is the expected one, but a traceback is never part of a contract
    crash = [sys.executable, "-c", "raise SystemExit('Traceback (most recent call last): ...')"]
    assert run_contracts.check(crash, ([], 1, None, None)).startswith("a traceback on stderr")


def test_the_first_pool_answer_of_each_subcommand_holds_in_a_fresh_process(tmp_path):
    # the runner checks all 103 pool answers; here the first one of each subcommand
    answers = run_contracts.pool(tmp_path)
    assert len(answers) == 103
    first = {}
    for contract in answers:
        first.setdefault(contract[0][0], contract)
    assert set(COMMANDS) <= set(first)
    problems = {name: run_contracts.check(MODULE, c) for name, c in first.items()}
    assert problems == dict.fromkeys(first)


def test_contract_lines_parse(tmp_path):
    table = tmp_path / "contracts.txt"
    table.write_text("# a comment\n\nwalls --e 2 --d 3 --a '7/2' | 0\nunicita --i 1 | 2 | | 5\n"
                     "sweep-econ --r0max 8 --emax 200 | 0 | tests/golden/sweep_econ.txt\n")
    assert run_contracts.load(table) == [
        (["walls", "--e", "2", "--d", "3", "--a", "7/2"], 0, None, None),
        (["unicita", "--i", "1"], 2, None, 5),
        (["sweep-econ", "--r0max", "8", "--emax", "200"], 0, "tests/golden/sweep_econ.txt", None),
    ]
