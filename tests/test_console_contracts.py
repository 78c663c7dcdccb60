"""The console contracts that CI runs with the installed hkmod script, run here through
`python -m hkmod` by the same stdlib runner."""

import os
import shlex
import sys
from pathlib import Path

import pytest

import hkmod
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


def test_contract_lines_parse(tmp_path):
    table = tmp_path / "contracts.txt"
    table.write_text("# a comment\n\nwalls --e 2 --d 3 --a '7/2' | 0\nunicita --i 1 | 2 | | 5\n"
                     "sweep-econ --r0max 8 --emax 200 | 0 | tests/golden/sweep_econ.txt\n")
    assert run_contracts.load(table) == [
        (["walls", "--e", "2", "--d", "3", "--a", "7/2"], 0, None, None),
        (["unicita", "--i", "1"], 2, None, 5),
        (["sweep-econ", "--r0max", "8", "--emax", "200"], 0, "tests/golden/sweep_econ.txt", None),
    ]
