"""Every query of the cli-mix benchmark pool gives the exit code and stdout recorded in
perfbench/cli_expected.json, run in process through hkmod.cli.main."""

import json
import sys
from pathlib import Path

import pytest

from hkmod.cli import main

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
sys.path.insert(0, str(PERFBENCH))  # read-only: the pool's argv builder and its oracle file
import cli_mix

EXPECTED = json.loads((PERFBENCH / "cli_expected.json").read_text())


@pytest.mark.parametrize(
    "slot, variant", cli_mix.pool_ids(), ids=[f"{s}#{v}" for s, v in cli_mix.pool_ids()]
)
def test_pool_query_answers_as_recorded(capsys, tmp_path, slot, variant):
    argv = cli_mix.query(slot, variant, tmp_path)
    try:
        code = main(argv)
    except SystemExit as exc:  # argparse usage errors
        code = exc.code
    want = EXPECTED[f"{slot}#{variant}"]
    assert (code, capsys.readouterr().out) == (want["code"], want["stdout"])
