"""Run the console contracts of tests/console_contracts.txt, then the 103 queries of the
cli-mix benchmark pool against the answers recorded in perfbench/cli_expected.json, each in a
fresh process. Stdlib only, so it runs on any interpreter hkmod supports, with or without
pytest:

    python tests/run_contracts.py [COMMAND ...]

COMMAND starts hkmod: by default `python -m hkmod` with this interpreter (hkmod must be
importable, for example with PYTHONPATH=src), or `hkmod` for the installed console script.
A contract fails on a wrong exit code or stdout, or on a traceback on stderr. Prints one line a
contract and exits 1 if any contract fails.
"""

from __future__ import annotations

import json
import shlex
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
TABLE = ROOT / "tests" / "console_contracts.txt"
PERFBENCH = ROOT / "perfbench"


def load(path: Path = TABLE) -> list[tuple[list[str], int, str | None, int | None]]:
    """(argv, exit code, golden path or None, timeout or None) for each contract line."""
    contracts = []
    for line in path.read_text(encoding="utf-8").splitlines():
        if line.strip() and not line.startswith("#"):
            argv, code, golden, timeout = (line.split("|") + ["", ""])[:4]
            contracts.append((shlex.split(argv), int(code), golden.strip() or None,
                              int(timeout) if timeout.strip() else None))
    return contracts


def pool(tmpdir: Path) -> list[tuple[list[str], int, bytes, None]]:
    """A contract for each query of the cli-mix pool, its input files written under tmpdir:
    the recorded exit code and stdout (as bytes, in place of a golden path)."""
    sys.path.insert(0, str(PERFBENCH))  # read-only: the pool's argv builder
    try:
        import cli_mix
    finally:
        sys.path.remove(str(PERFBENCH))
    expected = json.loads((PERFBENCH / "cli_expected.json").read_text(encoding="utf-8"))
    contracts = []
    for slot, variant in cli_mix.pool_ids():
        want = expected[f"{slot}#{variant}"]
        argv = cli_mix.query(slot, variant, tmpdir)
        contracts.append((argv, want["code"], want["stdout"].encode(), None))
    return contracts


def check(command: list[str], contract) -> str | None:
    """None when the contract holds, otherwise what broke it."""
    argv, code, golden, timeout = contract
    try:
        proc = subprocess.run([*command, *argv], cwd=ROOT, capture_output=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        return f"still running after {timeout} s"
    if proc.returncode != code:
        return f"exit code {proc.returncode}, expected {code}; stderr: {proc.stderr.decode()[-300:]}"
    if b"Traceback" in proc.stderr:
        return f"a traceback on stderr: {proc.stderr.decode()[-300:]}"
    if isinstance(golden, bytes):
        if proc.stdout != golden:
            return "stdout differs from the recorded answer"
    elif golden is not None and proc.stdout != (ROOT / golden).read_bytes():
        return f"stdout differs from {golden}"
    return None


def main(command: list[str]) -> int:
    with tempfile.TemporaryDirectory() as tmp:
        contracts = load()
        answers = pool(Path(tmp))
        failed = 0
        for contract in contracts + answers:
            problem = check(command, contract)
            failed += problem is not None
            shown = shlex.join(contract[0])[:100]
            print(f"ok    {shown}" if problem is None else f"FAIL  {shown}: {problem}")
    print(f"{len(contracts)} contracts and {len(answers)} pool answers, {failed} failed, "
          f"command: {shlex.join(command)}")
    return 1 if failed else 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:] or [sys.executable, "-m", "hkmod"]))
