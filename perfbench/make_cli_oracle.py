"""Write cli_expected.json: the expected exit code and stdout of every pool query.

    python3 perfbench/make_cli_oracle.py     (from the repository root)

Each query is run once through `python -m hkmod`. The recorded answer is
then corrected where hkmod as it stands departs from its contract, and
cross-checked against oracle.py where the answer has a closed form:

* searches that stop at the default cap (exit 3) are re-run with
  --cap 10**12, which is enough for every pool query; the minimal d is
  checked against oracle.min_d;
* a fiber rank of 1.5 is malformed input: exit 2 with empty stdout.

The file is committed; re-run this only when the pool in cli_mix.py changes.
"""

from __future__ import annotations

import json
import sys
import tempfile
from pathlib import Path

import cli_mix
import oracle as ref

SUFFICIENT_CAP = str(10**12)


def cross_check(slot: str, argv: list[str], code: int, stdout: str) -> None:
    flags = dict(zip(argv[1::2], argv[2::2]))
    if slot.startswith("nl-search"):
        r0, e = int(flags["--r0"]), int(flags["--e"])
        i = ref.governing_divisibility(r0)
        got = [True, json.loads(stdout)["min_d"]] if code == 0 else [False, None]
        want = [False, None] if (2 * i) % e == 0 else [True, ref.min_d(r0, e, i)]
    elif slot in ("unicita", "unicita-cap"):
        i, r0, e = int(flags["--i"]), int(flags["--r0"]), int(flags["--e"])
        report = json.loads(stdout)
        data = {c["name"]: c["data"] for c in report["checks"]}
        got = [report["verdict"], data["m0_s0"]["m0"], data["m0_s0"]["s0"],
               data["rigsuk_min_d0"]["d0"], data["buonacompt_min_d"].get("min_d")]
        want = ref.unicita_summary(i, r0, e)
    else:
        return
    if code != (0 if want[0] else 1) or got != want:
        raise SystemExit(f"{slot} {argv}: hkmod gives {code} {got}, the reference {want}")


def main() -> int:
    root = Path.cwd()
    if not (root / "src" / "hkmod").is_dir():
        print("error: run from the repository root", file=sys.stderr)
        return 2
    launch = cli_mix.Launcher(root)
    expected = {}
    with tempfile.TemporaryDirectory(dir=root) as tmp:
        for slot, variant in cli_mix.pool_ids():
            argv = cli_mix.query(slot, variant, Path(tmp))
            code, stdout, stderr = launch(argv)
            if "Traceback" in stderr:
                raise SystemExit(f"{slot}#{variant}: traceback\n{stderr}")
            if slot in cli_mix.CAP_SLOTS and code == 3:
                code, stdout, _ = launch(argv + ["--cap", SUFFICIENT_CAP])
            if slot == "reduce-fractional":
                code, stdout = 2, ""
            cross_check(slot, argv, code, stdout)
            expected[f"{slot}#{variant}"] = {"argv": argv[: argv.index("--json")] if "--json" in argv else argv,
                                             "code": code, "stdout": stdout}
    for entry in expected.values():
        entry["argv"] = [Path(a).name if a.startswith(str(root)) else a for a in entry["argv"]]
    cli_mix.ORACLE_FILE.write_text(json.dumps(expected, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(expected)} queries to {cli_mix.ORACLE_FILE.name}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
