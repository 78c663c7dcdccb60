"""Run `hkmod.cli.main` with the layer calls it makes traced.

As a script it stands in for `python -m hkmod ARGS...` and writes the
spans as JSON to the file named by HKMOD_BENCH_SPANS. Output and exit
code are those of the plain CLI.
"""

from __future__ import annotations

import json
import os
import sys

from tracing import Tracer, trace_cli_imports


def run_main(cli, argv: list[str], tracer: Tracer) -> int:
    with tracer.span("cli.main"):
        try:
            return cli.main(argv)
        except SystemExit as exc:  # argparse usage errors
            return exc.code if isinstance(exc.code, int) else 1


def main() -> int:
    import hkmod.cli as cli

    tracer = Tracer()
    trace_cli_imports(cli, tracer)
    try:
        code = run_main(cli, sys.argv[1:], tracer)
    finally:
        sys.stdout.flush()
        with open(os.environ["HKMOD_BENCH_SPANS"], "w", encoding="utf-8") as fh:
            json.dump(tracer.spans, fh)
    return code


if __name__ == "__main__":
    raise SystemExit(main())
