"""Process entry point: `python -m hkmod` and the `hkmod` console script."""

import gc
import os
import sys

from .cli import main


def run() -> int:
    """cli.main, then gc.freeze(), so the full collections at interpreter shutdown have
    nothing to traverse. In-process callers use cli.main, which leaves the collector alone.

    A reader that closes stdout early (`hkmod walls ... | head`) ends the run with exit 1 and
    nothing on stderr: stdout then points at os.devnull, so the flush at shutdown cannot fail."""
    try:
        code = main()
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    finally:
        gc.freeze()


if __name__ == "__main__":
    raise SystemExit(run())
