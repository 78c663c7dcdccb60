"""Process entry point: `python -m hkmod` and the `hkmod` console script."""

import gc

from .cli import main


def run() -> int:
    """cli.main, then gc.freeze(), so the full collections at interpreter shutdown have
    nothing to traverse. In-process callers use cli.main, which leaves the collector alone."""
    try:
        return main()
    finally:
        gc.freeze()


if __name__ == "__main__":
    raise SystemExit(run())
