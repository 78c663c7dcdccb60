"""Operation record shared by the workloads, and how an outcome is judged."""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Any, Callable

# The one refusal hkmod documents for in-process calls: a search stopped at
# its cap. It is a failed operation; any other exception is a wrong answer.
REFUSAL = "SearchCapExceeded"


class StepErrors(Exception):
    """Some steps of a multi-step operation raised; the others still ran.

    `errors` maps each raising step to its exception's class name, and
    `output` is the operation's canonical JSON record, in which each of
    those steps reads "error:<class name>".
    """

    def __init__(self, errors: dict[str, str], output: str):
        super().__init__(errors)
        self.errors, self.output = errors, output


@dataclass
class Op:
    """One benchmark operation.

    `call(layers)` does the work and returns its output. `oracle()` computes
    the expected answer; it runs outside the timed set-up, and the workload
    stores its result in `expected`. For in-process operations the output
    must equal `expected`. For CLI operations both are (exit code, stdout)
    pairs, and `known_exits` lists the other exit codes that are documented
    shortfalls of hkmod as it stands (3 at the default search cap, 0 for an
    accepted malformed input): they count as failed, any other code as wrong.
    """

    name: str
    call: Callable[[Any], Any]
    oracle: Callable[[], Any]
    argv: list[str] | None = None  # CLI operations only
    known_exits: tuple[int, ...] = ()
    expected: Any = None


def classify(op: Op, raw, raised: BaseException | None) -> str:
    """'ok', 'failed' (a documented refusal or shortfall) or 'wrong'.

    A wrong answer makes the run incorrect. That covers a different
    answer, an exception other than the cap refusal, a traceback from the
    CLI, an undocumented exit code, and, for a multi-step operation that
    was refused in some steps, a mismatch in any step that did answer.
    """
    if isinstance(raised, StepErrors):
        if any(name != REFUSAL for name in raised.errors.values()):
            return "wrong"
        got, want = json.loads(raised.output), json.loads(op.expected)
        want.update({step: got.get(step) for step in raised.errors})
        return "failed" if got == want else "wrong"
    if raised is not None:
        return "failed" if type(raised).__name__ == REFUSAL else "wrong"
    if isinstance(op.expected, tuple) and isinstance(raw, tuple):
        code, stdout, stderr = raw
        if "Traceback" in stderr:
            return "wrong"
        if code != op.expected[0]:
            return "failed" if code in op.known_exits else "wrong"
        return "ok" if stdout == op.expected[1] else "wrong"
    return "ok" if raw == op.expected else "wrong"
