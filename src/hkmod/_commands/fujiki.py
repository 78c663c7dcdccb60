"""`hkmod fujiki`: a top intersection number from a setup and 2n classes."""

from __future__ import annotations

from ..errors import InputError
from ..fujiki import FujikiSetup, double_factorial, top_intersection
from ..jsonio import _shown, load_json_file, to_int
from ..lattice import lattice_from_json, latvec_from_json


def cmd_fujiki(args) -> tuple[dict, int]:
    setup_data = load_json_file(args.setup)
    if not isinstance(setup_data, dict):
        raise InputError("setup must be a JSON object")
    if "gram" not in setup_data:
        raise InputError("setup needs a 'gram' pairing matrix")
    pairing = lattice_from_json({"gram": setup_data["gram"]})
    n = setup_data.get("n")
    if n is not None:
        n = to_int(n, "n")
    if "kind" in setup_data:
        setup = FujikiSetup.for_kind(setup_data["kind"], pairing)
        if n not in (None, setup.n):
            raise InputError(
                f"kind {_shown(setup_data['kind'])} fixes n = {setup.n}, got n = {_shown(n)}")
    else:
        if n is None or "c_x" not in setup_data:
            raise InputError("setup needs 'kind' or both 'n' and 'c_x'")
        setup = FujikiSetup(n=n, c_x=setup_data["c_x"], pairing=pairing)
    classes_data = load_json_file(args.classes)
    if not isinstance(classes_data, list):
        raise InputError("classes must be a JSON array of vectors")
    classes = [latvec_from_json(c, pairing.rank) for c in classes_data]
    value = top_intersection(setup, classes)
    return {
        "value": value,
        "matchings": double_factorial(2 * setup.n - 1),
        "n": setup.n,
        "c_x": setup.c_x,
    }, 0
