"""Golden outputs: identical commands give the outputs committed under
tests/golden/.  ``python3 scripts/regen_golden.py`` regenerates them;
its docstring gives the comparison rules."""

import importlib.util
import json
import math
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
GOLDEN = REPO / "tests" / "golden"

_spec = importlib.util.spec_from_file_location(
    "regen_golden", REPO / "scripts" / "regen_golden.py")
regen_golden = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(regen_golden)


def _assert_close(got, want, where):
    """Equal JSON values, floats to within regen_golden.TOLERANCE."""
    if isinstance(got, float) or isinstance(want, float):
        assert isinstance(got, (int, float)) and isinstance(want, (int, float)), where
        assert (got == want or abs(got - want) <= regen_golden.TOLERANCE
                or (math.isnan(got) and math.isnan(want))), \
            f"{where}: {got!r} != {want!r}"
    elif isinstance(want, dict):
        assert isinstance(got, dict) and sorted(got) == sorted(want), where
        for key in want:
            _assert_close(got[key], want[key], f"{where}.{key}")
    elif isinstance(want, list):
        assert isinstance(got, list) and len(got) == len(want), where
        for i, (g, w) in enumerate(zip(got, want)):
            _assert_close(g, w, f"{where}[{i}]")
    else:
        assert got == want and type(got) is type(want), \
            f"{where}: {got!r} != {want!r}"


def test_outputs_match_the_golden_files(tmp_path):
    produced = regen_golden.generate(tmp_path)
    stored = {p.relative_to(GOLDEN).as_posix(): p.read_bytes()
              for p in GOLDEN.rglob("*") if p.is_file()}
    assert sorted(produced) == sorted(stored)
    for name, blob in sorted(produced.items()):
        if name.endswith(".json"):
            _assert_close(json.loads(blob), json.loads(stored[name]), name)
        else:
            assert blob == stored[name], name
