"""The benchmark tracer wraps entry points by name; each must still exist."""

import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def test_traced_entry_points_exist():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    points = tracing.entry_points()
    assert points
    for name, owner, attr, _ in points:
        assert attr in owner.__dict__, "%s: %r has no %s" % (name, owner, attr)
