"""The benchmark tracer wraps entry points by name; each must still exist,
and a traced run must still reach them and count what they do."""

import importlib.util
import io
import json
from contextlib import redirect_stdout
from pathlib import Path

from wpline.cli import main

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return tracing


def test_traced_entry_points_exist():
    points = load_tracing().entry_points()
    assert points
    for name, owner, attr, _ in points:
        assert attr in owner.__dict__, "%s: %r has no %s" % (name, owner, attr)


def test_traced_runs_reach_every_entry_point_and_count_rows():
    tracing = load_tracing()
    tracer = tracing.Tracer()
    # (argv, m with pi(c_S) = m c): B's f and g are cubes, D's quadrics
    runs = [(["verify", "--case", "B", "--field", "7", "--window", "6"], 3),
            (["verify", "--case", "D", "--field", "rationals", "--lambda", "-3",
              "--window", "4"], 2)]
    eliminated = every = degrees = 0
    tracer.install()
    try:
        for argv, m in runs:
            out = io.StringIO()
            with redirect_stdout(out):
                assert main(argv) == 0
            records = json.loads(out.getvalue())["records"]
            # rows are built at the base levels 0 <= l <= 2m - 2 only (every
            # record passes, so none above is redone), plus the 2m Sylvester
            # rows of the coprimality check
            eliminated += 2 * m + sum(r["source_dim"] for r in records
                                      if 0 <= int(r["degree"].split(";")[0]) <= 2 * m - 2)
            every += sum(r["source_dim"] for r in records)
            degrees += len(records)
    finally:
        tracer.remove()
    reached = tracer.totals()
    assert {name for name, *_ in tracing.entry_points()} <= set(reached)
    assert tracer.counts["homverify.rows"] == eliminated < every
    # one window_fibers call per verify run, whose length is its image degrees
    assert tracer.counts["stringgroup.image_degrees"] == degrees
