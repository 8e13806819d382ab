"""The benchmark tracer wraps entry points by name; each must still exist,
and a traced run must still reach them and count what they do."""

import importlib.util
import io
import json
import shutil
import subprocess
import sys
from contextlib import redirect_stdout
from pathlib import Path

from wpline.cli import main

ROOT = Path(__file__).resolve().parent.parent
TRACING = ROOT / "perfbench" / "tracing.py"


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
            # rows are built at the base levels 1 <= l <= 2m - 2 only (every
            # image is nonzero, so level 0 has rank 1 without rows, and every
            # record passes, so none above is redone), plus the 2m Sylvester
            # rows of the coprimality check
            eliminated += 2 * m + sum(r["source_dim"] for r in records
                                      if 1 <= int(r["degree"].split(";")[0]) <= 2 * m - 2)
            every += sum(r["source_dim"] for r in records)
            degrees += len(records)
    finally:
        tracer.remove()
    reached = tracer.totals()
    assert {name for name, *_ in tracing.entry_points()} <= set(reached)
    assert tracer.counts["homverify.rows"] == eliminated < every
    # one window_fibers call per verify run, whose length is its image degrees
    assert tracer.counts["stringgroup.image_degrees"] == degrees


def test_short_traced_benchmark_runs_pass_their_gates(tmp_path):
    """``perfbench/run.py --trace 1`` on every declared workload, in a copy
    of the checkout that takes its traces: every job is correct and every
    declared per-layer metric is reached."""
    for name in ("perfbench", "src"):
        shutil.copytree(ROOT / name, tmp_path / name,
                        ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    workloads = [w["name"] for w in json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]]
    runs = {w: subprocess.Popen([sys.executable, "perfbench/run.py", "--workload", w,
                                 "--seconds", "0.1", "--trace", "1"], cwd=tmp_path,
                                stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True)
            for w in workloads}
    for w, proc in runs.items():
        out, _ = proc.communicate(timeout=120)
        assert proc.returncode == 0, out
        assert json.loads(out.splitlines()[-1])["correct"] is True, out
        assert "was never reached" not in out


def test_import_leaves_out_the_dataclasses_machinery():
    """``import wpline, wpline.cli`` loads none of the modules that
    ``dataclasses`` pulls in; every CLI call pays for what the import loads.
    ``-S`` keeps site hooks from loading them first."""
    code = ("import sys; sys.path.insert(0, sys.argv[1]); import wpline, wpline.cli; "
            "print(' '.join(sorted(set(sys.argv[2:]) & set(sys.modules))))")
    heavy = ["dataclasses", "inspect", "ast", "dis", "tokenize"]
    proc = subprocess.run([sys.executable, "-S", "-c", code, str(ROOT / "src"), *heavy],
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == []
