"""Benchmark of the ``wpline`` verifier, driven in-process through its CLI.

    python3 perfbench/run.py --workload deep|rational|sweep --seed N \\
        --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seconds S     # every metric, all workloads

Run from the root of a checkout; the package is imported from ``src/`` of
that checkout, never from anywhere else.  One process per workload, one
closed-loop client calling ``wpline.cli.main(argv)`` with stdout captured, no
threads; ``WPL_THREADS`` is removed from the environment and its original
value recorded.  Jobs come from ``workloads.py`` and are checked by the
independent oracle in ``oracle.py``.  Job times and import times are scaled
to a nominal guest speed (``speed.py``).

With ``--trace 0`` the last line of stdout is a JSON object with the
end-to-end metrics; with ``--trace 1`` a separate traced run reports the
per-layer metrics (per pass) and writes its spans to ``perfbench/out/``.
The lines before it record the environment and every metric in readable
form.  See README.md for what each metric means.
"""

import os
import sys
import time

import speed

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WPL_THREADS = os.environ.pop("WPL_THREADS", None)

#: what a fresh interpreter runs to time one import of the program, at the
#: nominal speed of speed.py
IMPORT_PROBE = ("import sys, time; sys.path[:0] = sys.argv[1:3]; import speed; "
                "t = time.perf_counter(); import wpline, wpline.cli; "
                "t = time.perf_counter() - t; "
                "print(speed.at_nominal(t, speed.sample()), wpline.__file__)")


def _import_program():
    """Import wpline and wpline.cli from this checkout, timed, before anything
    else the benchmark imports, so the sample matches a fresh interpreter.
    The time is at the nominal speed of speed.py."""
    if not os.path.isfile(os.path.join(SRC, "wpline", "cli.py")):
        sys.exit("perfbench: no wpline sources under %s" % SRC)
    sys.path.insert(0, SRC)
    start = time.perf_counter()
    import wpline
    import wpline.cli
    took = speed.at_nominal(time.perf_counter() - start, speed.sample())
    if not os.path.abspath(wpline.__file__).startswith(SRC + os.sep):
        sys.exit("perfbench: wpline was imported from %s, not %s" % (wpline.__file__, SRC))
    return wpline.cli, took


CLI, FIRST_IMPORT_S = _import_program()

import argparse  # noqa: E402  (after the timed import, see _import_program)
import contextlib  # noqa: E402
import gc  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import traceback  # noqa: E402

import oracle  # noqa: E402
import workloads  # noqa: E402
from tracing import Tracer  # noqa: E402

OUT_DIR = os.path.join(HERE, "out")
SETUP_SAMPLES = 16  # fresh interpreters, on top of this process's own import
CHILD_TIMEOUT = 60

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _fh:
    _DECLARED = json.load(_fh)
END_TO_END = {m["name"]: m["unit"] for m in _DECLARED["end_to_end"]}
PER_LAYER = {m["name"]: m["unit"] for m in _DECLARED["per_layer"]}
#: per-layer metrics printed where a workload reaches them, but not declared,
#: since a declared metric must exist on every workload
LAYER_EXTRA = {"config.build.self_s": "s"}


# -- environment and set-up -----------------------------------------------------

def environment(args) -> dict:
    cpu = platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                        if ln.startswith("model name")), cpu)
    except OSError:
        pass
    return {"python": platform.python_version(), "nproc": len(os.sched_getaffinity(0)),
            "cpu": cpu, "seed": args.seed, "workload": args.workload,
            "seconds": args.seconds, "trace": args.trace,
            "wpl_threads_set": WPL_THREADS is not None, "wpl_threads": WPL_THREADS}


def setup_times() -> list[float]:
    """This process's import of the program plus SETUP_SAMPLES fresh ones."""
    times = [FIRST_IMPORT_S]
    for _ in range(SETUP_SAMPLES):
        proc = subprocess.run([sys.executable, "-c", IMPORT_PROBE, SRC, HERE], cwd=ROOT,
                              capture_output=True, text=True, timeout=CHILD_TIMEOUT,
                              check=True)
        took, path = proc.stdout.split()
        if not os.path.abspath(path).startswith(SRC + os.sep):
            sys.exit("perfbench: a probe imported wpline from %s" % path)
        times.append(float(took))
    return times


# -- running jobs ---------------------------------------------------------------

def materialize(jobs: list[dict], cfg_dir: str) -> list[list[str]]:
    """Write config documents; return each job's final argv."""
    argvs = []
    for i, job in enumerate(jobs):
        argv = list(job["argv"])
        if job.get("config") is not None:
            path = os.path.join(cfg_dir, "job%03d.json" % i)
            with open(path, "w", encoding="utf-8") as fh:
                json.dump(job["config"], fh)
            argv[argv.index(workloads.CONFIG)] = path
        argvs.append(argv)
    return argvs


def run_pass(main, argvs, order, tracer=None, label=0):
    """One closed-loop pass: (wall s, [(job index, rc, job s, job s at nominal
    speed, stdout, stderr)]).  The guest's speed is sampled between jobs."""
    results = []
    gc.collect()
    start = time.perf_counter()
    before = speed.sample()
    for pos, i in enumerate(order):
        out, err = io.StringIO(), io.StringIO()
        if tracer is not None:
            tracer.job = "%d:%d" % (label, pos)
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            t0 = time.perf_counter()
            try:
                rc = main(argvs[i])
            except Exception:  # a traceback is an outcome the oracle rejects
                rc = "traceback"
                traceback.print_exc(file=err)
            t1 = time.perf_counter()
        after = speed.sample()
        results.append((i, rc, t1 - t0, speed.at_nominal(t1 - t0, before, after),
                        out.getvalue(), err.getvalue()))
        before = after
    return time.perf_counter() - start, results


def record_count(rc, out: str) -> int:
    if rc not in (0, 1) or not out.startswith("{"):
        return 0
    try:
        return len(json.loads(out).get("records", ()))
    except ValueError:
        return 0


class Ledger:
    """Per-job outcomes of a run, checked against the oracle after each pass."""

    def __init__(self, jobs):
        self.jobs = jobs
        self.times: dict = {}  # job index -> its times at nominal speed over the passes
        self.by_verdict: dict = {}
        self.attempted = self.failed = self.degrees = 0
        self.wall_s = self.nominal_s = 0.0  # summed job times
        self.problems: list[str] = []
        self.sample = None  # (expect, rc, out, err) of a passing verify job
        self.peak_rss_mb = None

    def add(self, results):
        for i, rc, took, nominal, out, err in results:
            job = self.jobs[i]
            self.attempted += 1
            self.wall_s += took
            self.nominal_s += nominal
            self.times.setdefault(i, []).append(nominal)
            self.degrees += record_count(rc, out)
            if job.get("verdict"):
                self.by_verdict.setdefault(job["verdict"], []).append(nominal)
            problems = oracle.check(job["expect"], rc, out, err)
            if problems:
                self.failed += 1
                self.problems.append("%s: %s" % (" ".join(job["argv"]), problems[0]))
            elif self.sample is None and rc == 0 and job["expect"]["kind"] == "verify":
                self.sample = (job["expect"], rc, out, err)


def run_passes(args, jobs, argvs, tracer=None):
    """Passes until the time is used: the pass count is the nearest whole
    number of passes to --seconds (at least one).  Traced runs alternate a
    traced and an untraced pass over the same order."""
    ledger, wall, bare_wall, passes = Ledger(jobs), 0.0, 0.0, 0
    while True:
        order = workloads.pass_order(args.workload, args.seed, passes, len(jobs))
        if tracer is None:
            took, results = run_pass(CLI.main, argvs, order)
            if not passes:  # before checking, which allocates memory of its own
                ledger.peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        else:
            tracer.install()
            try:
                took, results = run_pass(tracer.wrap("cli.main", CLI.main), argvs, order,
                                         tracer, passes)
            finally:
                tracer.remove()
            bare, bare_results = run_pass(CLI.main, argvs, order)
            bare_wall += bare
            ledger.add(bare_results)
            tracer.counts["cli.report_bytes"] += sum(len(r[4]) for r in results)
        ledger.add(results)
        wall += took
        passes += 1
        if wall + wall / passes / 2 > args.seconds:
            return ledger, wall, bare_wall, passes


# -- self-check ----------------------------------------------------------------

def self_check(args, ledger) -> list[str]:
    """The generator is deterministic across processes and the oracle rejects
    a decremented image_rank and a wrong exit code."""
    problems = []
    code = ("import sys; sys.path.insert(0, sys.argv[1]); import workloads; "
            "print(workloads.digest(sys.argv[2], int(sys.argv[3])))")
    env = dict(os.environ, PYTHONHASHSEED=str(args.seed % 4294967295 + 1))
    proc = subprocess.run([sys.executable, "-c", code, HERE, args.workload, str(args.seed)],
                          capture_output=True, text=True, timeout=CHILD_TIMEOUT, env=env)
    if proc.stdout.strip() != workloads.digest(args.workload, args.seed):
        problems.append("job generation differs between processes for one seed")
    if workloads.digest(args.workload, args.seed) == workloads.digest(args.workload, args.seed + 1):
        problems.append("two seeds generate the same jobs")
    if ledger.sample is None:
        return problems + ["no passing verify job to test the oracle on"]
    expect, rc, out, err = ledger.sample
    report = json.loads(out)
    rec = next(r for r in report["records"] if r["image_rank"] > 0)
    rec["image_rank"] -= 1
    if not oracle.check(expect, rc, json.dumps(report, sort_keys=True, indent=2), err):
        problems.append("oracle accepts a report with an image_rank decremented")
    if not oracle.check(expect, 1, out, err):
        problems.append("oracle accepts a job with a wrong exit code")
    return problems


# -- metrics -------------------------------------------------------------------

def percentile(values, p):
    """Nearest-rank percentile and the number of samples above it."""
    s = sorted(values)
    k = max(math.ceil(p * len(s)), 1)
    return s[k - 1], len(s) - k


def end_to_end(ledger, passes, setup) -> tuple[dict, dict]:
    # one time per job, its median over the passes at nominal speed, so that
    # neither the guest's drift nor one slow pass or job sets a metric; their
    # sum is the time of a typical pass
    job_times = [statistics.median(times) for times in ledger.times.values()]
    pass_s = sum(job_times)
    metrics = {
        "setup_s": statistics.median(setup),
        "jobs_per_s": len(job_times) / pass_s,
        "degrees_per_s": ledger.degrees / passes / pass_s,
        "job_s.p50": statistics.median(job_times),
        "peak_rss_mb": ledger.peak_rss_mb,
    }
    extra = {"failed_ratio": (ledger.failed / ledger.attempted, "ratio"),
             "jobs": (ledger.attempted, "count"),
             "wall.jobs_per_s": (ledger.attempted / ledger.wall_s, "1/s"),
             "wall_over_nominal": (ledger.wall_s / ledger.nominal_s, "ratio")}
    p90, beyond = percentile(job_times, 0.9)
    if beyond >= 10:  # only a percentile with ten jobs beyond it is reported
        extra["job_s.p90"] = (p90, "s")
    for case, times in sorted(ledger.by_verdict.items()):
        extra["verdict_s." + case] = (statistics.median(times), "s")
    return metrics, extra


def per_layer(tracer, passes, bare_wall, traced_wall) -> dict:
    """Every per-layer metric the traced run reached, per pass."""
    totals = tracer.totals()
    out = {}
    for name in {**PER_LAYER, **LAYER_EXTRA}:
        base, _, field = name.rpartition(".")
        if name in tracer.counts:
            value = tracer.counts[name]
            out[name] = value if name.endswith("max_target_dim") else value / passes
        elif field in ("calls", "s", "self_s") and base in totals:
            calls, incl, self_s = totals[base]
            out[name] = {"calls": calls, "s": incl, "self_s": self_s}[field] / passes
    out["trace.overhead_s"] = (traced_wall - bare_wall) / passes
    return out


# -- entry points --------------------------------------------------------------

def run_workload(args) -> int:
    env = environment(args)
    print("env " + json.dumps(env, sort_keys=True))
    setup = None if args.trace else setup_times()
    jobs = workloads.GENERATORS[args.workload](args.seed)
    os.makedirs(OUT_DIR, exist_ok=True)
    cfg_dir = os.path.join(OUT_DIR, "configs-%d" % os.getpid())
    os.makedirs(cfg_dir)
    try:
        argvs = materialize(jobs, cfg_dir)
        tracer = Tracer() if args.trace else None
        ledger, wall, bare_wall, passes = run_passes(args, jobs, argvs, tracer)
    finally:
        shutil.rmtree(cfg_dir, ignore_errors=True)
    problems = self_check(args, ledger)
    if tracer is not None:
        gaps = tracer.self_time_gaps()
        if not gaps or max(abs(g) for g in gaps) > 1e-6:
            problems.append("self times do not sum to the cli.main span")
        metrics = per_layer(tracer, passes, bare_wall, wall)
        units = PER_LAYER
        problems += ["declared per-layer metric %s was never reached" % name
                     for name in PER_LAYER if name not in metrics]
        extra = {k: (metrics.pop(k), LAYER_EXTRA[k]) for k in LAYER_EXTRA if k in metrics}
        path = os.path.join(OUT_DIR, "trace-%s-%d.json" % (args.workload, args.seed))
        tracer.dump(path, {"env": env, "passes": passes, "metrics": metrics,
                           "extra": {k: v for k, (v, _) in extra.items()}})
        print("trace " + path)
    else:
        metrics, extra = end_to_end(ledger, passes, setup)
        units = END_TO_END
    print("extra " + json.dumps({k: {"value": v, "unit": u} for k, (v, u) in extra.items()}))
    for name, (value, unit) in extra.items():
        print("  %-34s %14.6g %s" % (name, value, unit))
    print("passes %d  jobs %d  failed %d  wall %.3f s" % (passes, ledger.attempted,
                                                          ledger.failed, wall))
    for name, value in metrics.items():
        print("  %-34s %14.6g %s" % (name, value, units[name]))
    for line in (ledger.problems + problems)[:20]:
        print("problem " + line)
    correct = ledger.failed == 0 and not problems
    print(json.dumps({
        "correct": correct,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0 if correct else 1


def run_all(args) -> int:
    """Each workload in its own process; one table of every named metric."""
    rows, ok = [], True
    for name in workloads.WORKLOADS:
        proc = subprocess.run([sys.executable, os.path.abspath(__file__), "--workload", name,
                               "--seed", str(args.seed), "--seconds", str(args.seconds),
                               "--trace", "0"], cwd=ROOT, capture_output=True, text=True)
        lines = proc.stdout.splitlines()
        if not lines or not lines[-1].startswith("{"):
            sys.stderr.write(proc.stderr)
            return proc.returncode or 1
        result = json.loads(lines[-1])
        extra = json.loads(next(ln[6:] for ln in lines if ln.startswith("extra ")))
        ok = ok and result["correct"]
        for metric, entry in {**result["metrics"], **extra}.items():
            rows.append((name, metric, entry["value"], entry["unit"]))
        if not result["correct"]:
            print("\n".join(ln for ln in lines if ln.startswith("problem ")))
    print(next(ln for ln in lines if ln.startswith("env ")))
    for name, metric, value, unit in rows:
        print("%-9s %-20s %14.6g %s" % (name, metric, value, unit))
    print("correct" if ok else "INCORRECT")
    return 0 if ok else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=_DECLARED["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
