"""On-demand scaling report; not part of the benchmark's workload set.

    python3 perfbench/scaling.py [--out FILE]

Regenerates the ROADMAP baseline table: one ``verify`` call per case and
window on the baseline fields (A/Q, B/F7, C/F5, D/F7 with lambda = -1), timed
untraced, then repeated under the tracer for the split over the four ROADMAP
layers:

    group   stringgroup.is_admissible + all window_fibers calls
    images  check_surjective_at minus row_rank (monomial images, vectors)
    rank    homverify.row_rank
    report  to_report + the self time of cli.main (argument parsing, JSON)
    other   the rest of cli.main: case construction, roots, validation

Every output is checked by the oracle.  This takes several minutes (window
80 is the slow end).
"""

import argparse
import json
import sys

import run
import workloads
from tracing import Tracer

LAYERS = ("group", "images", "rank", "report", "other")
WINDOWS = (20, 40, 80)


def split(tracer: Tracer) -> dict:
    t = tracer.totals()

    def get(name, i):
        return t[name][i] if name in t else 0.0

    total = get("cli.main", 1)
    out = {
        "group": get("stringgroup.is_admissible", 2) + get("stringgroup.window_fibers", 1),
        "images": get("homverify.images", 1) - get("homverify.row_rank", 1),
        "rank": get("homverify.row_rank", 1),
        "report": get("homverify.to_report", 1) + get("cli.main", 2),
    }
    out["other"] = total - sum(out.values())
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--out", default=None, help="also write the rows as JSON here")
    args = parser.parse_args(argv)
    env = run.environment(argparse.Namespace(seed=None, workload="scaling",
                                             seconds=None, trace=1))
    print("env " + json.dumps(env, sort_keys=True))
    print("| case | field | window | wall s | traced s | "
          + " | ".join(LAYERS) + " |")
    print("|" + "---|" * (5 + len(LAYERS)))
    rows, failed = [], 0
    for case, (field, lam) in workloads.DEEP_FIELDS.items():
        for window in WINDOWS:
            job = workloads.verify_job(case, field, window, lam=lam)
            ledger = run.Ledger([job])
            results = run.run_pass(run.CLI.main, [job["argv"]], [0])[1]
            wall = results[0][2]  # the call alone, without the speed samples
            ledger.add(results)
            tracer = Tracer()
            tracer.install()
            try:
                results = run.run_pass(tracer.wrap("cli.main", run.CLI.main),
                                       [job["argv"]], [0], tracer)[1]
            finally:
                tracer.remove()
            traced = results[0][2]
            ledger.add(results)
            failed += ledger.failed
            layers = split(tracer)
            rows.append({"case": case, "field": field, "window": window, "wall_s": wall,
                         "traced_s": traced, "layers_s": layers,
                         "correct": ledger.failed == 0})
            print("| %s | %s | %d | %.3f | %.3f | %s |" % (
                case, field, window, wall, traced,
                " | ".join("%.3f (%.0f%%)" % (layers[k], 100 * layers[k] / traced)
                           for k in LAYERS)), flush=True)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump({"env": env, "rows": rows}, fh, indent=2)
    print("correct" if not failed else "INCORRECT: %d outputs differ from the oracle" % failed)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
