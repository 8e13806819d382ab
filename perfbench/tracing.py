"""In-memory spans around the public entry points of ``wpline``'s layers.

The tracer wraps the entry points from outside (by replacing the attributes
while it is installed) and records, for every call, a span: name, start, end,
parent span, job id and self time (its duration minus the time covered by
its children).  Very hot calls (algebra products and component bases) are
aggregated per job as call count and time instead of one span per call.  A
few counters are taken at the same boundaries (rows and ranks of
``row_rank``, residues scanned by root finding, image degrees of
``window_fibers``).  Nothing is written until :meth:`Tracer.dump`.
"""

from __future__ import annotations

import json
import math
from collections import defaultdict
from fractions import Fraction
from functools import wraps
from time import perf_counter

#: aggregated per job instead of one span per call
HOT = frozenset({"algebra.mul", "algebra.component_basis"})


def _roots_scanned(counts, args, result):
    field, coeffs = args[0], args[1]
    if hasattr(field, "q"):
        counts["field.roots.q_scanned"] += field.q
        return
    # RationalField: trial division runs over divisors of the cleared
    # constant and leading coefficients
    cs = [Fraction(c) for c in coeffs]
    den = math.lcm(*(c.denominator for c in cs))
    ints = [int(c * den) for c in cs if c]
    counts["field.roots.q_scanned"] += math.isqrt(abs(ints[0])) + math.isqrt(abs(ints[-1]))


def _row_rank(counts, args, rank):
    rows = args[0]
    cols = len(rows[0]) if rows else 0
    counts["homverify.rows"] += len(rows)
    counts["homverify.rank_ops"] += len(rows) * cols * rank
    counts["homverify.max_target_dim"] = max(counts["homverify.max_target_dim"], cols)


def _image_degrees(counts, args, result):
    counts["stringgroup.image_degrees"] += len(result)


def entry_points():
    """(span name, owner, attribute, counter) for every traced entry point."""
    from wpline import algebra, cli, config, field, homverify, stringgroup
    return [
        ("cases.builtin_case", cli, "builtin_case", None),
        ("config.build", config.VerifyConfig, "build", None),
        ("field.roots", field.PrimeField, "roots", _roots_scanned),
        ("field.roots", field.RationalField, "roots", _roots_scanned),
        ("homverify.hom_init", homverify.AlgebraHom, "__init__", None),
        ("homverify.verify_window", homverify.AlgebraHom, "verify_window", None),
        ("stringgroup.is_admissible", stringgroup.GroupHom, "is_admissible", None),
        ("stringgroup.window_fibers", stringgroup.GroupHom, "window_fibers", _image_degrees),
        ("homverify.images", homverify.AlgebraHom, "check_surjective_at", None),
        ("algebra.component_basis", algebra.CoordinateAlgebra, "component_basis", None),
        ("algebra.mul", algebra.AlgebraElement, "__mul__", None),
        ("algebra.mul", algebra.AlgebraElement, "__rmul__", None),
        ("homverify.row_rank", homverify, "row_rank", _row_rank),
        ("homverify.to_report", homverify.VerificationResult, "to_report", None),
    ]


class Tracer:
    def __init__(self):
        self.spans: list[tuple] = []  # (id, name, start, end, parent, job, self_s)
        self.hot: dict = defaultdict(lambda: [0, 0.0, 0.0])  # (job, name) -> calls, s, self_s
        self.counts: dict = defaultdict(int)
        self.job = None
        self._stack: list[list] = []  # open frames: [id, child time]
        self._ids = 0
        self._saved: list[tuple] = []

    def wrap(self, name, fn, counter=None):
        stack, hot = self._stack, name in HOT

        @wraps(fn)
        def traced(*args, **kwargs):
            self._ids += 1
            frame = [self._ids, 0.0]
            parent = stack[-1][0] if stack else None
            stack.append(frame)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
                if counter is not None:
                    counter(self.counts, args, result)
                return result
            finally:
                end = perf_counter()
                stack.pop()
                dur = end - start
                if stack:
                    stack[-1][1] += dur
                if hot:
                    agg = self.hot[(self.job, name)]
                    agg[0] += 1
                    agg[1] += dur
                    agg[2] += dur - frame[1]
                else:
                    self.spans.append((frame[0], name, start, end, parent, self.job,
                                       dur - frame[1]))
        return traced

    def install(self):
        for name, owner, attr, counter in entry_points():
            original = owner.__dict__[attr]
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self.wrap(name, original, counter))

    def remove(self):
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    # -- summaries ---------------------------------------------------------

    def totals(self) -> dict:
        """name -> [calls, inclusive s, self s], over spans and aggregates."""
        out: dict = defaultdict(lambda: [0, 0.0, 0.0])
        for _, name, start, end, _, _, self_s in self.spans:
            t = out[name]
            t[0] += 1
            t[1] += end - start
            t[2] += self_s
        for (_, name), (calls, s, self_s) in self.hot.items():
            t = out[name]
            t[0] += calls
            t[1] += s
            t[2] += self_s
        return out

    def self_time_gaps(self, root: str = "cli.main") -> list[float]:
        """Per job: sum of all self times minus the root span's duration."""
        sums: dict = defaultdict(float)
        roots: dict = {}
        for _, name, start, end, parent, job, self_s in self.spans:
            sums[job] += self_s
            if name == root and parent is None:
                roots[job] = end - start
        for (job, _), (_, _, self_s) in self.hot.items():
            sums[job] += self_s
        return [sums[job] - dur for job, dur in roots.items()]

    def dump(self, path: str, header: dict):
        doc = dict(header)
        doc["spans"] = [list(s) for s in self.spans]
        doc["hot"] = [[job, name, *agg] for (job, name), agg in self.hot.items()]
        doc["counts"] = dict(self.counts)
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)
