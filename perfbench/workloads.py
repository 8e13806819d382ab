"""Seeded job generators for the three benchmark workloads.

A workload is a list of jobs, one *pass*.  A run repeats the pass in a new
seeded order until its time is used, so every pass does the same work and
per-pass counts are exact for a seed.  A job is the argv of one ``wpline``
CLI call plus the oracle's expectation; config jobs also carry the config
document, written to a file before timing.  The program sees only the argv
and the config files.

Why each workload exists, and what it does and does not stress:

deep
    ``verify`` on cases A-D once each per pass at window 40, on the fields of
    the ROADMAP baseline (A/Q, B/F7, C/F5, D/F7 with lambda = -1).  This is the
    ROADMAP unit of work.  About half the time goes to monomial images
    (``algebra`` products) and most of the rest to ``homverify.row_rank``;
    ``field`` root finding and the ``stringgroup`` layer take a few percent, so
    a change to roots or the group layer should show no change here.

rational
    ``verify --case D --field rationals --lambda 1-s^2`` at window 24, both
    root picks.  The nine seeded values s = a/b have heights from 1 to about
    10^6, spread evenly in log height (denominators 2-60, rising with the
    numerators, which keeps the trial division in ``RationalField.roots``
    bounded).  Any s outside {0, 1, -1} gives rational roots, because
    xi_plus = (1 + s)^2.  ``Fraction`` coefficients grow with the height
    inside ``algebra`` and ``row_rank``; ``deep`` never exercises this, and
    only this workload would show an exact mod-p rank over Q.
    Prime-field root scans and the group layer are cold here.

sweep
    Over a hundred short CLI calls per pass: ``verify`` on cases A-D at
    windows 4-12 over primes drawn log-uniformly from [5, 10^5] (a third of
    the B, C and D calls use primes that lack a needed root and must exit 2),
    both root picks, ``--tamper lambda=V`` controls that must exit 1 with a
    RelationError, ``--config`` jobs written from the case definitions, and
    ``group admissible`` at windows 64-256.  Per-call costs dominate: the
    O(q) root scan of ``PrimeField.roots``, the group layer, argument parsing,
    case construction and the error paths.  Degree records are small, so
    ``row_rank`` and monomial images matter little here.

Every draw is stratified (one value near the middle of each equal slice of
its range, then shuffled), windows are balanced, and the share of calls that
lack a root is fixed.  In ``sweep`` the root pick and the expected outcome of
the plain ``verify`` calls are fixed per prime stratum as well, since which
calls get the largest primes decides most of a pass's time.  So the work in
a pass barely depends on the seed while the inputs do.
"""

from __future__ import annotations

import hashlib
import json
import math
import random
from fractions import Fraction

from oracle import eps_roots, is_prime, legendre, resolves

WORKLOADS = ("deep", "rational", "sweep")

#: argv placeholder for the path of a job's config file
CONFIG = "@config"

DEEP_WINDOW = 40
DEEP_FIELDS = {"A": ("rationals", None), "B": ("7", None), "C": ("5", None), "D": ("7", "-1")}
RATIONAL_WINDOW = 24
RATIONAL_DECADES = 6  # numerators a up to 10^6
RATIONAL_VALUES = 9  # values of s per pass, each run with both root picks
SWEEP_WINDOWS = range(4, 13)
SWEEP_PRIMES = (5, 10 ** 5)
PICKS = ("smallest", "largest")


def verify_job(case, field, window, lam=None, pick=None, exit_code=0, tamper=None):
    argv = ["verify", "--case", case, "--field", field, "--window", str(window)]
    if lam is not None:
        argv += ["--lambda", str(lam)]
    if pick is not None:
        argv += ["--root-pick", pick]
    if tamper is not None:
        argv += ["--tamper", tamper]
        exit_code = 1
    expect = {"kind": "verify", "case": case, "field": field, "window": window,
              "exit": exit_code, "lambda": None if lam is None else str(lam),
              "tamper": tamper}
    return {"argv": argv, "expect": expect}


def deep(seed: int) -> list[dict]:
    # fixed ROADMAP inputs; the seed only orders each pass (pass_order)
    jobs = []
    for case, (field, lam) in DEEP_FIELDS.items():
        job = verify_job(case, field, DEEP_WINDOW, lam=lam)
        job["verdict"] = case
        jobs.append(job)
    return jobs


def rational(seed: int) -> list[dict]:
    rng = random.Random("rational:%d" % seed)
    jobs = []
    # paired stratum by stratum, so each job's height is fixed up to its slice
    numerators = sorted(_strata(rng, RATIONAL_VALUES, 0, RATIONAL_DECADES))
    denominators = sorted(_strata(rng, RATIONAL_VALUES, math.log(2), math.log(61)))
    for k, y in zip(numerators, denominators):
        a, b = int(10 ** k), int(math.exp(y))
        while b == a or math.gcd(a, b) != 1:
            b += 1
        lam = 1 - Fraction(a, b) ** 2
        jobs += [verify_job("D", "rationals", RATIONAL_WINDOW, lam=lam, pick=p) for p in PICKS]
    return jobs


def sweep(seed: int) -> list[dict]:
    rng = random.Random("sweep:%d" % seed)
    lo, hi = math.log(SWEEP_PRIMES[0]), math.log(SWEEP_PRIMES[1])
    jobs = []
    for case in "ABCD":
        # the root pick and the outcome are fixed per prime stratum, and so
        # is the number of root scans (see _prime), since the O(q) scans of the
        # largest primes dominate the pass
        windows = {p: rng.sample(SWEEP_WINDOWS, len(SWEEP_WINDOWS)) for p in PICKS}
        xs = sorted(_strata(rng, len(SWEEP_WINDOWS) * len(PICKS), lo, hi))
        for i, x in enumerate(xs):
            ok = case == "A" or i % 3 != 1
            pick = PICKS[i % 2]
            w = windows[pick].pop()
            q, lam = _prime(rng, case, math.exp(x), ok, pick=pick)
            jobs.append(verify_job(case, str(q), w, lam=lam, pick=pick, exit_code=0 if ok else 2))
    for case in "ABD":
        for x in _strata(rng, 4, lo, hi):
            q, lam = _prime(rng, case, math.exp(x), True)
            # any value but the case's own parameter breaks a source relation
            bad = {0, 1} | (set(eps_roots(q)) if case == "B" else {(lam or -1) % q})
            v = rng.randint(2, q - 1)
            while v in bad:
                v = rng.randint(2, q - 1)
            jobs.append(verify_job(case, str(q), rng.choice(SWEEP_WINDOWS), lam=lam,
                                pick=rng.choice(PICKS), tamper="lambda=%d" % v))
    for case in "ABCD":
        windows = [4, 6, 9, 12]
        rng.shuffle(windows)
        for x, w in zip(_strata(rng, 4, lo, hi), windows):
            q, lam = _prime(rng, case, math.exp(x), True, config=True)
            expect = {"kind": "verify", "case": case, "field": str(q), "window": w,
                      "exit": 0, "lambda": None if lam is None else str(lam),
                      "tamper": None, "config": True}
            jobs.append({"argv": ["verify", "--config", CONFIG], "expect": expect,
                         "config": case_config(case, q, lam, w)})
    for case in "ABCD":
        for x in _strata(rng, 6, math.log(64), math.log(257)):
            w = int(math.exp(x))
            jobs.append({"argv": ["group", "admissible", "--case", case, "--window", str(w)],
                         "expect": {"kind": "admissible", "case": case, "window": w, "exit": 0}})
    return jobs


GENERATORS = {"deep": deep, "rational": rational, "sweep": sweep}


def _strata(rng, n, lo, hi) -> list[float]:
    """n draws from [lo, hi), one from the middle fifth of each equal slice,
    in random order: the inputs change with the seed, their sum barely."""
    vals = [lo + (hi - lo) * (i + 0.4 + 0.2 * rng.random()) / n for i in range(n)]
    rng.shuffle(vals)
    return vals


def _prime(rng, case, x, ok, config=False, pick=None):
    """The first prime q >= x (never 2 or 3) on which the case's constants
    resolve (``ok``) or fail to; case D also draws its lambda here.  With a
    root ``pick``, also the fewest root scans: one when the constants fail
    (case B without epsilon, case C without i), one per constant when they
    resolve (case B's first epsilon in pick order works)."""
    q = max(int(x), 5)
    while True:
        if is_prime(q):
            if case == "D":
                for _ in range(64):
                    lam = rng.randint(2, q - 1)
                    if resolves("D", q, lam) == ok:
                        return q, lam
            elif resolves(case, q, config=config) == ok and (
                    pick is None or _fewest_scans(case, q, ok, pick)):
                return q, None
        q += 1


def _fewest_scans(case, q, ok, pick) -> bool:
    if case == "B" and ok:
        eps = eps_roots(q)
        return legendre(6 * (eps[0] if pick == "smallest" else eps[-1]) - 3, q) == 1
    if case == "B":
        return not eps_roots(q)
    if case == "C" and not ok:
        return q % 4 == 3
    return True


def case_config(case: str, q: int, lam, window: int) -> dict:
    """A ``verify --config`` document equivalent to built-in case ``case``
    over F_q (root pick "smallest"), written from the case definitions."""
    cfg = {
        "A": {"source": {"weights": [4, 4, 2], "params": ["1"]},
              "target": {"weights": [2, 2, 2, 2], "params": ["1", "-1"]},
              "constants": {},
              "pi": ["0;1,0,0,0", "0;0,1,0,0", "0;0,0,1,1"],
              "phi": [[["1", [1, 0, 0, 0]]], [["1", [0, 1, 0, 0]]], [["1", [0, 0, 1, 1]]]]},
        "B": {"source": {"weights": [6, 3, 2], "params": ["1"]},
              "target": {"weights": [2, 2, 2, 2], "params": ["1", "eps"]},
              "constants": {"eps": ["1", "-1", "1"], "delta": ["3-6*eps", "0", "1"]},
              "pi": ["0;0,0,0,1", "1;0,0,0,0", "0;1,1,1,0"],
              "phi": [[["1", [0, 0, 0, 1]]],
                      [["1", [0, 2, 0, 0]], ["eps-1", [2, 0, 0, 0]]],
                      [["delta", [1, 1, 1, 0]]]]},
        "C": {"source": {"weights": [6, 3, 2], "params": ["1"]},
              "target": {"weights": [3, 3, 3], "params": ["1"]},
              "constants": {"i": ["1", "0", "1"], "r": ["4", "0", "0", "1"]},
              "pi": ["0;0,0,1", "0;1,1,0", "1;0,0,0"],
              "phi": [[["1", [0, 0, 1]]], [["r", [1, 1, 0]]],
                      [["i", [3, 0, 0]], ["i", [0, 3, 0]]]]},
    }
    if case == "D":
        m = 2 - lam  # xi_plus = m + 2s, xi_minus = m - 2s
        cfg["D"] = {
            "source": {"weights": [2, 2, 2, 2], "params": ["1", "(%d-2*s)/(%d+2*s)" % (m, m)]},
            "target": {"weights": [2, 2, 2, 2], "params": ["1", str(lam)]},
            "constants": {"s": [str(lam - 1), "0", "1"], "u": ["-(%d+2*s)" % m, "0", "1"]},
            "pi": ["0;1,0,1,0", "0;0,1,0,1", "1;0,0,0,0", "1;0,0,0,0"],
            "phi": [[["u", [1, 0, 1, 0]]], [["1", [0, 1, 0, 1]]],
                    [["1", [0, 2, 0, 0]], ["-(1+s)", [2, 0, 0, 0]]],
                    [["1", [0, 2, 0, 0]], ["-(1-s)", [2, 0, 0, 0]]]],
        }
    doc = dict(cfg[case])
    doc["field"] = str(q)
    doc["window"] = window
    return doc


def pass_order(workload: str, seed: int, k: int, n: int) -> list[int]:
    """The job order of pass k: a seeded shuffle, different in every pass."""
    order = list(range(n))
    random.Random("%s:%d:pass%d" % (workload, seed, k)).shuffle(order)
    return order


def digest(workload: str, seed: int, passes: int = 3) -> str:
    """Hash of the jobs and of the first pass orders, to compare across processes."""
    jobs = GENERATORS[workload](seed)
    orders = [pass_order(workload, seed, k, len(jobs)) for k in range(passes)]
    text = json.dumps([jobs, orders], sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()
