"""Independent correctness oracle for the outputs of ``wpline`` CLI jobs.

Everything here is plain ``int`` and ``fractions.Fraction`` arithmetic written
for the benchmark; nothing imports the package.  The oracle knows the four
group maps of the built-in cases (as generator images), the kernel orders of
the table in PAPER.md, and the defining equations of every named constant.
From these it derives, for each job, the expected exit code, the exact set of
image degrees and fibers in the window, and the checks a report must pass.

``check(expect, rc, out, err)`` returns a list of problems; an empty list
means the job's outcome matches the oracle.
"""

from __future__ import annotations

import itertools
import json
import math
from fractions import Fraction
from functools import lru_cache

#: source weights, target weights, generator images (raw target coordinates
#: "l;l1,...,lt") and the kernel order from the PAPER.md table
CASES = {
    "A": ((4, 4, 2), (2, 2, 2, 2), ("0;1,0,0,0", "0;0,1,0,0", "0;0,0,1,1"), 2),
    "B": ((6, 3, 2), (2, 2, 2, 2), ("0;0,0,0,1", "1;0,0,0,0", "0;1,1,1,0"), 3),
    "C": ((6, 3, 2), (3, 3, 3), ("0;0,0,1", "0;1,1,0", "1;0,0,0"), 2),
    "D": ((2, 2, 2, 2), (2, 2, 2, 2),
          ("0;1,0,1,0", "0;0,1,0,1", "1;0,0,0,0", "1;0,0,0,0"), 2),
}


# -- string groups, from scratch ------------------------------------------------

def _parse(text: str) -> tuple[int, tuple[int, ...]]:
    head, _, tail = text.partition(";")
    return int(head), tuple(int(v) for v in tail.split(","))


def _fmt(elem) -> str:
    l, tor = elem
    return "%d;%s" % (l, ",".join(str(v) for v in tor))


def _normal(weights, l, raw):
    tor = []
    for r, p in zip(raw, weights):
        q, m = divmod(r, p)
        l += q
        tor.append(m)
    return l, tuple(tor)


def _degree(weights, elem) -> int:
    lcm = math.lcm(*weights)
    l, tor = elem
    return l * lcm + sum(v * (lcm // p) for v, p in zip(tor, weights))


def _image(case: str, l: int, r: tuple[int, ...]):
    """Image of the source element l*c + sum(r_i x_i), with c = p_1 x_1."""
    src, tgt, gens, _ = CASES[case]
    coefs = list(r)
    coefs[0] += l * src[0]
    big_l, tor = 0, [0] * len(tgt)
    for a, text in zip(coefs, gens):
        gl, gt = _parse(text)
        big_l += a * gl
        tor = [x + a * y for x, y in zip(tor, gt)]
    return _normal(tgt, big_l, tor)


@lru_cache(maxsize=None)
def fibers(case: str, window: int) -> tuple:
    """((degree, fiber), ...) for every image element with |level| <= window,
    sorted like the report: by (level, torsion), fibers likewise."""
    src, tgt, _, _ = CASES[case]
    d_c = _degree(tgt, _image(case, 1, (0,) * len(src)))
    assert d_c > 0, "every built-in case maps c to positive degree"
    lcm = math.lcm(*tgt)
    lo, hi = -window * lcm, window * lcm + sum(p - 1 for p in tgt) * lcm
    out: dict = {}
    for r in itertools.product(*(range(p) for p in src)):
        h = _degree(tgt, _image(case, 0, r))
        for l in range(-((h - lo) // d_c), (hi - h) // d_c + 1):
            x = _image(case, l, r)
            if -window <= x[0] <= window:
                out.setdefault(x, []).append((l, r))
    return tuple((x, tuple(sorted(out[x]))) for x in sorted(out))


@lru_cache(maxsize=None)
def kernel(case: str) -> tuple[str, ...]:
    zero = (0, (0,) * len(CASES[case][1]))
    fib = dict(fibers(case, 1))[zero]
    return tuple(_fmt(y) for y in sorted(fib, key=lambda y: (y[0] != 0 or any(y[1]), y)))


# -- fields -----------------------------------------------------------------------

class _Field:
    """Q (q is None) or F_q, with values read from the report's strings."""

    def __init__(self, spec: str):
        self.q = None if spec == "rationals" else int(spec)

    def parse(self, text):
        return Fraction(text) if self.q is None else int(text) % self.q

    def of(self, value):
        value = Fraction(value)
        if self.q is None:
            return value
        return value.numerator * pow(value.denominator, -1, self.q) % self.q

    def eq(self, a, b) -> bool:
        return a == b if self.q is None else (a - b) % self.q == 0


def legendre(a: int, q: int) -> int:
    a %= q
    if a == 0:
        return 0
    return 1 if pow(a, (q - 1) // 2, q) == 1 else -1


def sqrt_mod(a: int, q: int) -> int | None:
    """A square root of a modulo the odd prime q (Tonelli-Shanks), or None."""
    a %= q
    if a == 0:
        return 0
    if legendre(a, q) != 1:
        return None
    s, m = 0, q - 1
    while m % 2 == 0:
        s, m = s + 1, m // 2
    z = 2
    while legendre(z, q) != -1:
        z += 1
    c, t, r = pow(z, m, q), pow(a, m, q), pow(a, (m + 1) // 2, q)
    while t != 1:
        i, t2 = 0, t
        while t2 != 1:
            t2, i = t2 * t2 % q, i + 1
        b = pow(c, 1 << (s - i - 1), q)
        s, c, t, r = i, b * b % q, t * b * b % q, r * b % q
    return r


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    return all(n % d for d in range(2, math.isqrt(n) + 1))


def eps_roots(q: int) -> list[int]:
    """The roots of x^2 - x + 1 in F_q, ascending: (1 +- sqrt(-3)) / 2."""
    t = sqrt_mod(-3, q)
    if t is None:
        return []
    inv2 = pow(2, -1, q)
    return sorted({(1 + t) * inv2 % q, (1 - t) * inv2 % q})


def resolves(case: str, q: int, lam: int | None = None, config: bool = False) -> bool:
    """Whether the constants of a case exist in F_q.

    Built-in case B backtracks over both roots epsilon of x^2 - x + 1; the
    config form of B takes the smallest root only.  Case D needs 1 - lambda to
    be a nonzero square; xi_plus = (1 + s)^2 is then a square automatically.
    """
    if case == "A":
        return True
    if case == "B":
        eps = eps_roots(q)
        if config:
            eps = eps[:1]
        return any(legendre(6 * e - 3, q) == 1 for e in eps)
    if case == "C":
        cube = q % 3 == 2 or pow(-4 % q, (q - 1) // 3, q) == 1
        return q % 4 == 1 and cube
    if case == "D":
        return lam % q not in (0, 1) and legendre(1 - lam, q) == 1
    raise ValueError(case)


# -- constants --------------------------------------------------------------------

#: names used by the config files the benchmark writes -> built-in names
CONFIG_NAMES = {"eps": "epsilon", "delta": "delta", "i": "sqrt_minus_one",
                "r": "cbrt_minus_four", "s": "sqrt_one_minus_lambda",
                "u": "sqrt_xi_plus"}

#: exact key sets a report's "constants" carries
BUILTIN_KEYS = {
    "A": set(), "B": {"epsilon", "delta"},
    "C": {"sqrt_minus_one", "cbrt_minus_four"},
    "D": {"lambda", "lambda_prime", "sqrt_one_minus_lambda", "sqrt_xi_plus",
          "xi_minus", "xi_plus"},
}
CONFIG_KEYS = {"A": set(), "B": {"eps", "delta"}, "C": {"i", "r"}, "D": {"s", "u"}}


def check_constants(case: str, field_spec: str, consts: dict, lam, config: bool) -> list[str]:
    want = CONFIG_KEYS[case] if config else BUILTIN_KEYS[case]
    if set(consts) != want:
        return ["constants %s, expected keys %s" % (sorted(consts), sorted(want))]
    F = _Field(field_spec)
    v = {CONFIG_NAMES.get(k, k) if config else k: F.parse(s) for k, s in consts.items()}
    eqs = []
    if case == "B":
        e, d = v["epsilon"], v["delta"]
        eqs = [("eps^2 - eps + 1 = 0", e * e - e + 1, 0),
               ("delta^2 = 6 eps - 3", d * d, 6 * e - 3)]
    elif case == "C":
        i, r = v["sqrt_minus_one"], v["cbrt_minus_four"]
        eqs = [("i^2 = -1", i * i, -1), ("r^3 = -4", r * r * r, -4)]
    elif case == "D":
        lam = F.of(lam)
        s, u = v["sqrt_one_minus_lambda"], v["sqrt_xi_plus"]
        xi_p = 2 - lam + 2 * s
        eqs = [("s^2 = 1 - lambda", s * s, 1 - lam), ("u^2 = xi_plus", u * u, xi_p)]
        if not config:
            xi_m = 2 - lam - 2 * s
            eqs += [("lambda", v["lambda"], lam), ("xi_plus", v["xi_plus"], xi_p),
                    ("xi_minus", v["xi_minus"], xi_m),
                    ("lambda' xi_plus = xi_minus", v["lambda_prime"] * xi_p, xi_m)]
        if F.eq(u, 0):
            eqs.append(("u != 0", 1, 0))
    return ["constant equation %s fails" % name for name, a, b in eqs if not F.eq(a, b)]


# -- job checks ---------------------------------------------------------------------

def _check_records(case: str, window: int, records: list) -> list[str]:
    want = fibers(case, window)
    if len(records) != len(want):
        return ["%d records, expected %d" % (len(records), len(want))]
    for rec, (x, fib) in zip(records, want):
        mult = max(x[0] + 1, 0)
        if rec.get("degree") != _fmt(x) or rec.get("fiber") != [_fmt(y) for y in fib]:
            return ["record %s: degree or fiber differs from %s" % (rec.get("degree"), _fmt(x))]
        if not rec["source_dim"] == rec["target_dim"] == rec["image_rank"] == mult:
            return ["record %s: dims %s/%s/%s, expected %d"
                    % (rec["degree"], rec["source_dim"], rec["target_dim"],
                       rec["image_rank"], mult)]
        if rec.get("pass") is not True:
            return ["record %s not marked pass" % rec["degree"]]
    return []


def check(expect: dict, rc, out: str, err: str) -> list[str]:
    """Problems with one job's outcome (exit code, stdout, stderr)."""
    if rc != expect["exit"]:
        return ["exit code %r, expected %d" % (rc, expect["exit"])]
    if "Traceback" in err:
        return ["traceback on stderr"]
    if expect["exit"] == 2:
        if out or not err.startswith("error:"):
            return ["exit 2 without a clean error message"]
        return []
    try:
        rep = json.loads(out)
    except ValueError:
        return ["stdout is not JSON"]
    case, window = expect["case"], expect["window"]
    problems = []
    if rep.get("window") != window:
        problems.append("window %r, expected %d" % (rep.get("window"), window))
    if tuple(rep.get("kernel", ())) != kernel(case):
        problems.append("kernel %r, expected %r" % (rep.get("kernel"), kernel(case)))
    if len(rep.get("kernel", ())) != CASES[case][3]:
        problems.append("kernel order differs from the PAPER table")
    if expect["kind"] == "admissible":
        want = {"admissible": True, "effective": True, "failures": [],
                "edge_regime_ok": True, "checked": len(fibers(case, window))}
        problems += ["%s is %r, expected %r" % (k, rep.get(k), w)
                     for k, w in want.items() if rep.get(k) != w]
        return problems
    config = expect.get("config", False)
    if rep.get("case") != ("custom" if config else case) or rep.get("field") != expect["field"]:
        problems.append("case/field %r/%r" % (rep.get("case"), rep.get("field")))
    if rep.get("admissible") is not True:
        problems.append("group map not admissible")
    problems += check_constants(case, expect["field"], rep.get("constants", {}),
                                expect.get("lambda"), config)
    if expect.get("tamper"):
        if (rep.get("tamper") != expect["tamper"] or rep.get("records") != []
                or rep.get("summary") != "fail"
                or rep.get("error", {}).get("type") != "RelationError"):
            problems.append("tamper control did not fail with RelationError")
        return problems
    if rep.get("summary") != "pass":
        problems.append("summary %r, expected pass" % rep.get("summary"))
    return problems + _check_records(case, window, rep.get("records", []))
