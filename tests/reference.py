"""Reference oracles: the rewriting system of the coordinate algebras,
degree records independent of the binary-form kernel, fibers and
admissibility on ``GroupElement`` values, the report text by ``json.dumps``
on the whole report, roots by exhaustive search, element orders by
repeated addition, and coefficient expressions by the parser of nested
closures that ``wpline.config.parse_scalar`` replaced, and the rank mod q
on rows packed into integers that the list echelon of ``row_rank``
replaced.

Elements here are sparse dicts {exponent vector: coefficient}.  Products
multiply term by term, and ``reference_reduce`` rewrites
x_i^{p_i} -> x_2^{p_2} - lam_i x_1^{p_1} (i >= 3) until every exponent of
x_3, ..., x_t is below its weight; this was the algebra's own arithmetic
before elements became binary forms.  Monomial images are products of powers
of the generator images computed that way, never with ``AlgebraElement``
arithmetic, the vectors are read off the target component basis, and the rank
comes from plain Gaussian elimination on the target field's own elements
(``Fraction`` or ``Fp``), never reduced modulo anything else.  This is the
verifier's original path, kept here to cross-check the kernel in
``wpline.homverify``.
"""

import json
import math
import re
from fractions import Fraction

from wpline import Fp, GradednessError, PrimeField, RationalField
from wpline.field import _pack, _slot_bits, _unpack
from wpline.homverify import DegreeRecord
from wpline.stringgroup import (AdmissibilityReport, GroupElement, InfiniteFiberError,
                                _ceil_div)


def element_key(e):
    """(l, torsion): the order of the elements of a fiber, and of the
    degrees of a window."""
    return e.l, e.torsion


def reference_rank(rows, zero):
    """Rank by Gaussian elimination, first nonzero entry as the pivot."""
    pivots = []
    for row in rows:
        row = list(row)
        for col, prow in pivots:
            if row[col] != zero:
                factor = row[col] / prow[col]
                row = [a - factor * b for a, b in zip(row, prow)]
        for col, v in enumerate(row):
            if v != zero:
                pivots.append((col, row))
                break
    return len(pivots)



def unreduced_bound(q: int, cols: int) -> int:
    """Rows mod q of ``cols`` entries in [0, bound) enter elimination as
    they are; the bound is the least power of two above q^2 cols."""
    return 1 << (q * q * cols).bit_length()


def reference_rank_mod(rows: list, q: int) -> int:
    """Rank mod a prime q by echelon form on rows packed into integers, so
    that a row operation is one big-integer multiply-add.  A row is reduced
    at its lowest slot that is nonzero mod q: by the pivot led there, which
    makes the slot a multiple of q, or else it becomes that pivot.  Either
    way the slot is then dropped with a shift.  Adding a multiple in
    [0, q) of a pivot keeps every slot nonnegative; a pivot's slots are
    reduced mod q when it is stored, unless they are already (a row
    whose entries are below q, and that no pivot has reduced).  A row
    with an entry outside [0, unreduced_bound) is reduced first."""
    if not rows:
        return 0
    cols = len(rows[0])
    full = min(len(rows), cols)
    bound = unreduced_bound(q, cols)
    # each pivot adds less than (q - 1)^2 to an entry, so entries stay below
    # bound + full (q - 1)^2 < 2 bound, which fits a slot of _slot_bits(bound)
    k = _slot_bits(bound)
    mask = (1 << k) - 1
    # the slot bits at or above the bound: (2^k - bound) in each of cols slots
    high = (mask + 1 - bound) * ((1 << k * cols) - 1) // mask
    pivots: dict[int, tuple[int, int]] = {}  # lead slot -> (-1 / lead mod q, row from its lead)
    for row in rows:
        if len(pivots) == full:
            break
        try:
            r = _pack(row, k)
        except OverflowError:  # a negative entry, or one wider than a slot
            r = high
        if r & high:
            r, reduced = _pack([v % q for v in row], k), True
        else:
            reduced = max(row) < q
        slot = 0
        while r:
            c = r & mask
            if not c:
                low = ((r & -r).bit_length() - 1) // k
                r >>= low * k
                slot += low
                c = r & mask
            c %= q
            if c:
                pivot = pivots.get(slot)
                if pivot is None:
                    if not reduced:
                        r = _pack([v % q for v in _unpack(r, k, cols - slot)], k)
                    pivots[slot] = (q - pow(c, -1, q), r)
                    break
                r += c * pivot[0] % q * pivot[1]
                reduced = False
            r >>= k
            slot += 1
    return len(pivots)


def reference_reduce(alg, raw: dict, redex="first") -> dict:
    """The canonical form of a sparse element by rewriting.  ``redex`` picks
    which reducible variable to rewrite next: "first", "last", or a callable
    on the list of reducible indices.  Every rule consumes its own variable
    and produces only x_1 and x_2, so the system terminates, and every
    choice gives the same canonical form."""
    ps = alg.weights.weights
    zero = alg.field.zero
    if redex == "first":
        pick = lambda idxs: idxs[0]
    elif redex == "last":
        pick = lambda idxs: idxs[-1]
    else:
        pick = redex
    pending = {e: c for e, c in raw.items() if c != zero}
    done = {}
    while pending:
        nxt = {}
        for e, c in pending.items():
            hot = [i for i in range(2, len(ps)) if e[i] >= ps[i]]
            if not hot:
                done[e] = done.get(e, zero) + c
                continue
            i = pick(hot)
            base = list(e)
            base[i] -= ps[i]
            left, right = list(base), list(base)
            left[1] += ps[1]
            right[0] += ps[0]
            lk, rk = tuple(left), tuple(right)
            nxt[lk] = nxt.get(lk, zero) + c
            nxt[rk] = nxt.get(rk, zero) - alg.params[i - 2] * c
        pending = {e: c for e, c in nxt.items() if c != zero}
    return {e: c for e, c in done.items() if c != zero}


def reference_product(alg, a: dict, b: dict) -> dict:
    """The canonical form of the product of two sparse elements."""
    zero = alg.field.zero
    raw = {}
    for e1, c1 in a.items():
        for e2, c2 in b.items():
            key = tuple(x + y for x, y in zip(e1, e2))
            raw[key] = raw.get(key, zero) + c1 * c2
    return reference_reduce(alg, raw)


def reference_power(alg, a: dict, n: int) -> dict:
    """a^n by square and multiply."""
    result = {(0,) * len(alg.weights): alg.field.one}
    while n:
        if n & 1:
            result = reference_product(alg, result, a)
        n >>= 1
        if n:
            a = reference_product(alg, a, a)
    return result


def monomial_image(hom, exps, powers):
    """The image of a source monomial as a sparse element of the target;
    ``powers`` caches the powers of the generator images."""
    img = {(0,) * len(hom.target.weights): hom.target.field.one}
    for j, a in enumerate(exps):
        if a:
            if (j, a) not in powers:
                powers[(j, a)] = reference_power(hom.target, hom.gen_images[j].terms, a)
            img = reference_product(hom.target, img, powers[(j, a)])
    return img


def reference_rows(hom, x, fiber, powers=None):
    """One vector in the target component basis of x per source basis
    monomial over the fiber, fibers in order."""
    powers = {} if powers is None else powers
    basis = hom.target.component_basis(x)
    index = {e: i for i, e in enumerate(basis)}
    zero = hom.target.field.zero
    rows = []
    for y in fiber:
        for mono in hom.source.component_basis(y):
            vec = [zero] * len(basis)
            for e, c in monomial_image(hom, mono, powers).items():
                if e not in index:
                    raise GradednessError(
                        "image of a monomial of degree %s leaves the component of %s"
                        % (y, x))
                vec[index[e]] = c
            rows.append(vec)
    return rows


def reference_record(hom, x, fiber, powers=None):
    rows = reference_rows(hom, x, fiber, powers)
    return DegreeRecord(degree=x, fiber=fiber, source_dim=sum(y.mult() for y in fiber),
                        target_dim=len(hom.target.component_basis(x)),
                        image_rank=reference_rank(rows, hom.target.field.zero))


def fiber_table(fibers):
    """The ``WindowFibers`` fibers as a dict in the order of ``levels()``:
    target (l, torsion) -> the tuple of source pairs (l, r) over it."""
    return {(l, xt): tuple([(off + shift, r) for off, r in pairs])
            for l, shift, classes in fibers.levels() for xt, pairs in classes}


def as_elements(group_hom, fibers):
    """``WindowFibers`` as the ``reference_window_fibers`` table on
    ``GroupElement`` values."""
    return {GroupElement(group_hom.target, *x): tuple(GroupElement(group_hom.source, *y)
                                                      for y in ys)
            for x, ys in fiber_table(fibers).items()}


def reference_window_fibers(group_hom, window):
    """All nonempty fibers over elements with |l| <= window, keyed by
    degree, by normalizing the image of every candidate source element: for
    each source torsion residue, every multiple of the canonical element
    whose image has a degree the window reaches."""
    if window < 1:
        raise ValueError("window must be at least 1")
    d_c = group_hom.c_image.degree()
    if d_c == 0:
        raise InfiniteFiberError("canonical element maps to degree 0; fibers may be infinite")
    tgt = group_hom.target
    lcm = tgt.lcm
    max_tor = sum((p - 1) * d for p, d in zip(tgt.weights, tgt.degree_weights))
    lo, hi = -window * lcm, window * lcm + max_tor
    cl, ct = group_hom.c_image.l, group_hom.c_image.torsion
    buckets = {}
    for r in group_hom.source.torsion_tuples():
        img = group_hom(GroupElement(group_hom.source, 0, r))
        hl, ht, hd = img.l, img.torsion, img.degree()
        if d_c > 0:
            lmin, lmax = _ceil_div(lo - hd, d_c), (hi - hd) // d_c
        else:
            lmin, lmax = _ceil_div(hi - hd, d_c), (lo - hd) // d_c
        for l in range(lmin, lmax + 1):
            img = tgt.normalize(l * cl + hl, tuple(l * a + b for a, b in zip(ct, ht)))
            if -window <= img.l <= window:
                buckets.setdefault(img, []).append(GroupElement(group_hom.source, l, r))
    return {x: tuple(sorted(ys, key=element_key)) for x, ys in buckets.items()}


def reference_fiber(group_hom, x):
    """The preimage of x: per source torsion residue, the unique multiple of
    the canonical element matching the degree of x, kept when its image is
    x."""
    d_c = group_hom.c_image.degree()
    if d_c == 0:
        raise InfiniteFiberError("canonical element maps to degree 0; fibers may be infinite")
    out = set()
    for r in group_hom.source.torsion_tuples():
        num = x.degree() - group_hom(GroupElement(group_hom.source, 0, r)).degree()
        if num % d_c == 0:
            y = GroupElement(group_hom.source, num // d_c, r)
            if group_hom(y) == x:
                out.add(y)
    return out


def reference_admissibility(group_hom, window):
    """Effectiveness plus the fiber mult-sum condition on every image
    element in the window, on ``reference_window_fibers``."""
    buckets = reference_window_fibers(group_hom, window)
    failures = []
    edge_ok = True
    for x in sorted(buckets, key=element_key):
        fib = buckets[x]
        total = sum(y.mult() for y in fib)
        if total != x.mult():
            failures.append((x, total, x.mult()))
        if x.l == window and any(y.l < 0 for y in fib):
            edge_ok = False
        if x.l == -window and (x.mult() != 0 or any(y.mult() != 0 for y in fib)):
            edge_ok = False
    return AdmissibilityReport(effective=group_hom.is_effective(), window=window,
                               checked=len(buckets), failures=tuple(failures),
                               kernel=reference_kernel(group_hom), edge_regime_ok=edge_ok)


def reference_kernel(group_hom):
    """The fiber of zero, zero first and then by ``element_key``."""
    return tuple(sorted(reference_fiber(group_hom, group_hom.target.zero()),
                        key=lambda e: (not e.is_zero(), *element_key(e))))


def reference_records(hom, window):
    """Degree records over the window, in the verifier's order."""
    buckets = reference_window_fibers(hom.group_hom, window)
    powers = {}
    return [reference_record(hom, x, buckets[x], powers).as_dict()
            for x in sorted(buckets, key=element_key)]


def reference_report(result, case="custom", field_name="", constants=None, extra=None):
    """The text ``VerificationResult.to_report`` must give: the report as
    one dict, records by ``DegreeRecord.as_dict``, through
    ``json.dumps(report, sort_keys=True, indent=2)``."""
    report = {
        "case": case,
        "field": field_name,
        "window": result.window,
        "admissible": result.admissibility.admissible,
        "kernel": [str(k) for k in result.admissibility.kernel],
        "constants": dict(constants or {}),
        "records": [r.as_dict() for r in result.records],
        "summary": "pass" if result.passed else "fail",
    }
    if extra:
        report.update(extra)
    return json.dumps(report, sort_keys=True, indent=2)


def _poly_eval(coeffs, x):
    acc = coeffs[-1]
    for c in reversed(coeffs[:-1]):
        acc = acc * x + c
    return acc


def _divisors(n):
    out = []
    d = 1
    while d * d <= n:
        if n % d == 0:
            out.extend({d, n // d})
        d += 1
    return out


def reference_roots(field, coeffs):
    """All roots of a polynomial by exhaustive search, sorted: every residue
    of F_q, or every fraction p/q with p dividing the cleared constant term
    and q the cleared leading coefficient (rational root theorem)."""
    cs = [field(c) for c in coeffs]
    while cs and cs[-1] == field.zero:
        cs.pop()
    if isinstance(field, PrimeField):
        return [Fp(v, field.q) for v in range(field.q) if _poly_eval(cs, Fp(v, field.q)) == 0]
    den = math.lcm(*(c.denominator for c in cs))
    ics = [int(c * den) for c in cs]
    found = set()
    while ics[0] == 0:
        found.add(Fraction(0))
        ics = ics[1:]
    for p in _divisors(abs(ics[0])):
        for q in _divisors(abs(ics[-1])):
            for cand in (Fraction(p, q), Fraction(-p, q)):
                if _poly_eval(cs, cand) == 0:
                    found.add(cand)
    return sorted(found)


def reference_order(elem):
    """Least n >= 1 with n*elem = 0 by adding elem to itself, or math.inf
    for nonzero degree; n never exceeds lcm * prod(p_i)."""
    if elem.degree() != 0:
        return math.inf
    zero = elem.weights.zero()
    acc, n = elem, 1
    while acc != zero:
        acc, n = acc + elem, n + 1
        assert n <= elem.weights.lcm * math.prod(elem.weights.weights)
    return n


def reference_parse_scalar(text: str, field, env: dict | None = None):
    """The expression parser of nested closures that ``config.parse_scalar``
    replaced, kept verbatim as its oracle: same grammar, values and messages."""
    env = env or {}
    tokens = _reference_tokenize(text)
    pos = 0

    def peek():
        return tokens[pos] if pos < len(tokens) else None

    def take(kind=None):
        nonlocal pos
        tok = peek()
        if tok is None or (kind is not None and tok[0] != kind):
            raise ValueError("bad expression %r near position %d" % (text, pos))
        pos += 1
        return tok

    def parse_expr():
        node = parse_term()
        while peek() and peek()[0] in "+-":
            op = take()[0]
            rhs = parse_term()
            node = node + rhs if op == "+" else node - rhs
        return node

    def parse_term():
        node = parse_unary()
        while peek() and peek()[0] in "*/":
            op = take()[0]
            rhs = parse_unary()
            node = node * rhs if op == "*" else node / rhs
        return node

    def parse_unary():
        if peek() and peek()[0] == "-":
            take()
            return -parse_unary()
        return parse_power()

    def parse_power():
        base = parse_atom()
        if peek() and peek()[0] == "^":
            take()
            n = int(take("int")[1])
            height = abs(base.numerator).bit_length() + base.denominator.bit_length()
            if isinstance(field, RationalField) and n * height > 1 << 16:  # bits of the power
                raise ValueError("power too large in expression %r" % text)
            return base ** n
        return base

    def parse_atom():
        tok = take()
        kind, val = tok
        if kind == "int":
            return field(int(val))
        if kind == "name":
            if val not in env:
                raise ValueError("unknown constant %r in expression %r" % (val, text))
            return env[val]
        if kind == "(":
            node = parse_expr()
            take(")")
            return node
        raise ValueError("bad expression %r" % text)

    value = parse_expr()
    if pos != len(tokens):
        raise ValueError("trailing input in expression %r" % text)
    return value


def _reference_tokenize(text: str) -> list[tuple[str, str]]:
    out = []
    for num, name, op in re.findall(r"\s*(?:(\d+)|([^\W\d]\w*)|(\S))", text):
        if op and op not in "+-*/^()":
            raise ValueError("unexpected character %r in expression %r" % (op, text))
        out.append(("int", num) if num else ("name", name) if name else (op, op))
    return out
