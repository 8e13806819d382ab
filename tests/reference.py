"""Reference oracles: degree records independent of the binary-form kernel,
roots by exhaustive search, and element orders by repeated addition.

Monomial images are products of powers of the generator images computed with
``AlgebraElement`` arithmetic (sparse terms and the rewriting system), the
vectors are read off the target component basis, and the rank comes from
plain Gaussian elimination on the target field's own elements (``Fraction``
or ``Fp``), never reduced modulo anything else.  This is the verifier's
original path, kept here to cross-check the kernel in
``wpline.homverify``.
"""

import math
from fractions import Fraction

from wpline import Fp, GradednessError, PrimeField
from wpline.homverify import DegreeRecord
from wpline.stringgroup import _sort_key


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


def monomial_image(hom, exps, powers):
    """The image of a source monomial as an element of the target algebra;
    ``powers`` caches the powers of the generator images."""
    img = hom.target.one
    for j, a in enumerate(exps):
        if a:
            if (j, a) not in powers:
                powers[(j, a)] = hom.gen_images[j] ** a
            img = img * powers[(j, a)]
    return img


def reference_record(hom, x, fiber=None, powers=None):
    if fiber is None:
        fiber = tuple(sorted(hom.group_hom.fiber(x), key=_sort_key))
    powers = {} if powers is None else powers
    basis = hom.target.component_basis(x)
    index = {e: i for i, e in enumerate(basis)}
    zero = hom.target.field.zero
    rows = []
    for y in fiber:
        for mono in hom.source.component_basis(y):
            vec = [zero] * len(basis)
            for e, c in monomial_image(hom, mono, powers).terms.items():
                if e not in index:
                    raise GradednessError(
                        "image of a monomial of degree %s leaves the component of %s"
                        % (y, x))
                vec[index[e]] = c
            rows.append(vec)
    return DegreeRecord(degree=x, fiber=fiber, source_dim=sum(y.mult() for y in fiber),
                        target_dim=len(basis), image_rank=reference_rank(rows, zero))


def reference_records(hom, window):
    """Degree records over the window, in the verifier's order."""
    buckets = hom.group_hom.window_fibers(window)
    powers = {}
    return [reference_record(hom, x, buckets[x], powers).as_dict()
            for x in sorted(buckets, key=_sort_key)]


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
