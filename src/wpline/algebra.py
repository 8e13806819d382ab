"""Graded homogeneous coordinate algebras of weighted projective lines.

For a weight sequence (p_1, ..., p_t) and normalized parameters
(inf, 0, 1, lam_4, ...), the algebra S(p, lam) is k[X_1, ..., X_t] modulo the
relations X_i^{p_i} = X_2^{p_2} - lam_i X_1^{p_1} for i >= 3, graded by the
string group via deg X_i = x_i.  It is free over k[U, V], U = X_1^{p_1} and
V = X_2^{p_2}, on the monomials X_1^{l_1} ... X_t^{l_t} with 0 <= l_i < p_i
(Geigle-Lenzing, LNM 1273, 1987).  So the component of degree
l c + sum(l_i x_i) in normal form is that monomial times the binary forms of
degree l, with basis X_1^{a p_1 + l_1} X_2^{(l-a) p_2 + l_2} X_3^{l_3} ...
for 0 <= a <= l, and an element is a sum of forms, one per degree: its
torsion (l_1, ..., l_t), its level l and the coefficients of U^a V^(l-a).
A product adds torsions and multiplies forms; where a torsion coordinate
reaches p_i, :func:`carry` takes X_i^{p_i} out as U, V or V - lam_i U.  It is
the one place where the relations are used.

Construction, products and powers run on integer forms (fraction-free, with
a tracked denominator: Geddes, Czapor and Labahn, Algorithms for Computer
Algebra, 1992): over F_q a form is its residues' ints mod q, over Q integer
coefficients and a positive scale, the form ints / scale, and a carry by
lam_i = num/den is by den V - num U and multiplies the scale by den.
:func:`_times` is the one product of such forms; an element built from
exponent vectors takes no product, only one ``carry`` per monomial.  An
element is its int form in lowest terms; only its ``terms`` (and so its
text) are ``Fp`` or ``Fraction`` objects.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction

from .field import Field, Fp, RationalField, _poly_mul
from .stringgroup import GroupElement, WeightSequence, generator_letter

#: the most levels and carries by V - lam U (the k-th costs about k operations)
#: of an element built from exponent vectors, over all its terms; over Q a carry
#: counts once per CARRY_BITS bits of lam's numerator and denominator.  Bases
#: are listed up to MAX_LEVEL.
MAX_LEVEL, MAX_CARRIES, CARRY_BITS = 10 ** 5, 1000, 16


def carry(raw, l: int, coeffs: list, weights: tuple, pairs: list, q: int | None = None):
    """(torsion, level, coeffs, scale) of X^raw times the form ``coeffs`` of
    level l: each X_i^{p_i} in X^raw is taken out as U (i = 1), V (i = 2),
    or a V - b U for (a, b) = pairs[i - 3]: (1, lam_i) is the relation, and
    (den, num) for lam_i = num/den its multiple by den, which keeps integer
    forms integer; scale is the product of the a taken out, so the value is
    coeffs / scale.  With a modulus q, ints are reduced after such a carry."""
    tor = list(raw)
    scale = 1
    for i in reversed(range(len(tor))):  # pairs first, on the shortest forms
        p = weights[i]
        if tor[i] >= p:
            k, tor[i] = divmod(tor[i], p)
            l += k
            if i > 1:
                a, b = pairs[i - 2]
                scale *= a ** k
                for _ in range(k):
                    coeffs = [a * v - b * u for v, u in zip(coeffs + [0], [0] + coeffs)]
                    if q:
                        coeffs = [c % q for c in coeffs]
            elif i:
                coeffs = coeffs + [0] * k
            else:
                coeffs = [0] * k + coeffs
    return tuple(tor), l, coeffs, scale


def _add(out: dict, key: tuple, ints: list, scale: int, q: int | None):
    """out[key] += ints / scale, an int form (see ``_times``): forms that
    meet are summed over the lcm of their scales, and one that cancels is
    dropped."""
    old = out.pop(key, None)
    if old is not None:
        h, u = old
        if q:
            ints = [(x + y) % q for x, y in zip(h, ints)]
        elif u == scale:
            ints = [x + y for x, y in zip(h, ints)]
        else:
            m = math.lcm(u, scale)
            hu, su = m // u, m // scale
            ints = [x * hu + y * su for x, y in zip(h, ints)]
            scale = m
    if any(ints):
        out[key] = ints, scale


def _times(alg: "CoordinateAlgebra", a: dict, b: dict, out: dict | None = None) -> dict:
    """The product of int forms a and b, added into ``out``: the one product
    of elements.  An int form maps (torsion, l) to (ints, scale), the form
    ints / scale; over F_q the ints lie in [0, q) and the scale is 1.  Each
    pair of forms is one ``_poly_mul``, one ``carry`` on the summed torsion
    (by the ``int_pairs``), scales multiplied, and ``_add`` into ``out``."""
    ws, q, pairs = alg.weights.weights, alg.modulus, alg.int_pairs
    out = {} if out is None else out
    for (t1, l1), (f, s) in a.items():
        for (t2, l2), (g, t) in b.items():
            tor, l, ints, scale = carry([x + y for x, y in zip(t1, t2)], l1 + l2,
                                        _poly_mul(f, g, q), ws, pairs, q)
            _add(out, (tor, l), ints, scale * s * t, q)
    return out


class CoordinateAlgebra:
    """Quotient of a polynomial ring by the weighted-line relations.

    ``params`` are the t - 2 normalized parameters lam_3, ..., lam_t, so
    the first one must be 1.
    """

    def __init__(self, weights, field: Field, params=None):
        if not isinstance(weights, WeightSequence):
            weights = WeightSequence(tuple(weights))
        self.weights = weights
        self.field = field
        self.modulus = getattr(field, "q", None)  # q for F_q, None for Q
        t = len(weights)
        vals = list(params) if params is not None else []
        n = max(t - 2, 0)
        if len(vals) != n:
            raise ValueError("expected %d parameter%s for %d weights, got %d"
                             % (n, "" if n == 1 else "s", t, len(vals)))
        ps = tuple(self.field(v) for v in vals)
        if ps:
            if ps[0] != self.field.one:
                raise ValueError("the first normalized parameter must be 1")
            for lam in ps[1:]:
                if lam == self.field.zero or lam == self.field.one:
                    raise ValueError("parameters beyond the third point must avoid 0 and 1")
            if len(set(ps)) != len(ps):
                raise ValueError("parameters must be pairwise distinct")
        self.params = ps
        # carry pairs that keep integer forms integer: den V - num U for lam_i = num/den
        self.int_pairs = [(lam.denominator, lam.numerator) for lam in ps]
        self.letter = generator_letter(weights.weights)

    def __eq__(self, other):
        return (isinstance(other, CoordinateAlgebra)
                and self.weights == other.weights
                and self.params == other.params
                and self.field == other.field)

    def __hash__(self):
        return hash((self.weights, self.params, self.field))

    def __repr__(self):
        if self.params[1:]:
            extra = ";" + ",".join(str(p) for p in self.params[1:])
        else:
            extra = ""
        return "S(%s%s)" % (",".join(str(p) for p in self.weights.weights), extra)

    # -- construction of elements -------------------------------------------

    @property
    def zero(self) -> "AlgebraElement":
        return AlgebraElement(self, {})

    @property
    def one(self) -> "AlgebraElement":
        return AlgebraElement(self, {((0,) * len(self.weights), 0): ([1], 1)})

    @property
    def gens(self) -> tuple["AlgebraElement", ...]:
        t = len(self.weights)
        return tuple(self.reduce_monomial([int(i == j) for j in range(t)]) for i in range(t))

    def element(self, terms) -> "AlgebraElement":
        """Canonical form of a sum of (coeff, exponent-vector) pairs."""
        monos = []
        for coeff, exps in terms:
            e = tuple(int(a) for a in exps)
            if len(e) != len(self.weights):
                raise ValueError("exponent vector %r has wrong length" % (e,))
            if any(a < 0 for a in e):
                raise ValueError("exponents must be nonnegative, got %r" % (e,))
            monos.append((self.field(coeff), e))
        return self._build(monos)

    def reduce_monomial(self, exps, coeff=1) -> "AlgebraElement":
        """The canonical form of coeff * X^exps."""
        return self.element([(coeff, exps)])

    def _build(self, monos: list) -> "AlgebraElement":
        """The sum of c X^e over (c, e) in ``monos``: each is one ``carry``
        of the form [numerator of c] from the raw exponent e, at level 0,
        added into the sum over the scale times the denominator of c."""
        ws, q = self.weights.weights, self.modulus
        units = [1 if q else -(-(n.bit_length() + d.bit_length()) // CARRY_BITS)
                 for d, n in self.int_pairs]
        ks = [[a // p for a, p in zip(e, ws)] for _, e in monos]
        level = sum(map(sum, ks))
        carries = sum([k * u for row in ks for k, u in zip(row[2:], units)])
        if level > MAX_LEVEL or carries > MAX_CARRIES:
            raise ValueError("exponents reach level %d with %d carries by V - lam U, above the "
                             "%d levels or %d carries an element is built with"
                             % (level, carries, MAX_LEVEL, MAX_CARRIES))
        out: dict = {}
        for c, e in monos:
            tor, l, ints, scale = carry(e, 0, [c.numerator], ws, self.int_pairs, q)
            _add(out, (tor, l), ints, scale * c.denominator, q)
        return AlgebraElement(self, out)

    # -- grading -------------------------------------------------------------

    def component_basis(self, x: GroupElement) -> tuple[tuple[int, ...], ...]:
        """Exponent vectors of the canonical monomials of degree x.

        For x = l*c + sum(l_i x_i) in normal form these are
        (a*p_1 + l_1, b*p_2 + l_2, l_3, ..., l_t) with a + b = l, so there
        are max(l+1, 0) of them; a level above MAX_LEVEL is refused.
        """
        if x.weights != self.weights:
            raise ValueError("degree belongs to a different string group")
        if x.l > MAX_LEVEL:
            raise ValueError("bases are listed up to level %d, not %d" % (MAX_LEVEL, x.l))
        p1, p2 = self.weights.weights[0], self.weights.weights[1]
        l1, l2 = x.torsion[0], x.torsion[1]
        rest = x.torsion[2:]
        return tuple((a * p1 + l1, (x.l - a) * p2 + l2) + rest for a in range(x.l + 1))

    def dim(self, x: GroupElement) -> int:
        """max(l + 1, 0), the number of monomials :meth:`component_basis` lists."""
        if x.weights != self.weights:
            raise ValueError("degree belongs to a different string group")
        return max(x.l + 1, 0)

    def brute_force_dim(self, x: GroupElement) -> int:
        """Count canonical monomials of degree x by exhaustive enumeration.

        Independent oracle for the dimension formula dim = mult: enumerates
        exponent vectors within the degree budget and compares normal forms,
        never consulting :meth:`component_basis`.
        """
        if x.weights != self.weights:
            raise ValueError("degree belongs to a different string group")
        dx = x.degree()
        if dx < 0:
            return 0
        ws = self.weights.weights
        dws = self.weights.degree_weights
        tail_ranges = [range(min(ws[i] - 1, dx // dws[i]) + 1) for i in range(2, len(ws))]
        d0, d1 = dws[0], dws[1]
        count = 0
        for tail in itertools.product(*tail_ranges):
            rem = dx - sum(a * d for a, d in zip(tail, dws[2:]))
            if rem < 0:
                continue
            for a0 in range(rem // d0 + 1):
                r2 = rem - a0 * d0
                if r2 % d1:
                    continue
                exps = (a0, r2 // d1) + tail
                if self.weights.normalize(0, exps) == x:
                    count += 1
        return count

    def monomial_text(self, exps) -> str:
        """X^exps written out, like "x1^2*x3"; the empty product is "1"."""
        letter = self.letter
        return "*".join("%s%d" % (letter, i + 1) + ("^%d" % a if a > 1 else "")
                        for i, a in enumerate(exps) if a) or "1"


class AlgebraElement:
    """A finite sum of homogeneous elements with exact coefficients.

    Instances are created through the parent algebra and treated as
    immutable.  ``ints`` is the element's int form (see ``_times``) in
    lowest terms: it maps (torsion, l) to (ints, scale), the l + 1
    coefficients of U^a V^(l-a) as ints / scale, none of them all zero (see
    the module docstring); over F_q the ints lie in [0, q) and the scale is
    1, over Q the scale is positive and prime to the ints.  So two elements
    are equal when their int forms are.
    """

    __slots__ = ("algebra", "ints")

    def __init__(self, algebra: CoordinateAlgebra, ints: dict):
        """Over Q each form of ``ints`` is divided by the gcd of its ints
        and scale, in place."""
        if not algebra.modulus:
            for key, (cs, s) in ints.items():
                g = math.gcd(s, *cs)
                if g > 1:
                    ints[key] = [c // g for c in cs], s // g
        self.algebra = algebra
        self.ints = ints

    @property
    def terms(self) -> dict:
        """The nonzero coefficients, as ``Fp`` or ``Fraction``, by exponent
        vector of the canonical monomial."""
        p1, p2 = self.algebra.weights.weights[:2]
        q = self.algebra.modulus
        return {(a * p1 + tor[0], (l - a) * p2 + tor[1]) + tor[2:]:
                Fp(c, q) if q else Fraction(c, s)
                for (tor, l), (cs, s) in self.ints.items() for a, c in enumerate(cs) if c}

    def is_zero(self) -> bool:
        return not self.ints

    def _check_same(self, other: "AlgebraElement"):
        if self.algebra is not other.algebra and self.algebra != other.algebra:
            raise ValueError("elements belong to different coordinate algebras")

    def __eq__(self, other):
        if not isinstance(other, AlgebraElement):
            return NotImplemented
        return self.algebra == other.algebra and self.ints == other.ints

    def __add__(self, other):
        if not isinstance(other, AlgebraElement):
            return NotImplemented
        self._check_same(other)
        out, q = dict(self.ints), self.algebra.modulus
        for key, (ints, scale) in other.ints.items():
            _add(out, key, ints, scale, q)
        return AlgebraElement(self.algebra, out)

    def __neg__(self):
        q = self.algebra.modulus
        return AlgebraElement(self.algebra, {k: ([-c % q for c in cs] if q else [-c for c in cs],
                                                 s) for k, (cs, s) in self.ints.items()})

    def __sub__(self, other):
        if not isinstance(other, AlgebraElement):
            return NotImplemented
        return self + (-other)

    def __mul__(self, other):
        alg = self.algebra
        if isinstance(other, AlgebraElement):
            self._check_same(other)
            return AlgebraElement(alg, _times(alg, self.ints, other.ints))
        try:
            c = alg.field(other)
        except (TypeError, ValueError):
            return NotImplemented
        if c == alg.field.zero:
            return alg.zero
        q, n, d = alg.modulus, c.numerator, c.denominator
        return AlgebraElement(alg, {k: ([x * n % q for x in cs] if q else [x * n for x in cs],
                                        s * d) for k, (cs, s) in self.ints.items()})

    __rmul__ = __mul__

    def __pow__(self, n: int):
        """self^n by square and multiply on the int form, from self itself:
        floor(log2 n) + popcount(n) - 1 products for n >= 1."""
        if not isinstance(n, int) or n < 0:
            raise ValueError("exponents must be nonnegative integers")
        alg = self.algebra
        if not n:
            return alg.one
        base, result = self.ints, None
        while True:
            if n & 1:
                result = base if result is None else _times(alg, result, base)
            n >>= 1
            if not n:
                return AlgebraElement(alg, result)
            base = _times(alg, base, base)

    def degree(self) -> GroupElement | None:
        """Common degree of all terms, None if inhomogeneous; zero has none."""
        if not self.ints:
            raise ValueError("the zero element has no degree")
        if len(self.ints) > 1:
            return None
        (tor, l), = self.ints
        return GroupElement(self.algebra.weights, l, tor)

    def __str__(self):
        field = self.algebra.field
        rational = isinstance(field, RationalField)
        parts = []
        for e, c in sorted(self.terms.items()):
            mono = self.algebra.monomial_text(e)
            if mono == "1":
                parts.append(str(c))
            elif c == field.one:
                parts.append(mono)
            elif rational and c == -field.one:
                parts.append("-" + mono)
            else:
                parts.append("%s*%s" % (c, mono))
        if not parts:
            return "0"
        out = parts[0]
        for p in parts[1:]:
            out += " - " + p[1:] if p.startswith("-") else " + " + p
        return out

    __repr__ = __str__
