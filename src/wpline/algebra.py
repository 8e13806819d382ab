"""Graded homogeneous coordinate algebras of weighted projective lines.

For a weight sequence (p_1, ..., p_t) and normalized parameters
(inf, 0, 1, lam_4, ...), the algebra is k[X_1, ..., X_t] modulo the relations
X_i^{p_i} = X_2^{p_2} - lam_i * X_1^{p_1} for i >= 3, graded by the string
group via deg x_i = x_i.  The relations form a terminating, confluent
rewriting system because each rule consumes its own variable and produces
only x_1 and x_2, so canonical forms (exponents of x_i below p_i for i >= 3)
are computed by plain rewriting, no Groebner machinery.
"""

from __future__ import annotations

import itertools

from .field import Field, RationalField
from .stringgroup import GroupElement, WeightSequence, generator_letter


class CoordinateAlgebra:
    """Quotient of a polynomial ring by the weighted-line relations.

    ``params`` are the normalized parameters lam_3, ..., lam_t (so the first
    one must be 1); a list of length t-3 is also accepted and gets the
    leading 1 prepended.
    """

    def __init__(self, weights, field: Field, params=None):
        if not isinstance(weights, WeightSequence):
            weights = WeightSequence(tuple(weights))
        self.weights = weights
        self.field = field
        t = len(weights)
        vals = list(params) if params is not None else []
        if len(vals) == t - 3:
            vals = [1] + vals
        if len(vals) != max(t - 2, 0):
            raise ValueError("expected %d parameters for %d weights, got %d"
                             % (t - 2, t, len(vals)))
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
        t = len(self.weights)
        return AlgebraElement(self, {(0,) * t: self.field.one})

    @property
    def gens(self) -> tuple["AlgebraElement", ...]:
        t = len(self.weights)
        out = []
        for i in range(t):
            e = [0] * t
            e[i] = 1
            out.append(AlgebraElement(self, {tuple(e): self.field.one}))
        return tuple(out)

    def element(self, terms) -> "AlgebraElement":
        """Canonical form of a sum of (coeff, exponent-vector) pairs."""
        raw: dict = {}
        for coeff, exps in terms:
            e = tuple(int(a) for a in exps)
            if len(e) != len(self.weights) or any(a < 0 for a in e):
                raise ValueError("bad exponent vector %r" % (e,))
            c = self.field(coeff)
            raw[e] = raw.get(e, self.field.zero) + c
        return AlgebraElement(self, self._reduce_terms(raw))

    # -- rewriting -----------------------------------------------------------

    def reduce_monomial(self, exps, coeff=1, redex: str = "first") -> "AlgebraElement":
        """Rewrite x_i^{p_i} -> x_2^{p_2} - lam_i x_1^{p_1} until canonical.

        ``redex`` picks which reducible variable to rewrite next ("first",
        "last", or a callable on the list of reducible indices); all choices
        give the same canonical form, which the confluence tests exercise.
        """
        e = tuple(int(a) for a in exps)
        if len(e) != len(self.weights):
            raise ValueError("exponent vector has wrong length")
        if any(a < 0 for a in e):
            raise ValueError("exponents must be nonnegative")
        return AlgebraElement(self, self._reduce_terms({e: self.field(coeff)}, redex))

    def _reduce_terms(self, raw: dict, redex: str = "first") -> dict:
        ps = self.weights.weights
        t = len(ps)
        zero = self.field.zero
        if redex == "first":
            pick = lambda idxs: idxs[0]
        elif redex == "last":
            pick = lambda idxs: idxs[-1]
        elif callable(redex):
            pick = redex
        else:
            raise ValueError("redex must be 'first', 'last' or a callable")
        pending = {e: c for e, c in raw.items() if c != zero}
        done: dict = {}
        while pending:
            nxt: dict = {}
            for e, c in pending.items():
                hot = [i for i in range(2, t) if e[i] >= ps[i]]
                if not hot:
                    done[e] = done.get(e, zero) + c
                    continue
                i = pick(hot)
                lam = self.params[i - 2]
                base = list(e)
                base[i] -= ps[i]
                left = list(base)
                left[1] += ps[1]
                right = list(base)
                right[0] += ps[0]
                lk, rk = tuple(left), tuple(right)
                nxt[lk] = nxt.get(lk, zero) + c
                nxt[rk] = nxt.get(rk, zero) - lam * c
            pending = {e: c for e, c in nxt.items() if c != zero}
        return {e: c for e, c in done.items() if c != zero}

    def is_canonical(self, exps) -> bool:
        return all(a < p for a, p in zip(exps[2:], self.weights.weights[2:]))

    # -- grading -------------------------------------------------------------

    def monomial_degree(self, exps) -> GroupElement:
        return self.weights.normalize(0, exps)

    def component_basis(self, x: GroupElement) -> tuple[tuple[int, ...], ...]:
        """Exponent vectors of the canonical monomials of degree x.

        For x = l*c + sum(l_i x_i) in normal form these are
        (a*p_1 + l_1, b*p_2 + l_2, l_3, ..., l_t) with a + b = l, so there
        are max(l+1, 0) of them.
        """
        if x.weights != self.weights:
            raise ValueError("degree belongs to a different string group")
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


class AlgebraElement:
    """A finite combination of canonical monomials with exact coefficients.

    Instances are created through the parent algebra and treated as
    immutable; ``terms`` maps exponent tuples to nonzero coefficients.
    """

    __slots__ = ("algebra", "terms")

    def __init__(self, algebra: CoordinateAlgebra, terms: dict):
        self.algebra = algebra
        self.terms = terms

    def is_zero(self) -> bool:
        return not self.terms

    def _check_same(self, other: "AlgebraElement"):
        if self.algebra != other.algebra:
            raise ValueError("elements belong to different coordinate algebras")

    def __eq__(self, other):
        if not isinstance(other, AlgebraElement):
            return NotImplemented
        return self.algebra == other.algebra and self.terms == other.terms

    def __add__(self, other):
        if not isinstance(other, AlgebraElement):
            return NotImplemented
        self._check_same(other)
        zero = self.algebra.field.zero
        out = dict(self.terms)
        for e, c in other.terms.items():
            v = out.get(e, zero) + c
            if v == zero:
                out.pop(e, None)
            else:
                out[e] = v
        return AlgebraElement(self.algebra, out)

    def __neg__(self):
        return AlgebraElement(self.algebra, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other):
        if not isinstance(other, AlgebraElement):
            return NotImplemented
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, AlgebraElement):
            self._check_same(other)
            zero = self.algebra.field.zero
            raw: dict = {}
            for e1, c1 in self.terms.items():
                for e2, c2 in other.terms.items():
                    key = tuple(a + b for a, b in zip(e1, e2))
                    raw[key] = raw.get(key, zero) + c1 * c2
            return AlgebraElement(self.algebra, self.algebra._reduce_terms(raw))
        try:
            c = self.algebra.field(other)
        except (TypeError, ValueError):
            return NotImplemented
        if c == self.algebra.field.zero:
            return self.algebra.zero
        return AlgebraElement(self.algebra, {e: c * v for e, v in self.terms.items()})

    __rmul__ = __mul__

    def __pow__(self, n: int):
        if not isinstance(n, int) or n < 0:
            raise ValueError("exponents must be nonnegative integers")
        result = self.algebra.one
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base if n > 1 else base
            n >>= 1
        return result

    def degree(self) -> GroupElement | None:
        """Common degree of all terms, None if inhomogeneous; zero has none."""
        if not self.terms:
            raise ValueError("the zero element has no degree")
        it = iter(self.terms)
        d0 = self.algebra.monomial_degree(next(it))
        for e in it:
            if self.algebra.monomial_degree(e) != d0:
                return None
        return d0

    def __str__(self):
        if not self.terms:
            return "0"
        field = self.algebra.field
        letter = self.algebra.letter
        rational = isinstance(field, RationalField)
        parts = []
        for e in sorted(self.terms):
            c = self.terms[e]
            mono = "*".join(
                "%s%d" % (letter, i + 1) + ("^%d" % a if a > 1 else "")
                for i, a in enumerate(e) if a
            )
            if not mono:
                parts.append(str(c))
            elif c == field.one:
                parts.append(mono)
            elif rational and c == -field.one:
                parts.append("-" + mono)
            else:
                parts.append("%s*%s" % (c, mono))
        out = parts[0]
        for p in parts[1:]:
            out += " - " + p[1:] if p.startswith("-") else " + " + p
        return out

    __repr__ = __str__
