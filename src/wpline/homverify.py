"""Graded algebra homomorphisms and degree-by-degree isomorphism checking.

An :class:`AlgebraHom` carries a string-group homomorphism and one
homogeneous image per source generator.  Checking that the induced map onto
the restriction subalgebra of the image is an isomorphism reduces to exact
degree-wise bookkeeping: if the group map is admissible, source and target
components have equal finite dimension in every image degree, so surjectivity
(full rank of the pooled images, by exact Gaussian elimination) already gives
bijectivity there.  Injectivity is never tested separately.

The ranks run on binary forms, the representation of ``wpline.algebra``
(see its docstring): an element of the target S(p, lam) in one degree is its
torsion, its level l and the coefficients of U^a V^(l-a), and a product adds
torsions, multiplies forms and lets ``algebra.carry`` take out each
X_i^{p_i} as U, V or a multiple of V - lam_i U.  The source is
free over k[X_1^{q_1}, X_2^{q_2}] in the same way, so the image of a source
basis monomial is h_r f^a g^b: the head h_r the image of its torsion
monomial x^r, f and g the images of X_1^{q_1} and X_2^{q_2}.  The heads are
cached per exponent vector, each made when a record first needs it as one
product h_{r - e_j} phi(x_j) with its neighbour's head; f and g, computed
once for the check of the source relations, are cached among the heads
as they are.  Over F_q the coefficients are plain ints mod q, over Q the
exact ints of an integer multiple of the image (a carry by lam_i = num/den
is by den V - num U).  Every product of forms is ``field._poly_mul``, or
none by a form with the one coefficient 1: mod q a scalar multiple when a
factor has one coefficient, schoolbook for short factors, else one
big-integer product after Kronecker substitution.  A row at source level 0
is its head; the rows of a source degree at level n >= 1 come from one
product, h_r times the forms f^a g^(n-a) laid end to end, laid once per
level n and record width.  The rank is a list echelon, over Q first mod
RANK_PRIME: a full rank there is the rank over Q, and only a smaller one is
redone exactly, fraction-free, on the same rows.

Most records need no rows at all.  When pi(c_S) = m c carries no torsion and
every nonzero generator image sits at its group degree, f and g are binary
forms of degree m, and the image of degree x contains f Im(x - m c) +
g Im(x - m c).  If f and g are coprime they form a regular sequence, so
(f, g) holds every form of degree l >= 2m - 1 (Eisenbud, Commutative
Algebra, ch. 17): surjectivity at x - m c gives it at x.  Components below
level 0 are zero.  A nonzero homogeneous element is X^t p(U, V), and a
product multiplies the forms in the domain k[U, V] and carries by U, V or
a V - b U: when every image is nonzero so is every head, and a level-0
record (one column) of total >= 1 has rank 1.  So verify_window eliminates
only the base levels 1 <= l <= 2m - 2, level-0 records of total 0 or of a
map with a zero image, and records whose record m levels below is deficient.
"""

from __future__ import annotations

import io
import json
import math
from functools import cached_property
from itertools import compress, count
from operator import itemgetter
from typing import Iterator, NamedTuple, Sequence

from .algebra import AlgebraElement, CoordinateAlgebra, carry
from .field import _poly_mul, digits_digest
from .stringgroup import (AdmissibilityReport, GroupElement, GroupHom, WeightSequence,
                          WindowFibers)


class GradednessError(ValueError):
    """A generator image is not homogeneous of the degree the group map demands."""


class RelationError(ValueError):
    """The generator images do not satisfy a defining relation of the source."""


def row_rank(rows: list[list], modulus: int | None = None) -> int:
    """Rank of a list of coefficient rows by Gaussian elimination on lists.

    With a prime ``modulus`` the entries are any ints standing for their
    residues mod it; a nonzero row with an entry outside [0, modulus) is
    reduced as it enters.  Exact coefficients make pivot choice irrelevant:
    a row is cleared at its first nonzero entry by the pivot led there until
    it has none there, and then leads a new pivot.  Without a modulus the
    entries are ints or Fractions and the rank is over Q, by
    ``_exact_rank``.  Elimination stops once the rank is min(rows, columns).
    Every row operation makes a new list, so the rows are left as they are:
    they may be cached heads.
    """
    q = modulus
    if q is None:
        return _exact_rank(rows)
    full = min(len(rows), len(rows[0])) if rows else 0
    pivots: dict[int, tuple] = {}  # lead column -> (-1 / the lead, its row)
    for row in rows:
        if len(pivots) == full:
            break
        col = next(compress(count(), row), None)  # the first nonzero entry
        if col is not None and (min(row) < 0 or max(row) >= q):
            row = [v % q for v in row]
            col = next(compress(count(), row), None)
        while col is not None:
            pivot = pivots.get(col)
            if pivot is None:
                pivots[col] = (q - pow(row[col], -1, q), row)
                break
            c, prow = row[col] * pivot[0], pivot[1]  # prow is zero before col
            row = [(a + c * b) % q for a, b in zip(row, prow)]
            col = next(compress(count(), row), None)
    return len(pivots)


def _exact_rank(rows: list[list]) -> int:
    """Rank over Q by fraction-free elimination (Bareiss 1968).  Each
    nonzero row enters cleared of denominators by the lcm of its entries'.
    Column by column, a row with a nonzero entry there becomes the pivot
    row p, with lead a, and every row r below it becomes
    (a r - r[col] p) / d, d the lead of the pivot before (1 at first): a
    minor of the rows, so the division is exact (Sylvester's identity).
    The rows below the pivots are kept from column ``start`` on, where
    they may be nonzero."""
    work = []
    for row in rows:
        if any(row):
            den = math.lcm(*[v.denominator for v in row])
            work.append([v.numerator * (den // v.denominator) for v in row])
    full = min(len(work), len(work[0])) if work else 0
    rank, prev, start = 0, 1, 0
    for col in range(len(work[0]) if work else 0):
        if rank == full:
            break
        k = col - start
        i = next((i for i in range(rank, len(work)) if work[i][k]), None)
        if i is None:
            continue
        work[rank], work[i] = work[i], work[rank]
        a, tail = work[rank][k], work[rank][k + 1:]
        for i in range(rank + 1, len(work)):
            row = work[i]
            c = row[k]
            work[i] = [(a * u - c * v) // prev for u, v in zip(row[k + 1:], tail)]
        rank, prev, start = rank + 1, a, col + 1
    return rank


def sylvester_rank(f: list, g: list, modulus: int | None = None) -> int:
    """Rank of the 2m Sylvester rows U^i V^(m-1-i) f and U^i V^(m-1-i) g,
    i < m, of two binary forms of degree m given as coefficient lists of
    U^a V^(m-a): 2m exactly when f and g are coprime (over Q, integer forms
    of full rank mod a prime are coprime; a smaller rank proves nothing)."""
    m = len(f) - 1
    return row_rank([[0] * i + h + [0] * (m - 1 - i) for h in (f, g) for i in range(m)],
                    modulus)


class DegreeRecord(NamedTuple):
    """Dimension and rank bookkeeping for one degree of the image."""

    degree: GroupElement
    fiber: tuple[GroupElement, ...]
    source_dim: int
    target_dim: int
    image_rank: int

    @property
    def passed(self) -> bool:
        return self.source_dim == self.target_dim == self.image_rank

    def as_dict(self) -> dict:
        return {
            "degree": str(self.degree),
            "fiber": [str(y) for y in self.fiber],
            "source_dim": self.source_dim,
            "target_dim": self.target_dim,
            "image_rank": self.image_rank,
            "pass": self.passed,
        }


#: a record at its indent in json.dumps(report, sort_keys=True, indent=2) is
#: static text around slots: _OPEN l ";torsion" _FIBER offset ";r" (_FIBER_SEP
#: offset ";r")... _COUNTS[0] image_rank _COUNTS[1] pass _COUNTS[2] source_dim
#: _COUNTS[3] target_dim _CLOSE, with the fiber levels offset + shift, and the
#: records of a level are joined by _NEXT
_OPEN = '    {\n      "degree": "'
_FIBER = '",\n      "fiber": [\n        "'
_FIBER_SEP = '",\n        "'
_COUNTS = ('"\n      ],\n      "image_rank": ', ',\n      "pass": ', ',\n      "source_dim": ',
           ',\n      "target_dim": ')
_CLOSE = '\n    }'
_NEXT = _CLOSE + ",\n" + _OPEN
#: the records of a report are written in blocks of at least this many
#: levels, each one text
REPORT_BLOCK = 256


def _template(classes: list) -> tuple[list, itemgetter, list[int], list[list[int]]]:
    """The records of one class of the period table, its entries (torsion,
    pairs), as (parts, pick, offsets, offs): parts is the static text of
    all the records with a None at each slot, parts[1::2]; on a plain level
    parts[1::2] = pick([l, mult, "true", *(off + shift for off in offsets)])
    fills them, ``offsets`` the distinct level offsets of the class, sorted;
    ``offs`` holds the level offsets of each entry, its fiber slots in order."""
    offs = [[off for off, _ in pairs] for _, pairs in classes]
    offsets = sorted({off for o in offs for off in o})
    slot = {off: i for i, off in enumerate(offsets, 3)}
    parts, slots = [], []
    for (tor, pairs), o in zip(classes, offs):
        parts += (_NEXT, None, ";" + ",".join(map(str, tor)) + _FIBER)
        for _, r in pairs:
            parts += (None, ";" + ",".join(map(str, r)) + _FIBER_SEP)
        parts[-1] = parts[-1][:-len(_FIBER_SEP)] + _COUNTS[0]
        parts += (None, _COUNTS[1], None, _COUNTS[2], None, _COUNTS[3], None)
        slots += [0, *map(slot.__getitem__, o), 1, 2, 1, 1]
    parts[0] = _OPEN
    parts.append(_CLOSE)
    return parts, itemgetter(*slots), offsets, offs


class VerificationResult:
    """Admissibility of the group map plus one :class:`DegreeRecord` per
    image degree on a window, as a view on the period table like
    ``WindowFibers``: it keeps the window's ``fibers``, the induction level
    ``m`` (None when every record is eliminated), the admissibility failure
    ``totals`` by (l, torsion), and in ``eliminated`` the (l, torsion,
    source_dim, target_dim, image_rank) of each record it eliminated, in
    the order of the fibers.  Every other record is (total, mult, mult),
    with total the failure total of its degree or else mult = max(l + 1, 0).
    ``records`` (with their ``GroupElement``s) are built on first access.
    """

    def __init__(self, window: int, admissibility: AdmissibilityReport, source: WeightSequence,
                 target: WeightSequence, fibers: WindowFibers, m: int | None,
                 eliminated: Sequence[tuple]):
        self.window = window
        self.admissibility = admissibility
        self.source = source
        self.target = target
        self.fibers = fibers
        self.m = m
        self.totals = {(x.l, x.torsion): got for x, got, _ in admissibility.failures}
        self.eliminated = eliminated

    def _levels(self) -> Iterator[tuple[int, int, list, list | None]]:
        """(l, shift, classes, counts) per level in order, with l, shift and
        classes as ``WindowFibers.levels`` gives them, and counts the
        (source_dim, target_dim, image_rank) of each class; counts is None
        on a plain level, where admissibility lists no failure and every
        record eliminated there passes, so every record is (mult, mult, mult)."""
        totals = self.totals
        failed = {l for l, _ in totals}
        elim = iter(self.eliminated)
        nxt = next(elim, None)
        for l, shift, classes in self.fibers.levels():
            if (not nxt or nxt[0] != l) and l not in failed:
                yield l, shift, classes, None
                continue
            mult = max(l + 1, 0)
            counts = []
            for tor, _ in classes:
                if nxt and nxt[:2] == (l, tor):
                    counts.append(nxt[2:])
                    nxt = next(elim, None)
                else:
                    counts.append((totals.get((l, tor), mult), mult, mult))
            plain = l not in failed and counts.count((mult,) * 3) == len(counts)
            yield l, shift, classes, None if plain else counts

    @cached_property
    def records(self) -> tuple[DegreeRecord, ...]:
        src, tgt = self.source, self.target
        out = []
        for l, shift, classes, counts in self._levels():
            mult = max(l + 1, 0)
            for (tor, pairs), (s, t, rank) in zip(classes, counts or [(mult,) * 3] * len(classes)):
                out.append(DegreeRecord(
                    degree=GroupElement(tgt, l, tor),
                    fiber=tuple([GroupElement(src, off + shift, r) for off, r in pairs]),
                    source_dim=s, target_dim=t, image_rank=rank))
        return tuple(out)

    @property
    def passed(self) -> bool:
        """Admissible, with every eliminated record surjective: any other
        record fails only at an admissibility failure."""
        return self.admissibility.admissible and all(
            s == t == rank for _, _, s, t, rank in self.eliminated)

    def failing_records(self) -> tuple[DegreeRecord, ...]:
        return tuple(r for r in self.records if not r.passed)

    def to_report(self, case: str = "custom", field_name: str = "",
                  constants: dict | None = None, extra: dict | None = None,
                  out=None) -> str | None:
        """The report as JSON text: the bytes of json.dumps(report,
        sort_keys=True, indent=2) on its dict form, whose records are the
        ``as_dict`` of each record; ``extra`` adds top-level keys such as
        ``tamper``.  Given a text stream ``out``, the text is written there
        in blocks of levels as they are made, and None is returned; else it
        is returned.

        Every key but the records goes through json.dumps, and the records
        go in at its one top-level ``"records": []``: a JSON string holds no
        raw newline, and nested keys sit deeper than two spaces.  Each class
        of the period table gets one ``_template`` on first use, keyed by
        identity, and each level is one fill of its class's template and one
        join: a plain level (see ``_levels``) fills it by ``pick``, any other
        level with the offsets and counts of each of its records."""
        report = {
            "case": case,
            "field": field_name,
            "window": self.window,
            "admissible": self.admissibility.admissible,
            "kernel": [str(k) for k in self.admissibility.kernel],
            "constants": dict(constants or {}),
            "records": [],
            "summary": "pass" if self.passed else "fail",
        }
        if extra:
            report.update(extra)
        text = json.dumps(report, sort_keys=True, indent=2)
        stream = io.StringIO() if out is None else out
        write = stream.write
        head, _, tail = text.partition('\n  "records": []')
        sep = opening = head + '\n  "records": [\n'
        block, cache = [], {}
        for l, shift, classes, counts in self._levels():
            cached = cache.get(id(classes))
            if cached is None:
                cached = cache[id(classes)] = _template(classes)
            parts, pick, offsets, offs = cached
            level = str(l)
            if counts is None:
                parts[1::2] = pick([level, str(max(l + 1, 0)), "true",
                                    *map(str, map(shift.__add__, offsets))])
            else:
                values = []
                for o, (s, t, rank) in zip(offs, counts):
                    values += (level, *map(str, map(shift.__add__, o)), str(rank),
                               "true" if s == t == rank else "false", str(s), str(t))
                parts[1::2] = values
            block.append("".join(parts))
            if len(block) >= REPORT_BLOCK:
                write(sep)
                write(",\n".join(block))
                sep, block = ",\n", []
        if block:
            write(sep)
            write(",\n".join(block))
            sep = ",\n"
        write(text if sep is opening else "\n  ]" + tail)
        return stream.getvalue() if out is None else None


def _laid(forms: list, degree: tuple, cols: int) -> tuple:
    """Forms of one degree (torsion, l), zero (None) among them, laid end
    to end at stride cols as one form of that degree."""
    tor, l = degree
    pad = [0] * (cols - l - 1)
    coeffs = []
    for p in forms:
        coeffs += (p[2] if p else [0] * (l + 1)) + pad
    return tor, l, coeffs[:len(coeffs) - len(pad)]


def _leaves(y: GroupElement, x: GroupElement) -> GradednessError:
    return GradednessError("image of a monomial of degree %s leaves the component of %s"
                           % (y, x))


def _residual_text(residual: AlgebraElement) -> str:
    """The residual as text; past Python's limit on the digits of an int
    written in decimal, its degree and the ``digits_digest`` of its terms,
    each keyed by "e_1,...,e_t:" and sorted."""
    try:
        return str(residual)
    except ValueError:
        return "of degree %s with a coefficient of %s" % (residual.degree(), digits_digest(
            (",".join(map(str, e)) + ":", c) for e, c in sorted(residual.terms.items())))


def _int_form(elem: AlgebraElement):
    """The one form of a homogeneous element as (torsion, l, ints), the ints
    of its int form (over Q the coefficients times the lcm of their
    denominators), or None for zero."""
    for (tor, l), (ints, _) in elem.ints.items():
        return tor, l, ints
    return None


class AlgebraHom:
    """An algebra homomorphism compatible with a string-group homomorphism.

    Construction validates gradedness (each image homogeneous of the degree
    prescribed by the group map) and the source relations pushed through the
    images.  ``unchecked`` skips validation and exists for negative controls,
    letting the degree records expose a broken map instead.
    """

    #: the modulus of the first rank over Q, taken on the exact integer rows
    RANK_PRIME = 268435399  # the largest prime below 2^28

    def __init__(self, source: CoordinateAlgebra, target: CoordinateAlgebra,
                 group_hom: GroupHom, gen_images, validate: bool = True):
        images = tuple(gen_images)
        if group_hom.source != source.weights or group_hom.target != target.weights:
            raise ValueError("group homomorphism does not match the algebras")
        if source.field != target.field:
            raise ValueError("source and target must share the coefficient field")
        if len(images) != len(source.weights):
            raise ValueError("expected %d generator images, got %d"
                             % (len(source.weights), len(images)))
        for im in images:
            if not isinstance(im, AlgebraElement) or im.algebra != target:
                raise ValueError("generator images must live in the target algebra")
        self.source = source
        self.target = target
        self.group_hom = group_hom
        self.gen_images = images
        self.rank_modulus = target.modulus or self.RANK_PRIME
        self._one = (0,) * len(target.weights), 0, [1]  # the form of 1
        self._ws, self._pairs, self._q = target.weights.weights, target.int_pairs, target.modulus
        # binary-form caches in the target's coefficients (with ``_gens``):
        # heads h_r by exponent vector, each made when a record first needs
        # it; per level n the forms f^a g^(n-a); and their laid blocks by n
        # at the width of the last record
        self._heads: dict[tuple, tuple | None] = {(0,) * len(source.weights): self._one}
        self._levels: list[list] = [[self._one]]
        self._blocks: tuple[int, dict] = (0, {})
        if validate:
            self._validate()

    @classmethod
    def unchecked(cls, source, target, group_hom, gen_images) -> "AlgebraHom":
        return cls(source, target, group_hom, gen_images, validate=False)

    def _validate(self):
        """Gradedness of each image, then each source relation
        x_i^{q_i} = x_2^{q_2} - mu_i x_1^{q_1} on the images, with
        f = phi(x_1)^{q_1} and g = phi(x_2)^{q_2} computed once; they become
        the heads of x_1^{q_1} and x_2^{q_2} (over Q cleared of
        denominators, a nonzero integer multiple of the image)."""
        for j, im in enumerate(self.gen_images):
            if im.is_zero():
                raise GradednessError("image of generator %d is zero and carries no degree"
                                      % (j + 1))
            d = im.degree()
            if d is None:
                raise GradednessError("image of generator %d is inhomogeneous" % (j + 1))
            want = self.group_hom.gen_images[j]
            if d != want:
                raise GradednessError(
                    "image of generator %d has degree %s, the group map demands %s"
                    % (j + 1, d, want)
                )
        qs = self.source.weights.weights
        f, g = self.gen_images[0] ** qs[0], self.gen_images[1] ** qs[1]
        for i in range(2, len(qs)):
            mu = self.source.params[i - 2]
            lhs = self.gen_images[i] ** qs[i] + mu * f
            if lhs != g:  # the residual is made only for the message
                raise RelationError("relation for generator %d fails, residual %s"
                                    % (i + 1, _residual_text(lhs - g)))
        for j, h in enumerate((f, g)):
            self._heads[tuple(qs[i] if i == j else 0 for i in range(len(qs)))] = _int_form(h)

    # -- application ---------------------------------------------------------

    def __call__(self, elem: AlgebraElement) -> AlgebraElement:
        if elem.algebra != self.source:
            raise ValueError("element does not belong to the source algebra")
        out = self.target.zero
        for e, c in elem.terms.items():
            img = c * self.target.one
            for im, a in zip(self.gen_images, e):
                if a:
                    img = img * im ** a
            out = out + img
        return out

    # -- binary forms ----------------------------------------------------------
    #
    # A nonzero homogeneous element of the target is (torsion, l, coeffs) with
    # coeffs[a] the coefficient of U^a V^(l-a); zero is None.  Coefficients
    # are ints mod q over F_q, and over Q exact ints of an integer multiple.

    @cached_property
    def _gens(self) -> tuple:
        """phi(x_j) as forms, all read at the first head made from them:
        the first inhomogeneous image raises there."""
        for j, im in enumerate(self.gen_images):
            if len(im.ints) > 1:
                raise GradednessError("image of generator %d is inhomogeneous" % (j + 1))
        return tuple(map(_int_form, self.gen_images))

    def _mul(self, f, g):
        """The product of two forms; by the form of 1 it is the other one, and
        by a form with the one coefficient 1 it takes no ``_poly_mul``."""
        if f is None or g is None:
            return None
        if f is self._one or g is self._one:
            return g if f is self._one else f
        q, a, b = self._q, f[2], g[2]
        coeffs = b if a == [1] else a if b == [1] else _poly_mul(a, b, q)
        return carry([u + v for u, v in zip(f[0], g[0])], f[1] + g[1], coeffs,
                     self._ws, self._pairs, q)[:3]

    def _head(self, r: tuple):
        """h_r, the image of the source monomial x_1^{r_1} ... x_t^{r_t},
        cached per exponent vector.  h_r = h_{r - e_j} phi(x_j) for the last
        j with r_j > 0, so a head is one product once its neighbour is
        known; the neighbours missing are made first, lowest first, in a
        loop, so no weight is too long for the walk."""
        heads, missing = self._heads, []
        while r not in heads:
            j = len(r) - 1
            while not r[j]:
                j -= 1
            missing.append((r, j))
            r = r[:j] + (r[j] - 1,) + r[j + 1:]
        h = heads[r]
        for r, j in reversed(missing):
            h = heads[r] = self._mul(h, self._gens[j])
        return h

    def _fg(self, j: int):
        """f (j = 0) or g (j = 1): the image of x_j^{q_j}, kept from
        ``_validate`` or made by the walk."""
        qs = self.source.weights.weights
        return self._head(tuple(qs[i] if i == j else 0 for i in range(len(qs))))

    def _powers(self, n: int) -> list:
        """The forms f^a g^(n-a), a ascending, cached per level n: level n
        is level n - 1 times f, after g^n."""
        levels = self._levels
        if len(levels) <= n:
            f, g = self._fg(0), self._fg(1)
            while len(levels) <= n:
                last = levels[-1]
                levels.append([self._mul(last[0], g)] + [self._mul(p, f) for p in last])
        return levels[n]

    def _block(self, n: int, cols: int):
        """The forms of ``_powers(n)`` laid end to end at stride cols, once per
        (n, cols): None when they are all zero, False when they lie in two
        components.  Only the blocks of one width are kept, the last asked
        for: the records of a level share its width, and verify_window visits
        the levels in order."""
        width, blocks = self._blocks
        if width != cols:
            blocks = {}
            self._blocks = cols, blocks
        if n not in blocks:
            forms = self._powers(n)
            degrees = {p[:2] for p in forms if p}
            blocks[n] = (False if len(degrees) > 1 else
                         _laid(forms, *degrees, cols) if degrees else None)
        return blocks[n]

    def _rows(self, x: GroupElement, fiber, cols: int) -> list:
        """One row per source basis monomial over the fiber of x, fibers in
        order.  The monomials of degree y with torsion r are
        m_r X_1^{q_1 a} X_2^{q_2 b} with a + b = y.l, a ascending, and the
        image of one is h_r f^a g^b with h_r = phi(m_r), f = phi(x_1)^{q_1}
        and g = phi(x_2)^{q_2}.  At y.l = 0 the row is the head's own
        coefficient list.  Above it the forms f^a g^b of ``_powers`` share
        one degree, y.l pi(c_S), and their ``_block`` lays them end to end
        at stride cols: h_r times it is one ``_mul``, whose carries act on
        each form alone, and it is cut into the rows.  Rows may be cached
        lists, so nothing may change them."""
        rows, heads = [], self._heads
        for y in fiber:
            n = y.l
            if n < 0:
                continue
            r = y.torsion
            block = heads[r] if r in heads else self._head(r)
            if block and n:
                laid = self._block(n, cols)
                if laid is False:  # nonzero rows in two components
                    raise _leaves(y, x)
                block = laid and self._mul(block, laid)
            if block is None:
                rows += [[0] * cols] * (n + 1)  # one zero row: nothing changes a row
            elif block[0] != x.torsion or block[1] != x.l:
                raise _leaves(y, x)
            else:
                coeffs = block[2]
                rows += [coeffs[i:i + cols] for i in range(0, len(coeffs), cols)] if n else [coeffs]
        return rows

    # -- verification --------------------------------------------------------

    def check_surjective_at(self, x: GroupElement,
                            fiber: tuple[GroupElement, ...] | None = None) -> DegreeRecord:
        """Pool the images of all source component bases over the fiber of x
        and measure their rank inside the target component of x."""
        if fiber is None:
            fiber = self.group_hom.fiber(x)
        cols = len(self.target.component_basis(x))
        rows = self._rows(x, fiber, cols)
        rank = row_rank(rows, self.rank_modulus)
        if rank < min(len(rows), cols) and self.target.modulus is None:
            rank = row_rank(rows)
        return DegreeRecord(degree=x, fiber=fiber, source_dim=len(rows),
                            target_dim=cols, image_rank=rank)

    def _induction_level(self) -> int | None:
        """The level m of pi(c_S) = m c when records follow by level
        induction (see the module docstring), else None.  Every nonzero
        generator image must sit at its group degree, which puts f and g at
        m c and keeps a map that leaves its components raising
        GradednessError where full elimination raises it."""
        c = self.group_hom.c_image
        if c.l < 1 or any(c.torsion):
            return None
        for im, d in zip(self.gen_images, self.group_hom.gen_images):
            if not im.is_zero() and im.degree() != d:
                return None
        f, g = self._fg(0), self._fg(1)
        if f is None or g is None or sylvester_rank(f[2], g[2], self.rank_modulus) < 2 * c.l:
            return None
        return c.l

    def verify_window(self, window: int) -> VerificationResult:
        """Admissibility plus a degree record for every image degree with
        |l| <= window, as a view on the fibers of ``GroupHom.window_fibers``
        (see :class:`VerificationResult`).  Without an induction level every
        record is eliminated, level by level.  With one, m, a record below
        level 0, at level 0 of total >= 1 when every image is nonzero (see
        the module docstring), or at l >= 2m - 1 above a surjective one, is
        (sum of fiber mults, mult(x), mult(x)) without rows and is not
        stored; that sum is mult(x) unless admissibility lists x among its
        failures.  So only the base levels 0 <= l <= 2m - 2 are visited, and
        then the chains of records above deficient ones.  Only the records
        that are eliminated get ``GroupElement``s, for ``check_surjective_at``."""
        fibers = self.group_hom.window_fibers(window)
        admissibility = self.group_hom.is_admissible(window)
        m = self._induction_level()
        src, tgt = self.group_hom.source, self.group_hom.target
        eliminated = []

        def deficient(l, shift, tor, pairs) -> bool:
            """Eliminate the record (l, tor); True when it is not surjective."""
            rec = self.check_surjective_at(
                GroupElement(tgt, l, tor),
                tuple(GroupElement(src, off + shift, r) for off, r in pairs))
            eliminated.append((l, tor, rec.source_dim, rec.target_dim, rec.image_rank))
            return rec.image_rank < rec.target_dim

        if m is None:
            for l, shift, classes in fibers.levels():
                for tor, pairs in classes:
                    deficient(l, shift, tor, pairs)
        else:
            # The record m levels above one is in the same class of the
            # period table (n = 1 there, and m is its period), one shift up.
            # Above a deficient base record at l >= m - 1 it lies past the
            # base levels; so chains start there, and since each step adds m
            # to a level of [m - 1, 2m - 2], they keep ``eliminated`` in the
            # order of the fibers.
            chains = []
            empty = {x.torsion for x, got, _ in admissibility.failures if x.l == 0 and not got}
            nonzero = all(not im.is_zero() for im in self.gen_images)
            for l in range(min(2 * m - 2, window) + 1):
                shift, classes = fibers.level(l)
                for cls in classes:
                    if l == 0 and nonzero and cls[0] not in empty:
                        continue  # rank 1 of 1 column: the row of a nonzero head
                    if deficient(l, shift, *cls) and l >= m - 1:
                        chains.append((l, shift, cls))
            for l, shift, cls in chains:  # grows while it is read
                if l + m <= window and deficient(l + m, shift + 1, *cls):
                    chains.append((l + m, shift + 1, cls))
        return VerificationResult(window, admissibility, src, tgt, fibers, m, eliminated)
