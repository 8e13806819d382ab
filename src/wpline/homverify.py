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
monomial x^r, f and g the images of X_1^{q_1} and X_2^{q_2}.  Heads are
cached per exponent vector, and each is one product h_{r - e_j} phi(x_j) of
a neighbour's head; f and g, computed once for the check of the source
relations, enter the cache as they are.  Over F_q the coefficients are
plain ints mod q, and every product of forms is ``field._poly_mul``: a
scalar multiple when a factor has one coefficient, else one big-integer
product after Kronecker substitution.  A row at source level 0 is its head;
when g carries no torsion any other row is one such product of cached
packed forms.  Over Q a row is an integer multiple of its image (no
denominators: a carry by lam_i = num/den is by den V - num U), so a full rank
mod RANK_PRIME is the rank over Q, and only a smaller one is redone exactly.

Most records need no rows at all.  When pi(c_S) = m c carries no torsion and
every nonzero generator image sits at its group degree, f and g are binary
forms of degree m, and the image of degree x contains f Im(x - m c) +
g Im(x - m c).  If f and g are coprime they form a regular sequence, so
(f, g) holds every form of degree l >= 2m - 1 (Eisenbud, Commutative
Algebra, ch. 17): surjectivity at x - m c gives it at x.  Components below
level 0 are zero.  So verify_window eliminates only the base levels
0 <= l <= 2m - 2 and records whose record m levels below is deficient.
"""

from __future__ import annotations

import json
from fractions import Fraction
from functools import cached_property
from operator import itemgetter
from typing import Iterator, NamedTuple, Sequence

from .algebra import AlgebraElement, CoordinateAlgebra, carry
from .field import PrimeField, _pack, _poly_mul, _slot_bits, _unpack
from .stringgroup import (AdmissibilityReport, GroupElement, GroupHom, WeightSequence,
                          WindowFibers, _sort_key)


class GradednessError(ValueError):
    """A generator image is not homogeneous of the degree the group map demands."""


class RelationError(ValueError):
    """The generator images do not satisfy a defining relation of the source."""


def row_rank(rows: list[list], modulus: int | None = None) -> int:
    """Rank of a list of coefficient rows by Gaussian elimination.

    Without a modulus, entries are ints or Fractions and the rank is over Q.
    With a prime ``modulus`` they are plain ints standing for residues mod
    it: any ints, and rows (lists or arrays) whose entries lie in
    [0, unreduced_bound(modulus, columns)) are used without reducing them
    first.  Exact coefficients make pivot choice irrelevant, so the first
    nonzero entry is always taken, and elimination stops once the rank is
    min(rows, columns).  The rows are left as they are: they may be cached
    heads.
    """
    if modulus is not None:
        return _rank_mod(rows, modulus)
    full = min(len(rows), len(rows[0])) if rows else 0
    pivots: list[tuple[int, list]] = []
    for row in rows:
        if len(pivots) == full:
            break
        for col, prow in pivots:
            c = row[col]
            if c:
                row = [a - c * b for a, b in zip(row, prow)]
        col = next((i for i, v in enumerate(row) if v), None)
        if col is not None:
            inv = Fraction(1, row[col])
            pivots.append((col, [a * inv for a in row]))
    return len(pivots)


def unreduced_bound(q: int, cols: int) -> int:
    """Rows mod q of ``cols`` entries in [0, bound) enter elimination as
    they are; the bound is the least power of two above q^2 cols."""
    return 1 << (q * q * cols).bit_length()


def _rank_mod(rows: list, q: int) -> int:
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


#: the records of one fiber class at their indent in json.dumps(report,
#: sort_keys=True, indent=2), with the degree torsion and the fiber torsions
#: (in the order of the class) still to be written in
_RECORD = ('    {\n      "degree": "%%d;%s",\n      "fiber": [\n        "%s"\n      ],\n'
           '      "image_rank": %%d,\n      "pass": %%s,\n      "source_dim": %%d,\n'
           '      "target_dim": %%d\n    }')
#: between two fiber items of a record
_FIBER_SEP = '",\n        "'


def _record_format(torsion: tuple, pairs: tuple) -> tuple[str, tuple[int, ...]]:
    """The format string of the records of a fiber class (torsion, pairs)
    and the level offsets of its pairs: the record at level l, shift s is
    fmt % (l, *(off + s for off in offsets), image_rank, pass, source_dim,
    target_dim).  Torsions are digits and commas, so no "%" is written in."""
    fiber = _FIBER_SEP.join(["%d;" + ",".join(map(str, r)) for _, r in pairs])
    return (_RECORD % (",".join(map(str, torsion)), fiber),
            tuple([off for off, _ in pairs]))


def _plain_format(formats: list[tuple]) -> tuple[str, itemgetter, list[int]]:
    """The records of one level of a class of the period table when each is
    (mult, mult, mult), from the ``_record_format`` of each of its entries:
    their format strings joined into one, the itemgetter that picks its
    arguments from [l, mult, "true", *(u + shift for u in offsets)], and
    the distinct level offsets of the class."""
    offsets = sorted({off for _, offs in formats for off in offs})
    slot = {off: 3 + i for i, off in enumerate(offsets)}
    picks = []
    for _, offs in formats:
        picks += [0, *[slot[off] for off in offs], 1, 2, 1, 1]
    return ",\n".join([fmt for fmt, _ in formats]), itemgetter(*picks), offsets


class VerificationResult:
    """Admissibility of the group map plus one entry per image degree on a
    window.  An entry is (l, torsion, pairs, source_dim, target_dim,
    image_rank): the degree as its target pair, its fiber as the sorted
    source pairs (l, r) of ``GroupHom.window_fibers`` (never empty), and
    the counts of its :class:`DegreeRecord`.

    A result from ``verify_window`` is a view on the period table, like
    ``WindowFibers``: it keeps the window's ``fibers``, the induction level
    ``m`` (None when every record is eliminated), the admissibility failure
    ``totals`` by (l, torsion), and in ``eliminated`` the (l, torsion,
    source_dim, target_dim, image_rank) of each record it eliminated, in
    the order of the fibers.  Every other record is (total, mult, mult),
    with total the failure total of its degree or else mult = max(l + 1, 0).
    Given ``entries`` instead, each is its own level and class at shift 0,
    and eliminated.  ``entries`` and ``records`` (with their
    ``GroupElement``s) are built on first access.
    """

    def __init__(self, window: int, admissibility: AdmissibilityReport, source: WeightSequence,
                 target: WeightSequence, entries: tuple[tuple, ...] = (), *,
                 fibers: WindowFibers | None = None, m: int | None = None,
                 eliminated: Sequence[tuple] = ()):
        self.window = window
        self.admissibility = admissibility
        self.source = source
        self.target = target
        self.fibers = fibers
        self.m = m
        self.totals = {(x.l, x.torsion): got for x, got, _ in admissibility.failures}
        if fibers is None:
            self._given = [(l, 0, [(tor, pairs)]) for l, tor, pairs, *_ in entries]
            eliminated = [(l, tor, s, t, rank) for l, tor, _, s, t, rank in entries]
        self.eliminated = eliminated

    def _levels(self) -> Iterator[tuple[int, int, list, list | None]]:
        """(l, shift, classes, counts) per level in order, with l, shift and
        classes as ``WindowFibers.levels`` gives them, and counts the
        (source_dim, target_dim, image_rank) of each class; counts is None
        on a plain level, where no record is eliminated and admissibility
        lists no failure, so every record is (mult, mult, mult)."""
        levels = self.fibers.levels() if self.fibers is not None else self._given
        totals = self.totals
        failed = {l for l, _ in totals}
        elim = iter(self.eliminated)
        nxt = next(elim, None)
        for l, shift, classes in levels:
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
            yield l, shift, classes, counts

    @cached_property
    def entries(self) -> tuple[tuple, ...]:
        out = []
        for l, shift, classes, counts in self._levels():
            mult = max(l + 1, 0)
            for (tor, pairs), c in zip(classes, counts or [(mult, mult, mult)] * len(classes)):
                out.append((l, tor, tuple([(off + shift, r) for off, r in pairs]), *c))
        return tuple(out)

    @cached_property
    def records(self) -> tuple[DegreeRecord, ...]:
        src, tgt = self.source, self.target
        return tuple(DegreeRecord(degree=GroupElement(tgt, l, tor),
                                  fiber=tuple(GroupElement(src, yl, r) for yl, r in pairs),
                                  source_dim=s, target_dim=t, image_rank=rank)
                     for l, tor, pairs, s, t, rank in self.entries)

    @property
    def passed(self) -> bool:
        """Admissible, with every eliminated record surjective: any other
        record fails only at an admissibility failure."""
        return self.admissibility.admissible and all(
            s == t == rank for _, _, s, t, rank in self.eliminated)

    def failing_records(self) -> tuple[DegreeRecord, ...]:
        return tuple(r for r in self.records if not r.passed)

    def to_report(self, case: str = "custom", field_name: str = "",
                  constants: dict | None = None, extra: dict | None = None) -> str:
        """The report as JSON text: the bytes of json.dumps(report,
        sort_keys=True, indent=2) on its dict form, whose records are the
        ``as_dict`` of each record; ``extra`` adds top-level keys such as
        ``tamper``.  Every key but the records goes through json.dumps.  The
        records of an entry of the period table share one format string
        (``_RECORD``), and a plain level (see ``_levels``) is one format
        string for its whole class (``_plain_format``); each is made once,
        keyed by the identity of the class it formats.  The records are
        spliced in at the one top-level ``"records": []`` of that dump: a
        JSON string holds no raw newline, and nested keys sit deeper than
        two spaces."""
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
        plains, formats = {}, {}

        def record_format(cls):
            fmt = formats.get(id(cls))
            if fmt is None:
                fmt = formats[id(cls)] = _record_format(*cls)
            return fmt

        records = []
        for l, shift, classes, counts in self._levels():
            if counts is None:
                plain = plains.get(id(classes))
                if plain is None:
                    plain = plains[id(classes)] = _plain_format(list(map(record_format,
                                                                         classes)))
                fmt, pick, offsets = plain
                records.append(fmt % pick([l, max(l + 1, 0), "true",
                                           *[off + shift for off in offsets]]))
                continue
            for cls, (s, t, rank) in zip(classes, counts):
                fmt, offsets = record_format(cls)
                records.append(fmt % (l, *[off + shift for off in offsets], rank,
                                      "true" if s == t == rank else "false", s, t))
        if not records:
            return text
        head, _, tail = text.partition('\n  "records": []')
        return "".join([head, '\n  "records": [\n', ",\n".join(records), "\n  ]", tail])


def _int_form(elem: AlgebraElement, q):
    """The one form of a homogeneous element as (torsion, l, ints), its
    coefficients cleared of denominators and reduced mod q unless q is None,
    or None for zero."""
    for (tor, l), (ints, _) in elem._ints().items():
        return tor, l, [v % q for v in ints] if q else ints
    return None


class AlgebraHom:
    """An algebra homomorphism compatible with a string-group homomorphism.

    Construction validates gradedness (each image homogeneous of the degree
    prescribed by the group map) and the source relations pushed through the
    images.  ``unchecked`` skips validation and exists for negative controls,
    letting the degree records expose a broken map instead.
    """

    #: the modulus of ranks over Q, taken on integer rows
    RANK_PRIME = 268435399  # the largest prime below 2^28: 64-bit slots up to 255 columns

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
        self.rank_modulus = (target.field.q if isinstance(target.field, PrimeField)
                             else self.RANK_PRIME)
        self._one = (0,) * len(target.weights), 0, [1]  # the form of 1
        # binary-form caches per coefficient domain (rank_modulus, or None
        # for exact integers): generator images, heads h_r, series of forms
        # (h_r f^a, g^b) and their packed ints per slot width
        self._gens: dict[tuple, tuple | None] = {}
        self._heads: dict = {}
        self._forms: dict[tuple, list] = {}
        self._packs: dict[tuple, list[int]] = {}
        if validate:
            self._validate()

    @classmethod
    def unchecked(cls, source, target, group_hom, gen_images) -> "AlgebraHom":
        return cls(source, target, group_hom, gen_images, validate=False)

    def _validate(self):
        """Gradedness of each image, then each source relation
        x_i^{q_i} = x_2^{q_2} - mu_i x_1^{q_1} on the images, with
        f = phi(x_1)^{q_1} and g = phi(x_2)^{q_2} computed once; they become
        the heads of x_1^{q_1} and x_2^{q_2} in the rank's domain (over Q
        cleared of denominators, a nonzero integer multiple of the image)."""
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
            residual = self.gen_images[i] ** qs[i] - g + mu * f
            if not residual.is_zero():
                raise RelationError(
                    "relation for generator %d fails, residual %s" % (i + 1, residual)
                )
        q = self.rank_modulus
        heads = self._heads.setdefault(q, {(0,) * len(qs): self._one})
        for j, h in enumerate((f, g)):
            heads[tuple(qs[i] if i == j else 0 for i in range(len(qs)))] = _int_form(h, q)

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
    # are ints mod q, or with q None exact for an integer multiple of it.

    def _gen(self, j: int, q):
        """phi(x_j) as a form, read once per coefficient domain."""
        if (q, j) not in self._gens:
            if len(self.gen_images[j].forms) > 1:
                raise GradednessError("image of generator %d is inhomogeneous" % (j + 1))
            self._gens[(q, j)] = _int_form(self.gen_images[j], q)
        return self._gens[(q, j)]

    def _mul(self, f, g, q):
        if f is None or g is None:
            return None
        return carry([a + b for a, b in zip(f[0], g[0])], f[1] + g[1], _poly_mul(f[2], g[2], q),
                     self.target.weights.weights, self.target.int_pairs, q)[:3]

    def _series(self, key, n: int, q, first, step) -> list:
        """[s, s t, ..., s t^n] for s = first() and t = step(), cached under
        (q, key) and extended on demand; step() runs only to extend."""
        forms = self._forms.get((q, key))
        if forms is None:
            forms = self._forms[(q, key)] = [first()]
        if len(forms) <= n:
            t = step()
            while len(forms) <= n:
                forms.append(self._mul(forms[-1], t, q))
        return forms

    def _head(self, r: tuple, q):
        """h_r: the image of the source monomial x_1^{r_1} ... x_t^{r_t},
        cached per exponent vector.  h_r = h_{r - e_j} phi(x_j) for the last
        j with r_j > 0, so a head is one product once its neighbour is
        known; the neighbours missing are made first, lowest first."""
        heads = self._heads.setdefault(q, {(0,) * len(r): self._one})
        missing = []
        while r not in heads:
            j = max(i for i, a in enumerate(r) if a)
            missing.append((r, j))
            r = r[:j] + (r[j] - 1,) + r[j + 1:]
        h = heads[r]
        for r, j in reversed(missing):
            h = heads[r] = self._mul(h, self._gen(j, q), q)
        return h

    def _fg(self, j: int, q):
        """f (j = 0) or g (j = 1): the image of x_j^{q_j}."""
        qs = self.source.weights.weights
        return self._head(tuple(qs[i] if i == j else 0 for i in range(len(qs))), q)

    def _packed(self, key, forms: list, q: int, k: int) -> list[int]:
        """The forms of a cached series packed at k bits per slot; zero is 0."""
        packed = self._packs.setdefault((q, k, key), [])
        for form in forms[len(packed):]:
            packed.append(0 if form is None else _pack(form[2], k))
        return packed

    def _rows(self, x: GroupElement, fiber, cols: int, q) -> list:
        """One row per source basis monomial over the fiber of x, fibers in
        order.  The monomials of degree y with torsion r are
        m_r X_1^{q_1 a} X_2^{q_2 b} with a + b = y.l, a ascending, and the
        image of one is h_r f^a g^b with h_r = phi(m_r), f = phi(x_1)^{q_1}
        and g = phi(x_2)^{q_2}; h_r f^a and g^b are cached series.  At
        y.l = 0 the row is the head's own coefficient list.  Over F_q, when g
        carries no torsion, h_r f^a times g^b carries nothing, so a row is
        one product of packed ints: its entries are unreduced, below q^2 cols.
        Otherwise, and for exact rows (q None), rows are forms.  Rows may be
        cached lists, so nothing may change them."""
        f = lambda: self._fg(0, q)
        g = lambda: self._fg(1, q)
        k = _slot_bits(q * q * max(cols, 1)) if q else None

        def check(y, torsion, l):
            if torsion != x.torsion or l != x.l:
                raise GradednessError(
                    "image of a monomial of degree %s leaves the component of %s" % (y, x))

        rows = []
        for y in fiber:
            n, r = y.l, y.torsion
            if n < 0:
                continue
            if n == 0:  # the head itself, shared with the cache
                head = self._head(r, q)
                if head:
                    check(y, head[0], head[1])
                rows.append(head[2] if head else [0] * cols)
                continue
            lefts = self._series(r, n, q, lambda: self._head(r, q), f)
            rights = self._series(None, n, q, lambda: self._one, g)
            if q and (rights[1] is None or not any(rights[1][0])):
                pl, pr = self._packed(r, lefts, q, k), self._packed(None, rights, q, k)
                for a in range(n + 1):
                    left, right = lefts[a], rights[n - a]
                    if left and right:
                        check(y, left[0], left[1] + right[1])
                    rows.append(_unpack(pl[a] * pr[n - a], k, cols))
            else:
                for a in range(n + 1):
                    form = self._mul(lefts[a], rights[n - a], q)
                    if form:
                        check(y, form[0], form[1])
                    rows.append(form[2] if form else [0] * cols)
        return rows

    # -- verification --------------------------------------------------------

    def check_surjective_at(self, x: GroupElement,
                            fiber: tuple[GroupElement, ...] | None = None) -> DegreeRecord:
        """Pool the images of all source component bases over the fiber of x
        and measure their rank inside the target component of x."""
        if fiber is None:
            fiber = tuple(sorted(self.group_hom.fiber(x), key=_sort_key))
        cols = len(self.target.component_basis(x))
        rows = self._rows(x, fiber, cols, self.rank_modulus)
        rank = row_rank(rows, self.rank_modulus)
        if not isinstance(self.target.field, PrimeField) and rank < min(len(rows), cols):
            rank = row_rank(self._rows(x, fiber, cols, None))
        return DegreeRecord(degree=x, fiber=fiber, source_dim=len(rows),
                            target_dim=cols, image_rank=rank)

    def _induction_level(self) -> int | None:
        """The level m of pi(c_S) = m c when records follow by level
        induction (see the module docstring), else None.  Every nonzero
        generator image must sit at its group degree, which puts f and g at
        m c and keeps a map that leaves its components raising
        GradednessError where full elimination raises it."""
        c, q = self.group_hom.c_image, self.rank_modulus
        if c.l < 1 or any(c.torsion):
            return None
        for im, d in zip(self.gen_images, self.group_hom.gen_images):
            if not im.is_zero() and im.degree() != d:
                return None
        f, g = self._fg(0, q), self._fg(1, q)
        if f is None or g is None or sylvester_rank(f[2], g[2], q) < 2 * c.l:
            return None
        return c.l

    def verify_window(self, window: int) -> VerificationResult:
        """Admissibility plus a degree entry for every image degree with
        |l| <= window, as a view on the fibers of ``GroupHom.window_fibers``
        (see :class:`VerificationResult`).  Without an induction level every
        record is eliminated, level by level.  With one, m, a record below
        level 0, or at l >= 2m - 1 above a surjective one, is (sum of fiber
        mults, mult(x), mult(x)) without rows and is not stored; that sum is
        mult(x) unless admissibility lists x among its failures.  So only the
        base levels 0 <= l <= 2m - 2 are visited, and then the chains of
        records above deficient ones.  Only the records that are eliminated
        get ``GroupElement``s, for ``check_surjective_at``."""
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
            for l in range(min(2 * m - 2, window) + 1):
                shift, classes = fibers.level(l)
                for cls in classes:
                    if deficient(l, shift, *cls) and l >= m - 1:
                        chains.append((l, shift, cls))
            for l, shift, cls in chains:  # grows while it is read
                if l + m <= window and deficient(l + m, shift + 1, *cls):
                    chains.append((l + m, shift + 1, cls))
        return VerificationResult(window, admissibility, src, tgt, fibers=fibers, m=m,
                                  eliminated=eliminated)
