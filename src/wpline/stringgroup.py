"""Rank-one string groups of weight sequences.

A weight sequence (p_1, ..., p_t) presents an abelian group on generators
x_1, ..., x_t subject to p_1*x_1 = ... = p_t*x_t, the common value being the
canonical element c.  Every element has a unique normal form
l*c + sum(l_i * x_i) with 0 <= l_i < p_i, which is the representation used
throughout.  The module also provides the degree and mult maps, the dualizing
element, and group homomorphisms with effectiveness, fiber, kernel and
admissibility checks.  Those run on plain (l, torsion) int tuples and build
``GroupElement`` values only for what they return.  A group map's period
table, built generator by generator with one normal form per entry, holds
every fiber: single fibers, windows of fibers, admissibility and the kernel
are all read off it.
"""

from __future__ import annotations

import itertools
import math
from collections import defaultdict
from functools import cached_property
from operator import add
from typing import Iterable, Iterator, NamedTuple


class WellDefinednessError(ValueError):
    """Generator images violate the defining relations of the source group."""


class InfiniteFiberError(ValueError):
    """Fibers are only finite when the canonical element maps to nonzero degree."""


#: letters used when pretty-printing elements of the four tubular groups
_LETTERS = {(2, 2, 2, 2): "x", (3, 3, 3): "y", (4, 4, 2): "z", (6, 3, 2): "u"}


#: the most source torsion residues, and the most period table entries, a
#: group map solves its fibers over: past it fiber, kernel, window_fibers and
#: is_admissible raise ValueError
MAX_RESIDUES = 10 ** 5


def generator_letter(weights: tuple[int, ...]) -> str:
    return _LETTERS.get(tuple(weights), "x")


def _ceil_div(a: int, b: int) -> int:
    return -((-a) // b)


def _normal(weights: tuple[int, ...], l: int, raw: Iterable[int]) -> tuple[int, tuple[int, ...]]:
    """(l, torsion) of the normal form of l*c + sum(raw_i * x_i): each raw
    coordinate is reduced modulo its weight and the quotient is carried into
    the coefficient of the canonical element."""
    tor = []
    for r, p in zip(raw, weights):
        q, m = divmod(r, p)
        l += q
        tor.append(m)
    return l, tuple(tor)


class WeightSequence:
    """A tuple of weights p_i >= 2 of length at least two."""

    def __init__(self, weights: Iterable[int]):
        ws = tuple(int(p) for p in weights)
        if len(ws) < 2:
            raise ValueError("a weight sequence needs at least two weights")
        if any(p < 2 for p in ws):
            raise ValueError("every weight must be at least 2, got %r" % (ws,))
        self.weights = ws

    def __repr__(self) -> str:
        return "WeightSequence(weights=%r)" % (self.weights,)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self.weights == other.weights
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.weights,))

    def __len__(self) -> int:
        return len(self.weights)

    def __str__(self) -> str:
        return "(%s)" % ",".join(str(p) for p in self.weights)

    @cached_property
    def lcm(self) -> int:
        return math.lcm(*self.weights)

    @cached_property
    def degree_weights(self) -> tuple[int, ...]:
        """Degrees of the generators: the i-th generator has degree lcm/p_i."""
        return tuple(self.lcm // p for p in self.weights)

    # -- elements ----------------------------------------------------------

    def normalize(self, l: int, raw: Iterable[int]) -> "GroupElement":
        """Normal form of l*c + sum(raw_i * x_i) for arbitrary integers raw_i.

        Each raw coordinate is reduced modulo its weight and the quotient is
        carried into the coefficient of the canonical element.
        """
        raw = tuple(raw)
        if len(raw) != len(self.weights):
            raise ValueError(
                "expected %d torsion coordinates, got %d" % (len(self.weights), len(raw))
            )
        return GroupElement(self, *_normal(self.weights, int(l), map(int, raw)))

    def parse(self, text: str) -> "GroupElement":
        """Parse the "l;l1,l2,...,lt" element notation (entries may be any ints)."""
        try:
            head, _, tail = text.strip().partition(";")
            l = int(head)
            raw = tuple(int(v) for v in tail.split(","))
        except ValueError:
            raise ValueError("cannot parse group element from %r" % text) from None
        return self.normalize(l, raw)

    def zero(self) -> "GroupElement":
        return GroupElement(self, 0, (0,) * len(self.weights))

    def canonical(self) -> "GroupElement":
        """The canonical element c = p_i * x_i."""
        return GroupElement(self, 1, (0,) * len(self.weights))

    @cached_property
    def gens(self) -> tuple["GroupElement", ...]:
        t = len(self.weights)
        out = []
        for i in range(t):
            tor = [0] * t
            tor[i] = 1
            out.append(GroupElement(self, 0, tuple(tor)))
        return tuple(out)

    def dualizing_element(self) -> "GroupElement":
        """(t-2)*c - sum of all generators, in normal form."""
        t = len(self.weights)
        return self.normalize(t - 2, (-1,) * t)

    def is_tubular(self) -> bool:
        """True when the dualizing element is torsion, i.e. has degree zero."""
        return self.dualizing_element().degree() == 0

    def torsion_tuples(self) -> Iterator[tuple[int, ...]]:
        return itertools.product(*(range(p) for p in self.weights))


class GroupElement:
    """An element in normal form: l*c + sum(l_i * x_i) with 0 <= l_i < p_i."""

    __slots__ = ("weights", "l", "torsion")

    def __init__(self, weights: WeightSequence, l: int, torsion: tuple[int, ...]):
        self.weights = weights
        self.l = l
        self.torsion = torsion

    def __repr__(self) -> str:
        return "GroupElement(weights=%r, l=%r, torsion=%r)" % (self.weights, self.l,
                                                               self.torsion)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return (self.weights, self.l, self.torsion) == (other.weights, other.l,
                                                            other.torsion)
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.weights, self.l, self.torsion))

    def __str__(self) -> str:
        return "%d;%s" % (self.l, ",".join(str(v) for v in self.torsion))

    def pretty(self) -> str:
        """Readable form like "2z1+2z2-c"."""
        letter = generator_letter(self.weights.weights)
        parts = []
        for i, v in enumerate(self.torsion):
            if v:
                parts.append(("" if v == 1 else str(v)) + "%s%d" % (letter, i + 1))
        if self.l:
            parts.append(("c" if self.l == 1 else "-c" if self.l == -1 else "%dc" % self.l))
        if not parts:
            return "0"
        out = parts[0]
        for p in parts[1:]:
            out += p if p.startswith("-") else "+" + p
        return out

    def _check_same_group(self, other: "GroupElement"):
        if self.weights != other.weights:
            raise ValueError("elements belong to different string groups")

    def __add__(self, other: "GroupElement") -> "GroupElement":
        if not isinstance(other, GroupElement):
            return NotImplemented
        self._check_same_group(other)
        return self.weights.normalize(
            self.l + other.l, tuple(a + b for a, b in zip(self.torsion, other.torsion))
        )

    def __neg__(self) -> "GroupElement":
        return self.weights.normalize(-self.l, tuple(-v for v in self.torsion))

    def __sub__(self, other: "GroupElement") -> "GroupElement":
        return self + (-other)

    def __mul__(self, n: int) -> "GroupElement":
        if not isinstance(n, int):
            return NotImplemented
        return self.weights.normalize(n * self.l, tuple(n * v for v in self.torsion))

    __rmul__ = __mul__

    def degree(self) -> int:
        """Value under the degree map: l*lcm + sum(l_i * lcm/p_i)."""
        ws = self.weights
        return self.l * ws.lcm + sum(v * d for v, d in zip(self.torsion, ws.degree_weights))

    def mult(self) -> int:
        """max(l + 1, 0), read off the normal form."""
        return max(self.l + 1, 0)

    def is_zero(self) -> bool:
        return self.l == 0 and not any(self.torsion)

    def order(self) -> int | float:
        """Least n >= 1 with n*a = 0, or math.inf.

        Nonzero degree certifies infinite order.  In degree 0, n*a = 0 once n
        kills every torsion coordinate, since the canonical part then has
        degree 0 too: n = lcm of p_i / gcd(p_i, l_i).
        """
        if self.degree() != 0:
            return math.inf
        return math.lcm(*(p // math.gcd(p, v)
                          for p, v in zip(self.weights.weights, self.torsion)))


class AdmissibilityReport(NamedTuple):
    """Outcome of the effectiveness and fiber mult-sum checks on a window.

    ``failures`` lists (degree, fiber mult total, target mult) for every
    element of the image whose fiber mult total disagrees with its own mult.
    ``edge_regime_ok`` records that at the top window edge every fiber
    element already sits in the affine regime (nonnegative l) and at the
    bottom edge all mult values vanish, so both tails of the window are
    conclusive.
    """

    effective: bool
    window: int
    checked: int
    failures: tuple[tuple[GroupElement, int, int], ...]
    kernel: tuple[GroupElement, ...]
    edge_regime_ok: bool

    @property
    def admissible(self) -> bool:
        return self.effective and not self.failures


class GroupHom:
    """A homomorphism between string groups, given by generator images.

    Well-definedness (q_j times the j-th image is the same element for all j)
    is validated on construction.
    """

    def __init__(self, source: WeightSequence, target: WeightSequence,
                 gen_images: Iterable[GroupElement]):
        images = tuple(gen_images)
        if len(images) != len(source.weights):
            raise ValueError(
                "expected %d generator images, got %d" % (len(source.weights), len(images))
            )
        for im in images:
            if not isinstance(im, GroupElement) or im.weights != target:
                raise ValueError("generator images must be elements of the target group")
        ref = source.weights[0] * images[0]
        for j in range(1, len(images)):
            val = source.weights[j] * images[j]
            if val != ref:
                raise WellDefinednessError(
                    "%d*image[%d] = %s but %d*image[1] = %s"
                    % (source.weights[j], j + 1, val, source.weights[0], ref)
                )
        self.source = source
        self.target = target
        self.gen_images = images
        self.c_image = ref

    def __call__(self, elem: GroupElement) -> GroupElement:
        if elem.weights != self.source:
            raise ValueError("element does not belong to the source group")
        l = elem.l * self.c_image.l
        tor = list(v * elem.l for v in self.c_image.torsion)
        for coef, im in zip(elem.torsion, self.gen_images):
            l += coef * im.l
            for i, v in enumerate(im.torsion):
                tor[i] += coef * v
        return self.target.normalize(l, tor)

    # -- image structure ---------------------------------------------------

    def is_effective(self) -> bool:
        """True when the image is infinite and surjects onto every Z/p_i.

        The image is infinite iff some generator image has nonzero degree; it
        covers Z/p_i iff the i-th torsion coordinates of the images generate
        it, i.e. their gcd with p_i is 1.
        """
        if all(im.degree() == 0 for im in self.gen_images):
            return False
        for i, p in enumerate(self.target.weights):
            coords = [im.torsion[i] for im in self.gen_images]
            coords.append(self.c_image.torsion[i])
            if math.gcd(p, *coords) != 1:
                return False
        return True

    @cached_property
    def _residues(self) -> tuple:
        """Per source torsion residue r: (r, image l, image torsion), the
        image in normal form, in ``torsion_tuples`` order.  More than
        MAX_RESIDUES residues raise ValueError before any is made.

        The raw sums sum(r_j pi(x_j)) are built generator by generator: each
        is its predecessor in the order plus one entry a pi(x_j), a < q_j,
        of a step table.  Only the last sums are normalized, once each."""
        count = math.prod(self.source.weights)
        if count > MAX_RESIDUES:
            raise ValueError("source weights %s have %d torsion residues, more than the %d "
                             "a group map can solve fibers over"
                             % (self.source, count, MAX_RESIDUES))
        tw = self.target.weights
        sums = [(0, (0,) * len(tw))]  # (l, raw torsion)
        for q, im in zip(self.source.weights, self.gen_images):
            steps = [(a * im.l, [a * v for v in im.torsion]) for a in range(q)]
            sums = [(l + sl, tuple(map(add, raw, st))) for l, raw in sums for sl, st in steps]
        return tuple((r, *_normal(tw, l, raw))
                     for r, (l, raw) in zip(self.source.torsion_tuples(), sums))

    @cached_property
    def _period(self) -> tuple[int, int]:
        """(n, m): the least n >= 1 with n*pi(c_S) torsion-free, and
        n*pi(c_S) = m*c."""
        tw, ct = self.target.weights, self.c_image.torsion
        n = math.lcm(*(p // math.gcd(p, v) for p, v in zip(tw, ct)))
        return n, n * self.c_image.l + sum(n * v // p for p, v in zip(tw, ct))

    def fiber(self, x: GroupElement) -> tuple[GroupElement, ...]:
        """The complete preimage of x, ordered by (l, torsion); empty when x
        is outside the image.  It is the entry of x's torsion at level x.l
        of the period table ``_classes``."""
        if x.weights != self.target:
            raise ValueError("element does not belong to the target group")
        shift, classes = WindowFibers(self._classes, abs(x.l) + 1).level(x.l)
        pairs = next((pairs for xt, pairs in classes if xt == x.torsion), ())
        return tuple(GroupElement(self.source, off + shift, r) for off, r in pairs)

    @cached_property
    def _kernel(self) -> tuple[GroupElement, ...]:
        """The fiber of zero, zero first."""
        zero = self.source.zero()
        return (zero, *(y for y in self.fiber(self.target.zero()) if y != zero))

    def kernel(self) -> tuple[GroupElement, ...]:
        """The fiber of zero, read off the period table like every fiber:
        zero first, then ordered by (l, torsion)."""
        return self._kernel

    @cached_property
    def _classes(self) -> tuple[int, int, dict]:
        """The period table (n, m, by_class), with (n, m) = ``_period``:
        by_class maps each class c of target levels mod m to [(xt, pairs)],
        sorted by xt, and the fiber of (L, xt) for L = c (mod m) is
        [(off + (L // m) n, r) for off, r in pairs], sorted.

        The image of (j + k n) c_S + r is that of j c_S + r moved up k m
        levels.  So one normal form (xl, xt) per residue r and class j of
        source levels mod n (for j = 0 the residue's own from ``_residues``)
        puts the pair (j + k n, r) over (xl + k m, xt) for every k, that is,
        the pair (j - (xl // m) n + (L // m) n, r) over each (L, xt) with
        L = xl (mod m); the pairs of a fiber keep one order as L moves.
        Property tests cross-check the fibers against the reference
        oracles, which solve them residue by residue.  A table of more than
        MAX_RESIDUES entries raises ValueError before any is made.
        """
        if self.c_image.degree() == 0:
            raise InfiniteFiberError("canonical element maps to degree 0; fibers may be infinite")
        n, m = self._period
        if n * len(self._residues) > MAX_RESIDUES:
            raise ValueError("a period table of %d residues and %d level classes is larger "
                             "than the %d entries a group map solves fibers over"
                             % (len(self._residues), n, MAX_RESIDUES))
        tw = self.target.weights
        cl, ct = self.c_image.l, self.c_image.torsion
        groups: dict[tuple, list] = defaultdict(list)  # (xl mod m, xt) -> (offset, r)
        for r, hl, ht in self._residues:
            groups[(hl % m, ht)].append((-(hl // m) * n, r))  # j = 0: the residue's own image
            for j in range(1, n):
                xl, xt = _normal(tw, j * cl + hl, [j * a + b for a, b in zip(ct, ht)])
                groups[(xl % m, xt)].append((j - xl // m * n, r))
        by_class = defaultdict(list)
        for (c, xt), pairs in sorted(groups.items()):
            by_class[c].append((xt, tuple(sorted(pairs))))
        return n, m, dict(by_class)

    def window_fibers(self, window: int) -> "WindowFibers":
        """All nonempty fibers over elements with |l| <= window, level by
        level (see :class:`WindowFibers`).  It is a view on the period
        table ``_classes``, so it costs nothing per degree until read."""
        if window < 1:
            raise ValueError("window must be at least 1")
        return WindowFibers(self._classes, window)

    def is_admissible(self, window: int = 64) -> AdmissibilityReport:
        """Effectiveness plus the fiber mult-sum condition on every image
        element in the window, in closed form per entry (xt, pairs) of a
        class c of the period table.  At L = c + k m the fiber total
        sum(off + k n + 1 for off + k n >= 0) and mult(L) = max(L + 1, 0)
        are affine in k between the points where a pair level or L + 1
        crosses 0.  On each such piece their difference is zero everywhere
        or at one k at most, so failures are listed where they occur and
        the cost does not grow with the window.  The pieces depend on the
        entry only through its level offsets, which the entries of a class
        mostly share, so they are taken once per offsets and class."""
        if window < 1:
            raise ValueError("window must be at least 1")
        n, m, by_class = self._classes
        failures = []
        for c, classes in by_class.items():
            ks = _levels_of_class(c, m, window)
            if not ks:
                continue
            # mult(L) is L + 1 from this k on (m > 0), or before it (m < 0)
            mult_cut = _ceil_div(-c - 1, m) if m > 0 else (-c - 1) // m + 1
            found = {}  # offsets -> (k, total, mult) of each k where they fail
            for xt, pairs in classes:
                offs = tuple([off for off, _ in pairs])
                bad = found.get(offs)
                if bad is None:
                    bad = found[offs] = _piece_failures(offs, n, c, m, mult_cut, ks)
                failures.extend((c + k * m, xt, total, want) for k, total, want in bad)
        failures.sort()
        # at the top edge every fiber level is nonnegative, and at the bottom
        # (where mult is 0, as window >= 1) every fiber level is negative
        top, bottom = window, -window
        edge_ok = (all(pairs[0][0] + top // m * n >= 0 for _, pairs in by_class.get(top % m, ()))
                   and all(pairs[-1][0] + bottom // m * n < 0
                           for _, pairs in by_class.get(bottom % m, ())))
        return AdmissibilityReport(
            effective=self.is_effective(),
            window=window,
            checked=len(WindowFibers(self._classes, window)),
            failures=tuple((GroupElement(self.target, l, tor), total, want)
                           for l, tor, total, want in failures),
            kernel=self._kernel,
            edge_regime_ok=edge_ok,
        )


def _piece_failures(offs: tuple, n: int, c: int, m: int, mult_cut: int,
                    ks: range) -> list[tuple[int, int, int]]:
    """(k, fiber total, mult) for each k of ks where an entry of class c
    with the level offsets offs fails the mult-sum condition (see
    ``GroupHom.is_admissible``).  The offsets ascend, so the k from which a
    pair's level off + k n is >= 0 descends: the live pairs of a piece are a
    tail of offs, and each piece adds the next ones to it."""
    lives = [-(off // n) for off in offs]
    starts = sorted({ks.start, *(k for k in (mult_cut, *lives) if ks.start < k < ks.stop)})
    bad = []
    i, t0 = len(offs), 0
    for a, b in zip(starts, starts[1:] + [ks.stop]):
        while i and lives[i - 1] <= a:
            i -= 1
            t0 += offs[i] + 1
        t1 = (len(offs) - i) * n  # total = t0 + t1 k
        w0, w1 = (c + 1, m) if c + a * m + 1 >= 0 else (0, 0)  # mult = w0 + w1 k
        d0, d1 = t0 - w0, t1 - w1
        if d0 or d1:
            root = -d0 // d1 if d1 and not d0 % d1 else None
            bad.extend((k, t0 + t1 * k, w0 + w1 * k) for k in range(a, b) if k != root)
    return bad


def _levels_of_class(c: int, m: int, window: int) -> range:
    """The k with -window <= c + k m <= window."""
    if m > 0:
        return range(_ceil_div(-window - c, m), (window - c) // m + 1)
    return range(_ceil_div(window - c, m), (-window - c) // m + 1)


class WindowFibers:
    """The fibers of ``GroupHom.window_fibers``: for each target (l, torsion)
    with |l| <= window and a nonempty fiber, the sorted source pairs (l, r)
    over it, read level by level on the period table (n, m, by_class) of
    ``GroupHom._classes``.  Its length, the number of such degrees, is
    counted per class."""

    def __init__(self, table: tuple[int, int, dict], window: int):
        self._n, self._m, self._by_class = table
        self.window = window

    def levels(self) -> Iterator[tuple[int, int, list]]:
        """(L, shift, classes) for every level L of the window with a
        nonempty fiber, ascending: the fibers at L are, for each (xt, pairs)
        of classes in order, [(off + shift, r) for off, r in pairs]."""
        for L in range(-self.window, self.window + 1):
            shift, classes = self.level(L)
            if classes:
                yield L, shift, classes

    def level(self, L: int) -> tuple[int, list]:
        """(shift, classes) of level L as ``levels`` yields them; classes
        is empty when no fiber of the window sits at L."""
        if -self.window <= L <= self.window:
            classes = self._by_class.get(L % self._m)
            if classes:
                return L // self._m * self._n, classes
        return 0, []

    def __len__(self) -> int:
        return sum(len(classes) * len(_levels_of_class(c, self._m, self.window))
                   for c, classes in self._by_class.items())
