"""Rank-one string groups of weight sequences.

A weight sequence (p_1, ..., p_t) presents an abelian group on generators
x_1, ..., x_t subject to p_1*x_1 = ... = p_t*x_t, the common value being the
canonical element c.  Every element has a unique normal form
l*c + sum(l_i * x_i) with 0 <= l_i < p_i, which is the representation used
throughout.  The module also provides the degree and mult maps, the dualizing
element, and group homomorphisms with effectiveness, fiber, kernel and
admissibility checks.  Those run on plain (l, torsion) int tuples and build
``GroupElement`` values only for what they return.
"""

from __future__ import annotations

import itertools
import math
from collections import defaultdict
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Iterator


class WellDefinednessError(ValueError):
    """Generator images violate the defining relations of the source group."""


class InfiniteFiberError(ValueError):
    """Fibers are only finite when the canonical element maps to nonzero degree."""


#: letters used when pretty-printing elements of the four tubular groups
_LETTERS = {(2, 2, 2, 2): "x", (3, 3, 3): "y", (4, 4, 2): "z", (6, 3, 2): "u"}


#: the most source torsion residues a group map solves its fibers over
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


@dataclass(frozen=True)
class WeightSequence:
    """A tuple of weights p_i >= 2 of length at least two."""

    weights: tuple[int, ...]

    def __post_init__(self):
        ws = tuple(int(p) for p in self.weights)
        object.__setattr__(self, "weights", ws)
        if len(ws) < 2:
            raise ValueError("a weight sequence needs at least two weights")
        if any(p < 2 for p in ws):
            raise ValueError("every weight must be at least 2, got %r" % (ws,))

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


@dataclass(frozen=True)
class GroupElement:
    """An element in normal form: l*c + sum(l_i * x_i) with 0 <= l_i < p_i."""

    weights: WeightSequence
    l: int
    torsion: tuple[int, ...]

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


def _sort_key(e: GroupElement) -> tuple:
    return (e.l, e.torsion)


def _kernel_sort_key(e: GroupElement) -> tuple:
    return (not e.is_zero(), e.l, e.torsion)


@dataclass(frozen=True)
class AdmissibilityReport:
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
        """Per source torsion residue r: (r, image l, image torsion, image
        degree), the image in normal form.  More than MAX_RESIDUES residues
        raise ValueError before any is made."""
        count = math.prod(self.source.weights)
        if count > MAX_RESIDUES:
            raise ValueError("source weights %s have %d torsion residues, more than the %d "
                             "a group map can solve fibers over"
                             % (self.source, count, MAX_RESIDUES))
        tw, dw, lcm = self.target.weights, self.target.degree_weights, self.target.lcm
        out = []
        for r in self.source.torsion_tuples():
            hl, ht = _normal(tw, sum(a * im.l for a, im in zip(r, self.gen_images)),
                             [sum(a * im.torsion[i] for a, im in zip(r, self.gen_images))
                              for i in range(len(tw))])
            out.append((r, hl, ht, hl * lcm + sum(v * d for v, d in zip(ht, dw))))
        return tuple(out)

    def _canonical_degree(self) -> int:
        """The degree of pi(c_S); fibers are finite only when it is nonzero."""
        d_c = self.c_image.degree()
        if d_c == 0:
            raise InfiniteFiberError("canonical element maps to degree 0; fibers may be infinite")
        return d_c

    @cached_property
    def _period(self) -> tuple[int, int]:
        """(n, m): the least n >= 1 with n*pi(c_S) torsion-free, and
        n*pi(c_S) = m*c."""
        tw, ct = self.target.weights, self.c_image.torsion
        n = math.lcm(*(p // math.gcd(p, v) for p, v in zip(tw, ct)))
        return n, n * self.c_image.l + sum(n * v // p for p, v in zip(tw, ct))

    def _fiber(self, xl: int, xt: tuple[int, ...]) -> list[tuple[int, tuple[int, ...]]]:
        """The preimage of the target element (xl, xt) as source pairs (l, r).

        Scans the source torsion residues and solves for the unique integer
        multiple of the canonical element matching the degree of (xl, xt).
        """
        d_c = self._canonical_degree()
        tgt = self.target
        cl, ct = self.c_image.l, self.c_image.torsion
        dx = xl * tgt.lcm + sum(v * d for v, d in zip(xt, tgt.degree_weights))
        out = []
        for r, hl, ht, hd in self._residues:
            l, rem = divmod(dx - hd, d_c)
            if not rem and _normal(tgt.weights, l * cl + hl,
                                   [l * a + b for a, b in zip(ct, ht)]) == (xl, xt):
                out.append((l, r))
        return out

    def fiber(self, x: GroupElement) -> set[GroupElement]:
        """The complete preimage of x; empty when x is outside the image."""
        if x.weights != self.target:
            raise ValueError("element does not belong to the target group")
        return {GroupElement(self.source, l, r) for l, r in self._fiber(x.l, x.torsion)}

    @cached_property
    def _kernel(self) -> tuple[GroupElement, ...]:
        zero = (0, (0,) * len(self.source.weights))
        pairs = sorted(self._fiber(0, (0,) * len(self.target.weights)),
                       key=lambda y: (y != zero, y))
        return tuple(GroupElement(self.source, l, r) for l, r in pairs)

    def kernel(self) -> set[GroupElement]:
        return set(self._kernel)

    def window_fibers(self, window: int) -> dict[tuple, tuple[tuple, ...]]:
        """All nonempty fibers over elements with |l| <= window, as a dict
        sorted by key: target (l, torsion) -> sorted source pairs (l, r).

        Solves per class of source elements instead of per target element;
        both give the same fibers, and property tests cross-check them
        against :meth:`fiber`.  With (n, m) = ``_period``, the image of
        (j + k n) c_S + r is that of j c_S + r moved up k m levels.  So one
        normal form (xl, xt) per residue r and class of j mod n puts the
        pair (j + k n, r) over (xl + k m, xt) for every k: over each target
        (L, xt) with L = xl (mod m) sits the pair
        (j - (xl // m) n + (L // m) n, r), and the pairs of a fiber keep one
        order as L moves.
        """
        if window < 1:
            raise ValueError("window must be at least 1")
        d_c = self._canonical_degree()
        tgt = self.target
        tw, lcm = tgt.weights, tgt.lcm
        max_tor = sum((p - 1) * d for p, d in zip(tw, tgt.degree_weights))
        lo, hi = -window * lcm, window * lcm + max_tor
        cl, ct = self.c_image.l, self.c_image.torsion
        n, m = self._period
        groups: dict[tuple, list] = defaultdict(list)  # (xl mod m, xt) -> (offset, r)
        for r, hl, ht, hd in self._residues:
            # the source levels whose images have a degree the window reaches:
            # every class of them that meets the window, once
            if d_c > 0:
                lmin, lmax = _ceil_div(lo - hd, d_c), (hi - hd) // d_c
            else:
                lmin, lmax = _ceil_div(hi - hd, d_c), (lo - hd) // d_c
            for j in range(lmin, min(lmax + 1, lmin + n)):
                xl, xt = _normal(tw, j * cl + hl, [j * a + b for a, b in zip(ct, ht)])
                groups[(xl % m, xt)].append((j - xl // m * n, r))
        by_class = defaultdict(list)  # L mod m -> (xt, sorted pairs at offset), by xt
        for (c, xt), pairs in sorted(groups.items()):
            by_class[c].append((xt, sorted(pairs)))
        out = {}
        for L in range(-window, window + 1):
            shift = L // m * n
            for xt, pairs in by_class.get(L % m, ()):
                out[(L, xt)] = tuple([(off + shift, r) for off, r in pairs])
        return out

    def is_admissible(self, window: int = 64, fibers: dict | None = None) -> AdmissibilityReport:
        """Effectiveness plus the fiber mult-sum condition on every image
        element in the window; ``fibers`` is ``window_fibers(window)`` when
        already at hand."""
        buckets = self.window_fibers(window) if fibers is None else fibers
        failures = []
        edge_ok = True
        for (l, tor), fib in buckets.items():
            want = max(l + 1, 0)
            total = sum([yl + 1 for yl, _ in fib if yl >= 0])
            if total != want:
                failures.append((GroupElement(self.target, l, tor), total, want))
            if l == window and any(yl < 0 for yl, _ in fib):
                edge_ok = False
            if l == -window and (want or any(yl >= 0 for yl, _ in fib)):
                edge_ok = False
        return AdmissibilityReport(
            effective=self.is_effective(),
            window=window,
            checked=len(buckets),
            failures=tuple(failures),
            kernel=self._kernel,
            edge_regime_ok=edge_ok,
        )
