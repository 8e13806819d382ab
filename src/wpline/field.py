"""Exact coefficient arithmetic: rationals and prime fields F_q, q not 2 or 3.

No floating point anywhere.  Rational elements are ``fractions.Fraction``;
prime-field elements are :class:`Fp` residues.  Root finding covers degrees
two and three, which is all the named constants need, and never scans the
field: over F_q a quadratic takes a square root of its discriminant and a
cubic splits gcd(f, x^q - x), over Q it finds the integer roots of a monic
integer transform.  ``_poly_mul`` is the one product of binary
forms: mod q on ints by Kronecker substitution (by schoolbook when a factor
is short), exactly on long int lists by a signed Kronecker substitution and
otherwise by schoolbook.
"""

from __future__ import annotations

import math
import sys
from array import array
from fractions import Fraction
from functools import cached_property


class ConstantUnavailable(ValueError):
    """A required root does not exist in the chosen field; try another prime."""


class InvalidLambda(ValueError):
    """Parameter values 0 and 1 are excluded."""


def digits_digest(terms) -> str:
    """Exact numbers past Python's limit on the digits of an int written in
    decimal, as text made in bounded time: "more than N digits, sha256 H",
    N that limit and H the sha256 of key + "num/den" (num and den in hex)
    for each (key, number) of ``terms``, joined by ";"."""
    import hashlib
    text = ";".join("%s%x/%x" % (key, c.numerator, c.denominator) for key, c in terms)
    return "more than %d digits, sha256 %s" % (sys.get_int_max_str_digits(),
                                               hashlib.sha256(text.encode()).hexdigest())


class Fp:
    """A residue in a prime field, with exact arithmetic."""

    __slots__ = ("value", "q")
    denominator = 1  # a residue reads as value / 1, as a Fraction does
    numerator = property(lambda self: self.value)

    def __init__(self, value: int, q: int):
        self.value = value % q
        self.q = q

    def _coerce(self, other):
        if isinstance(other, Fp):
            if other.q != self.q:
                raise ValueError("elements of F_%d and F_%d cannot mix" % (self.q, other.q))
            return other
        if isinstance(other, int):
            return Fp(other, self.q)
        return None

    def __add__(self, other):
        o = self._coerce(other)
        return NotImplemented if o is None else Fp(self.value + o.value, self.q)

    __radd__ = __add__

    def __sub__(self, other):
        o = self._coerce(other)
        return NotImplemented if o is None else Fp(self.value - o.value, self.q)

    def __rsub__(self, other):
        o = self._coerce(other)
        return NotImplemented if o is None else Fp(o.value - self.value, self.q)

    def __mul__(self, other):
        o = self._coerce(other)
        return NotImplemented if o is None else Fp(self.value * o.value, self.q)

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        if o.value == 0:
            raise ZeroDivisionError("division by zero in F_%d" % self.q)
        return Fp(self.value * pow(o.value, -1, self.q), self.q)

    def __rtruediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o / self

    def __pow__(self, n: int):
        if n < 0 and self.value == 0:
            raise ZeroDivisionError("division by zero in F_%d" % self.q)
        return Fp(pow(self.value, n, self.q), self.q)

    def __neg__(self):
        return Fp(-self.value, self.q)

    def __eq__(self, other):
        if isinstance(other, int):
            return self.value == other % self.q
        if isinstance(other, Fp):
            return self.q == other.q and self.value == other.value
        return NotImplemented

    def __hash__(self):
        return hash((self.q, self.value))

    def __bool__(self):
        return self.value != 0

    def __repr__(self):
        return str(self.value)

    __str__ = __repr__


#: the first 13 primes; as Miller-Rabin bases they decide primality for every
#: n below MILLER_RABIN_LIMIT (Sorenson and Webster, Math. Comp. 2017)
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
MILLER_RABIN_LIMIT = 3317044064679887385961981


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin for n < MILLER_RABIN_LIMIT (about 3.3e24);
    larger n raise ValueError, since these bases no longer decide them."""
    if n < 2:
        return False
    for p in _MR_BASES:
        if n % p == 0:
            return n == p
    if n >= MILLER_RABIN_LIMIT:
        raise ValueError("primality of %d is not decided above %d"
                         % (n, MILLER_RABIN_LIMIT))
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def primes(start: int = 5, stop: int = 1000):
    """Primes in [start, stop], always skipping 2 and 3."""
    for n in range(max(start, 5), stop + 1):
        if is_prime(n):
            yield n


class Field:
    """Common interface of the two coefficient backends."""

    name: str

    def __call__(self, value):
        raise NotImplementedError

    @cached_property
    def zero(self):
        """The field's 0, made once per field object."""
        return self(0)

    @cached_property
    def one(self):
        """The field's 1, made once per field object."""
        return self(1)

    def roots(self, coeffs) -> list:
        """All roots in the field of a degree-2 or degree-3 polynomial.

        ``coeffs`` are ascending; the result is sorted by the canonical order
        of the backend, so the first entry is the smallest representative.
        """
        raise NotImplementedError

    def _poly_coeffs(self, coeffs) -> list:
        """The coefficients in the field, without leading zeros; the degree
        must be 2 or 3."""
        cs = [self(c) for c in coeffs]
        while cs and cs[-1] == self.zero:
            cs.pop()
        if len(cs) not in (3, 4):
            raise ValueError("root search supports degrees 2 and 3, got %s"
                             % ("degree %d" % (len(cs) - 1) if cs else "the zero polynomial"))
        return cs


class RationalField(Field):
    """Exact rational numbers backed by fractions.Fraction."""

    name = "rationals"

    def __call__(self, value):
        if isinstance(value, Fraction):  # immutable, so it passes through
            return value
        if isinstance(value, (int, str)):
            return Fraction(value)
        if isinstance(value, Fp):
            raise ValueError("cannot coerce a prime-field residue into the rationals")
        raise TypeError("cannot coerce %r into the rationals" % (value,))

    def __eq__(self, other):
        return isinstance(other, RationalField)

    def __hash__(self):
        return hash("rationals")

    def __repr__(self):
        return "RationalField()"

    def roots(self, coeffs) -> list:
        """Clear denominators on ints, then substitute y = a_n x: the monic
        integer polynomial P(y) = a_n^(n-1) f(y / a_n) has the integer roots
        a_n r for the rational roots r of f.  Quadratics take an integer
        square root of the discriminant; cubics bisect over the integers on
        each piece where P is monotone.  Each root found is checked on f."""
        cs = self._poly_coeffs(coeffs)
        n = len(cs) - 1
        den = math.lcm(*(c.denominator for c in cs))
        ics = [c.numerator * (den // c.denominator) for c in cs]
        a = ics[n]
        mon = [c * a ** (n - 1 - i) for i, c in enumerate(ics[:n])] + [1]
        ys = _int_roots_quadratic(mon) if n == 2 else _int_roots_cubic(mon)
        return sorted(r for r in {Fraction(y, a) for y in ys} if _poly_eval(cs, r) == 0)


def _int_roots_quadratic(mon) -> list[int]:
    c, b, _ = mon
    disc = b * b - 4 * c
    if disc < 0:
        return []
    s = math.isqrt(disc)
    # disc = b^2 mod 4, so a square root s has the parity of b
    return [(-b - s) // 2, (-b + s) // 2] if s * s == disc else []


def _int_roots_cubic(mon) -> list[int]:
    d, c, b, _ = mon
    bound = 1 + max(abs(b), abs(c), abs(d))   # Cauchy: every real root is inside
    # P' = 3y^2 + 2by + c vanishes at t1 <= t2, t = (-b -+ sqrt(D)) / 3 with
    # D = b^2 - 3c.  With k = isqrt(D), t1 lies in [m1, m1 + 1] and t2 in
    # [m2, m2 + 1], so P is monotone on the integers of [-bound, m1],
    # [m1 + 1, m2] and [m2 + 1, bound].  If D <= 0, P is monotone everywhere
    # and the middle piece, for k = 0, holds at most one integer.
    D = b * b - 3 * c
    k = math.isqrt(D) if D > 0 else 0
    m1, m2 = (-b - k - 1) // 3, (k - b) // 3

    def ev(y):
        return ((y + b) * y + c) * y + d

    found = (_bisect_root(ev, lo, hi)
             for lo, hi in ((-bound, m1), (m1 + 1, m2), (m2 + 1, bound)))
    return [y for y in found if y is not None]


def _bisect_root(ev, lo: int, hi: int):
    """The integer root of ``ev`` in [lo, hi], where it is monotone, or None."""
    if lo > hi:
        return None
    flo, fhi = ev(lo), ev(hi)
    if flo == 0:
        return lo
    if fhi == 0:
        return hi
    if (flo > 0) == (fhi > 0):
        return None
    while hi - lo > 1:
        mid = (lo + hi) // 2
        fm = ev(mid)
        if fm == 0:
            return mid
        if (fm > 0) == (flo > 0):
            lo = mid
        else:
            hi = mid
    return None


def _poly_eval(coeffs, x):
    acc = coeffs[-1]
    for c in reversed(coeffs[:-1]):
        acc = acc * x + c
    return acc


def schoolbook(f: list, g: list) -> list:
    """Product of two coefficient lists, term by term."""
    out = [0] * (len(f) + len(g) - 1)
    for i, a in enumerate(f):
        if a:
            for j, b in enumerate(g):
                out[i + j] += a * b
    return out


#: array typecodes of unsigned machine words by bit width (16, 32, 64)
_WORDS = {8 * array(code).itemsize: code for code in "HIQ"}


def _slot_bits(bound: int) -> int:
    """Bits per packed slot for values below ``bound``: 16, 32 or a
    multiple of 64."""
    n = bound.bit_length()
    return 16 if n <= 16 else 32 if n <= 32 else -(-n // 64) * 64


def _pack(values, k: int) -> int:
    """sum(v_i * 2^(k*i)) for nonnegative values below 2^k (Kronecker)."""
    if k in _WORDS:
        words = array(_WORDS[k], values)
        if sys.byteorder == "big":
            words.byteswap()
        return int.from_bytes(words.tobytes(), "little")
    nb = k // 8
    return int.from_bytes(b"".join([v.to_bytes(nb, "little") for v in values]), "little")


def _unpack(n: int, k: int, m: int):
    """The lowest m slots of k bits of n, lowest first, as an array of
    machine words when k is a word width and a list otherwise; inverse of
    _pack."""
    raw = n.to_bytes(m * k // 8, "little")
    if k in _WORDS:
        words = array(_WORDS[k], raw)
        if sys.byteorder == "big":
            words.byteswap()
        return words
    nb = k // 8
    return [int.from_bytes(raw[i:i + nb], "little") for i in range(0, len(raw), nb)]


def _poly_mul(f: list, g: list, q: int | None) -> list:
    """Product of coefficient lists.  Mod q, on ints in [0, q): a scalar
    multiple when a factor has one coefficient, schoolbook up to
    SCHOOLBOOK_MAX products of coefficients, otherwise one integer multiply
    after Kronecker substitution (Harvey, J. Symb. Comput. 2009).  Exactly
    (q None): lists of ints of at least KRONECKER_MIN entries each by
    ``_signed_kronecker``, anything else (Fractions too) by schoolbook."""
    if q is None:
        if (min(len(f), len(g)) >= KRONECKER_MIN and all([type(v) is int for v in f])
                and all([type(v) is int for v in g])):
            return _signed_kronecker(f, g)
        return schoolbook(f, g)
    if len(f) > len(g):
        f, g = g, f
    if len(f) == 1:
        c = f[0]
        return [c * v % q for v in g]
    if len(f) * len(g) <= SCHOOLBOOK_MAX:
        return [c % q for c in schoolbook(f, g)]
    k = _slot_bits(q * q * len(f))
    return [c % q for c in _unpack(_pack(f, k) * _pack(g, k), k, len(f) + len(g) - 1)]


#: the shortest int lists whose exact product is a Kronecker substitution
KRONECKER_MIN = 32
#: the most coefficient products of a product mod q taken by schoolbook:
#: about where Kronecker substitution overtakes it (2 x 12, 4 x 5)
SCHOOLBOOK_MAX = 24


def _signed_kronecker(f: list, g: list) -> list:
    """The exact product of two int lists of any sign by one multiply.  With
    h = 2^(k-1) above every |coefficient| of f, g and f g, a list shifted by
    h packs (``_pack``), and less the packed shift, h (1 + 2^k + 2^(2k) +
    ...), it is the list's value at 2^k.  The product plus the packed shift
    holds the coefficients of f g shifted by h, which unpack without
    borrows."""
    m = len(f) + len(g) - 1
    k = _slot_bits(2 * (max(map(abs, f)) + 1) * (max(map(abs, g)) + 1) * min(len(f), len(g)))
    h = 1 << (k - 1)
    shift = lambda n: int.from_bytes((bytes(k // 8 - 1) + b"\x80") * n, "little")
    prod = ((_pack([v + h for v in f], k) - shift(len(f)))
            * (_pack([v + h for v in g], k) - shift(len(g))) + shift(m))
    return [v - h for v in _unpack(prod, k, m)]


# -- polynomials over F_q: ascending lists of ints in [0, q), no trailing zero

def _pdivmod(a, b, q):
    """Quotient and remainder of a by the monic b."""
    a = list(a)
    db = len(b) - 1
    quot = [0] * max(len(a) - db, 0)
    for i in range(len(a) - 1 - db, -1, -1):
        t = a[i + db]
        if t:
            quot[i] = t
            for j in range(db + 1):
                a[i + j] = (a[i + j] - t * b[j]) % q
    rem = a[:db]
    while rem and not rem[-1]:
        rem.pop()
    return quot, rem


def _psub(a, b, q):
    n = max(len(a), len(b))
    out = [(x - y) % q for x, y in zip(a + [0] * (n - len(a)), b + [0] * (n - len(b)))]
    while out and not out[-1]:
        out.pop()
    return out


def _pmulmod(a, b, f, q):
    return _pdivmod([c % q for c in schoolbook(a, b)], f, q)[1]


def _ppowmod(base, e: int, f, q):
    """base^e mod the monic f, by square and multiply."""
    result = [1]
    while e:
        if e & 1:
            result = _pmulmod(result, base, f, q)
        e >>= 1
        if e:
            base = _pmulmod(base, base, f, q)
    return result


def _monic(a, q):
    inv = pow(a[-1], -1, q)
    return [c * inv % q for c in a]


def _pgcd(a, b, q):
    """The monic gcd of a and b, a nonzero."""
    while b:
        a, b = b, _pdivmod(a, _monic(b, q), q)[1]
    return _monic(a, q)


def _split_linear(g, q) -> list[int]:
    """The roots of a monic g that is a product of distinct linear factors.

    Equal-degree splitting (Cantor and Zassenhaus, Math. Comp. 1981) with the
    shifts a = 0, 1, 2, ... in turn: h = gcd(g, (x + a)^((q-1)/2) - 1) holds
    the roots r with r + a a nonzero square.  Two distinct roots fall apart
    for some shift, because (r + a) / (r' + a) runs through every value but 1.
    """
    if len(g) <= 2:
        return [(-g[0]) % q] if len(g) == 2 else []
    for a in range(q):
        h = _pgcd(g, _psub(_ppowmod([a, 1], (q - 1) // 2, g, q), [1], q), q)
        if 1 < len(h) < len(g):
            return _split_linear(h, q) + _split_linear(_pdivmod(g, h, q)[0], q)
    raise AssertionError("no shift splits %r mod %d" % (g, q))  # pragma: no cover


class PrimeField(Field):
    """F_q for a prime q, with q different from 2 and 3."""

    def __init__(self, q: int):
        q = int(q)
        if not is_prime(q):
            raise ValueError("%d is not prime" % q)
        if q in (2, 3):
            raise ValueError("characteristic 2 and 3 are excluded")
        self.q = q
        self.name = str(q)

    def __call__(self, value):
        if isinstance(value, Fp):
            if value.q != self.q:
                raise ValueError("residue lives in F_%d, not F_%d" % (value.q, self.q))
            return value
        if isinstance(value, int):
            return Fp(value, self.q)
        if isinstance(value, str):
            value = Fraction(value)
        if isinstance(value, Fraction):
            if value.denominator % self.q == 0:
                raise ZeroDivisionError("denominator vanishes in F_%d" % self.q)
            return Fp(value.numerator * pow(value.denominator, -1, self.q), self.q)
        raise TypeError("cannot coerce %r into F_%d" % (value, self.q))

    def __eq__(self, other):
        return isinstance(other, PrimeField) and other.q == self.q

    def __hash__(self):
        return hash(("prime", self.q))

    def __repr__(self):
        return "PrimeField(%d)" % self.q

    def roots(self, coeffs) -> list:
        """A quadratic x^2 + b x + c (made monic) has the roots (-b +- s) / 2
        for a square root s of its discriminant, if there is one
        (``_sqrt_mod``).  For a cubic f, g = gcd(f, x^q - x) is the product
        of its distinct linear factors; x^q mod f takes about log2(q)
        squarings, then g is split."""
        q = self.q
        f = _monic([c.value for c in self._poly_coeffs(coeffs)], q)
        if len(f) == 3:
            c, b, _ = f
            s = _sqrt_mod((b * b - 4 * c) % q, q)
            if s is None:
                return []
            half = (q + 1) // 2  # 1/2 mod q
            return [Fp(r, q) for r in sorted({(-b - s) * half % q, (s - b) * half % q})]
        return [Fp(r, q) for r in _gcd_roots(f, q)]


def _gcd_roots(f: list, q: int) -> list[int]:
    """The distinct roots in [0, q), sorted, of a monic f over F_q: the
    roots of g = gcd(f, x^q - x), by equal-degree splitting."""
    g = _pgcd(f, _psub(_ppowmod([0, 1], q, f, q), [0, 1], q), q)
    return [r for r in sorted(_split_linear(g, q)) if _poly_eval(f, r) % q == 0]


def _sqrt_mod(a: int, q: int) -> int | None:
    """A square root of a in [0, q) mod an odd prime q, or None: one pow when
    q = 3 mod 4, else Tonelli-Shanks (Cohen, A Course in Computational
    Algebraic Number Theory, 1.5.1) with the least non-residue z."""
    if a == 0:
        return 0
    if q % 4 == 3:
        s = pow(a, (q + 1) // 4, q)
        return s if s * s % q == a else None
    if pow(a, (q - 1) // 2, q) != 1:
        return None
    e, t = 0, q - 1
    while t % 2 == 0:
        e, t = e + 1, t // 2
    z = 2
    while pow(z, (q - 1) // 2, q) == 1:
        z += 1
    y, x, b = pow(z, t, q), pow(a, (t + 1) // 2, q), pow(a, t, q)
    while b != 1:
        m, b2 = 1, b * b % q
        while b2 != 1:
            m, b2 = m + 1, b2 * b2 % q
        s = pow(y, 1 << (e - m - 1), q)
        y, e = s * s % q, m
        x, b = x * s % q, b * y % q
    return x


def field_from_spec(spec: str) -> Field:
    """Parse "rationals" (or "Q") or a prime written in decimal."""
    s = str(spec).strip().lower()
    if s in ("rationals", "q", "qq"):
        return RationalField()
    try:
        q = int(s)
    except ValueError:
        raise ValueError("field must be 'rationals' or a prime, got %r" % spec) from None
    return PrimeField(q)

