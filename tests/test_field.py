import math
import random
from fractions import Fraction

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st
from sympy import QQ, Poly, symbols

from reference import reference_roots
from wpline import (ConstantUnavailable, Fp, InvalidLambda, PrimeField,
                    RationalField, field_from_spec, is_prime, primes,
                    resolve_constants)
from wpline import config
from wpline.field import MILLER_RABIN_LIMIT, _gcd_roots, _sqrt_mod

Q = RationalField()
F7 = PrimeField(7)
F5 = PrimeField(5)


class TestArithmetic:
    def test_rational_add(self):
        assert Q("1/2") + Q("1/3") == Fraction(5, 6)

    def test_prime_inverse(self):
        assert 1 / F7(3) == F7(5)
        assert F7(3) * F7(5) == 1

    def test_prime_mul(self):
        assert F7(4) * F7(4) == F7(2)

    def test_division_by_zero(self):
        with pytest.raises(ZeroDivisionError):
            F7(1) / F7(0)
        with pytest.raises(ZeroDivisionError):
            F7(0) ** -1

    def test_backend_mismatch(self):
        with pytest.raises(ValueError):
            Fp(1, 7) + Fp(1, 5)
        with pytest.raises(TypeError):
            Fraction(1, 2) + Fp(1, 7)

    def test_fractions_pass_through_and_constants_are_made_once(self):
        x = Fraction(3, 4)
        assert Q(x) is x
        for field in (Q, F7):
            assert field.zero is field.zero and field.one is field.one

    def test_fraction_coercion_into_prime_field(self):
        assert F7(Fraction(1, 2)) == F7(4)
        with pytest.raises(ZeroDivisionError):
            F7(Fraction(1, 7))

    def test_axioms_on_random_triples(self):
        rng = random.Random(73)
        for _ in range(300):
            field = rng.choice([Q, F7, F5])
            a, b, c = (field(rng.randint(-20, 20)) for _ in range(3))
            assert (a + b) + c == a + (b + c)
            assert a * (b + c) == a * b + a * c
            assert a + field.zero == a
            assert a * field.one == a
            if b != field.zero:
                assert (a / b) * b == a

    def test_prime_field_validation(self):
        for bad in (4, 9, 1):
            with pytest.raises(ValueError):
                PrimeField(bad)
        for excluded in (2, 3):
            with pytest.raises(ValueError):
                PrimeField(excluded)

    def test_primes_helper(self):
        assert list(primes(5, 20)) == [5, 7, 11, 13, 17, 19]
        assert is_prime(997) and not is_prime(999)
        assert list(primes(5, 10 ** 4)) == [n for n in range(5, 10 ** 4 + 1)
                                            if _trial_division(n)]

    def test_field_from_spec(self):
        assert field_from_spec("rationals") == Q
        assert field_from_spec("7") == F7
        with pytest.raises(ValueError):
            field_from_spec("six")


class TestRootFinding:
    def test_sixth_root_of_unity_polynomial_mod_7(self):
        # x^2 - x + 1
        assert F7.roots([1, -1, 1])[0] == F7(3)
        assert F7.roots([1, -1, 1]) == [F7(3), F7(5)]

    def test_sqrt_two_mod_7(self):
        assert F7.roots([-2, 0, 1])[0] == F7(3)

    def test_minus_one_not_square_mod_7(self):
        assert F7.roots([1, 0, 1]) == []

    def test_rational_roots(self):
        assert Q.roots([1, -1, 1]) == []
        assert Q.roots([Fraction(-9, 4), 0, 1]) == [Fraction(-3, 2), Fraction(3, 2)]
        # (x - 2)(x^2 + 1), ascending coefficients
        assert Q.roots([-2, 1, -2, 1]) == [Fraction(2)]
        assert Q.roots([0, 0, 1]) == [Fraction(0)]

    def test_degree_guard(self):
        with pytest.raises(ValueError):
            F7.roots([1, 1])
        with pytest.raises(ValueError):
            Q.roots([1, 0, 0, 0, 1])

    def test_sqrt_cbrt_helpers(self):
        assert F5.roots([1, 0, 1])[0] == F5(2)
        assert F5.roots([4, 0, 0, 1])[0] == F5(1)
        assert Q.roots([Fraction(-9, 4), 0, 1])[0] == Fraction(-3, 2)  # smallest rational root


class TestConstants:
    def test_case_a_needs_nothing(self, monkeypatch):
        # no text of case A holds the substring lambda, so none is tokenized
        def refuse(text):
            raise AssertionError("tokenized %r" % text)

        monkeypatch.setattr(config, "_tokenize", refuse)
        assert resolve_constants("A", Q) == {}

    def test_case_b_mod_7(self):
        b = resolve_constants("B", F7)
        assert b["epsilon"] == F7(3)
        assert b["delta"] == F7(1)
        assert b["epsilon"] ** 2 - b["epsilon"] + 1 == 0
        assert b["delta"] ** 2 == 6 * b["epsilon"] - 3

    def test_case_b_backtracks_when_picking_largest(self):
        # the larger root 5 has 6*5-3 = 27 = 6 mod 7, a non-residue, so the
        # search must fall back to epsilon = 3 and then pick the larger delta
        b = resolve_constants("B", F7, root_pick="largest")
        assert b["epsilon"] == F7(3)
        assert b["delta"] == F7(6)
        assert b["delta"] ** 2 == 6 * b["epsilon"] - 3

    def test_case_c_mod_5(self):
        c = resolve_constants("C", F5)
        assert c["sqrt_minus_one"] == F5(2)
        assert c["cbrt_minus_four"] == F5(1)

    def test_case_d_mod_7(self):
        d = resolve_constants("D", F7, lam=-1)
        assert d["sqrt_one_minus_lambda"] == F7(3)
        assert d["xi_plus"] == F7(2)
        assert d["xi_minus"] == F7(4)
        assert d["sqrt_xi_plus"] == F7(3)
        assert d["lambda_prime"] == F7(2)
        # closed-form cross-check at lam = -1: 17 - 12*sqrt(2)
        assert 17 - 12 * d["sqrt_one_minus_lambda"] == d["lambda_prime"]

    def test_case_d_rational_parameter(self):
        d = resolve_constants("D", Q, lam=Fraction(3, 4))
        assert d["sqrt_one_minus_lambda"] == Fraction(-1, 2)
        assert d["xi_plus"] == Fraction(1, 4)
        assert d["xi_minus"] == Fraction(9, 4)
        assert d["lambda_prime"] == 9

    @pytest.mark.parametrize("field,lam", [
        (F7, -1), (PrimeField(17), -1), (PrimeField(17), 2), (PrimeField(23), -1),
        (Q, Fraction(3, 4)),
    ])
    def test_xi_identities(self, field, lam):
        d = resolve_constants("D", field, lam=lam)
        lam = field(lam)
        assert d["xi_plus"] * d["xi_minus"] == lam * lam
        assert d["xi_plus"] + d["xi_minus"] == 2 * (2 - lam)
        assert d["lambda_prime"] not in (field.zero, field.one)

    def test_unavailable_constants(self):
        with pytest.raises(ConstantUnavailable):
            resolve_constants("B", Q)
        with pytest.raises(ConstantUnavailable):
            resolve_constants("C", F7)            # no sqrt(-1)
        with pytest.raises(ConstantUnavailable):
            resolve_constants("C", PrimeField(13))  # sqrt(-1) exists, cbrt(-4) does not
        with pytest.raises(ConstantUnavailable):
            resolve_constants("B", PrimeField(13))  # neither root of x^2-x+1 works
        with pytest.raises(ConstantUnavailable):
            resolve_constants("D", F5, lam=-1)    # 2 is not a square mod 5

    def test_invalid_lambda(self):
        with pytest.raises(InvalidLambda):
            resolve_constants("D", F7)
        for bad in (0, 1):
            with pytest.raises(InvalidLambda):
                resolve_constants("D", F7, lam=bad)

    def test_unknown_case(self):
        with pytest.raises(ValueError):
            resolve_constants("E", F7)

    def test_bindings_redo_defining_equations(self):
        b = resolve_constants("B", PrimeField(19))
        assert b["epsilon"] ** 2 - b["epsilon"] + 1 == 0
        assert b["delta"] ** 2 == 6 * b["epsilon"] - 3
        c = resolve_constants("C", PrimeField(17))
        assert c["sqrt_minus_one"] ** 2 == -PrimeField(17).one
        assert c["cbrt_minus_four"] ** 3 == PrimeField(17)(-4)


def _trial_division(n):
    return n >= 2 and all(n % d for d in range(2, math.isqrt(n) + 1))


class TestPrimality:
    def test_matches_trial_division_below_1e5(self):
        assert [n for n in range(-3, 10 ** 5) if is_prime(n)] == \
            [n for n in range(10 ** 5) if _trial_division(n)]

    @settings(max_examples=200, deadline=None)
    @given(st.one_of(st.integers(2 ** 63, 2 ** 64), st.integers(2 ** 79, 2 ** 80)))
    def test_matches_sympy_on_64_and_80_bits(self, n):
        assert is_prime(n) == sympy.isprime(n)
        assert is_prime(sympy.nextprime(n))
        half = n.bit_length() // 2
        assert not is_prime(sympy.nextprime(n >> half) * sympy.nextprime(n % 2 ** half))

    @pytest.mark.parametrize("n", [
        2047, 1373653, 25326001, 3215031751, 2152302898747, 3474749660383,
        341550071728321, 3825123056546413051,
        318665857834031151167461,   # strong pseudoprime to the first 12 prime bases
    ])
    def test_strong_pseudoprimes(self, n):
        assert not sympy.isprime(n)
        assert not is_prime(n)

    def test_matches_sympy_at_fixed_values(self):
        for n in (5, 41, 43, 10 ** 9 + 7, 2 ** 61 - 1, 2 ** 79 - 67, 2 ** 81 - 1,
                  sympy.prevprime(MILLER_RABIN_LIMIT)):
            assert is_prime(n) == sympy.isprime(n)

    def test_refuses_undecided_sizes(self):
        # the limit itself is a strong pseudoprime to all 13 bases
        for n in (MILLER_RABIN_LIMIT, sympy.nextprime(MILLER_RABIN_LIMIT), 2 ** 89 - 1):
            with pytest.raises(ValueError, match="not decided"):
                is_prime(n)
            with pytest.raises(ValueError):
                PrimeField(n)
        assert not is_prime(2 ** 100)   # a small factor still decides


def _from_roots(roots, lead, extra=(1,)):
    """Ascending coefficients of lead * prod(x - r) * extra."""
    cs = [lead]
    for r in roots:
        cs = [0] + cs
        for i in range(len(cs) - 1):
            cs[i] -= r * cs[i + 1]
    out = [0] * (len(cs) + len(extra) - 1)
    for i, a in enumerate(cs):
        for j, b in enumerate(extra):
            out[i + j] += a * b
    return out


@st.composite
def _polys(draw, coeff, root, lead):
    """Degree-2 or degree-3 polynomials: random coefficients, products of
    chosen roots (often repeated or zero), or one chosen root times a random
    quadratic."""
    deg = draw(st.sampled_from([2, 3]))
    kind = draw(st.sampled_from(["random", "roots", "mixed"]))
    if kind == "random":
        return [draw(coeff) for _ in range(deg)] + [draw(lead)]
    if kind == "roots":
        pool = [0, draw(root), draw(root)]
        return _from_roots(draw(st.lists(st.sampled_from(pool), min_size=deg, max_size=deg)),
                           draw(lead))
    extra = [draw(coeff), draw(coeff), draw(lead)]
    return _from_roots([draw(root)] if deg == 3 else [], draw(lead), extra)


def _prime_polys(q):
    nonzero = st.integers(-10 ** 6, 10 ** 6).filter(lambda v: v % q)
    return _polys(st.integers(-10 ** 6, 10 ** 6), st.integers(0, q - 1), nonzero)


def _rational_polys(height, max_den):
    frac = st.fractions(min_value=-height, max_value=height, max_denominator=max_den)
    return _polys(frac, frac, frac.filter(bool))


SMALL_PRIMES = [q for q in range(5, 200) if _trial_division(q)]


@pytest.mark.parametrize("q", SMALL_PRIMES)
@settings(max_examples=25, deadline=None)
@given(st.data())
def test_prime_roots_match_exhaustive_search(q, data):
    F = PrimeField(q)
    cs = data.draw(_prime_polys(q))
    assert F.roots(cs) == reference_roots(F, cs)


def test_square_roots_mod_every_prime_below_3000():
    """For every prime 5 <= q < 3000 and every residue a, ``_sqrt_mod``
    gives a square root of a exactly when a is a square mod q (every
    class of discriminants of the quadratics)."""
    for q in primes(5, 3000):
        squares = {s * s % q for s in range(q)}
        for a in range(q):
            s = _sqrt_mod(a, q)
            assert (s is not None) == (a in squares), (q, a)
            assert s is None or (0 <= s < q and s * s % q == a), (q, a)


def test_quadratic_roots_match_the_gcd_path_below_3000():
    """Quadratic roots from one square root of the discriminant equal the
    roots of gcd(f, x^q - x): every monic quadratic for q < 60, and per
    prime up to 3000 ten seeded quadratics (any leading coefficient) and
    one with a double root, which is listed once."""
    rng = random.Random(3000)
    for q in primes(5, 3000):
        F = PrimeField(q)
        polys = [[rng.randrange(q), rng.randrange(q), rng.randrange(1, q)] for _ in range(10)]
        r = rng.randrange(q)
        polys.append([r * r % q, -2 * r % q, 1])
        if q < 60:
            polys += [[c, b, 1] for b in range(q) for c in range(q)]
        for cs in polys:
            monic = [c * pow(cs[2], -1, q) % q for c in cs]
            assert [v.value for v in F.roots(cs)] == _gcd_roots(monic, q), (q, cs)
        assert F.roots(polys[10]) == [Fp(r, q)]


@settings(max_examples=200, deadline=None)
@given(st.sampled_from([10007, 49999, 65537, 99991, 998244353, 10 ** 9 + 7, 2 ** 61 - 1]),
       st.data())
def test_quadratic_roots_at_large_primes(q, data):
    """Over large primes, q = 1 mod 4 with up to 2^23 | q - 1 among them:
    a product of two linear factors has exactly its roots, sorted, and any
    quadratic has the roots of the gcd path."""
    F = PrimeField(q)
    r, s, lead = (data.draw(st.integers(0, q - 1)), data.draw(st.integers(0, q - 1)),
                  data.draw(st.integers(1, q - 1)))
    split = [lead * r * s % q, -lead * (r + s) % q, lead]
    assert [v.value for v in F.roots(split)] == sorted({r, s})
    b, c = data.draw(st.integers(0, q - 1)), data.draw(st.integers(0, q - 1))
    assert [v.value for v in F.roots([c, b, 1])] == _gcd_roots([c, b, 1], q)


@settings(max_examples=150, deadline=None)
@given(_rational_polys(30, 6))
def test_rational_roots_match_trial_division(cs):
    assert Q.roots(cs) == reference_roots(Q, cs)


x = symbols("x")


def _sympy_roots_mod(cs, q):
    _, factors = Poly(list(reversed(cs)), x, modulus=q).factor_list()
    return sorted(-int(f.all_coeffs()[1]) % q for f, _ in factors if f.degree() == 1)


@pytest.mark.parametrize("q", [10 ** 9 + 7, 2 ** 61 - 1])
@settings(max_examples=60, deadline=None)
@given(st.data())
def test_prime_roots_match_sympy_at_large_primes(q, data):
    cs = data.draw(_prime_polys(q))
    assert [r.value for r in PrimeField(q).roots(cs)] == _sympy_roots_mod(cs, q)


@settings(max_examples=200, deadline=None)
@given(st.sampled_from([10 ** 3, 10 ** 10, 10 ** 30]).flatmap(
    lambda h: _rational_polys(h, h)))
def test_rational_roots_match_sympy_at_large_heights(cs):
    want = sorted(Fraction(int(r.p), int(r.q))
                  for r in Poly(list(reversed(cs)), x, domain=QQ).ground_roots())
    assert Q.roots(cs) == want


@pytest.mark.parametrize("roots,lead", [
    ([Fraction(10 ** 30 + 1, 7), Fraction(10 ** 30 + 1, 7), Fraction(-3, 10 ** 29)], 5),
    ([Fraction(-2, 3), Fraction(5, 11), Fraction(10 ** 30, 10 ** 30 - 1)], Fraction(-9, 4)),
    ([Fraction(0), Fraction(0), Fraction(10 ** 30 - 1, 10 ** 15)], Fraction(1, 10 ** 30)),
    ([Fraction(-1, 2), Fraction(-1, 2), Fraction(-1, 2)], 8),
])
def test_rational_cubics_with_known_roots(roots, lead):
    assert Q.roots(_from_roots(roots, lead)) == sorted(set(roots))


def test_rational_cubics_with_close_roots():
    # roots near the critical points, where the monotone pieces meet
    pts = [Fraction(v, 2) for v in range(-5, 6)]
    for i, r in enumerate(pts):
        for j, s in enumerate(pts[i:], i):
            for t in pts[j:j + 4]:
                for lead in (1, -3, Fraction(2, 5)):
                    assert Q.roots(_from_roots([r, s, t], lead)) == sorted({r, s, t})
            cs = _from_roots([r], 1, [s, 2 * t, 1])   # times x^2 + 2t x + s
            assert Q.roots(cs) == reference_roots(Q, cs)


class TestLargePrimeConstants:
    Q_1E9 = 10 ** 9 + 7   # 2 mod 3 and 3 mod 4: no epsilon, no sqrt(-1)
    Q_ALL = 1000001161    # 1 mod 12, -4 a cube: B, C and D all resolve

    def test_cases_b_c_d_at_1e9_plus_7(self):
        F = PrimeField(self.Q_1E9)
        with pytest.raises(ConstantUnavailable):
            resolve_constants("B", F)
        with pytest.raises(ConstantUnavailable):
            resolve_constants("C", F)
        d = resolve_constants("D", F, lam=-1)
        assert d["sqrt_one_minus_lambda"] ** 2 == 2
        assert d["sqrt_xi_plus"] ** 2 == d["xi_plus"]
        assert d["xi_plus"] * d["xi_minus"] == 1

    @pytest.mark.parametrize("pick", ["smallest", "largest"])
    def test_every_case_near_1e9(self, pick):
        F = PrimeField(self.Q_ALL)
        b = resolve_constants("B", F, root_pick=pick)
        assert b["epsilon"] ** 2 - b["epsilon"] + 1 == 0 and b["delta"] ** 2 == 6 * b["epsilon"] - 3
        c = resolve_constants("C", F, root_pick=pick)
        assert c["sqrt_minus_one"] ** 2 == -1 and c["cbrt_minus_four"] ** 3 == -4
        assert len(F.roots([4, 0, 0, 1])) == 3
        d = resolve_constants("D", F, lam=-1, root_pick=pick)
        assert d["sqrt_xi_plus"] ** 2 == d["xi_plus"]
        first = 0 if pick == "smallest" else -1
        assert b["epsilon"] == F.roots([1, -1, 1])[first]
        assert c["cbrt_minus_four"] == F.roots([4, 0, 0, 1])[first]
