import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from reference import as_elements, reference_power, reference_product, reference_reduce
from wpline import (CoordinateAlgebra, Fp, PrimeField, RationalField, builtin_case,
                    builtin_group_hom)

Q = RationalField()
F7 = PrimeField(7)


@pytest.fixture(scope="module")
def s442():
    return CoordinateAlgebra((4, 4, 2), Q, [1])


@pytest.fixture(scope="module")
def s333():
    return CoordinateAlgebra((3, 3, 3), Q, [1])


@pytest.fixture(scope="module")
def s2222():
    return CoordinateAlgebra((2, 2, 2, 2), Q, [1, -1])


class TestConstruction:
    def test_tail_params_alone_are_refused(self):
        """The parameters are all t - 2 of them, the leading 1 included."""
        with pytest.raises(ValueError, match="expected 2 parameters for 4 weights, got 1"):
            CoordinateAlgebra((2, 2, 2, 2), Q, [-1])
        with pytest.raises(ValueError, match="expected 1 parameter for 3 weights, got 0"):
            CoordinateAlgebra((4, 4, 2), Q, [])

    def test_first_param_must_be_one(self):
        with pytest.raises(ValueError):
            CoordinateAlgebra((3, 3, 3), Q, [2])

    def test_params_avoid_zero_one(self):
        for bad in (0, 1):
            with pytest.raises(ValueError):
                CoordinateAlgebra((2, 2, 2, 2), Q, [1, bad])

    def test_params_distinct(self):
        with pytest.raises(ValueError):
            CoordinateAlgebra((2, 2, 2, 2, 2), Q, [1, 5, 5])

    def test_param_count(self):
        with pytest.raises(ValueError):
            CoordinateAlgebra((3, 3, 3), Q, [1, 2])

    def test_length_two_weights_take_no_params(self):
        alg = CoordinateAlgebra((2, 2), Q)
        assert alg.params == ()

    def test_repr(self, s2222):
        assert repr(s2222) == "S(2,2,2,2;-1)"


class TestReduce:
    def test_squared_extra_generator(self, s442):
        z1, z2, z3 = s442.gens
        assert str(z3 * z3) == "z2^4 - z1^4"

    def test_cubed_extra_generator(self, s333):
        y1, y2, y3 = s333.gens
        assert y3 ** 3 == y2 ** 3 - y1 ** 3

    def test_canonical_monomial_is_fixed(self, s442):
        e = s442.reduce_monomial((5, 2, 1), Fraction(3, 2))
        assert e.terms == {(5, 2, 1): Fraction(3, 2)}

    def test_exponent_validation(self, s442):
        with pytest.raises(ValueError):
            s442.reduce_monomial((1, 2))
        with pytest.raises(ValueError):
            s442.reduce_monomial((-1, 0, 0))

    def test_redex_choice_is_irrelevant(self):
        alg = CoordinateAlgebra((2, 2, 2, 2), F7, [1, 2])
        exps, c = (1, 2, 5, 7), F7(3)
        first = reference_reduce(alg, {exps: c}, redex="first")
        last = reference_reduce(alg, {exps: c}, redex="last")
        rng = random.Random(11)
        shuffled = reference_reduce(alg, {exps: c}, redex=rng.choice)
        assert first == last == shuffled == alg.reduce_monomial(exps, 3).terms


class TestMultiply:
    def test_sextic_identity_of_four_point_type(self):
        eps = F7(3)
        delta = F7(1)
        alg = CoordinateAlgebra((2, 2, 2, 2), F7, [1, eps])
        x1, x2, x3, x4 = alg.gens
        lhs = x4 ** 6
        rhs = (x2 ** 2 + (eps - 1) * x1 ** 2) ** 3 - (delta * (x1 * x2 * x3)) ** 2
        assert lhs == rhs

    def test_sextic_identity_of_three_point_type(self, s333):
        y1, y2, y3 = s333.gens
        assert y3 ** 6 == (y1 ** 3 + y2 ** 3) ** 2 - 4 * (y1 * y2) ** 3

    def test_one_is_neutral(self, s442):
        z1, z2, z3 = s442.gens
        a = z1 * z2 + 2 * z3
        assert s442.one * a == a

    def test_cross_algebra_rejected(self, s442, s333):
        with pytest.raises(ValueError):
            s442.one * s333.one

    def test_commutative_associative_random(self):
        rng = random.Random(99)
        alg = CoordinateAlgebra((6, 3, 2), F7, [1])
        for _ in range(60):
            ms = [alg.reduce_monomial(tuple(rng.randrange(0, 2 * p) for p in (6, 3, 2)),
                               rng.randint(1, 6)) for _ in range(3)]
            a, b, c = ms
            assert a * b == b * a
            assert (a * b) * c == a * (b * c)


class TestGrading:
    def test_homogeneous_sum(self, s333):
        y1, y2, y3 = s333.gens
        d = (y1 ** 3 + y2 ** 3).degree()
        assert d == s333.weights.canonical()

    def test_monomial_degree(self):
        alg = CoordinateAlgebra((2, 2, 2, 2), F7, [1, 3])
        x1, x2, x3, x4 = alg.gens
        assert (x1 * x2 * x3).degree() == alg.weights.normalize(0, (1, 1, 1, 0))

    def test_inhomogeneous_has_no_degree(self, s2222):
        x1, x2 = s2222.gens[0], s2222.gens[1]
        assert (x1 + x2).degree() is None

    def test_zero_degree_raises(self, s2222):
        with pytest.raises(ValueError):
            s2222.zero.degree()

    def test_degree_multiplicative_on_random_pairs(self, s2222):
        rng = random.Random(4)
        L = s2222.weights
        for _ in range(80):
            xs = []
            elems = []
            for _ in range(2):
                x = L.normalize(rng.randint(0, 3), tuple(rng.randrange(2) for _ in range(4)))
                basis = s2222.component_basis(x)
                elem = s2222.zero
                for e in basis:
                    elem = elem + s2222.reduce_monomial(e, rng.randint(0, 3))
                if elem.is_zero():
                    elem = s2222.reduce_monomial(basis[0])
                xs.append(x)
                elems.append(elem)
            prod = elems[0] * elems[1]
            if not prod.is_zero():
                assert prod.degree() == xs[0] + xs[1]


class TestComponents:
    def test_canonical_degree_basis(self, s2222):
        c = s2222.weights.canonical()
        assert s2222.component_basis(c) == ((0, 2, 0, 0), (2, 0, 0, 0))

    def test_dualizing_component_empty(self, s2222):
        w = s2222.weights.dualizing_element()
        assert s2222.component_basis(w) == ()
        assert s2222.dim(w) == 0

    def test_torsion_degree_single_monomial(self, s333):
        x = s333.weights.normalize(0, (1, 1, 0))
        assert s333.component_basis(x) == ((1, 1, 0),)

    def test_brute_force_examples(self, s2222, s442):
        assert s2222.brute_force_dim(s2222.weights.canonical()) == 2
        assert s2222.brute_force_dim(s2222.weights.dualizing_element()) == 0
        s632 = CoordinateAlgebra((6, 3, 2), Q, [1])
        assert s632.brute_force_dim(s632.weights.canonical()) == 2

    def test_dim_formula_small_window(self, s2222, s333, s442):
        s632 = CoordinateAlgebra((6, 3, 2), Q, [1])
        for alg in (s2222, s333, s442, s632):
            L = alg.weights
            for l in range(-4, 5):
                for tor in L.torsion_tuples():
                    x = L.normalize(l, tor)
                    assert len(alg.component_basis(x)) == x.mult() == alg.brute_force_dim(x)

    def test_restriction_subalgebra_closure(self, s2222):
        # products of components with degrees in the image land in the
        # component of the sum, so the restriction subalgebra is closed
        h = builtin_group_hom("A")
        degrees = [x for x in sorted(as_elements(h, h.window_fibers(3)),
                                     key=lambda e: (e.l, e.torsion)) if x.mult() > 0]
        for x in degrees[:6]:
            for y in degrees[:6]:
                target = set(s2222.component_basis(x + y))
                for ex in s2222.component_basis(x):
                    for ey in s2222.component_basis(y):
                        prod = s2222.reduce_monomial(ex) * s2222.reduce_monomial(ey)
                        assert set(prod.terms) <= target

    def test_wrong_group_rejected(self, s2222, s333):
        with pytest.raises(ValueError):
            s2222.component_basis(s333.weights.zero())
        with pytest.raises(ValueError):
            s2222.brute_force_dim(s333.weights.zero())


class TestSerialization:
    def test_term_order_and_signs(self, s442):
        z1, z2, z3 = s442.gens
        assert str(z3 * z3) == "z2^4 - z1^4"
        assert str(s442.zero) == "0"
        assert str(s442.one) == "1"
        assert str(2 * z1) == "2*z1"

    def test_prime_coefficients_stay_canonical(self):
        alg = CoordinateAlgebra((3, 3, 3), F7, [1])
        y1, y2, y3 = alg.gens
        assert str(y3 ** 3) == "y2^3 + 6*y1^3"

    def test_letters_by_type(self, s2222, s333, s442):
        assert str(s2222.gens[0]) == "x1"
        assert str(s333.gens[0]) == "y1"
        assert str(s442.gens[0]) == "z1"
        s632 = CoordinateAlgebra((6, 3, 2), Q, [1])
        assert str(s632.gens[2]) == "u3"


#: the four tubular types, (2,3) and five weights, over Q and F_7
ORACLE_ALGEBRAS = [
    CoordinateAlgebra((2, 2, 2, 2), Q, [1, Fraction(-3, 5)]),
    CoordinateAlgebra((3, 3, 3), Q, [1]),
    CoordinateAlgebra((4, 4, 2), Q, [1]),
    CoordinateAlgebra((6, 3, 2), Q, [1]),
    CoordinateAlgebra((2, 3), Q),
    CoordinateAlgebra((2, 2, 2, 2, 2), Q, [1, -1, Fraction(1, 2)]),
    CoordinateAlgebra((2, 2, 2, 2), F7, [1, 3]),
    CoordinateAlgebra((3, 3, 3), F7, [1]),
    CoordinateAlgebra((4, 4, 2), F7, [1]),
    CoordinateAlgebra((6, 3, 2), F7, [1]),
    CoordinateAlgebra((2, 3), F7),
    CoordinateAlgebra((2, 2, 2, 2, 2), F7, [1, 2, 3]),
]
COEFFS = st.fractions(min_value=-6, max_value=6, max_denominator=6)


def _random_terms(data, alg):
    """Up to four (coeff, exponent vector) pairs, exponents below 3 p_i, so
    every generator can carry; denominators are invertible mod 7."""
    exps = st.tuples(*[st.integers(0, 3 * p - 1) for p in alg.weights.weights])
    return data.draw(st.lists(st.tuples(COEFFS, exps), max_size=4))


def _oracle(alg, terms):
    raw = {}
    for c, e in terms:
        raw[e] = raw.get(e, alg.field.zero) + alg.field(c)
    return reference_reduce(alg, raw)


def _combine(alg, a, b, sign=1):
    out = dict(a)
    for e, c in b.items():
        out[e] = out.get(e, alg.field.zero) + sign * c
    return {e: c for e, c in out.items() if c != alg.field.zero}


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_arithmetic_matches_the_rewriting_oracle(data):
    """Elements on binary forms give the terms of the rewriting system on
    random (mostly inhomogeneous) elements: construction, degree, sum,
    difference, product, power and scalar multiple."""
    alg = data.draw(st.sampled_from(ORACLE_ALGEBRAS), label="algebra")
    ta, tb = _random_terms(data, alg), _random_terms(data, alg)
    a, b = alg.element(ta), alg.element(tb)
    ra, rb = _oracle(alg, ta), _oracle(alg, tb)
    assert a.terms == ra and b.terms == rb
    degrees = {alg.weights.normalize(0, e) for e in ra}
    if ra:
        assert a.degree() == (degrees.pop() if len(degrees) == 1 else None)
    assert (a + b).terms == _combine(alg, ra, rb)
    assert (a - b).terms == _combine(alg, ra, rb, -1)
    assert (a * b).terms == reference_product(alg, ra, rb)
    n = data.draw(st.integers(0, 3), label="power")
    assert (a ** n).terms == reference_power(alg, ra, n)
    c = alg.field(data.draw(COEFFS, label="scalar"))
    assert (c * a).terms == (a * c).terms == {e: c * v for e, v in ra.items() if c * v != 0}


def test_products_over_a_prime_field_leave_residue_arithmetic_out(monkeypatch):
    """Over F_q a product multiplies the residues' int values (one Kronecker
    product per pair of forms, carried mod q) and keeps them as ints, so
    with every ``*`` and ``+`` of ``Fp`` raising, products
    and powers still run and equal the elements of the rewriting oracle's
    terms.  The elements span several degrees, so their products collide in
    a degree, and (x1 + x2)(x1 - x2) cancels its form at x1 x2."""
    rng = random.Random(7)
    pairs = []
    for alg in ORACLE_ALGEBRAS:
        if alg.field == F7:
            ws = alg.weights.weights
            pairs.append([alg.element([(rng.randint(1, 6), [rng.randrange(3 * p) for p in ws])
                                       for _ in range(4)]) for _ in range(2)])
    x1, x2 = CoordinateAlgebra((2, 3), F7).gens
    pairs.append([x1 + x2, x1 - x2])
    element = lambda alg, terms: alg.element([(c, e) for e, c in terms.items()])
    want = [(element(a.algebra, reference_product(a.algebra, a.terms, b.terms)),
             element(a.algebra, reference_power(a.algebra, a.terms, 5))) for a, b in pairs]

    def refuse(*args):
        raise AssertionError("an element product used Fp arithmetic")

    for name in ("__mul__", "__rmul__", "__add__", "__radd__"):
        monkeypatch.setattr(Fp, name, refuse)
    got = [(a * b, a ** 5) for a, b in pairs]
    monkeypatch.undo()
    assert got == want


def test_building_over_a_prime_field_leaves_residue_arithmetic_out(monkeypatch):
    """Over F_q an element is built on the coefficients' int values (each
    monomial scaled once and carried mod q) and kept as ints, so
    with every ``*``, ``/``, ``+`` and ``-`` of ``Fp`` raising, elements and
    reduced monomials still build and give the rewriting oracle's terms.
    Exponents reach three times each weight, so every generator carries,
    and repeated monomials collide in a form.  Each monomial is one carry,
    with no product of forms: ``_times`` raises too."""
    from wpline import algebra
    rng = random.Random(11)
    cases = []
    for alg in ORACLE_ALGEBRAS:
        if alg.field == F7:
            ws = alg.weights.weights
            terms = [(rng.choice([1, 3, -2, Fraction(2, 3)]),
                      tuple(rng.randrange(3 * p) for p in ws)) for _ in range(5)]
            terms += [(rng.randint(1, 6), terms[0][1])]
            cases.append((alg, terms, (Fraction(-1, 5), tuple(2 * p + 1 for p in ws))))
    want = [(_oracle(alg, terms), _oracle(alg, [mono])) for alg, terms, mono in cases]

    def refuse(*args):
        raise AssertionError("building an element used Fp arithmetic")

    for name in ("__mul__", "__rmul__", "__truediv__", "__rtruediv__", "__add__", "__radd__",
                 "__sub__", "__rsub__"):
        monkeypatch.setattr(Fp, name, refuse)
    monkeypatch.setattr(algebra, "_times", refuse)
    got = [(alg.element(terms), alg.reduce_monomial(mono[1], mono[0]))
           for alg, terms, mono in cases]
    monkeypatch.undo()
    assert [(a.terms, b.terms) for a, b in got] == want
    assert all(a.ints and b.ints for a, b in got)


# -- products on integer forms -------------------------------------------------

BIG = PrimeField(2 ** 61 - 1)
#: parameters of height up to about 2^60, none of them 0 or 1
LAMS = st.fractions(min_value=-2 ** 30, max_value=2 ** 30, max_denominator=2 ** 30).filter(
    lambda v: v not in (0, 1))


@st.composite
def int_form_algebras(draw):
    """(2,2,2,2), (2,2,2,2,2), (3,3,3) or (6,3,2) over F_7, 2^61 - 1 or Q,
    the free parameters drawn up to height 2^60 (small over F_7)."""
    field = draw(st.sampled_from([F7, BIG, Q]), label="field")
    ws = draw(st.sampled_from([(2, 2, 2, 2), (2, 2, 2, 2, 2), (3, 3, 3), (6, 3, 2)]),
              label="weights")
    lams = draw(st.lists(LAMS if field != F7 else st.sampled_from([2, 3, 4, 5, 6]),
                         min_size=len(ws) - 3, max_size=len(ws) - 3, unique=True),
                label="lambdas")
    try:
        return CoordinateAlgebra(ws, field, [1, *lams])
    except (ValueError, ZeroDivisionError):  # parameters that meet 0, 1 or each other
        return CoordinateAlgebra(ws, field, [1, *range(2, len(ws) - 1)])


def _int_form_terms(data, alg, size):
    """Up to ``size`` (coeff, exponent vector) pairs with exponents below
    2 p_i: zero, a monomial, or an inhomogeneous sum, coefficients of height
    up to 2^40."""
    coeffs = st.fractions(min_value=-2 ** 20, max_value=2 ** 20, max_denominator=2 ** 20)
    if alg.field == F7:
        coeffs = st.integers(-3, 3)
    exps = st.tuples(*[st.integers(0, 2 * p - 1) for p in alg.weights.weights])
    return data.draw(st.lists(st.tuples(coeffs, exps), max_size=size))


@settings(max_examples=60, deadline=None)
@given(int_form_algebras(), st.data())
def test_int_form_arithmetic_matches_the_rewriting_oracle(alg, data):
    """``element``, ``__mul__`` and ``__pow__`` on integer forms give the
    rewriting oracle's terms, over F_7, a large prime and Q with parameters
    of height up to 2^60, on the zero element and inhomogeneous elements,
    with exponents 0 to 9 (on at most two terms)."""
    ta, tb = _int_form_terms(data, alg, 3), _int_form_terms(data, alg, 3)
    a, b = alg.element(ta), alg.element(tb)
    ra, rb = _oracle(alg, ta), _oracle(alg, tb)
    assert a.terms == ra and b.terms == rb
    assert (a * b).terms == reference_product(alg, ra, rb)
    tc = _int_form_terms(data, alg, 2)
    c, n = alg.element(tc), data.draw(st.integers(0, 9), label="power")
    assert (c ** n).terms == reference_power(alg, _oracle(alg, tc), n)
    assert (alg.zero ** n).terms == ({} if n else {(0,) * len(alg.weights): alg.field.one})


def test_int_form_arithmetic_over_q_leaves_fraction_arithmetic_out(monkeypatch):
    """Over Q, ``element``, ``__mul__`` and ``__pow__`` run on integer forms
    with a scale and make each coefficient a ``Fraction`` once, by
    construction: with every arithmetic operator of ``Fraction`` raising,
    they still give the rewriting oracle's terms.  The parameters carry
    denominators, and the elements span several degrees.  The elements are
    built with no product of forms: ``_times`` raises while they are."""
    from wpline import algebra
    rng = random.Random(13)
    cases = []
    for alg in ORACLE_ALGEBRAS + [CoordinateAlgebra((2, 2, 2, 2, 2), Q,
                                                    [1, Fraction(-7, 3), Fraction(5, 11)])]:
        if alg.field == Q:
            ws = alg.weights.weights
            terms = [[(Fraction(rng.randint(-9, 9), rng.randint(1, 9)),
                       tuple(rng.randrange(3 * p) for p in ws)) for _ in range(3)]
                     for _ in range(2)]
            cases.append((alg, terms))
    want = [(_oracle(alg, ta), _oracle(alg, tb),
             reference_product(alg, _oracle(alg, ta), _oracle(alg, tb)),
             reference_power(alg, _oracle(alg, ta), 5)) for alg, (ta, tb) in cases]

    def refuse(*args):
        raise AssertionError("integer-form arithmetic used Fraction arithmetic")

    for name in ("__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__",
                 "__truediv__", "__rtruediv__", "__floordiv__", "__mod__", "__pow__",
                 "__rpow__", "__neg__", "__abs__"):
        monkeypatch.setattr(Fraction, name, refuse)
    times = algebra._times
    monkeypatch.setattr(algebra, "_times", refuse)
    built = [(alg.element(ta), alg.element(tb)) for alg, (ta, tb) in cases]
    monkeypatch.setattr(algebra, "_times", times)
    got = [(a, b, a * b, a ** 5) for a, b in built]
    monkeypatch.undo()
    assert [tuple(e.terms for e in row) for row in got] == want


@pytest.mark.parametrize("field", [Q, F7, BIG], ids=["Q", "F7", "F_2^61-1"])
@pytest.mark.parametrize("n", [1, 2, 3, 5, 8, 13, 64, 100])
def test_powers_take_square_and_multiply_products(monkeypatch, field, n):
    """x^n of a homogeneous x is floor(log2 n) + popcount(n) - 1 products
    of forms, each one ``_poly_mul``: from x itself, with no product by 1."""
    from wpline import algebra
    alg = CoordinateAlgebra((2, 2, 2, 2), field, [1, 3])
    x = alg.element([(2, (3, 0, 1, 0)), (-1, (1, 2, 1, 0))])
    assert x.degree() is not None
    want = alg.element([(c, e) for e, c in reference_power(alg, x.terms, n).items()])
    calls = []
    mul = algebra._poly_mul
    monkeypatch.setattr(algebra, "_poly_mul", lambda *args: calls.append(1) or mul(*args))
    assert x ** n == want
    assert len(calls) == n.bit_length() - 1 + bin(n).count("1") - 1


def _value_forms(e) -> dict:
    """The element's value read from its terms, as (torsion, l) -> the l + 1
    coefficients of U^a V^(l-a)."""
    alg = e.algebra
    p1, p2 = alg.weights.weights[:2]
    out = {}
    for exps, c in e.terms.items():
        a, b = divmod(exps[0], p1), divmod(exps[1], p2)
        key = ((a[1], b[1]) + exps[2:], a[0] + b[0])
        out.setdefault(key, [alg.field.zero] * (key[1] + 1))[a[0]] = c
    return out


@pytest.mark.parametrize("field", [Q, F7, BIG], ids=["Q", "F7", "F_2^61-1"])
def test_elements_are_int_forms_in_lowest_terms(field):
    """Each form of an element is (ints, scale): the scale is the lcm of its
    coefficients' denominators and the ints are the coefficients times it,
    so over F_q ints in [0, q) and scale 1, over Q a positive scale prime
    to the ints.  So elements of equal value, made by different routes,
    are equal."""
    alg = CoordinateAlgebra((2, 2, 2, 2), field, [1, 3])
    x = alg.element([(2, (3, 0, 1, 0)), (-1, (1, 2, 1, 0)), (5, (0, 4, 0, 1))])
    y = alg.element([(Fraction(1, 3) if field == Q else 4, (0, 1, 3, 0)),
                     (Fraction(-5, 6), (2, 1, 1, 0))])
    z = alg.element([(Fraction(4, 9), (1, 1, 0, 1)), (Fraction(2, 3), (3, 1, 0, 1))])
    two_thirds = Fraction(2, 3)
    made = (x, y, z, x * y, y * z, x ** 3, z ** 4, y ** 2 * x, x + y, y - z, x - y, -y, -z,
            3 * x, z * 6, x * two_thirds, two_thirds * y, Fraction(-9, 4) * z, z + z,
            y * Fraction(3, 5))
    for e in made:
        forms = _value_forms(e)
        assert forms and set(forms) == set(e.ints)
        for key, (ints, scale) in e.ints.items():
            den = math.lcm(*[c.denominator for c in forms[key]])
            assert scale == den and ints == [(c * den).numerator for c in forms[key]], key
            if isinstance(field, PrimeField):
                assert scale == 1 and all(0 <= c < field.q for c in ints)
            else:
                assert scale > 0 and math.gcd(scale, *ints) == 1
    assert (x * two_thirds) * Fraction(3, 2) == x and two_thirds * (Fraction(3, 2) * z) == z
    assert (x + y) - y == x and (y - z) + z == y and -(-z) == z
    assert z * 6 == z + z + z + z + z + z and (z + z).ints == (2 * z).ints
    assert x * y == y * x and z ** 4 == (z * z) * (z * z) and y ** 2 * x == y * (x * y)
    assert (x - x).is_zero() and (z - z) == alg.zero and (z * 0) == alg.zero
    assert 9 * z == alg.element([(4, (1, 1, 0, 1)), (6, (3, 1, 0, 1))])


#: the cases on F_7 and Q where their constants exist; C has no root of -1 in
#: either, so it runs on F_5
GUARD_CASES = [("A", Q), ("A", F7), ("B", F7), ("C", PrimeField(5)), ("D", Q), ("D", F7)]


def test_arithmetic_and_verification_make_no_coefficient_objects(monkeypatch):
    """Elements are int forms: with ``Fp`` and ``Fraction`` of the algebra
    module raising, element arithmetic over F_7 and Q, the built-in cases'
    algebra maps and their windows of 8 still run, to the same elements and
    reports.  Only ``terms`` and the text of an element make them."""
    from wpline import algebra

    def run():
        out = []
        for field in (F7, Q):
            alg = CoordinateAlgebra((2, 2, 2, 2), field, [1, 3])
            x = alg.element([(2, (3, 0, 1, 0)), (Fraction(-1, 2), (1, 2, 1, 0))])
            y = alg.reduce_monomial((0, 1, 3, 0), Fraction(5, 3))
            out.append([x * y, x ** 4, x + y, x - y, -x, Fraction(3, 4) * y, y * 2,
                        (x + y) * (x - y) == x * x - y * y, alg.gens, alg.one + alg.zero])
        for cid, field in GUARD_CASES:
            spec = builtin_case(cid, field, lam=-3 if cid == "D" else None)
            out.append(spec.algebra_hom.verify_window(8).to_report(cid))
        return out

    want = run()

    def refuse(*args, **kwargs):
        raise AssertionError("an element made a coefficient object")

    monkeypatch.setattr(algebra, "Fp", refuse)
    monkeypatch.setattr(algebra, "Fraction", refuse)
    assert run() == want
    with pytest.raises(AssertionError, match="coefficient object"):
        CoordinateAlgebra((2, 3), F7).gens[0].terms
