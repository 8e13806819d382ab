"""The binary-form kernel against independent oracles.

Degree records are compared with the sparse-rewriting reference path in
``reference.py``; ranks and products of binary forms are compared with
sympy, which the tests use as an oracle and the package never imports.
"""

import copy
import hashlib
import math
from fractions import Fraction

import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st
from sympy import Poly, symbols
from sympy.polys.domains import GF, QQ, ZZ
from sympy.polys.matrices import DomainMatrix

from maps import non_admissible_map
from reference import (monomial_image, reference_rank_mod, reference_record, reference_records,
                       reference_report, reference_rows, unreduced_bound)
from wpline import (AlgebraElement, AlgebraHom, CoordinateAlgebra, GradednessError, GroupElement,
                    GroupHom,
                    PrimeField, RationalField, builtin_case, builtin_group_hom,
                    homverify, row_rank)
from wpline import algebra, cli
from wpline import field as field_module
from wpline.field import (KRONECKER_MIN, SCHOOLBOOK_MAX, ConstantUnavailable, InvalidLambda,
                          _poly_mul, _signed_kronecker, _slot_bits, schoolbook)
from wpline.homverify import sylvester_rank

Q = RationalField()
P = AlgebraHom.RANK_PRIME
#: fields on which each built-in case resolves: Q where it can, and three primes
CASE_FIELDS = {
    "A": (Q, PrimeField(5), PrimeField(7), PrimeField(11)),
    "B": (PrimeField(7), PrimeField(19), PrimeField(31)),
    "C": (PrimeField(5), PrimeField(17), PrimeField(29)),
    "D": (Q, PrimeField(7), PrimeField(17), PrimeField(23)),
}
RANDOM_FIELDS = (Q, PrimeField(5), PrimeField(7), PrimeField(13))
SLOW = settings(max_examples=30, deadline=None,
                suppress_health_check=[HealthCheck.filter_too_much, HealthCheck.too_slow])


def records(hom, window):
    return [r.as_dict() for r in hom.verify_window(window).records]


def outcome(fn, *args):
    """The value of fn(*args), or the name and message of the error it
    raised (the message names the first record that meets it)."""
    try:
        return fn(*args)
    except GradednessError as exc:
        return type(exc).__name__, str(exc)


# -- degree records against the reference path --------------------------------

@pytest.mark.parametrize("cid,field", [("A", Q), ("B", PrimeField(7)), ("D", Q)])
def test_reference_records_use_no_element_arithmetic(monkeypatch, cid, field):
    """The reference path multiplies sparse terms with its own rewriting, so
    it still gives the verifier's records while every arithmetic operator
    of ``AlgebraElement`` raises."""
    hom = builtin_case(cid, field, lam=-3 if cid == "D" else None).algebra_hom
    want = records(hom, 6)

    def refuse(*args):
        raise AssertionError("the reference path used AlgebraElement arithmetic")

    for name in ("__add__", "__sub__", "__neg__", "__mul__", "__rmul__", "__pow__"):
        monkeypatch.setattr(AlgebraElement, name, refuse)
    assert reference_records(hom, 6) == want


# -- heads against the reference images ------------------------------------------

def _head_of(hom, r):
    """h_r by the memoised neighbour walk."""
    return hom._head(r)


def _head_terms(hom, form, field):
    """A form (torsion, level, coeffs), or None for zero, as the terms
    {exponent vector: coefficient in ``field``} of the target element."""
    if form is None:
        return {}
    tor, l, coeffs = form
    p1, p2 = hom.target.weights.weights[:2]
    return {(a * p1 + tor[0], (l - a) * p2 + tor[1]) + tor[2:]: c
            for a, c in enumerate(map(field, coeffs)) if c}


@pytest.mark.parametrize("cid", ["A", "B", "C", "D"])
def test_heads_match_the_reference_images(cid):
    """The head h_r of every source residue r, one product of a
    neighbour's head and a generator image, is the image of x^r that
    ``monomial_image`` makes by rewriting: exactly mod an acceptance prime
    q, and over Q (the first field of B and C is a prime) as an integer
    multiple."""
    for field in CASE_FIELDS[cid][:2]:
        hom = builtin_case(cid, field, lam=-3 if cid == "D" else None).algebra_hom
        powers = {}
        for r in hom.source.weights.torsion_tuples():
            want = monomial_image(hom, r, powers)
            if isinstance(field, PrimeField):
                assert _head_terms(hom, _head_of(hom, r), field) == want, r
                continue
            exact = _head_terms(hom, _head_of(hom, r), field)
            e = next(iter(exact))
            scale = exact[e] / want[e]
            assert scale.denominator == 1 and exact == {e: scale * c for e, c in want.items()}, r


def test_heads_through_a_zero_image_are_zero():
    """Case A with phi(x_3) = 0, unchecked: a head is zero exactly when its
    residue has x_3 in it, and every head is still the reference image."""
    spec = builtin_case("A", Q)
    target = spec.algebra_hom.target
    x1, x2, _, _ = target.gens
    hom = AlgebraHom.unchecked(spec.algebra_hom.source, target, spec.group_hom,
                               [x1, x2, target.zero])
    powers = {}
    for r in hom.source.weights.torsion_tuples():
        head = _head_of(hom, r)
        assert (head is None) == (r[2] > 0), r
        assert _head_terms(hom, head, Q) == monomial_image(hom, r, powers), r


def test_a_long_walk_makes_each_head_once_without_recursion():
    """(3000, 2) -> (2, 2) over F_7 with pi(x_1) = x_1, phi(x_1) = X_1 and
    phi(x_2) = X_1^1500, unchecked: f = phi(x_1)^3000 is the head of
    x_1^3000, reached by a walk of 3000 neighbours, each made once by one
    product, far past Python's recursion limit."""
    field = PrimeField(7)
    target, source = CoordinateAlgebra((2, 2), field), CoordinateAlgebra((3000, 2), field)
    L = target.weights
    pi = GroupHom(source.weights, L, [L.parse("0;1,0"), L.parse("750;0,0")])
    x1, _ = target.gens
    hom = AlgebraHom.unchecked(source, target, pi, [x1, x1 ** 1500])
    assert hom._fg(0) == homverify._int_form(x1 ** 3000)
    assert len(hom._heads) == 3001


def _lam(cid):
    return -3 if cid == "D" else None


@pytest.mark.parametrize("cid", ["A", "B", "C", "D"])
def test_f_and_g_of_the_relation_check_are_the_heads(monkeypatch, cid):
    """Construction computes f = phi(x_1)^{q_1} and g = phi(x_2)^{q_2} for
    the relation check and keeps them as the heads of x_1^{q_1} and
    x_2^{q_2}, so the induction level takes no form product for them.
    They are the heads an unchecked map builds by products: equal over
    F_q, and over Q multiples of them (read mod RANK_PRIME)."""
    for field in CASE_FIELDS[cid][:2]:
        hom = builtin_case(cid, field, lam=_lam(cid)).algebra_hom
        fresh = AlgebraHom.unchecked(hom.source, hom.target, hom.group_hom, hom.gen_images)
        calls = []
        mul = AlgebraHom._mul
        monkeypatch.setattr(AlgebraHom, "_mul", lambda *args: calls.append(1) or mul(*args))
        m = hom._induction_level()
        assert calls == [], (cid, field)
        monkeypatch.undo()
        assert m == fresh._induction_level()
        for j in (0, 1):
            got, want = hom._fg(j), fresh._fg(j)
            assert got[:2] == want[:2]
            assert got == want if field != Q else _is_multiple(
                [v % P for v in got[2]], [v % P for v in want[2]], P)


def _is_multiple(got: list, want: list, q: int) -> bool:
    """got is a nonzero multiple of the nonzero want mod q."""
    i = next(i for i, v in enumerate(want) if v)
    ratio = got[i] * pow(want[i], -1, q) % q
    return ratio != 0 and [ratio * v % q for v in want] == got


@pytest.mark.parametrize("cid,field", [("A", PrimeField(5)), ("B", PrimeField(7)),
                                       ("C", PrimeField(5)), ("D", PrimeField(7)), ("D", Q)])
def test_rows_below_the_induction_level_are_heads(monkeypatch, cid, field):
    """At the levels 0 <= l < m every fiber pair sits at level 0, so each
    row is the head of its residue as it is, and gives the reference rows.
    The rank leaves the rows, and so the cached heads, as they were.  No
    product of building the map and of its whole ``verify_window(40)``
    packs or unpacks: its forms are short enough for schoolbook."""
    hom = builtin_case(cid, field, lam=_lam(cid)).algebra_hom
    m, q = hom._induction_level(), hom.rank_modulus
    fibers = hom.group_hom.window_fibers(m)
    got, want = [], []

    def refuse(*args):
        raise AssertionError("a form of the kernel was packed")

    monkeypatch.setattr("wpline.field._pack", refuse)
    monkeypatch.setattr("wpline.field._unpack", refuse)
    assert builtin_case(cid, field, lam=_lam(cid)).algebra_hom.verify_window(40).passed
    for l in range(m):
        shift, classes = fibers.level(l)
        for tor, pairs in classes:
            x = GroupElement(hom.target.weights, l, tor)
            fiber = tuple(GroupElement(hom.source.weights, off + shift, r) for off, r in pairs)
            assert all(y.l <= 0 for y in fiber)
            cols = len(hom.target.component_basis(x))
            rows = hom._rows(x, fiber, cols)
            heads = copy.deepcopy(hom._heads)
            assert row_rank(rows, q) == hom.check_surjective_at(x, fiber).image_rank
            assert hom._heads == heads
            got.append([[v % q for v in row] for row in rows])  # over Q read mod RANK_PRIME
            want.append([[_residue(v, q) for v in row]
                         for row in reference_rows(hom, x, fiber)])
    monkeypatch.undo()
    assert got and all(rows for rows in got)
    if field == Q:  # integer multiples of the rows, row by row
        assert all(_is_multiple(row, r, q) for rows, ref in zip(got, want)
                   for row, r in zip(rows, ref))
    else:
        assert got == want


@pytest.mark.parametrize("cid,field", [("A", Q), ("B", PrimeField(7)), ("C", PrimeField(5)),
                                       ("D", PrimeField(7))])
def test_rows_above_source_level_0_are_the_reference_rows_in_order(cid, field):
    """The rows of a source degree at level n are h_r f^a g^(n-a), a
    ascending: one product cut into rows, each the reference row (over Q
    an integer multiple of it), in the reference order, up to n = 3."""
    hom = builtin_case(cid, field, lam=_lam(cid)).algebra_hom
    m, q = hom._induction_level(), hom.rank_modulus
    fibers = hom.group_hom.window_fibers(4 * m)
    top = 0
    for l in range(4 * m):
        shift, classes = fibers.level(l)
        for tor, pairs in classes:
            x = GroupElement(hom.target.weights, l, tor)
            fiber = tuple(GroupElement(hom.source.weights, off + shift, r) for off, r in pairs)
            top = max([top] + [y.l for y in fiber])
            cols = len(hom.target.component_basis(x))
            got = hom._rows(x, fiber, cols)
            want = [[_residue(v, q) for v in row] for row in reference_rows(hom, x, fiber)]
            assert len(got) == len(want)
            if field == Q:  # read mod RANK_PRIME
                assert all(_is_multiple([v % q for v in row], r, q)
                           for row, r in zip(got, want)), x
            else:
                assert got == want, x
    assert top == 3


def _residue(v, q):
    """A coefficient of the reference path (``Fp`` or ``Fraction``) mod q."""
    if isinstance(v, Fraction):
        return v.numerator * pow(v.denominator, -1, q) % q
    return v.value


@SLOW
@given(st.data())
def test_builtin_cases_match_reference(data):
    cid = data.draw(st.sampled_from("ABCD"), label="case")
    field = data.draw(st.sampled_from(CASE_FIELDS[cid]), label="field")
    window = data.draw(st.integers(1, 12), label="window")
    pick = data.draw(st.sampled_from(("smallest", "largest")), label="root pick")
    lam = None
    if cid == "D" and isinstance(field, RationalField):
        s = data.draw(st.fractions(min_value=-50, max_value=50, max_denominator=60),
                      label="s")
        assume(s not in (0, 1, -1))
        lam = 1 - s * s
    elif cid == "D":
        lam = data.draw(st.integers(2, field.q - 1), label="lambda")
    try:
        spec = builtin_case(cid, field, lam=lam, root_pick=pick)
    except (ConstantUnavailable, InvalidLambda):
        assume(False)
    hom = spec.algebra_hom
    assert records(hom, window) == reference_records(hom, window)


def _params(data, field, count):
    """Normalized parameters (1, lam_4, ...) of a coordinate algebra."""
    out = [1]
    while len(out) < count:
        if isinstance(field, RationalField):
            lam = data.draw(st.fractions(min_value=-9, max_value=9, max_denominator=9))
        else:
            lam = data.draw(st.integers(2, field.q - 1))
        assume(lam not in out and lam != 0)
        out.append(lam)
    return out


def _random_images(data, algebra, degrees, coeff=None):
    """Random elements of the components of ``degrees``, possibly zero.  Each
    has random coefficients, or random coefficients of which chosen ones are
    zeroed, or is a scalar multiple of an earlier one of the same degree, so
    that images are sparse or dependent and records are deficient at random
    levels.  ``coeff`` draws the coefficients, by default any element of a
    prime field or small fractions."""
    if coeff is None and isinstance(algebra.field, RationalField):
        coeff = st.fractions(min_value=-6, max_value=6, max_denominator=5)
    elif coeff is None:
        coeff = st.integers(0, algebra.field.q - 1)
    images = []
    for degree in degrees:
        earlier = [im for im, d in zip(images, degrees) if d == degree]
        kind = data.draw(st.sampled_from(["random", "sparse"] + ["multiple"] * bool(earlier)),
                         label="image kind")
        if kind == "multiple":
            images.append(data.draw(coeff) * data.draw(st.sampled_from(earlier)))
            continue
        basis = algebra.component_basis(degree)
        coeffs = data.draw(st.lists(coeff, min_size=len(basis), max_size=len(basis)))
        if kind == "sparse":
            zeroed = data.draw(st.lists(st.booleans(), min_size=len(basis), max_size=len(basis)))
            coeffs = [0 if z else c for c, z in zip(coeffs, zeroed)]
        images.append(algebra.element(zip(coeffs, basis)))
    return images


def test_random_homogeneous_maps_match_reference(monkeypatch):
    """Unchecked maps with random images of the degrees the group map demands
    (sometimes zero, sparse or proportional, mostly of deficient rank) give
    the reference records and report text, and some of them are inferred by
    level induction: fewer rank calls than records."""
    calls = _rank_calls(monkeypatch)
    inferred = []

    @SLOW
    @given(st.data())
    def check(data):
        cid = data.draw(st.sampled_from("ABCD"), label="group map")
        pi = builtin_group_hom(cid)
        field = data.draw(st.sampled_from(RANDOM_FIELDS), label="field")
        source = CoordinateAlgebra(pi.source, field, _params(data, field, len(pi.source) - 2))
        target = CoordinateAlgebra(pi.target, field, _params(data, field, len(pi.target) - 2))
        hom = AlgebraHom.unchecked(source, target, pi, _random_images(data, target, pi.gen_images))
        # B's records are inferred from level 2m - 1 = 5 on, two steps by 12
        window = data.draw(st.integers(1, 12 if cid == "B" else 8), label="window")
        calls.clear()
        got = outcome(records, hom, window)
        assert got == outcome(reference_records, hom, window)
        if isinstance(got, list):
            inferred.append(len(calls) < len(got))
            result = hom.verify_window(window)
            assert result.to_report(cid, field.name) == reference_report(result, cid, field.name)

    check()
    assert any(inferred)


@SLOW
@given(st.data())
def test_random_maps_over_wide_primes_match_reference(data):
    """Over primes near 2^30 and 2^61 products of forms need slots wider
    than 64 bits, or just fit in them."""
    cid = data.draw(st.sampled_from("ABCD"), label="group map")
    pi = builtin_group_hom(cid)
    field = data.draw(st.sampled_from((PrimeField(1000001161), PrimeField(2 ** 61 - 1))),
                      label="field")
    source = CoordinateAlgebra(pi.source, field, _params(data, field, len(pi.source) - 2))
    target = CoordinateAlgebra(pi.target, field, _params(data, field, len(pi.target) - 2))
    hom = AlgebraHom.unchecked(source, target, pi, _random_images(data, target, pi.gen_images))
    window = data.draw(st.integers(1, 8), label="window")
    assert outcome(records, hom, window) == outcome(reference_records, hom, window)


@SLOW
@given(st.data())
def test_images_of_a_wrong_degree_match_reference(data):
    """A homogeneous image of another degree leaves its component in the
    same degree for both paths."""
    cid = data.draw(st.sampled_from("ABCD"), label="group map")
    pi = builtin_group_hom(cid)
    field = data.draw(st.sampled_from(RANDOM_FIELDS), label="field")
    source = CoordinateAlgebra(pi.source, field, _params(data, field, len(pi.source) - 2))
    target = CoordinateAlgebra(pi.target, field, _params(data, field, len(pi.target) - 2))
    degrees = list(pi.gen_images)
    j = data.draw(st.integers(0, len(degrees) - 1), label="generator")
    degrees[j] = degrees[j] + data.draw(st.sampled_from(target.weights.gens), label="shift")
    hom = AlgebraHom.unchecked(source, target, pi, _random_images(data, target, degrees))
    window = data.draw(st.integers(1, 6), label="window")
    assert outcome(records, hom, window) == outcome(reference_records, hom, window)


@SLOW
@given(st.data())
def test_maps_whose_row_factors_carry_match_reference(data):
    """(2,2) -> (4,4,2) with pi(x_1) = pi(x_2) = x_1, so pi(c) = 2 x_1, or
    both c + x_1, so pi(c) = 2c + 2 x_1 at level 2: the factors
    f = phi(x_1)^2 and g = phi(x_2)^2 carry torsion, and products h_r f^a g^b
    carry x_1^4 = U.  Images are random elements of that degree, sometimes
    zero, and records m levels apart are not related by f and g."""
    field = data.draw(st.sampled_from((Q, PrimeField(7))), label="field")
    source = CoordinateAlgebra((2, 2), field)
    target = CoordinateAlgebra((4, 4, 2), field, [1])
    x1 = target.weights.gens[0]
    d = data.draw(st.sampled_from([x1, x1 + target.weights.canonical()]), label="degree")
    pi = GroupHom(source.weights, target.weights, [d, d])
    hom = AlgebraHom.unchecked(source, target, pi, _random_images(data, target, [d, d]))
    window = data.draw(st.integers(1, 12), label="window")
    assert outcome(records, hom, window) == outcome(reference_records, hom, window)


# -- the same records over Q and mod good primes -----------------------------------

#: primes at which case A resolves and its integer maps are read mod p
GOOD_PRIMES = (5, 13, 10007)


@pytest.mark.parametrize("p", GOOD_PRIMES)
def test_case_a_over_q_equals_case_a_mod_good_primes(p):
    want = builtin_case("A", Q).algebra_hom.verify_window(16)
    got = builtin_case("A", PrimeField(p)).algebra_hom.verify_window(16)
    assert got.passed and want.passed
    assert [r.as_dict() for r in got.records] == [r.as_dict() for r in want.records]
    assert got.admissibility == want.admissibility


def _certified_rank_mod(rows, p) -> bool:
    """True when the rank of integer rows mod p is certainly their rank over
    Q: p divides no nonzero maximal minor the elimination over Q picks."""
    if not rows or not any(map(any, rows)):
        return True
    m = DomainMatrix([[ZZ(int(v)) for v in row] for row in rows], (len(rows), len(rows[0])), ZZ)
    cols = m.convert_to(QQ).rref()[1]
    picked = m.transpose().convert_to(QQ).rref()[1]
    return m.extract(list(picked), list(cols)).det() % p != 0


def test_random_integer_maps_over_q_equal_them_mod_good_primes():
    """Unchecked maps whose images have integer coefficients (and integer
    parameters): mod p each record keeps its degree, fiber and dimensions,
    its rank is at most the rank over Q, and it is the rank over Q when a
    maximal minor over Q is nonzero mod p; such certified primes occur."""
    certified = []

    @SLOW
    @given(st.data())
    def check(data):
        cid = data.draw(st.sampled_from("ABCD"), label="group map")
        pi = builtin_group_hom(cid)
        lams = data.draw(st.lists(st.sampled_from([-3, -2, -1, 2, 3]), min_size=2, max_size=2,
                                  unique=True), label="lambdas")
        params = {ws: [1, lams[0]] if len(ws) == 4 else [1] for ws in (pi.source, pi.target)}
        source = CoordinateAlgebra(pi.source, Q, params[pi.source])
        target = CoordinateAlgebra(pi.target, Q, params[pi.target])
        images = _random_images(data, target, pi.gen_images, st.integers(-6, 6))
        hom = AlgebraHom.unchecked(source, target, pi, images)
        window = data.draw(st.integers(1, 6), label="window")
        want = hom.verify_window(window)
        for p in GOOD_PRIMES:
            field = PrimeField(p)
            tgt_p = CoordinateAlgebra(pi.target, field, params[pi.target])
            hom_p = AlgebraHom.unchecked(
                CoordinateAlgebra(pi.source, field, params[pi.source]), tgt_p, pi,
                [tgt_p.element([(c.numerator, e) for e, c in im.terms.items()])
                 for im in images])
            got = hom_p.verify_window(window)
            good = True
            for rec, rec_p in zip(want.records, got.records, strict=True):
                assert (rec.degree, rec.fiber, rec.source_dim, rec.target_dim) == (
                    rec_p.degree, rec_p.fiber, rec_p.source_dim, rec_p.target_dim)
                assert rec_p.image_rank <= rec.image_rank
                good = good and _certified_rank_mod(
                    reference_rows(hom, rec.degree, rec.fiber), p)
            if good:
                assert got.records == want.records and got.passed == want.passed
            certified.append(good)

    check()
    assert any(certified)


# -- ranks and products against sympy --------------------------------------------

def _sympy_rank(rows, domain, convert=None):
    convert = convert or domain
    cols = len(rows[0]) if rows else 0
    return DomainMatrix([[convert(v) for v in row] for row in rows],
                        (len(rows), cols), domain).rank()


@st.composite
def _matrices(draw, entry):
    """Small matrices, often of deficient rank (a product of two thin ones)."""
    m, n = draw(st.integers(0, 7)), draw(st.integers(1, 7))
    if draw(st.booleans()):
        return draw(st.lists(st.lists(entry, min_size=n, max_size=n), min_size=m, max_size=m))
    r = draw(st.integers(1, 3))
    left = draw(st.lists(st.lists(entry, min_size=r, max_size=r), min_size=m, max_size=m))
    right = draw(st.lists(st.lists(entry, min_size=n, max_size=n), min_size=r, max_size=r))
    return [[sum(a * b for a, b in zip(row, col)) for col in zip(*right)] for row in left]


#: small primes, the rank prime, and primes whose packed slots exceed 64 bits
RANK_MODULI = (5, 7, 13, P, 1000000007, 2 ** 61 - 1)


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(RANK_MODULI), _matrices(st.integers(-10 ** 20, 10 ** 20)))
def test_rank_mod_q_matches_sympy(q, rows):
    """Entries are any ints, negative or far above q, standing for residues."""
    assert row_rank(rows, q) == _sympy_rank(rows, GF(q))


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(RANK_MODULI), st.data())
def test_rank_of_rows_below_q_matches_sympy(q, data):
    """Rows whose entries are below q are stored as pivots of the packed
    oracle as they are, and rows up to its unreduced bound once reduced; a
    row made of two earlier ones mod q makes the rank deficient."""
    m, n = data.draw(st.integers(1, 7)), data.draw(st.integers(1, 7))
    bound = unreduced_bound(q, n)
    rows = [data.draw(st.lists(st.integers(0, q - 1 if data.draw(st.booleans()) else bound - 1),
                               min_size=n, max_size=n)) for _ in range(m)]
    if m > 2 and data.draw(st.booleans()):
        rows.insert(data.draw(st.integers(2, m)),
                    [(a + b) % q for a, b in zip(rows[0], rows[1])])
    assert reference_rank_mod(rows, q) == row_rank(rows, q) == _sympy_rank(rows, GF(q))


@pytest.mark.parametrize("q", [5, 10007, P, 2 ** 61 - 1])
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_rank_of_unreduced_rows_at_the_bound_matches_sympy(q, data):
    """Nonnegative entries up to unreduced_bound - 1 enter the packed
    oracle's elimination as they are; entries at the bound and above are
    reduced first."""
    m, n = data.draw(st.integers(1, 7)), data.draw(st.integers(1, 7))
    bound = unreduced_bound(q, n)
    assert bound > q * q * n
    top = st.sampled_from([bound - 1, bound - 1 - q, bound - 1 - (bound - 1) % q])
    entry = st.one_of(top, st.integers(0, bound - 1),
                      st.sampled_from([bound, 2 * bound - 1, 0]))
    rows = data.draw(st.lists(st.lists(entry, min_size=n, max_size=n), min_size=m, max_size=m))
    assert reference_rank_mod(rows, q) == row_rank(rows, q) == _sympy_rank(rows, GF(q))


def _wider(q):
    """The least column count whose slots are wider than for one column
    less; with one column less, entries and their growth fill the slot."""
    width = lambda n: _slot_bits(unreduced_bound(q, n))
    return next(n for n in range(2, 2 ** 12) if width(n) > width(n - 1))


@pytest.mark.parametrize("q,n", [(5, 1), (5, 4), (5, 40), (10007, 3), (10007, _wider(10007) - 1),
                                 (10007, _wider(10007)), (P, 1), (P, 40), (P, _wider(P) - 1),
                                 (P, _wider(P)), (2 ** 61 - 1, 3), (2 ** 61 - 1, _wider(2 ** 61 - 1) - 1),
                                 (2 ** 61 - 1, _wider(2 ** 61 - 1))])
def test_rank_of_rows_at_the_bound_minus_one(q, n):
    bound = unreduced_bound(q, n)
    assert q * q * n < bound <= 2 * q * q * n
    top = bound - 1
    rows = [[top] * n, [top - i for i in range(n)], [top if i % 2 else 0 for i in range(n)],
            [(top - top % q) if i == 0 else top for i in range(n)]]
    rows += [[top - i * j % q for i in range(n)] for j in range(n)]
    assert reference_rank_mod(rows, q) == row_rank(rows, q) == _sympy_rank(rows, GF(q))


#: the moduli of the list echelon against the packed oracle: small primes, a
#: prime of 32- and 64-bit packed slots, the rank prime, and one past 64 bits
ECHELON_MODULI = (5, 7, 10007, P, 2 ** 61 - 1)


@settings(max_examples=200, deadline=None)
@given(st.sampled_from(ECHELON_MODULI), st.data())
def test_list_echelon_matches_the_packed_oracle_and_sympy(q, data):
    """Rows of 1-40 columns with entries below q, negative, unreduced up to
    the packed oracle's bound and past it, or wider than any of its slots;
    zero rows among them, and a last row that is a combination of the first
    two mod q.  The rows are left as they were."""
    n, m = data.draw(st.integers(1, 40)), data.draw(st.integers(0, 8))
    bound = unreduced_bound(q, n)
    entry = st.one_of(st.integers(0, q - 1), st.integers(-q * q * n, -1),
                      st.integers(q, bound - 1), st.integers(bound, 2 ** 140), st.just(0))
    row = st.one_of(st.lists(entry, min_size=n, max_size=n), st.just([0] * n))
    rows = data.draw(st.lists(row, min_size=m, max_size=m))
    if m >= 2 and data.draw(st.booleans()):
        k, j = data.draw(st.integers(1, q - 1)), data.draw(st.integers(-2, 2))
        rows.append([a + k * b + j * q for a, b in zip(rows[0], rows[1])])
    before = copy.deepcopy(rows)
    want = _sympy_rank(rows, GF(q))
    assert row_rank(rows, q) == reference_rank_mod(rows, q) == want
    assert rows == before


def test_list_echelon_of_zero_and_repeated_rows():
    """Zero rows count nothing, wherever they stand; a row repeated mod q,
    or a multiple of an earlier one, counts once."""
    for q in ECHELON_MODULI:
        for n in (1, 2, 17, 40):
            e = [[int(i == j) for i in range(n)] for j in range(n)]
            zero = [0] * n
            assert row_rank([zero] * 3, q) == reference_rank_mod([zero] * 3, q) == 0
            rows = [zero, e[-1], [q * v for v in e[0]], [v + q for v in e[-1]],
                    [(q - 3) * v for v in e[-1]], zero, e[0]]
            want = 1 if n == 1 else 2
            assert row_rank(rows, q) == reference_rank_mod(rows, q) == want, (q, n)


@settings(max_examples=100, deadline=None)
@given(_matrices(st.fractions(min_value=-20, max_value=20, max_denominator=12)))
def test_exact_rank_matches_sympy(rows):
    assert row_rank(rows) == _sympy_rank(
        rows, QQ, lambda v: QQ(v.numerator, v.denominator))


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_fraction_free_rank_of_low_rank_products_matches_sympy(data):
    """Products B C of a random m x k and k x n integer matrix with entries
    up to 2^80 (zeros among them), so of rank at most k: the exact rank
    swaps rows and divides exactly by earlier pivots.  Some rows enter as
    Fractions, over one denominator or a different one per entry.  The rows
    are left as they were."""
    m, n, k = (data.draw(st.integers(1, 8)) for _ in range(3))
    entry = st.one_of(st.integers(-2 ** 80, 2 ** 80), st.just(0))
    B = data.draw(st.lists(st.lists(entry, min_size=k, max_size=k), min_size=m, max_size=m))
    C = data.draw(st.lists(st.lists(entry, min_size=n, max_size=n), min_size=k, max_size=k))
    rows = [[sum(b * c for b, c in zip(brow, col)) for col in zip(*C)] for brow in B]
    for i in data.draw(st.sets(st.integers(0, m - 1))):
        den = data.draw(st.integers(1, 10 ** 6))
        rows[i] = [Fraction(v, den + j * data.draw(st.integers(0, 1))) for j, v in enumerate(rows[i])]
    before = copy.deepcopy(rows)
    assert row_rank(rows) == _sympy_rank(rows, QQ, lambda v: QQ(v.numerator, v.denominator))
    assert rows == before


def _sympy_product(f, g, domain):
    u = symbols("u")
    prod = Poly(f[::-1], u, domain=domain) * Poly(g[::-1], u, domain=domain)
    coeffs = prod.all_coeffs()[::-1]
    return coeffs + [0] * (len(f) + len(g) - 1 - len(coeffs))


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(RANK_MODULI), st.lists(st.integers(0, 2 ** 70), min_size=1, max_size=40),
       st.lists(st.integers(0, 2 ** 70), min_size=1, max_size=40))
def test_form_product_mod_q_matches_sympy(q, f, g):
    f, g = [v % q for v in f], [v % q for v in g]
    want = [int(c) % q for c in _sympy_product(f, g, GF(q))]
    assert _poly_mul(f, g, q) == want


@pytest.mark.parametrize("q", RANK_MODULI)
@pytest.mark.parametrize("n", [1, 17, 40, 300])
def test_form_product_at_the_coefficient_bound(q, n):
    """Every coefficient q - 1: the largest sums the packed slots must hold."""
    f, g = [q - 1] * n, [q - 1] * (n + 3)
    assert _poly_mul(f, g, q) == [int(c) % q for c in _sympy_product(f, g, GF(q))]


@pytest.mark.parametrize("q,n,bits", [(5, 40, 16), (10007, 17, 32), (10007, 300, 64),
                                      (2 ** 61 - 1, 5, 128)])
def test_form_product_in_each_slot_width(q, n, bits):
    assert _slot_bits(q * q * n) == bits
    f, g = [q - 1] * n, [(q - 1 - i) % q for i in range(n + 3)]
    assert _poly_mul(f, g, q) == [int(c) % q for c in _sympy_product(f, g, GF(q))]


@pytest.mark.parametrize("q", RANK_MODULI)
@pytest.mark.parametrize("short,long", [(2, 2), (2, 12), (2, 13), (3, 8), (3, 9), (4, 6), (4, 7),
                                        (5, 5), (1, 40)])
def test_form_product_at_the_schoolbook_bound(monkeypatch, q, short, long):
    """Up to SCHOOLBOOK_MAX products of coefficients a product mod q is
    schoolbook and packs nothing, past it one Kronecker product; either
    way, and on either side, it is sympy's."""
    packs = []
    pack = field_module._pack
    monkeypatch.setattr(field_module, "_pack", lambda *args: packs.append(1) or pack(*args))
    f = [(q - 1 - 3 * i) % q for i in range(short)]
    g = [(q - 1 - i * i) % q for i in range(long)]
    want = [int(c) % q for c in _sympy_product(f, g, GF(q))]
    assert _poly_mul(f, g, q) == _poly_mul(g, f, q) == want
    assert bool(packs) == (short > 1 and short * long > SCHOOLBOOK_MAX)


@settings(max_examples=100, deadline=None)
@given(st.lists(st.fractions(max_denominator=50), min_size=1, max_size=12),
       st.lists(st.fractions(max_denominator=50), min_size=1, max_size=12))
def test_exact_form_product_matches_sympy(f, g):
    want = [Fraction(int(c.numerator), int(c.denominator)) if c else Fraction(0)
            for c in _sympy_product([QQ(v.numerator, v.denominator) for v in f],
                                    [QQ(v.numerator, v.denominator) for v in g], QQ)]
    assert _poly_mul(f, g, None) == want


@settings(max_examples=100, deadline=None)
@given(st.sampled_from(RANK_MODULI), st.integers(0, 2 ** 70),
       st.lists(st.integers(0, 2 ** 70), min_size=1, max_size=40), st.booleans())
def test_form_product_by_one_coefficient_matches_sympy(q, c, g, left):
    """A factor of one coefficient, on either side, is a scalar multiple."""
    f, g = [c % q], [v % q for v in g]
    if left:
        f, g = g, f
    assert _poly_mul(f, g, q) == [int(v) % q for v in _sympy_product(f, g, GF(q))]


@settings(max_examples=100, deadline=None)
@given(st.lists(st.integers(-2 ** 70, 2 ** 70), min_size=1, max_size=12),
       st.lists(st.integers(-2 ** 70, 2 ** 70), min_size=1, max_size=12))
def test_integer_form_product_without_modulus_matches_sympy(f, g):
    """q None on the integer forms of exact ranks over Q: any sign and size."""
    assert _poly_mul(f, g, None) == [int(c) for c in _sympy_product(f, g, ZZ)]


SIGNED = st.one_of(st.integers(-3, 3), st.integers(-2 ** 70, 2 ** 70),
                   st.integers(-2 ** 300, 2 ** 300), st.sampled_from([0, -2 ** 64, 2 ** 64 - 1]))


@settings(max_examples=150, deadline=None)
@given(st.lists(SIGNED, min_size=1, max_size=90), st.lists(SIGNED, min_size=1, max_size=90),
       st.booleans())
def test_signed_kronecker_product_matches_schoolbook(f, g, zero):
    """The exact product of int lists by one multiply equals schoolbook on
    any signs, zeros, all-zero factors and values up to 2^300, through
    ``_poly_mul`` (which takes it from KRONECKER_MIN entries on) and on
    its own."""
    if zero:
        f = [0] * len(f)
    want = schoolbook(f, g)
    assert _signed_kronecker(f, g) == want
    assert _signed_kronecker(g, f) == want
    assert _poly_mul(f, g, None) == want


def test_exact_products_of_long_int_lists():
    """A binomial row of 301 coefficients and a signed row of KRONECKER_MIN,
    squared and multiplied together, as schoolbook gives them."""
    row = [math.comb(300, i) for i in range(301)]
    signed = [(-1) ** i * (i * i - 500) for i in range(KRONECKER_MIN)]
    for f, g in ((row, row), (row, signed), (signed, [-v for v in signed])):
        assert _poly_mul(f, g, None) == schoolbook(f, g)


@pytest.mark.parametrize("q,n", [(P, 300), (P, 2000), (1000000007, 40)])
def test_form_product_of_forms_long_enough_for_wide_slots(q, n):
    """q^2 min(len(f), len(g)) past 2^64 takes slots of 128 bits."""
    assert _slot_bits(q * q * n) == 128
    f = [(q - 1 - 3 * i) % q for i in range(n)]
    g = [(q - 1 - 5 * i * i) % q for i in range(n + 7)]
    assert _poly_mul(f, g, q) == [int(c) % q for c in _sympy_product(f, g, GF(q))]


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_sylvester_rank_is_full_exactly_for_coprime_forms(data):
    """Binary forms f = h f1 and g = h g1 of degree m with a random common
    factor h of degree d: the Sylvester rank is 2m exactly when sympy's gcd
    is a nonzero constant, and below 2m whenever d > 0."""
    q = data.draw(st.sampled_from((5, 7, 13, P, None)), label="modulus")
    m = data.draw(st.integers(1, 4), label="m")
    d = data.draw(st.integers(0, m), label="common degree")
    entry = st.integers(-9, 9) if q is None else st.integers(0, q - 1)
    u, v = symbols("u v")

    def form(n):
        cs = data.draw(st.lists(entry, min_size=n + 1, max_size=n + 1))
        return Poly(sum(c * u ** a * v ** (n - a) for a, c in enumerate(cs)), u, v,
                    domain=ZZ if q is None else GF(q))

    h = form(d)
    f, g = h * form(m - d), h * form(m - d)
    coeffs = lambda p: [int(p.coeff_monomial(u ** a * v ** (m - a))) for a in range(m + 1)]
    rank = sylvester_rank(coeffs(f), coeffs(g), q)
    gcd = f.gcd(g)
    assert (rank == 2 * m) == (not gcd.is_zero and gcd.total_degree() == 0)
    if d:
        assert rank < 2 * m


# -- the rank over Q: modular first, exact when deficient ------------------------

def _case_a(field, third):
    """Case A with the third generator image replaced by third(x3*x4)."""
    spec = builtin_case("A", field)
    tgt = spec.algebra_hom.target
    x1, x2, x3, x4 = tgt.gens
    return AlgebraHom.unchecked(spec.algebra_hom.source, tgt, spec.group_hom,
                                [x1, x2, third(x3 * x4)])


def _rank_calls(monkeypatch) -> list:
    """Record (modulus, rows, rank) of every row_rank call of the kernel."""
    calls = []
    plain = homverify.row_rank

    def spy(rows, modulus=None):
        rank = plain(rows, modulus)
        calls.append((modulus, rows, rank))
        return rank

    monkeypatch.setattr(homverify, "row_rank", spy)
    return calls


def test_image_scaled_by_the_rank_prime_falls_back_to_the_exact_rank(monkeypatch):
    base = records(builtin_case("A", Q).algebra_hom, 8)
    hom = _case_a(Q, lambda m: P * m)
    assert hom.rank_modulus == P
    calls = _rank_calls(monkeypatch)
    got = records(hom, 8)
    # the scaled image vanishes mod P, so some degrees lose rank there and
    # are redone exactly; over Q every vector is only rescaled
    redone = [(before, after) for (m0, _, before), (m1, _, after) in zip(calls, calls[1:])
              if m0 == P and m1 is None]
    assert redone and all(after > before for before, after in redone)
    assert got == base == reference_records(hom, 8)
    assert all(r["pass"] for r in got)


def test_denominator_divisible_by_the_rank_prime_keeps_exact_records():
    S = CoordinateAlgebra((2, 2, 2, 2), Q, [1, Fraction(3, P)])
    L = S.weights
    ident = AlgebraHom(S, S, GroupHom(L, L, L.gens), S.gens)
    result = ident.verify_window(6)
    assert result.passed
    assert [r.as_dict() for r in result.records] == reference_records(ident, 6)
    hom = _case_a(Q, lambda m: Fraction(1, P) * m)
    assert records(hom, 6) == records(builtin_case("A", Q).algebra_hom, 6)


def _zero_images_on_lambda_over_p(cid):
    """A deficient map over Q onto (2,2,2,2; 1, 3/P): case A's zero-image
    map, whose rows never carry by lam, or case D's group map with
    phi(x_1) = x_1 x_3, phi(x_2) = x_2 x_4 and phi(x_3) = phi(x_4) = 0,
    whose g = phi(x_2)^2 = V (V - 3/P U) is read as V (P V - 3 U)."""
    pi = builtin_group_hom(cid)
    target = CoordinateAlgebra(pi.target, Q, [1, Fraction(3, P)])
    x1, x2, x3, x4 = target.gens
    source = CoordinateAlgebra(pi.source, Q, [1] if cid == "A" else [1, 2])
    images = [x1, x2, target.zero] if cid == "A" else [x1 * x3, x2 * x4, target.zero, target.zero]
    return AlgebraHom.unchecked(source, target, pi, images)


@pytest.mark.parametrize("cid", ["A", "D"])
def test_exact_fallback_runs_on_integer_rows(monkeypatch, cid):
    hom = _zero_images_on_lambda_over_p(cid)
    calls = _rank_calls(monkeypatch)
    got = records(hom, 8)
    assert got == reference_records(hom, 8)
    assert not all(r["pass"] for r in got)
    exact = [rows for modulus, rows, _ in calls if modulus is None]
    assert exact and all(type(v) is int for rows in exact for row in rows for v in row)
    if cid == "D":  # carries by x_4^2 = V - 3/P U multiply by P V - 3 U
        assert any(v and v % P == 0 for rows in exact for row in rows for v in row)


@pytest.mark.parametrize("which", ["A", "D", "demo 04"])
def test_each_record_over_q_builds_its_rows_once(monkeypatch, which):
    """The maps of ``_zero_images_on_lambda_over_p`` and demo 04's zero-image
    map, at window 8: a record whose rank mod RANK_PRIME is short is ranked
    again exactly on the very rows of that rank, so the rows of each
    eliminated record are built once."""
    hom = (_case_a(Q, lambda m: m.algebra.zero) if which == "demo 04"
           else _zero_images_on_lambda_over_p(which))
    built = []
    rows_of = AlgebraHom._rows
    monkeypatch.setattr(AlgebraHom, "_rows", lambda *args: built.append(1) or rows_of(*args))
    calls = _rank_calls(monkeypatch)
    result = hom.verify_window(8)
    assert not result.passed and len(built) == len(result.eliminated)
    redone = [i for i, (modulus, _, _) in enumerate(calls) if modulus is None]
    assert redone and all(i and calls[i - 1][0] == P and calls[i][1] is calls[i - 1][1]
                          for i in redone)


def test_proportional_images_with_unlike_denominators_stay_dependent():
    """phi(x_3) = V/2 - U/3 and phi(x_4) = 6 phi(x_3) = 3V - 2U are both read
    as the integer form 3V - 2U, so they stay proportional and the degrees
    they reach keep their deficit; carries by lam = 5/7 multiply by 7V - 5U."""
    pi = builtin_group_hom("D")
    target = CoordinateAlgebra(pi.target, Q, [1, Fraction(5, 7)])
    source = CoordinateAlgebra(pi.source, Q, [1, 2])
    x1, x2, x3, x4 = target.gens
    third = Fraction(1, 2) * x2 ** 2 - Fraction(1, 3) * x1 ** 2
    hom = AlgebraHom.unchecked(source, target, pi, [x1 * x3, x2 * x4, third, 6 * third])
    got = records(hom, 6)
    assert got == reference_records(hom, 6)
    assert any(r["image_rank"] < r["target_dim"] for r in got)


@pytest.mark.parametrize("field", [Q, PrimeField(7)], ids=["Q", "F7"])
def test_zero_image_gives_its_exact_rank_deficit(field):
    hom = _case_a(field, lambda m: m.algebra.zero)
    result = hom.verify_window(8)
    assert not result.passed
    for rec in result.records:
        # x1 and x2 map to themselves, so exactly the source monomials
        # without the third generator keep independent images
        alive = sum(1 for y in rec.fiber for mono in hom.source.component_basis(y)
                    if mono[2] == 0)
        assert rec.image_rank == alive
    assert any(r.image_rank < r.target_dim for r in result.records)
    assert [r.as_dict() for r in result.records] == reference_records(hom, 8)


@pytest.mark.parametrize("field", [Q, PrimeField(7)], ids=["Q", "F7"])
def test_inhomogeneous_image_raises(field):
    hom = _case_a(field, lambda m: m + m.algebra.gens[0])
    with pytest.raises(GradednessError):
        hom.verify_window(4)
    with pytest.raises(GradednessError):
        hom.check_surjective_at(hom.group_hom.gen_images[2])


@pytest.mark.parametrize("field", [Q, PrimeField(7)], ids=["Q", "F7"])
def test_the_first_inhomogeneous_image_is_named_at_the_first_head(field):
    """Case A with phi(x_2) and phi(x_3) inhomogeneous: every generator
    image is read at the first head made, so generator 2 is named even by
    a record whose heads take only phi(x_3), and again on a second call."""
    spec = builtin_case("A", field)
    tgt = spec.algebra_hom.target
    x1, x2, x3, x4 = tgt.gens
    hom = AlgebraHom.unchecked(spec.algebra_hom.source, tgt, spec.group_hom,
                               [x1, x2 + x1 * x1, x3 * x4 + x1])
    want = ("GradednessError", "image of generator 2 is inhomogeneous")
    assert outcome(hom.verify_window, 1) == want
    for y in spec.group_hom.gen_images:
        fresh = AlgebraHom.unchecked(hom.source, tgt, hom.group_hom, hom.gen_images)
        assert outcome(fresh.check_surjective_at, y) == want
        assert outcome(fresh.check_surjective_at, y) == want


# -- level induction ---------------------------------------------------------------

@pytest.mark.parametrize("field", [Q, PrimeField(7)], ids=["Q", "F7"])
def test_deficit_just_above_a_surjective_base_level(monkeypatch, field):
    """Case D's group map with phi(x_3) = phi(x_4) = 0: f = U(V - U) and
    g = V(V + U) are coprime, so records are inferred, but at 2c (level
    2m - 2 = 2) the image misses x_3 x_4 while the record at 0 below it is
    surjective, and at 3c both the record and the one at c are deficient."""
    pi = builtin_group_hom("D")
    target = CoordinateAlgebra(pi.target, field, [1, -1])
    source = CoordinateAlgebra(pi.source, field, [1, 2])
    x1, x2, x3, x4 = target.gens
    hom = AlgebraHom.unchecked(source, target, pi, [x1 * x3, x2 * x4, target.zero, target.zero])
    calls = _rank_calls(monkeypatch)
    got = records(hom, 8)
    assert got == reference_records(hom, 8)
    assert sum(1 for modulus, _, _ in calls if modulus) < len(got)  # exact redos aside
    rank = {r["degree"]: (r["image_rank"], r["target_dim"]) for r in got}
    assert rank["0;0,0,0,0"] == (1, 1) and rank["2;0,0,0,0"] == (2, 3)
    assert rank["1;0,0,0,0"] == (0, 2) and rank["3;0,0,0,0"] == (0, 4)


def _all_eliminated(hom, window):
    """The result of verify_window with the induction turned off, so that
    every record is eliminated."""
    hom._induction_level = lambda: None
    try:
        return hom.verify_window(window)
    finally:
        del hom._induction_level


def _assert_view_matches(hom, window, name="custom", field_name=""):
    """The view of verify_window has the records and verdict of an
    all-eliminated result, and the report text of the reference encoder."""
    result = hom.verify_window(window)
    full = _all_eliminated(hom, window)
    assert full.m is None and len(full.eliminated) == len(full.fibers)
    assert result.records == full.records
    assert result.passed == full.passed
    assert result.to_report(name, field_name) == reference_report(result, name, field_name)
    return result


def test_view_matches_all_eliminated_results_of_random_maps():
    """Random unchecked maps of the four group maps and of a non-admissible
    one, some with images beyond the second zeroed (as in demo 04):
    inferred records, the chains of eliminated records above deficient
    ones, non-admissible levels and maps without an induction level all
    occur, and each result equals its all-eliminated recomputation.  The
    draws are derandomized, so that every kind occurs on every run."""
    seen = set()

    @settings(SLOW, derandomize=True)
    @given(st.data())
    def check(data):
        kind = data.draw(st.sampled_from("ABCDN"), label="group map")
        field = data.draw(st.sampled_from(RANDOM_FIELDS), label="field")

        def images(target, degrees):
            out = _random_images(data, target, degrees)
            zeroed = data.draw(st.sets(st.integers(2, len(out) - 1)), label="zeroed")
            return [target.zero if j in zeroed else im for j, im in enumerate(out)]

        if kind == "N":
            hom = non_admissible_map(field, images)
        else:
            pi = builtin_group_hom(kind)
            source = CoordinateAlgebra(pi.source, field,
                                       _params(data, field, len(pi.source) - 2))
            target = CoordinateAlgebra(pi.target, field,
                                       _params(data, field, len(pi.target) - 2))
            hom = AlgebraHom.unchecked(source, target, pi, images(target, pi.gen_images))
        window = data.draw(st.integers(1, 12), label="window")
        result = _assert_view_matches(hom, window, kind, field.name)
        m = result.m
        if m is None:
            seen.add("no induction level")
        elif any(l > 2 * m - 2 for l, *_ in result.eliminated):
            seen.add("chain")
        if m is not None and len(result.eliminated) < len(result.fibers):
            seen.add("inferred")
        if result.admissibility.failures:
            seen.add("non-admissible")

    check()
    assert seen == {"no induction level", "chain", "inferred", "non-admissible"}


@pytest.mark.parametrize("field", [Q, PrimeField(7)], ids=["Q", "F7"])
@pytest.mark.parametrize("window", [6, 40])
def test_view_matches_all_eliminated_results_of_zero_image_maps(field, window):
    """Case A with phi(x_3) = 0, the zeroed image of demo 04: f and g are
    coprime, and the deficient records chain up through the whole window."""
    result = _assert_view_matches(_case_a(field, lambda m: m.algebra.zero), window)
    m = result.m
    assert m == 2 and not result.passed
    assert max(l for l, *_ in result.eliminated) > window - m


@pytest.mark.parametrize("field", [Q, PrimeField(7)], ids=["Q", "F7"])
def test_inferred_records_of_a_non_admissible_map_count_their_whole_fiber(field):
    """(2,2,2) -> (2,2) sending x_1 and x_3 to x_1: the fibers over the
    degrees with torsion x_1 hold two elements of one level, so their mult
    sum is twice the mult and admissibility fails there, while f = U and
    g = V are coprime and the records above level 0 are inferred."""
    hom = non_admissible_map(field, lambda target, _: [*target.gens, target.gens[0]])
    assert hom._induction_level() == 1
    got = records(hom, 6)
    assert got == reference_records(hom, 6)
    assert not hom.verify_window(6).admissibility.admissible
    assert any(r["source_dim"] == 2 * r["target_dim"] > 2 for r in got)


def test_images_sharing_a_factor_are_all_eliminated(monkeypatch):
    """Case B's group map with phi(x_2) = x_4^2, so f = g = (V - 3U)^3:
    the Sylvester rank is below 6 and every record is eliminated."""
    pi = builtin_group_hom("B")
    field = PrimeField(7)
    target = CoordinateAlgebra(pi.target, field, [1, 3])
    source = CoordinateAlgebra(pi.source, field, [1])
    x1, x2, x3, x4 = target.gens
    hom = AlgebraHom.unchecked(source, target, pi, [x4, x4 ** 2, x1 * x2 * x3])
    calls = _rank_calls(monkeypatch)
    got = records(hom, 12)
    assert got == reference_records(hom, 12)
    assert not all(r["pass"] for r in got)
    assert calls[0][2] < 6 and len(calls) == len(got) + 1


@pytest.mark.parametrize("field", [Q, PrimeField(7)], ids=["Q", "F7"])
def test_image_of_the_wrong_degree_below_level_zero_raises_where_the_reference_does(field):
    """(2,2) -> (2,2,2,2) with pi(x_1) = x_1 + x_2 + x_3 + x_4 - c at level -1
    and pi(x_2) = c, so pi(c_S) = 2c.  phi(x_1) = U sits at c instead: f = U^2
    and g = V^2 are coprime, yet the record of pi(x_1) must still meet the
    image and raise there."""
    target = CoordinateAlgebra((2, 2, 2, 2), field, [1, -1])
    source = CoordinateAlgebra((2, 2), field)
    L = target.weights
    pi = GroupHom(source.weights, L, [L.parse("-1;1,1,1,1"), L.canonical()])
    x1, x2, x3, x4 = target.gens
    hom = AlgebraHom.unchecked(source, target, pi, [x1 ** 2, x2 ** 2])
    got = outcome(records, hom, 4)
    assert got == outcome(reference_records, hom, 4)
    assert got == ("GradednessError", "image of a monomial of degree 0;1,0 leaves the "
                   "component of -1;1,1,1,1")


@pytest.mark.parametrize("field", [Q, PrimeField(7)], ids=["Q", "F7"])
def test_rows_of_one_source_degree_in_two_components_raise(field):
    """(2,2) -> (2,2,2,2; 1, -1) with pi(x_1) = c and pi(x_2) = x_3 + x_4,
    so c_S alone lies over 2c, but phi(x_1) = x_1 sits at x_1: f = U lies
    at c and g = (x_3 x_4)^2 at 2c.  The rows of c_S, g and f, lie in two
    components, so the record of 2c raises as the reference does."""
    target = CoordinateAlgebra((2, 2, 2, 2), field, [1, -1])
    source = CoordinateAlgebra((2, 2), field)
    L = target.weights
    pi = GroupHom(source.weights, L, [L.canonical(), L.parse("0;0,0,1,1")])
    x1, x2, x3, x4 = target.gens
    hom = AlgebraHom.unchecked(source, target, pi, [x1, x3 * x4])
    x = L.parse("2;0,0,0,0")
    fiber = tuple(pi.fiber(x))
    assert [(y.l, y.torsion) for y in fiber] == [(1, (0, 0))]
    got = outcome(hom.check_surjective_at, x)
    assert got == outcome(reference_record, hom, x, fiber)
    assert got == ("GradednessError", "image of a monomial of degree 1;0,0 leaves the "
                   "component of 2;0,0,0,0")


@pytest.mark.parametrize("field", [Q, PrimeField(7)], ids=["Q", "F7"])
def test_canonical_image_with_torsion_is_never_inferred(field):
    """(2,4) -> (3,3,3) with pi(x_1) = c + x_3 and pi(x_2) = 2 x_3, so
    pi(c_S) = 2c + 2 x_3 carries torsion: f = U^2 y_3^2 and g = y_3^8
    multiply the image at x - 2c - 2 x_3 into the image at x, and the record
    at x - 2c, in the torsion class of x, says nothing about it."""
    target = CoordinateAlgebra((3, 3, 3), field, [1])
    source = CoordinateAlgebra((2, 4), field)
    L = target.weights
    pi = GroupHom(source.weights, L, [L.parse("1;0,0,1"), L.parse("0;0,0,2")])
    y1, y2, y3 = target.gens
    hom = AlgebraHom.unchecked(source, target, pi, [y1 ** 3 * y3, y3 ** 2])
    got = records(hom, 8)
    assert got == reference_records(hom, 8)
    assert not all(r["pass"] for r in got)


# -- counts of the packed kernel, kept by the list echelon ---------------------------

#: the fields of the benchmark's verify jobs, and the extra CLI arguments for them
BASELINE = {"A": (Q, None, []), "B": (PrimeField(7), None, ["--field", "7"]),
            "C": (PrimeField(5), None, ["--field", "5"]),
            "D": (PrimeField(7), -1, ["--field", "7", "--lambda", "-1"])}
#: (row_rank calls, rows) of verify_window(40): a level-0 record of a map
#: with every image nonzero is settled without elimination (the packed
#: kernel, which eliminated level 0, took A (25, 52), B (21, 66),
#: C (28, 58), D (13, 28))
RANK_CALLS_AT_40 = {"A": (17, 44), "B": (17, 62), "C": (19, 49), "D": (9, 24)}
#: ``_poly_mul`` calls of ``verify --case X`` at the default window: each
#: head is made when a record first needs it, so the heads the records use
#: are built and no other (the packed kernel took 48, 58, 55 and 30)
POLY_MUL_CALLS = {"A": 8, "B": 28, "C": 19, "D": 20}
#: (``_poly_mul`` calls, ``AlgebraHom._mul`` calls) of verify_window(w) after
#: construction, at a window that cuts the base levels 0 <= l <= 2m - 2 and
#: at two that do not: the ``_poly_mul`` calls are bounds (the packed
#: kernel's at 1 and 4, the one-pass head table's at 40), the ``_mul``
#: calls exact.  Each head is one product with its neighbour's, made when a
#: record first needs it, and a product by a form with the one coefficient
#: 1 takes no ``_poly_mul``.  A passing map eliminates only its base
#: levels, which window 4 holds, so windows 4 and 40 take the same products.
#: Level 0 takes no heads, so at window 1 A and B take fewer (the packed
#: kernel took 23 and 11 ``_mul`` calls); the level-1 records of C and D
#: need every head level 0 did.
VERIFY_FORM_PRODUCTS = {1: {"A": (20, 19), "B": (8, 9), "C": (23, 26), "D": (7, 11)},
                        4: {"A": (35, 41), "B": (43, 49), "C": (40, 46), "D": (14, 21)},
                        40: {"A": (0, 41), "B": (18, 49), "C": (9, 46), "D": (10, 21)}}
#: demo 04's zero-image map over Q by window: (row_rank calls, rows, the
#: sha256 of the repr of the list of its eliminated records), counted on the
#: packed kernel
ZERO_IMAGE_RECORDS = {
    6: (69, 252, "adb69232292bbd34297a749d5b4a27e1e07017b8064e5b53d4d1c1a171cf7faa"),
    40: (341, 6916, "825078b5f1ec093db6136f211ddc85e54d70490ed7ceff25115266ee6bcdcea8"),
}


@pytest.mark.parametrize("cid", ["A", "B", "C", "D"])
def test_rank_calls_and_rows_of_the_baseline_cases(monkeypatch, cid):
    field, lam, _ = BASELINE[cid]
    hom = builtin_case(cid, field, lam=lam).algebra_hom
    calls = _rank_calls(monkeypatch)
    assert hom.verify_window(40).passed
    assert (len(calls), sum(len(rows) for _, rows, _ in calls)) == RANK_CALLS_AT_40[cid]


def _checked_levels(monkeypatch) -> list:
    """Record the level of every record sent to check_surjective_at."""
    levels, plain = [], AlgebraHom.check_surjective_at
    monkeypatch.setattr(AlgebraHom, "check_surjective_at",
                        lambda self, x, fiber=None: levels.append(x.l) or plain(self, x, fiber))
    return levels


@pytest.mark.parametrize("cid", ["A", "B", "C", "D"])
def test_level_0_of_a_map_with_nonzero_images_is_not_eliminated(monkeypatch, cid):
    """Every image of a baseline case is nonzero, so every head is, and a
    level-0 record (one column, total 1) has rank 1 without rows.  Every
    level passes, so each is written as a plain level."""
    field, lam, _ = BASELINE[cid]
    hom = builtin_case(cid, field, lam=lam).algebra_hom
    levels = _checked_levels(monkeypatch)
    result = hom.verify_window(40)
    assert result.passed and levels and 0 not in levels
    assert all(counts is None for *_, counts in result._levels())


@pytest.mark.parametrize("field", [Q, PrimeField(7)], ids=["Q", "F7"])
def test_level_0_of_a_zero_image_map_is_eliminated(monkeypatch, field):
    """Demo 04's map, phi(x_3) = 0, has zero heads: each of its level-0
    records is still eliminated."""
    hom = _case_a(field, lambda m: m.algebra.zero)
    levels = _checked_levels(monkeypatch)
    result = hom.verify_window(6)
    assert result.m == 2 and levels.count(0) == len(result.fibers.level(0)[1]) > 0


@pytest.mark.parametrize("field", [Q, PrimeField(7)], ids=["Q", "F7"])
def test_level_0_totals_of_a_non_admissible_map_are_settled(monkeypatch, field):
    """(2,2,2) -> (2,2) sending x_1 and x_3 to x_1 has m = 1 and level-0
    fiber totals of 2: those records are (2, 1, 1) without elimination, and
    the records match the reference's at every window."""
    hom = non_admissible_map(field, lambda target, _: [*target.gens, target.gens[0]])
    levels = _checked_levels(monkeypatch)
    for window in range(1, 9):
        got = records(hom, window)
        assert got == reference_records(hom, window)
        assert {(r["source_dim"], r["image_rank"]) for r in got
                if r["degree"].startswith("0;")} == {(1, 1), (2, 1)}
    assert hom._induction_level() == 1 and 0 not in levels


@pytest.mark.parametrize("field", [Q, PrimeField(7)], ids=["Q", "F7"])
def test_a_level_0_record_of_total_0_is_eliminated(monkeypatch, field):
    """(2,2,2) -> (2,2,2) with pi(x_1) = x_2 + x_3, pi(x_2) = c and
    pi(x_3) = x_1 + x_3, unchecked, all images nonzero and m = 2: the
    fiber over x_1 + x_2 holds only a source degree below level 0, so its
    total is 0, and that record is eliminated, to rank 0."""
    target = CoordinateAlgebra((2, 2, 2), field, [1])
    source = CoordinateAlgebra((2, 2, 2), field, [1])
    L = target.weights
    pi = GroupHom(source.weights, L, [L.parse("0;0,1,1"), L.canonical(), L.parse("0;1,0,1")])
    x1, x2, x3 = target.gens
    hom = AlgebraHom.unchecked(source, target, pi, [x2 * x3, x1 ** 2 + 2 * x2 ** 2, x1 * x3])
    levels = _checked_levels(monkeypatch)
    for window in range(1, 7):
        assert records(hom, window) == reference_records(hom, window)
    result = hom.verify_window(6)
    assert result.m == 2 and result.eliminated[0] == (0, (1, 1, 0), 0, 1, 0)
    assert levels.count(0) == 7  # one per call of verify_window


@pytest.mark.parametrize("cid", ["A", "B", "C", "D"])
def test_verify_takes_no_more_form_products_than_the_packed_kernel(monkeypatch, capsys, cid):
    calls = []
    mul = field_module._poly_mul
    for module in (field_module, algebra, homverify):
        monkeypatch.setattr(module, "_poly_mul", lambda *args: calls.append(1) or mul(*args))
    assert cli.main(["verify", "--case", cid, *BASELINE[cid][2]]) == 0
    assert '"summary": "pass"' in capsys.readouterr().out
    assert 0 < len(calls) <= POLY_MUL_CALLS[cid]


@pytest.mark.parametrize("window", sorted(VERIFY_FORM_PRODUCTS))
@pytest.mark.parametrize("cid", ["A", "B", "C", "D"])
def test_a_window_below_the_base_levels_builds_no_more_heads(monkeypatch, cid, window):
    field, lam, _ = BASELINE[cid]
    hom = builtin_case(cid, field, lam=lam).algebra_hom
    calls, products = [], []
    mul, form_mul = field_module._poly_mul, AlgebraHom._mul
    monkeypatch.setattr(homverify, "_poly_mul", lambda *args: calls.append(1) or mul(*args))
    monkeypatch.setattr(AlgebraHom, "_mul", lambda *args: products.append(1) or form_mul(*args))
    assert hom.verify_window(window).passed
    poly_muls, form_muls = VERIFY_FORM_PRODUCTS[window][cid]
    assert len(calls) <= poly_muls and len(products) == form_muls


@pytest.mark.parametrize("cid", ["A", "B", "C", "D"])
def test_each_block_is_laid_once_per_map(monkeypatch, cid):
    """The forms f^a g^(n-a) are laid at a record's width once per (n, width)
    and shared by every fiber pair at source level n of that width."""
    field, lam, _ = BASELINE[cid]
    hom = builtin_case(cid, field, lam=lam).algebra_hom
    laid, plain = [], homverify._laid
    monkeypatch.setattr(homverify, "_laid",
                        lambda forms, degree, cols: laid.append((len(forms) - 1, cols))
                        or plain(forms, degree, cols))
    used = []
    block = AlgebraHom._block
    monkeypatch.setattr(AlgebraHom, "_block", lambda self, n, cols: used.append((n, cols))
                        or block(self, n, cols))
    assert hom.verify_window(40).passed
    assert laid and sorted(laid) == sorted(set(used)) and len(used) > len(laid)


@pytest.mark.parametrize("window", sorted(ZERO_IMAGE_RECORDS))
def test_zero_image_map_of_demo_04_eliminates_the_records_of_the_packed_kernel(monkeypatch,
                                                                              window):
    spec = builtin_case("A", Q)
    target = spec.algebra_hom.target
    x1, x2, _, _ = target.gens
    hom = AlgebraHom.unchecked(spec.algebra_hom.source, target, spec.group_hom,
                               [x1, x2, target.zero])
    calls = _rank_calls(monkeypatch)
    result = hom.verify_window(window)
    digest = hashlib.sha256(repr(list(result.eliminated)).encode()).hexdigest()
    assert (len(calls), sum(len(rows) for _, rows, _ in calls), digest) == \
        ZERO_IMAGE_RECORDS[window]


def test_zero_heads_share_one_zero_row(monkeypatch):
    """The n + 1 rows of a zero head are one zero list, which row_rank
    never changes: demo 04's zero-image map at F_10007, window 200, passes
    81232 rows of 10.9 million cells to row_rank, in 1624 distinct lists of
    162459 cells, 20 of them nonzero: a product by a form with the one
    coefficient 1 keeps the other's list, so the heads x_1^a x_2^b, all
    of coefficient 1, share theirs."""
    spec = builtin_case("A", PrimeField(10007))
    target = spec.algebra_hom.target
    x1, x2, _, _ = target.gens
    hom = AlgebraHom.unchecked(spec.algebra_hom.source, target, spec.group_hom,
                               [x1, x2, target.zero])
    calls = _rank_calls(monkeypatch)
    assert not hom.verify_window(200).passed
    rows = [row for _, rows, _ in calls for row in rows]
    distinct = list({id(row): row for row in rows}.values())
    assert (len(calls), len(rows), sum(map(len, rows))) == (817, 81232, 10908476)
    assert (len(distinct), sum(map(len, distinct))) == (1624, 162459)
    assert sum(1 for row in distinct for v in row if v) == 20
