"""Randomized property suites, shared by the property tests and the
acceptance gate.  Every function runs ``n`` independent instances with a
deterministic seed and returns the number of instances it checked; any
violation raises AssertionError immediately."""

import random

from reference import as_elements, reference_reduce
from wpline import (CoordinateAlgebra, PrimeField, RationalField,
                    WeightSequence, builtin_case, builtin_group_hom)

TUBULAR = [(2, 2, 2, 2), (3, 3, 3), (4, 4, 2), (6, 3, 2)]
GROUPS = [WeightSequence(ws) for ws in TUBULAR]


def _random_element(rng, L, lo=-8, hi=8):
    return L.normalize(rng.randint(lo, hi), tuple(rng.randrange(p) for p in L.weights))


def check_group_axioms(n=200, seed=1287):
    """Normal-form uniqueness, abelian group laws, degree additivity, and
    the torsion criterion (finite order exactly when degree vanishes)."""
    rng = random.Random(seed)
    for _ in range(n):
        L = rng.choice(GROUPS)
        a, b, c = (_random_element(rng, L) for _ in range(3))
        renorm = L.normalize(a.l, a.torsion)
        assert renorm == a and renorm.torsion == a.torsion
        assert (a + b) + c == a + (b + c)
        assert a + b == b + a
        assert (a + (-a)).is_zero()
        assert a - a == L.zero()
        assert (a + b).degree() == a.degree() + b.degree()
        assert 3 * a == a + a + a
        finite = a.order() != float("inf")
        assert finite == (a.degree() == 0)
    return n


def check_fiber_structure(n=200, seed=5531):
    """Fibers are kernel cosets, map back onto their degree, and are
    pairwise disjoint; the windowed fiber table agrees with direct solves."""
    rng = random.Random(seed)
    homs = {cid: builtin_group_hom(cid) for cid in "ABCD"}
    tables = {cid: as_elements(h, h.window_fibers(6)) for cid, h in homs.items()}
    for _ in range(n):
        cid = rng.choice("ABCD")
        h, table = homs[cid], tables[cid]
        kernel = h.kernel()
        x = rng.choice(sorted(table, key=lambda e: (e.l, e.torsion)))
        fib = h.fiber(x)
        assert fib == table[x]
        assert fib, "windowed table listed an empty fiber"
        assert set(fib) == {fib[0] + k for k in kernel}
        for y in fib:
            assert h(y) == x
        other = rng.choice(sorted(table, key=lambda e: (e.l, e.torsion)))
        if other != x:
            assert not set(fib) & set(h.fiber(other))
        assert h.target.zero() in {h(k) for k in kernel}
        assert all((k + k2) in kernel and (-k) in kernel for k in kernel for k2 in kernel)
    return n


def _random_algebras():
    out = []
    for ws in TUBULAR:
        params = [1, -1] if len(ws) == 4 else [1]
        out.append(CoordinateAlgebra(ws, RationalField(), params))
        fparams = [1, 2] if len(ws) == 4 else [1]
        out.append(CoordinateAlgebra(ws, PrimeField(7), fparams))
    return out


def check_confluence(n=200, seed=9029):
    """The rewriting oracle reaches the same canonical form whatever redex
    order is used, and that form is the reduced monomial of the algebra,
    which keeps the grading."""
    rng = random.Random(seed)
    algebras = _random_algebras()
    for _ in range(n):
        alg = rng.choice(algebras)
        ps = alg.weights.weights
        exps = tuple(rng.randrange(0, 3 * p) for p in ps)
        coeff = alg.field(rng.randint(1, 6))
        first = reference_reduce(alg, {exps: coeff}, redex="first")
        last = reference_reduce(alg, {exps: coeff}, redex="last")
        shuffled = reference_reduce(alg, {exps: coeff}, redex=rng.choice)
        assert first == last == shuffled
        assert all(a < p for e in first for a, p in zip(e[2:], ps[2:]))
        reduced = alg.reduce_monomial(exps, coeff)
        assert reduced.terms == first
        assert reduced.degree() == alg.weights.normalize(0, exps)
    return n


def _random_homogeneous(rng, alg, max_l=3):
    L = alg.weights
    for _ in range(40):
        x = L.normalize(rng.randint(0, max_l), tuple(rng.randrange(p) for p in L.weights))
        basis = alg.component_basis(x)
        if basis:
            break
    coeffs = [alg.field(rng.randint(0, 6)) for _ in basis]
    if all(c == alg.field.zero for c in coeffs):
        coeffs[0] = alg.field.one
    elem = alg.zero
    for c, e in zip(coeffs, basis):
        if c != alg.field.zero:
            elem = elem + alg.reduce_monomial(e, c)
    return x, elem


def check_hom_mult_graded(n=200, seed=4099, specs=None):
    """Generator-image substitution is multiplicative and graded on random
    homogeneous elements of the four built-in cases."""
    rng = random.Random(seed)
    if specs is None:
        specs = [
            builtin_case("A", RationalField()),
            builtin_case("B", PrimeField(7)),
            builtin_case("C", PrimeField(5)),
            builtin_case("D", PrimeField(7), lam=-1),
        ]
    for _ in range(n):
        spec = rng.choice(specs)
        phi, pi = spec.algebra_hom, spec.group_hom
        xa, a = _random_homogeneous(rng, phi.source)
        xb, b = _random_homogeneous(rng, phi.source)
        assert phi(a * b) == phi(a) * phi(b)
        fa = phi(a)
        if not fa.is_zero():
            assert fa.degree() == pi(xa)
        one = phi.source.one
        assert phi(one) == phi.target.one
    return n
