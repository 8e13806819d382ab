"""Acceptance gate: every criterion runs at its stated tolerance and prints
one pass/fail line (run with -s to see them)."""

import math
import time
from contextlib import contextmanager

import pytest

import props
from wpline import stringgroup
from wpline import (AlgebraHom, CoordinateAlgebra, GroupHom, PrimeField,
                    RationalField, RelationError, WeightSequence,
                    WellDefinednessError, builtin_case, builtin_group_hom,
                    expected_kernel, find_admissible_primes)

TUBULAR = [(2, 2, 2, 2), (3, 3, 3), (4, 4, 2), (6, 3, 2)]


@contextmanager
def criterion(number, label):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        print("[acceptance] criterion %d (%s): FAIL (%.3f s)"
              % (number, label, time.perf_counter() - start))
        raise
    print("[acceptance] criterion %d (%s): PASS (%.3f s)"
          % (number, label, time.perf_counter() - start))


def test_criterion_1_dualizing_orders():
    with criterion(1, "dualizing element orders 2,3,4,6"):
        for ws, want in zip(TUBULAR, (2, 3, 4, 6)):
            L = WeightSequence(ws)
            start = time.perf_counter()
            got = L.dualizing_element().order()
            elapsed = time.perf_counter() - start
            assert got == want, (ws, got)
            assert elapsed < 0.001, "order for %s took %.4f s" % (ws, elapsed)


def test_criterion_2_kernel_goldens(monkeypatch):
    golden = {
        "A": {"0;0,0,0", "-1;2,2,0"},
        "B": {"0;0,0,0", "-1;4,1,0", "-1;2,2,0"},
        "C": {"0;0,0,0", "-1;3,0,1"},
        "D": {"0;0,0,0,0", "-1;0,0,1,1"},
    }
    normal, calls = stringgroup._normal, []

    def counting(*args):
        calls.append(1)
        return normal(*args)

    monkeypatch.setattr(stringgroup, "_normal", counting)
    with criterion(2, "kernels match the four golden sets"):
        for cid, want in golden.items():
            hom = builtin_group_hom(cid)
            calls.clear()
            got = {str(k) for k in hom.kernel()}
            cold = len(calls)
            assert got == want, (cid, got)
            assert set(map(str, expected_kernel(cid))) == want
            # a cold kernel is read off the period table, which takes one
            # normal form per residue (n = 1 for the four cases)
            assert cold == math.prod(hom.source.weights), "kernel %s took %d normal forms" % (
                cid, cold)


def test_criterion_3_admissibility_and_mult_identities(monkeypatch):
    normal, calls = stringgroup._normal, []

    def counting(*args):
        calls.append(1)
        return normal(*args)

    with criterion(3, "admissibility at window 64 plus mult identities"):
        start = time.perf_counter()
        for cid in "ABCD":
            rep = builtin_group_hom(cid).is_admissible(64)
            assert rep.effective, cid
            assert rep.failures == (), cid
            assert rep.edge_regime_ok, cid
            assert rep.admissible, cid
        # a cold check builds the period table, n normal forms per residue,
        # and no more at any window
        monkeypatch.setattr(stringgroup, "_normal", counting)
        for cid in "ABCD":
            for window in (64, 10 ** 9):
                hom = builtin_group_hom(cid)
                calls.clear()
                assert hom.is_admissible(window).admissible, (cid, window)
                n = hom._period[0]
                assert len(calls) == n * math.prod(hom.source.weights), (cid, window)
        monkeypatch.undo()
        for l in range(-100, 101):
            if l % 2 == 0:
                split = max(l // 2 + 1, 0) + max((l - 2) // 2 + 1, 0)
            else:
                split = 2 * max((l - 1) // 2 + 1, 0)
            assert split == max(l + 1, 0), l
        assert time.perf_counter() - start < 1.0


def test_criterion_4_dimension_formula():
    with criterion(4, "dim = mult = brute force for |l| <= 10"):
        start = time.perf_counter()
        checked = 0
        for ws in TUBULAR:
            params = [1, -1] if len(ws) == 4 else [1]
            alg = CoordinateAlgebra(ws, RationalField(), params)
            L = alg.weights
            for l in range(-10, 11):
                for tor in L.torsion_tuples():
                    x = L.normalize(l, tor)
                    basis_dim = len(alg.component_basis(x))
                    assert basis_dim == x.mult() == alg.brute_force_dim(x), str(x)
                    checked += 1
        assert checked >= 500, checked
        assert time.perf_counter() - start < 30.0


def test_criterion_5_graded_isomorphisms():
    with criterion(5, "graded isomorphism verified, window 20, multi prime"):
        start = time.perf_counter()
        result = builtin_case("A", RationalField()).algebra_hom.verify_window(20)
        assert result.passed and result.records
        assert time.perf_counter() - start < 10.0
        for cid, lam in (("B", None), ("C", None), ("D", -1)):
            start = time.perf_counter()
            qs = find_admissible_primes(cid, count=3, lam=lam)
            assert len(qs) == 3, (cid, qs)
            for q in qs:
                spec = builtin_case(cid, PrimeField(q), lam=lam)
                result = spec.algebra_hom.verify_window(20)
                assert result.passed, (cid, q)
            assert time.perf_counter() - start < 10.0, (cid, qs)


def test_criterion_6_negative_controls():
    with criterion(6, "tampered configurations fail with designated errors"):
        start = time.perf_counter()

        # wrong target parameter: the relation residual is nonzero
        pi = builtin_group_hom("A")
        source = CoordinateAlgebra((4, 4, 2), RationalField(), [1])
        bad_target = CoordinateAlgebra((2, 2, 2, 2), RationalField(), [1, 2])
        x1, x2, x3, x4 = bad_target.gens
        with pytest.raises(RelationError):
            AlgebraHom(source, bad_target, pi, [x1, x2, x3 * x4])

        # inconsistent group images
        L442 = WeightSequence((4, 4, 2))
        L2222 = WeightSequence((2, 2, 2, 2))
        g = L2222.gens
        with pytest.raises(WellDefinednessError):
            GroupHom(L442, L2222, [g[0], g[1], g[2]])

        # dropped cube-root scalar: fails, as a relation residual; scaling a
        # generator image can never lower any per-degree rank, so the error
        # class pool for the controls is {RelationError, WellDefinednessError,
        # rank deficiency} with this control landing on the first
        spec = builtin_case("C", PrimeField(17))
        tgt = spec.algebra_hom.target
        y1, y2, y3 = tgt.gens
        i = spec.constants["sqrt_minus_one"]
        with pytest.raises(RelationError):
            AlgebraHom(spec.algebra_hom.source, tgt, spec.group_hom,
                       [y3, y1 * y2, i * (y1 ** 3 + y2 ** 3)])

        # rank deficiency, exhibited by a zeroed image behind an unchecked
        # construction: the verifier must catch it degree-wise
        spec_a = builtin_case("A", RationalField())
        target = spec_a.algebra_hom.target
        x1, x2, _, _ = target.gens
        broken = AlgebraHom.unchecked(spec_a.algebra_hom.source, target,
                                      spec_a.group_hom, [x1, x2, target.zero])
        result = broken.verify_window(6)
        assert not result.passed
        bad = result.failing_records()[0]
        assert bad.image_rank < bad.target_dim

        assert time.perf_counter() - start < 5.0


def test_criterion_7_property_suites():
    with criterion(7, "property suites, 200+ randomized instances each"):
        start = time.perf_counter()
        assert props.check_group_axioms(200) == 200
        assert props.check_fiber_structure(200) == 200
        assert props.check_confluence(200) == 200
        assert props.check_hom_mult_graded(200) == 200
        assert time.perf_counter() - start < 30.0
