import math

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from reference import (as_elements, element_key, fiber_table, reference_admissibility,
                       reference_fiber, reference_kernel, reference_order,
                       reference_window_fibers)
from wpline import (GroupElement, GroupHom, InfiniteFiberError, WeightSequence,
                    WellDefinednessError, builtin_group_hom, expected_kernel, stringgroup)

L2222 = WeightSequence((2, 2, 2, 2))
L333 = WeightSequence((3, 3, 3))
L442 = WeightSequence((4, 4, 2))
L632 = WeightSequence((6, 3, 2))


class TestNormalForm:
    def test_carries_negative_coordinates(self):
        e = L442.normalize(2, (-3, -3, -1))
        assert str(e) == "-1;1,1,1"
        # cross-check: adding the dualizing element gives zero
        assert (e + L442.dualizing_element()).is_zero()

    def test_dualizing_combination(self):
        assert str(L2222.normalize(2, (-1, -1, -1, -1))) == "-2;1,1,1,1"

    def test_identity(self):
        assert L632.normalize(0, (0, 0, 0)) == L632.zero()

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            L442.normalize(0, (1, 2))

    def test_parse_round_trip(self):
        e = L632.parse("-2;5,2,1")
        assert (e.l, e.torsion) == (-2, (5, 2, 1))
        assert L632.parse(str(e)) == e

    def test_parse_rejects_garbage(self):
        with pytest.raises(ValueError):
            L632.parse("not an element")

    def test_weight_validation(self):
        with pytest.raises(ValueError):
            WeightSequence((2,))
        with pytest.raises(ValueError):
            WeightSequence((2, 1))


class TestArithmetic:
    def test_defining_relation(self):
        a = L442.normalize(0, (3, 0, 0)) + L442.normalize(0, (1, 0, 0))
        assert a == L442.canonical()

    def test_twice_dualizing_632(self):
        w = L632.dualizing_element()
        assert str(2 * w) == "-1;4,1,0"

    def test_thrice_dualizing_632(self):
        w = L632.dualizing_element()
        assert str(3 * w) == "-1;3,0,1"

    def test_mixed_groups_rejected(self):
        with pytest.raises(ValueError):
            L442.zero() + L632.zero()

    def test_pretty(self):
        assert L442.normalize(-1, (2, 2, 0)).pretty() == "2z1+2z2-c"
        assert L442.zero().pretty() == "0"
        assert L2222.canonical().pretty() == "c"


class TestDegreeAndMult:
    @pytest.mark.parametrize("L", [L2222, L333, L442, L632])
    def test_generator_degrees(self, L):
        for g, p in zip(L.gens, L.weights):
            assert g.degree() == L.lcm // p

    def test_dualizing_degree_zero_tubular(self):
        assert L632.dualizing_element().degree() == 0
        assert L2222.zero().degree() == 0

    def test_mult_examples(self):
        assert L2222.normalize(1, (0, 0, 0, 0)).mult() == 2
        assert L442.dualizing_element().mult() == 0
        assert L632.normalize(0, (5, 2, 1)).mult() == 1


class TestDualizingAndOrders:
    @pytest.mark.parametrize("ws,normal,order", [
        ((4, 4, 2), "-2;3,3,1", 4),
        ((3, 3, 3), "-2;2,2,2", 3),
        ((6, 3, 2), "-2;5,2,1", 6),
        ((2, 2, 2, 2), "-2;1,1,1,1", 2),
    ])
    def test_dualizing_element(self, ws, normal, order):
        L = WeightSequence(ws)
        w = L.dualizing_element()
        assert str(w) == normal
        assert w.degree() == 0
        assert w.order() == order

    def test_canonical_is_infinite(self):
        assert L442.canonical().order() == math.inf

    def test_zero_has_order_one(self):
        assert L333.zero().order() == 1

    @given(st.lists(st.integers(2, 12), min_size=2, max_size=4), st.data())
    def test_closed_form_matches_repeated_addition(self, ws, data):
        # (d_j/g) x_i - (d_i/g) x_j has degree 0 for the generator degrees
        # d = lcm/p and g = gcd(d_i, d_j); these pairs span the torsion part
        L = WeightSequence(tuple(ws))
        d = L.degree_weights
        elem = data.draw(st.sampled_from([0, 0, 0, 1])) * L.canonical()
        for i in range(len(ws)):
            for j in range(i + 1, len(ws)):
                g = math.gcd(d[i], d[j])
                pair = d[j] // g * L.gens[i] - d[i] // g * L.gens[j]
                elem = elem + data.draw(st.integers(-6, 6)) * pair
        assert elem.order() == reference_order(elem)


class TestTubular:
    @pytest.mark.parametrize("ws", [(2, 2, 2, 2), (3, 3, 3), (4, 4, 2), (6, 3, 2)])
    def test_tubular_types(self, ws):
        assert WeightSequence(ws).is_tubular()

    @pytest.mark.parametrize("ws", [(2, 3, 7), (2, 2), (5, 4, 3)])
    def test_non_tubular(self, ws):
        assert not WeightSequence(ws).is_tubular()


class TestHomConstruction:
    def test_case_a_images(self):
        h = builtin_group_hom("A")
        x1, x2, x3, x4 = L2222.gens
        assert h.gen_images == (x1, x2, x3 + x4)
        assert h.c_image == 2 * L2222.canonical()

    def test_inconsistent_images_rejected(self):
        x1, x2, x3, _ = L2222.gens
        with pytest.raises(WellDefinednessError) as exc:
            GroupHom(L442, L2222, [x1, x2, x3])
        assert str(exc.value) == "2*image[3] = 1;0,0,0,0 but 4*image[1] = 2;0,0,0,0"

    @pytest.mark.parametrize("cid", ["A", "B", "C", "D"])
    def test_images_of_common_element_agree(self, cid):
        h = builtin_group_hom(cid)
        for q, im in zip(h.source.weights, h.gen_images):
            assert q * im == h.c_image

    def test_image_count_checked(self):
        with pytest.raises(ValueError):
            GroupHom(L442, L2222, [L2222.zero()])


class TestApply:
    def test_sum_of_images(self):
        h = builtin_group_hom("A")
        assert str(h(L442.normalize(0, (1, 0, 1)))) == "0;1,0,1,1"

    def test_twice_dualizing_in_kernel(self):
        h = builtin_group_hom("A")
        assert h(L442.normalize(-1, (2, 2, 0))).is_zero()

    def test_zero_maps_to_zero(self):
        for cid in "ABCD":
            h = builtin_group_hom(cid)
            assert h(h.source.zero()).is_zero()

    def test_wrong_source_rejected(self):
        h = builtin_group_hom("A")
        with pytest.raises(ValueError):
            h(L2222.zero())


class TestEffectiveness:
    def test_builtin_cases_effective(self):
        for cid in "ABCD":
            assert builtin_group_hom(cid).is_effective()

    def test_canonical_images_not_effective(self):
        L22 = WeightSequence((2, 2))
        c = L2222.canonical()
        h = GroupHom(L22, L2222, [c, c])
        assert not h.is_effective()

    def test_finite_image_not_effective(self):
        L22 = WeightSequence((2, 2))
        w = L2222.dualizing_element()  # torsion, so the image is finite
        h = GroupHom(L22, L2222, [w, w])
        assert not h.is_effective()


class TestFibers:
    def test_case_a_fiber_of_canonical(self):
        h = builtin_group_hom("A")
        fib = h.fiber(L2222.canonical())
        assert fib == (L442.normalize(0, (0, 2, 0)), L442.normalize(0, (2, 0, 0)))

    def test_case_b_fiber_of_zero(self):
        h = builtin_group_hom("B")
        assert h.fiber(L2222.zero()) == tuple(sorted(expected_kernel("B"), key=element_key))

    def test_case_a_missing_degree_has_empty_fiber(self):
        h = builtin_group_hom("A")
        x3 = L2222.gens[2]
        assert h.fiber(x3) == ()

    def test_infinite_fiber_guard(self):
        L22 = WeightSequence((2, 2))
        w = L2222.dualizing_element()
        h = GroupHom(L22, L2222, [w, w])
        with pytest.raises(InfiniteFiberError):
            h.fiber(L2222.zero())

    def test_window_table_matches_direct_fibers(self):
        for cid in "ABCD":
            h = builtin_group_hom(cid)
            table = as_elements(h, h.window_fibers(4))
            assert table
            for x, fib in table.items():
                assert fib == h.fiber(x)


class TestKernels:
    @pytest.mark.parametrize("cid", ["A", "B", "C", "D"])
    def test_golden_kernels(self, cid):
        h = builtin_group_hom(cid)
        assert h.kernel() == expected_kernel(cid)

    def test_case_d_kernel_generated_by_point_difference(self):
        x1, x2, x3, x4 = L2222.gens
        gen = x3 - x4
        h = builtin_group_hom("D")
        assert h.kernel() == (L2222.zero(), gen)
        assert (2 * gen).is_zero()

    @pytest.mark.parametrize("cid,mult", [("A", 2), ("B", 2), ("C", 3)])
    def test_kernels_generated_by_dualizing_multiples(self, cid, mult):
        h = builtin_group_hom(cid)
        w = h.source.dualizing_element()
        gen = mult * w
        generated = set()
        acc = h.source.zero()
        for _ in range(gen.order()):
            generated.add(acc)
            acc = acc + gen
        assert set(h.kernel()) == generated

    def test_kernel_past_the_table_bound_is_refused(self):
        """(250,250) -> (3,3,3) with x_j -> x_3: 62500 residues, but pi(c_S)
        = 83c + x_3 has period n = 3, so the period table would pass
        MAX_RESIDUES.  Every fiber is read off that table, so the kernel and
        a single fiber are refused with the table's error, as windows of
        fibers and admissibility are."""
        src = WeightSequence((250, 250))
        x3 = L333.gens[2]
        h = GroupHom(src, L333, [x3, x3])
        assert 3 * math.prod(src.weights) > stringgroup.MAX_RESIDUES
        for call in (h.kernel, lambda: h.fiber(L333.zero()), lambda: h.window_fibers(1),
                     lambda: h.is_admissible(1)):
            with pytest.raises(ValueError, match="period table"):
                call()


class TestAdmissibility:
    @pytest.mark.parametrize("cid", ["A", "B", "C", "D"])
    def test_builtin_cases_admissible(self, cid):
        rep = builtin_group_hom(cid).is_admissible(50)
        assert rep.admissible
        assert rep.effective
        assert rep.failures == ()
        assert rep.edge_regime_ok
        assert rep.checked > 0
        assert rep.kernel[0].is_zero()

    def test_doubled_point_hom_fails(self):
        L22 = WeightSequence((2, 2))
        x1 = L22.gens[0]
        h = GroupHom(L22, L22, [x1, x1])
        rep = h.is_admissible(10)
        assert not rep.admissible
        assert rep.failures
        x, got, want = rep.failures[0]
        assert got != want

    def test_identity_hom_admissible(self):
        for L in (L2222, L442):
            h = GroupHom(L, L, list(L.gens))
            rep = h.is_admissible(10)
            assert rep.admissible
            assert set(rep.kernel) == {L.zero()}

    def test_window_validation(self):
        with pytest.raises(ValueError):
            builtin_group_hom("A").is_admissible(0)

    def test_period_table_size_is_capped(self):
        # pi(c_S) = 2 x_2 is torsion-free only at n = 50001 times
        T = WeightSequence((2, 50001))
        x2 = T.gens[1]
        h = GroupHom(WeightSequence((2, 2)), T, [x2, x2])
        for call in (h.window_fibers, h.is_admissible):
            with pytest.raises(ValueError, match="period table"):
                call(1)

    @pytest.mark.parametrize("cid", ["A", "B", "C", "D"])
    def test_period_table_normalizes_each_residue_once(self, monkeypatch, cid):
        """n = 1 for the four cases, so the table's entries are the residues'
        own images: a cold ``_classes`` takes one normal form per source
        residue, in ``_residues``, and none of its own."""
        h = builtin_group_hom(cid)
        normal, calls = stringgroup._normal, []

        def counting(*args):
            calls.append(args)
            return normal(*args)

        monkeypatch.setattr(stringgroup, "_normal", counting)
        n, _, by_class = h._classes
        assert n == 1
        assert len(calls) == math.prod(h.source.weights) == sum(
            len(pairs) for classes in by_class.values() for _, pairs in classes)

    def test_negation_automorphism(self):
        # canonical element maps to negative degree; fibers are singletons
        # and the mult-sum condition fails because mult is not symmetric
        h = GroupHom(L442, L442, [-g for g in L442.gens])
        assert h.is_effective()
        assert h.c_image.degree() < 0
        c = L442.canonical()
        fib = h.fiber(c)
        assert fib == (-c,)
        assert h.kernel() == (L442.zero(),)
        table = as_elements(h, h.window_fibers(5))
        for x, ys in table.items():
            assert ys == h.fiber(x)
        rep = h.is_admissible(5)
        assert not rep.admissible and rep.failures


#: source and target weights of the random group maps: the tubular types and
#: a few others, each with at most 36 source torsion residues
MAP_SOURCES = [(2, 2), (2, 4), (5, 2), (3, 3, 3), (4, 4, 2), (6, 3, 2), (2, 2, 2, 2)]
MAP_TARGETS = [(2, 2, 2, 2), (3, 3, 3), (4, 4, 2), (6, 3, 2), (2, 4), (5, 3)]


def _torsion_elements(L):
    """The elements of degree 0 of a string group."""
    out = []
    for tor in L.torsion_tuples():
        deg = sum(v * d for v, d in zip(tor, L.degree_weights))
        if deg % L.lcm == 0:
            out.append(L.normalize(-deg // L.lcm, tor))
    return out


@st.composite
def group_maps(draw):
    """A well-defined group map with pi(c_S) = Q z for Q the lcm of the
    source weights and z random, of either sign of degree: the j-th
    generator goes to (Q / q_j) z plus an element killed by q_j."""
    src = WeightSequence(draw(st.sampled_from(MAP_SOURCES), label="source"))
    tgt = WeightSequence(draw(st.sampled_from(MAP_TARGETS), label="target"))
    z = tgt.normalize(draw(st.integers(-2, 2), label="z level"),
                      tuple(draw(st.integers(0, p - 1), label="z torsion") for p in tgt.weights))
    images = []
    for q in src.weights:
        killed = [t for t in _torsion_elements(tgt) if (q * t).is_zero()]
        images.append((src.lcm // q) * z + draw(st.sampled_from(killed), label="torsion"))
    return GroupHom(src, tgt, images)


L24 = WeightSequence((2, 4))

#: non-admissible maps where fiber total minus mult changes sign inside one
#: affine piece of a class: the level between passes, its neighbours in the
#: class fail with opposite signs.  pi(c_S) = 2c in the first (n = 1, root
#: at l = 1) and c + u_2 in the second (n = 3 with 3 pi(c_S) = 4c, root at
#: l = 4)
SIGN_CHANGE = [GroupHom(L24, L2222, [L2222.parse("0;0,1,1,0"), L2222.parse("-1;1,1,0,1")]),
               GroupHom(L24, L632, [L632.parse("-1;3,2,1"), L632.parse("-1;3,1,1")])]


def _tuples(table):
    """A ``reference_window_fibers`` table on (l, torsion) tuples."""
    return {(x.l, x.torsion): tuple((y.l, y.torsion) for y in ys) for x, ys in table.items()}


class TestAgainstReference:
    """The group layer on (l, torsion) tuples against the ``GroupElement``
    oracles of ``reference.py``."""

    @settings(max_examples=200, deadline=None)
    @given(group_maps(), st.integers(1, 24), st.data())
    # pi(c_S) = 2c + 2y_3 carries torsion, as in test_kernel's
    # test_canonical_image_with_torsion_is_never_inferred
    @example(GroupHom(L24, L333, [L333.parse("1;0,0,1"), L333.parse("0;0,0,2")]), 24, None)
    # pi(c_S) = -c has negative degree
    @example(GroupHom(L442, L442, [-g for g in L442.gens]), 24, None)
    @example(SIGN_CHANGE[0], 24, None)
    @example(SIGN_CHANGE[1], 24, None)
    @example(SIGN_CHANGE[1], 1, None)
    def test_fibers_and_admissibility_match_reference(self, h, window, data):
        if h.c_image.degree() == 0:
            for call in (lambda: h.window_fibers(window), lambda: h.is_admissible(window),
                         lambda: reference_window_fibers(h, window)):
                with pytest.raises(InfiniteFiberError):
                    call()
            return
        table = fiber_table(h.window_fibers(window))
        assert list(table) == sorted(table)
        assert all(list(ys) == sorted(ys) for ys in table.values())
        want = reference_window_fibers(h, window)
        assert table == _tuples(want)
        assert h.is_admissible(window) == reference_admissibility(h, window)
        if data is not None:
            if want:
                x = data.draw(st.sampled_from(sorted(want, key=element_key)))
                assert h.fiber(x) == tuple(sorted(reference_fiber(h, x),
                                                  key=element_key)) == want[x]
            # far outside any window, and often outside the image
            x = GroupElement(h.target, data.draw(st.integers(-10 ** 6, 10 ** 6)),
                             data.draw(st.tuples(*(st.integers(0, p - 1)
                                                   for p in h.target.weights))))
            assert h.fiber(x) == tuple(sorted(reference_fiber(h, x), key=element_key))

    @settings(max_examples=200, deadline=None)
    @given(group_maps())
    @example(GroupHom(L24, L333, [L333.parse("1;0,0,1"), L333.parse("0;0,0,2")]))
    @example(GroupHom(L442, L442, [-g for g in L442.gens]))
    @example(SIGN_CHANGE[0])
    @example(SIGN_CHANGE[1])
    def test_kernel_off_the_period_table_is_the_fiber_of_zero(self, h):
        """The kernel read off the period table, zero first, is the preimage
        of zero that the reference solves residue by residue, also when
        pi(c_S) carries torsion (n > 1) or has negative degree."""
        assume(h.c_image.degree() != 0)
        kernel = h.kernel()
        assert kernel[0] == h.source.zero()
        assert list(kernel[1:]) == sorted(kernel[1:], key=element_key)
        assert kernel == reference_kernel(h)
        zero_fiber = h.fiber(h.target.zero())
        assert zero_fiber == tuple(sorted(reference_fiber(h, h.target.zero()), key=element_key))
        assert set(kernel) == set(zero_fiber)
        assert len(kernel) == len(set(kernel))

    @settings(max_examples=30, deadline=None)
    @given(group_maps(), st.integers(25, 64))
    def test_admissibility_matches_reference_on_wide_windows(self, h, window):
        assume(h.c_image.degree() != 0)
        assert h.is_admissible(window) == reference_admissibility(h, window)

    @pytest.mark.parametrize("h", SIGN_CHANGE)
    def test_sign_change_inside_a_piece(self, h):
        _, m = h._period
        rep = h.is_admissible(24)
        assert rep == reference_admissibility(h, 24)
        diff = {(x.l, x.torsion): got - want for x, got, want in rep.failures}
        assert [(l, t) for l, t in fiber_table(h.window_fibers(24)) if (l, t) not in diff
                and diff.get((l - m, t), 0) * diff.get((l + m, t), 0) < 0]

    @settings(max_examples=60, deadline=None)
    @given(group_maps(), st.integers(1, 24))
    @example(SIGN_CHANGE[1], 1)
    def test_window_fibers_view(self, h, window):
        """``level()`` gives each level as ``levels()`` yields it, in
        ascending order, and an empty level at every other L."""
        assume(h.c_image.degree() != 0)
        fibers = h.window_fibers(window)
        levels = list(fibers.levels())
        assert [l for l, _, _ in levels] == sorted({l for l, _, _ in levels})
        at = {l: (shift, classes) for l, shift, classes in levels}
        for l in range(-window - 2, window + 3):
            assert fibers.level(l) == at.get(l, (0, []))

    @settings(max_examples=60, deadline=None)
    @given(group_maps(), st.integers(1, 24))
    @example(SIGN_CHANGE[1], 1)
    def test_window_fibers_length_counts_the_degrees(self, h, window):
        """The length, counted per class of the period table, is the
        number of (level, class) pairs ``levels()`` yields."""
        assume(h.c_image.degree() != 0)
        fibers = h.window_fibers(window)
        assert len(fibers) == sum(len(classes) for _, _, classes in fibers.levels())

    @pytest.mark.parametrize("cid", ["A", "B", "C", "D", "identity"])
    @pytest.mark.parametrize("window", [1, 7, 24])
    def test_admissible_maps_match_reference(self, cid, window):
        h = GroupHom(L632, L632, L632.gens) if cid == "identity" else builtin_group_hom(cid)
        assert as_elements(h, h.window_fibers(window)) == reference_window_fibers(h, window)
        rep = h.is_admissible(window)
        assert rep.admissible and rep == reference_admissibility(h, window)


class TestMultIdentities:
    def test_even_split(self):
        for l in range(-100, 101, 2):
            lhs = max(l // 2 + 1, 0) + max((l - 2) // 2 + 1, 0)
            assert lhs == max(l + 1, 0)

    def test_odd_split(self):
        for l in range(-99, 101, 2):
            lhs = 2 * max((l - 1) // 2 + 1, 0)
            assert lhs == max(l + 1, 0)

    def test_third_splits(self):
        # the analogous identities for fibers of size three
        for l in range(-99, 100):
            if l % 3 == 0:
                lhs = max(l // 3 + 1, 0) + 2 * max((l - 3) // 3 + 1, 0)
            elif l % 3 == 1:
                lhs = 2 * max((l - 1) // 3 + 1, 0) + max((l - 4) // 3 + 1, 0)
            else:
                lhs = 3 * max((l - 2) // 3 + 1, 0)
            assert lhs == max(l + 1, 0), l
