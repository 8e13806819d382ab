import functools
import io
import json

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from maps import CONFIG_FAIL, non_admissible_map
from reference import reference_power, reference_report
from wpline import (AlgebraHom, CoordinateAlgebra, GradednessError, PrimeField,
                    RationalField, RelationError, VerifyConfig, builtin_case,
                    builtin_group_hom, expected_kernel, find_admissible_primes,
                    homverify, row_rank)
from wpline import homverify
from wpline.config import parse_scalar
from wpline.stringgroup import GroupElement

Q = RationalField()
F5 = PrimeField(5)
F7 = PrimeField(7)
F17 = PrimeField(17)


class TestRank:
    def test_rational_rank(self):
        from fractions import Fraction as F
        rows = [[F(1), F(2)], [F(2), F(4)], [F(0), F(1)]]
        assert row_rank(rows) == 2
        assert row_rank([[1, 2], [2, 4], [0, 3]]) == 2

    def test_prime_rank(self):
        rows = [[1, 3, 0], [2, 6, 0], [0, 0, 0]]
        assert row_rank(rows, 7) == 1

    def test_empty(self):
        assert row_rank([]) == 0
        assert row_rank([], 7) == 0


class TestConstruction:
    def test_case_a_builds(self, case_specs):
        hom = case_specs["A"].algebra_hom
        x1, x2, x3, x4 = hom.target.gens
        assert hom.gen_images == (x1, x2, x3 * x4)

    def test_case_c_builds_over_f5(self, case_specs):
        hom = case_specs["C"].algebra_hom
        assert hom.source.weights.weights == (6, 3, 2)
        assert hom.target.weights.weights == (3, 3, 3)

    def test_wrong_target_parameter_fails_relation(self):
        pi = builtin_group_hom("A")
        source = CoordinateAlgebra((4, 4, 2), Q, [1])
        target = CoordinateAlgebra((2, 2, 2, 2), Q, [1, 2])
        x1, x2, x3, x4 = target.gens
        with pytest.raises(RelationError):
            AlgebraHom(source, target, pi, [x1, x2, x3 * x4])

    def test_zero_image_fails_gradedness(self):
        pi = builtin_group_hom("A")
        source = CoordinateAlgebra((4, 4, 2), Q, [1])
        target = CoordinateAlgebra((2, 2, 2, 2), Q, [1, -1])
        x1, x2, _, _ = target.gens
        with pytest.raises(GradednessError):
            AlgebraHom(source, target, pi, [x1, x2, target.zero])

    def test_wrong_degree_image_fails_gradedness(self):
        pi = builtin_group_hom("A")
        source = CoordinateAlgebra((4, 4, 2), Q, [1])
        target = CoordinateAlgebra((2, 2, 2, 2), Q, [1, -1])
        x1, x2, x3, x4 = target.gens
        with pytest.raises(GradednessError):
            AlgebraHom(source, target, pi, [x1, x2, x1 * x2])

    def test_inhomogeneous_image_fails_gradedness(self):
        pi = builtin_group_hom("A")
        source = CoordinateAlgebra((4, 4, 2), Q, [1])
        target = CoordinateAlgebra((2, 2, 2, 2), Q, [1, -1])
        x1, x2, x3, x4 = target.gens
        with pytest.raises(GradednessError):
            AlgebraHom(source, target, pi, [x1, x2, x3 * x4 + x1])

    def test_field_mismatch_rejected(self):
        pi = builtin_group_hom("A")
        source = CoordinateAlgebra((4, 4, 2), Q, [1])
        target = CoordinateAlgebra((2, 2, 2, 2), F7, [1, -1])
        with pytest.raises(ValueError):
            AlgebraHom(source, target, pi, list(target.gens[:3]))


class TestApply:
    def test_power_image(self, case_specs):
        hom = case_specs["A"].algebra_hom
        z1 = hom.source.gens[0]
        x1 = hom.target.gens[0]
        assert hom(z1 * z1) == x1 * x1

    def test_case_b_generator_image_degree(self, case_specs):
        spec = case_specs["B"]
        hom = spec.algebra_hom
        u2 = hom.source.gens[1]
        img = hom(u2)
        eps = spec.constants["epsilon"]
        x1, x2, _, _ = hom.target.gens
        assert img == x2 ** 2 + (eps - 1) * x1 ** 2
        assert img.degree() == hom.target.weights.canonical()

    def test_one_maps_to_one(self, case_specs):
        for spec in case_specs.values():
            hom = spec.algebra_hom
            assert hom(hom.source.one) == hom.target.one

    def test_wrong_algebra_rejected(self, case_specs):
        hom = case_specs["A"].algebra_hom
        with pytest.raises(ValueError):
            hom(hom.target.one)


class TestDegreeRecords:
    def test_case_a_canonical_degree(self, case_specs):
        hom = case_specs["A"].algebra_hom
        c = hom.target.weights.canonical()
        rec = hom.check_surjective_at(c)
        assert [str(y) for y in rec.fiber] == ["0;0,2,0", "0;2,0,0"]
        assert rec.source_dim == rec.target_dim == rec.image_rank == 2
        assert rec.passed

    def test_case_c_canonical_degree(self, case_specs):
        hom = case_specs["C"].algebra_hom
        c = hom.target.weights.canonical()
        rec = hom.check_surjective_at(c)
        assert rec.passed
        assert rec.target_dim == 2

    def test_mult_zero_degree_passes_vacuously(self, case_specs):
        hom = case_specs["A"].algebra_hom
        w = hom.target.weights.dualizing_element()
        rec = hom.check_surjective_at(w)
        assert rec.fiber
        assert rec.source_dim == rec.target_dim == rec.image_rank == 0
        assert rec.passed


class TestVerifyWindow:
    @pytest.mark.parametrize("cid", ["A", "B", "C", "D"])
    def test_builtin_cases_pass(self, case_specs, cid):
        result = case_specs[cid].algebra_hom.verify_window(10)
        assert result.passed
        assert result.admissibility.admissible
        assert result.records
        assert not result.failing_records()

    def test_zero_image_shows_rank_deficiency(self, case_specs):
        spec = case_specs["A"]
        target = spec.algebra_hom.target
        x1, x2, _, _ = target.gens
        broken = AlgebraHom.unchecked(spec.algebra_hom.source, target,
                                      spec.group_hom, [x1, x2, target.zero])
        result = broken.verify_window(6)
        assert not result.passed
        first_bad = result.failing_records()[0]
        # the first failing degree is the one containing the product of the
        # third and fourth coordinates
        assert str(first_bad.degree) == "0;0,0,1,1"
        assert first_bad.image_rank < first_bad.target_dim

    def test_report_shape_and_determinism(self, case_specs):
        result = case_specs["B"].algebra_hom.verify_window(5)
        blob1 = result.to_report(case="B", field_name="7",
                                 constants=case_specs["B"].report_constants())
        result2 = builtin_case("B", F7).algebra_hom.verify_window(5)
        blob2 = result2.to_report(case="B", field_name="7",
                                  constants=case_specs["B"].report_constants())
        assert blob1 == blob2
        report = json.loads(blob1)
        assert set(report) == {"case", "field", "window", "admissible", "kernel",
                               "constants", "records", "summary"}
        record = report["records"][0]
        assert set(record) == {"degree", "fiber", "source_dim", "target_dim",
                               "image_rank", "pass"}
        assert report["summary"] == "pass"


    def test_group_elements_only_for_eliminated_records(self, monkeypatch):
        """verify_window builds a GroupElement for each record it sends to
        check_surjective_at and each of its fiber elements, and for no other
        record.  The result stores the counts of those records, in the order
        of the calls, and nothing per inferred record; its verdict and its
        report build no GroupElement."""
        hom = builtin_case("A", Q).algebra_hom
        built, calls = [], []

        class Counting(GroupElement):
            def __init__(self, *args, **kwargs):
                built.append(self)
                super().__init__(*args, **kwargs)

        plain = AlgebraHom.check_surjective_at

        def spy(self, x, fiber=None):
            calls.append((x.l, x.torsion, 1 + len(fiber)))
            return plain(self, x, fiber)

        monkeypatch.setattr(homverify, "GroupElement", Counting)
        monkeypatch.setattr(AlgebraHom, "check_surjective_at", spy)
        result = hom.verify_window(40)
        eliminated = sum(n for *_, n in calls)
        assert len(built) <= eliminated
        assert [(l, tor) for l, tor, *_ in result.eliminated] == [c[:2] for c in calls]
        assert 0 < 10 * len(calls) < len(result.fibers)
        built.clear()
        text = result.to_report("A", "rationals")
        assert result.passed and not built
        monkeypatch.undo()
        assert 4 * eliminated < len(result.records)
        assert text == reference_report(result, "A", "rationals")


#: the keys of a report without its extras
REPORT_KEYS = {"case", "field", "window", "admissible", "kernel", "constants", "records",
               "summary"}


def _zero_image():
    """Demo 04's map: case A with phi(x_3) = 0."""
    spec = builtin_case("A", Q)
    target = spec.algebra_hom.target
    x1, x2, _, _ = target.gens
    return AlgebraHom.unchecked(spec.algebra_hom.source, target, spec.group_hom,
                                [x1, x2, target.zero])


#: the maps whose results the report property draws: cases A-D on the
#: benchmark's fields, a map neither effective nor onto, a non-admissible
#: one, and demo 04's, whose failing records chain above an induction level
POOL = {
    "A": lambda: builtin_case("A", Q).algebra_hom,
    "B": lambda: builtin_case("B", F7).algebra_hom,
    "C": lambda: builtin_case("C", F5).algebra_hom,
    "D": lambda: builtin_case("D", F7, lam=-1).algebra_hom,
    "fail": lambda: builtin_case(VerifyConfig.from_dict(CONFIG_FAIL), F5).algebra_hom,
    "non-admissible": lambda: non_admissible_map(
        F7, lambda target, _: [*target.gens, target.gens[0]]),
    "zero image": _zero_image,
}
_pool_hom = functools.cache(lambda name: POOL[name]())


@functools.cache
def _verified(name: str, window: int):
    return _pool_hom(name).verify_window(window)


_JSON_VALUES = st.recursive(st.none() | st.booleans() | st.integers() | st.text(),
                            lambda inner: st.lists(inner, max_size=3)
                            | st.dictionaries(st.text(), inner, max_size=3),
                            max_leaves=6)


@settings(max_examples=200, deadline=None)
@given(st.sampled_from(sorted(POOL)), st.integers(1, 30), st.text(), st.text(),
       st.dictionaries(st.text(), st.text(), max_size=3),
       st.dictionaries(st.text().filter(lambda k: k not in REPORT_KEYS), _JSON_VALUES,
                       max_size=3))
def test_report_text_matches_the_encoder(name, window, case, field_name, constants, extra):
    result = _verified(name, window)
    assert (result.to_report(case, field_name, constants, extra)
            == reference_report(result, case, field_name, constants, extra))


class TestBuiltinCases:
    @pytest.mark.parametrize("cid", ["A", "B", "C", "D"])
    def test_kernels_match_expectations(self, case_specs, cid):
        spec = case_specs[cid]
        assert spec.group_hom.kernel() == expected_kernel(cid)

    def test_case_a_over_prime_field(self):
        spec = builtin_case("A", F5)
        assert spec.algebra_hom.verify_window(6).passed

    def test_admissible_prime_discovery(self):
        assert find_admissible_primes("B", 3) == [7, 19, 31]
        assert find_admissible_primes("C", 3) == [5, 17, 29]
        assert find_admissible_primes("D", 3, lam=-1) == [7, 17, 23]
        assert find_admissible_primes("A", 2) == [5, 7]

    def test_root_choice_variants_both_verify(self):
        for pick in ("smallest", "largest"):
            spec = builtin_case("B", F7, root_pick=pick)
            assert spec.algebra_hom.verify_window(6).passed
        for pick in ("smallest", "largest"):
            spec = builtin_case("D", F17, lam=-1, root_pick=pick)
            assert spec.algebra_hom.verify_window(6).passed

    def test_case_d_rational_parameter(self):
        from fractions import Fraction
        spec = builtin_case("D", Q, lam=Fraction(3, 4))
        assert spec.constants["lambda_prime"] == 9
        assert spec.algebra_hom.verify_window(6).passed

    def test_unknown_case_rejected(self):
        with pytest.raises(ValueError):
            builtin_case("Z", Q)


def _map_parts(cfg: VerifyConfig, field, env: dict) -> tuple:
    """(source, target, group map, images) of a config's map over ``field``,
    made as ``VerifyConfig.build`` makes them, without constructing the map."""
    pi = cfg.group_hom()
    values = lambda texts: [parse_scalar(t, field, env) for t in texts]
    target = CoordinateAlgebra(pi.target, field, values(cfg.target_params))
    images = [target.element([(parse_scalar(c, field, env), e) for c, e in gen])
              for gen in cfg.phi]
    return CoordinateAlgebra(pi.source, field, values(cfg.source_params)), target, pi, images


def _residual_is_nonzero(source, target, images) -> bool:
    """Some source relation x_i^{q_i} = x_2^{q_2} - mu_i x_1^{q_1} fails on
    the images, by the sparse rewriting of ``reference``: no arithmetic of
    ``AlgebraElement`` is used."""
    qs, zero = source.weights.weights, target.field.zero
    f, g = (reference_power(target, images[j].terms, qs[j]) for j in (0, 1))
    for i, mu in enumerate(source.params, 2):
        residual = dict(reference_power(target, images[i].terms, qs[i]))
        for e, c in g.items():
            residual[e] = residual.get(e, zero) - c
        for e, c in f.items():
            residual[e] = residual.get(e, zero) + mu * c
        if any(c != zero for c in residual.values()):
            return True
    return False


#: the maps of the relation property: the built-in cases by (field, lambda),
#: ``CONFIG_FAIL`` (no relation) and ``non_admissible_map`` (N)
RELATION_POOL = {"A": [(Q, None), (F5, None)], "B": [(F7, None), (PrimeField(19), None)],
                 "C": [(F5, None), (F17, None)], "D": [(Q, -3), (F7, -1)],
                 "fail": [(Q, None), (F5, None)], "N": [(Q, None), (F7, None)]}
#: values for the last target parameter of a case (None: as it is)
TAMPERS = [None, "2", "3", "-1", "1/2", "-3/4"]


def test_relation_error_exactly_when_the_residual_is_nonzero():
    """Over F_q and Q, on the built-in cases with their last target
    parameter tampered or not, ``CONFIG_FAIL`` and ``non_admissible_map``
    with scaled images: construction raises RelationError exactly when an
    independently computed residual is nonzero, and both occur."""
    seen = set()

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(st.data())
    def check(data):
        kind = data.draw(st.sampled_from(sorted(RELATION_POOL)), label="map")
        field, lam = data.draw(st.sampled_from(RELATION_POOL[kind]), label="field")
        if kind == "N":
            scalars = [data.draw(st.integers(1, 4), label="scalar") for _ in range(3)]
            hom = non_admissible_map(field, lambda target, _: [
                c * y for c, y in zip(scalars, [*target.gens, target.gens[0]])])
            parts = hom.source, hom.target, hom.group_hom, list(hom.gen_images)
        else:
            cfg, env = VerifyConfig.from_dict(CONFIG_FAIL), {}
            if kind != "fail":
                spec = builtin_case(kind, field, lam=lam)
                tamper = None if kind == "C" else data.draw(st.sampled_from(TAMPERS),
                                                            label="tamper")
                spec = spec.tampered(tamper) if tamper else spec
                cfg, env = spec.config, spec.constants
            try:
                parts = _map_parts(cfg, field, env)
            except ValueError:  # the tampered parameter is 0, 1 or another one
                assume(False)
        nonzero = _residual_is_nonzero(parts[0], parts[1], parts[3])
        try:
            AlgebraHom(*parts)
        except RelationError:
            raised = True
        else:
            raised = False
        assert raised == nonzero, kind
        seen.add(raised)

    check()
    assert seen == {False, True}


class TestNegativeControls:
    def test_scalar_tamper_is_a_relation_error(self):
        # dropping the cube-root scalar from the second image leaves every
        # per-degree rank unchanged (each pooled image vector is only scaled),
        # so the defect surfaces in the relation residual instead
        spec = builtin_case("C", F17)
        tgt = spec.algebra_hom.target
        y1, y2, y3 = tgt.gens
        i = spec.constants["sqrt_minus_one"]
        with pytest.raises(RelationError):
            AlgebraHom(spec.algebra_hom.source, tgt, spec.group_hom,
                       [y3, y1 * y2, i * (y1 ** 3 + y2 ** 3)])

    def test_scalar_tamper_is_vacuous_where_the_scalar_is_one(self):
        # over F_5 the cube root of -4 is 1, so removing it changes nothing
        spec = builtin_case("C", F5)
        assert spec.constants["cbrt_minus_four"] == F5(1)
        tgt = spec.algebra_hom.target
        y1, y2, y3 = tgt.gens
        i = spec.constants["sqrt_minus_one"]
        hom = AlgebraHom(spec.algebra_hom.source, tgt, spec.group_hom,
                         [y3, y1 * y2, i * (y1 ** 3 + y2 ** 3)])
        assert hom.verify_window(5).passed

    def test_scalar_tamper_never_changes_ranks(self):
        # build the tampered map unchecked and confirm every degree record
        # still passes: rank deficiency cannot detect a scalar tamper
        spec = builtin_case("C", F17)
        tgt = spec.algebra_hom.target
        y1, y2, y3 = tgt.gens
        i = spec.constants["sqrt_minus_one"]
        broken = AlgebraHom.unchecked(spec.algebra_hom.source, tgt, spec.group_hom,
                                      [y3, y1 * y2, i * (y1 ** 3 + y2 ** 3)])
        result = broken.verify_window(5)
        assert all(r.passed for r in result.records)


class _Writes(list):
    """A text stream that keeps each write."""

    write = list.append


@pytest.mark.parametrize("block", [1, 3, homverify.REPORT_BLOCK, 10 ** 6])
def test_zero_image_report_streams_in_blocks_of_levels(monkeypatch, block):
    """Demo 04's zero-image map fails at window 40, on eliminated and plain
    levels alike.  Written to a stream, its report comes in blocks of at
    least ``block`` texts (one level each) between the head and the tail, and the writes join to the text to_report returns,
    which is the reference dump."""
    spec = builtin_case("A", Q)
    target = spec.algebra_hom.target
    x1, x2, _, _ = target.gens
    result = AlgebraHom.unchecked(spec.algebra_hom.source, target, spec.group_hom,
                                  [x1, x2, target.zero]).verify_window(40)
    monkeypatch.setattr(homverify, "REPORT_BLOCK", block)
    writes = _Writes()
    assert result.to_report("A", "rationals", out=writes) is None
    text = result.to_report("A", "rationals")
    assert "".join(writes) == text == reference_report(result, "A", "rationals")
    assert not result.passed and '"pass": false' in text
    blocks = writes[1:-1:2]  # the head and each block after the first lead in a write
    assert all(b.count('"degree"') >= block for b in blocks[:-1])
    if block == 1:
        assert len(blocks) == 81  # one per level, -40..40
    elif block == 3:
        assert 1 < len(blocks) < 81
    elif block > len(text):
        assert len(blocks) == 1
    stream = io.StringIO()
    result.to_report("A", "rationals", out=stream)
    assert stream.getvalue() == text


def test_one_template_per_class_writes_the_report(monkeypatch):
    """Demo 04's zero-image report at window 40 is made from one
    ``_template`` per class of the period table, on its plain and other
    levels alike, and is the reference dump."""
    spec = builtin_case("A", Q)
    target = spec.algebra_hom.target
    x1, x2, _, _ = target.gens
    result = AlgebraHom.unchecked(spec.algebra_hom.source, target, spec.group_hom,
                                  [x1, x2, target.zero]).verify_window(40)
    calls = []
    template = homverify._template
    monkeypatch.setattr(homverify, "_template", lambda *a: calls.append(a) or template(*a))
    text = result.to_report("A", "rationals")
    assert text == reference_report(result, "A", "rationals")
    classes = {id(c) for _, _, c in result.fibers.levels()}
    assert len(calls) == len(classes) < len(result.records)
