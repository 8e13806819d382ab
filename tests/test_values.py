"""Value semantics of the package's record classes: repr text, equality,
hashes, input errors, keyword construction and copies with one field
replaced.  The expected values were pinned while the classes were still
declared with ``dataclasses``, so that the hand-written classes keep what
callers (and the iteration order of sets of elements) depend on."""

import pytest

from wpline import (CaseSpec, DegreeRecord, GroupElement, PrimeField, RelationError,
                    VerifyConfig, WeightSequence, builtin_case, case_config)
from wpline.cases import CASE_IDS


class TestWeightSequence:
    def test_repr_eq_hash(self):
        w = WeightSequence((2, 3))
        assert repr(w) == "WeightSequence(weights=(2, 3))"
        assert w == WeightSequence([2, "3"]) and w.weights == (2, 3)
        assert w != WeightSequence((3, 2))
        assert hash(w) == hash(((2, 3),))
        assert w.__eq__((2, 3)) is NotImplemented
        assert w != (2, 3)

    @pytest.mark.parametrize("weights, message", [
        ((1, 2), "every weight must be at least 2, got (1, 2)"),
        ((5,), "a weight sequence needs at least two weights"),
        ((1,), "a weight sequence needs at least two weights"),
    ])
    def test_errors(self, weights, message):
        with pytest.raises(ValueError) as info:
            WeightSequence(weights)
        assert str(info.value) == message


class TestGroupElement:
    def test_repr_eq_hash(self):
        w = WeightSequence((2, 3))
        g = w.parse("1;1,2")
        assert repr(g) == ("GroupElement(weights=WeightSequence(weights=(2, 3)), l=1, "
                           "torsion=(1, 2))")
        assert g == GroupElement(w, 1, (1, 2)) == w.normalize(-1, (3, 5))
        assert g != GroupElement(WeightSequence((2, 3, 2)), 1, (1, 2))
        assert g != w.parse("1;1,1") and g != w.parse("0;1,2")
        assert hash(g) == hash((w, 1, (1, 2)))
        assert g.__eq__((w, 1, (1, 2))) is NotImplemented

    def test_keywords_and_set_order(self):
        w = WeightSequence((4, 4, 2))
        g = GroupElement(weights=w, l=-1, torsion=(2, 2, 0))
        assert (g.weights, g.l, g.torsion) == (w, -1, (2, 2, 0))
        elems = [w.normalize(l, (a, b, 1)) for l in range(-2, 3) for a in range(4)
                 for b in range(4)]
        pairs = [(e.weights, e.l, e.torsion) for e in elems]
        assert [(e.l, e.torsion) for e in set(elems)] == [(l, t) for _, l, t in set(pairs)]


def test_degree_record_keywords():
    w = WeightSequence((2, 3))
    g = w.parse("1;1,2")
    r = DegreeRecord(degree=g, fiber=(g,), source_dim=2, target_dim=2, image_rank=1)
    assert (r.degree, r.fiber, r.source_dim, r.target_dim, r.image_rank) == (g, (g,), 2, 2, 1)
    assert not r.passed
    assert repr(r) == ("DegreeRecord(degree=%r, fiber=(%r,), source_dim=2, target_dim=2, "
                       "image_rank=1)" % (g, g))
    assert r == DegreeRecord(g, (g,), 2, 2, 1) and hash(r) == hash((g, (g,), 2, 2, 1))
    assert r.as_dict() == {"degree": "1;1,2", "fiber": ["1;1,2"], "source_dim": 2,
                           "target_dim": 2, "image_rank": 1, "pass": False}


@pytest.mark.parametrize("cid", CASE_IDS)
def test_verify_config_round_trips(cid, tmp_path):
    cfg = case_config(cid)
    again = VerifyConfig.from_dict(cfg.to_dict())
    assert again == cfg and again.to_dict() == cfg.to_dict()
    assert VerifyConfig.from_dict(again.to_dict()) == cfg
    path = tmp_path / "case.json"
    cfg.dump(str(path))
    assert VerifyConfig.load(str(path)) == cfg
    assert cfg != VerifyConfig.from_dict(dict(cfg.to_dict(), window=cfg.window + 1))
    assert VerifyConfig.from_dict({k: v for k, v in cfg.to_dict().items()
                                   if k != "window"}).window == 20


def test_case_spec_tampered_keeps_the_original():
    spec = builtin_case("A", PrimeField(5))
    params = spec.config.target_params
    spec.algebra_hom  # built before tampering
    bad = spec.tampered("2")
    assert isinstance(bad, CaseSpec) and bad is not spec
    assert spec.config.target_params == params == ("1", "-1")
    assert bad.config.target_params == ("1", "2")
    doc = spec.config.to_dict()
    doc["target"]["params"] = ["1", "2"]
    assert bad.config == VerifyConfig.from_dict(doc) != spec.config
    assert (bad.case_id, bad.field, bad.constants) == (spec.case_id, spec.field, spec.constants)
    with pytest.raises(RelationError):
        bad.algebra_hom
    assert spec.algebra_hom.verify_window(4).passed
    assert bad == spec.tampered("2") and bad != spec
    assert repr(bad).startswith("CaseSpec(case_id='A', config=VerifyConfig(source_weights=")


def test_case_spec_without_free_parameter():
    spec = builtin_case("C", PrimeField(5))
    with pytest.raises(ValueError, match="no free parameter"):
        spec.tampered("2")
