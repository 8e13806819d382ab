"""Malformed inputs end in a verdict or a clean exit 2, never a traceback.

Mutated A-D documents, and documents with a string where a list belongs,
go through ``verify --config``; random strings over
the expression alphabet, plus junk, go to ``parse_scalar`` directly and as a
``--tamper`` value.  ``parse_scalar`` agrees with the parser it replaced,
``reference_parse_scalar``, on random token strings and expression trees:
the same value, or the same exception type and message.
"""

import copy
import io
import json
from contextlib import redirect_stderr, redirect_stdout

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from reference import reference_parse_scalar
from wpline import PrimeField, RationalField, VerifyConfig, parse_scalar
from wpline.cases import CASES, case_config
from wpline.cli import main

#: a field on which each built-in case resolves, and the flags it needs
FLAGS = {"A": [], "B": ["--field", "7"], "C": ["--field", "5"],
         "D": ["--field", "7", "--lambda", "-1"]}
FUZZ = settings(max_examples=150, deadline=None,
                suppress_health_check=[HealthCheck.function_scoped_fixture])


def run(*argv) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(list(argv))
    return code, out.getvalue(), err.getvalue()


def assert_clean_exit(code, out, err):
    assert code in (0, 1, 2)
    if code == 2:
        assert out == "" and err.startswith("error: ") and "Traceback" not in err
    else:
        assert json.loads(out)["summary"] == ("pass" if code == 0 else "fail")


def _paths(doc, prefix=()):
    """Every key or index path into a JSON document, parents first."""
    items = doc.items() if isinstance(doc, dict) else enumerate(doc)
    for key, value in items:
        yield prefix + (key,)
        if isinstance(value, (dict, list)):
            yield from _paths(value, prefix + (key,))


JUNK = st.one_of(st.none(), st.floats(allow_nan=False, allow_infinity=False), st.booleans(),
                 st.text(max_size=8), st.lists(st.integers(-3, 9), max_size=4))


@st.composite
def mutated_cases(draw):
    """(case id, document) with one key dropped or one value replaced by
    None, a float, a bool, a string or a list."""
    cid = draw(st.sampled_from(sorted(CASES)))
    doc = case_config(cid).to_dict()
    doc["window"] = 4
    path = draw(st.sampled_from(list(_paths(doc))))
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    if draw(st.booleans()):
        del parent[path[-1]]
    else:
        parent[path[-1]] = draw(JUNK)
    return cid, doc


@FUZZ
@given(mutated_cases())
def test_mutated_case_documents_exit_cleanly(tmp_path, case):
    cid, doc = case
    path = tmp_path / "case.json"
    path.write_text(json.dumps(doc))
    assert_clean_exit(*run("verify", "--config", str(path), *FLAGS[cid]))
    try:
        cfg = VerifyConfig.from_dict(copy.deepcopy(doc))
    except ValueError as exc:
        assert str(exc).startswith("malformed verification config: ")
    else:
        assert VerifyConfig.from_dict(cfg.to_dict()) == cfg


@st.composite
def stringified_lists(draw):
    """(case id, document, path) with one list replaced by a string: its
    items joined, its JSON text, or any text.  A constant's root list is
    left alone, since a string there is a derived constant."""
    cid = draw(st.sampled_from(sorted(CASES)))
    doc = case_config(cid).to_dict()
    doc["window"] = 4
    lists = []
    for path in _paths(doc):
        parent = doc
        for key in path[:-1]:
            parent = parent[key]
        if path[0] != "constants" and isinstance(parent[path[-1]], list):
            lists.append((path, parent))
    path, parent = draw(st.sampled_from(lists))
    value = parent[path[-1]]
    parent[path[-1]] = draw(st.sampled_from([",".join(map(str, value)), json.dumps(value)])
                            | st.text(max_size=8))
    return cid, doc, path


@FUZZ
@given(stringified_lists())
def test_strings_for_lists_are_malformed_configs(tmp_path, case):
    cid, doc, where = case
    path = tmp_path / "case.json"
    path.write_text(json.dumps(doc))
    code, out, err = run("verify", "--config", str(path), *FLAGS[cid])
    assert (code, out) == (2, "")
    assert err.startswith("error: malformed verification config: ")
    assert [k for k in where if isinstance(k, str)][-1] in err


@pytest.mark.parametrize("cid", sorted(CASES))
def test_case_documents_round_trip(cid):
    cfg = case_config(cid)
    assert VerifyConfig.from_dict(cfg.to_dict()) == cfg


Q, F7 = RationalField(), PrimeField(7)

#: the tokens of coefficient expressions, two bound names, and junk
EXPRESSIONS = st.lists(st.sampled_from(list("0123456789+-*/^() ab") + ["lambda", "99", "@", ".",
                                                                        ";", "\t", "é", "[", "'"]),
                       max_size=30).map("".join)


@settings(max_examples=500, deadline=None)
@given(st.sampled_from([RationalField(), PrimeField(7), PrimeField(2 ** 61 - 1)]), EXPRESSIONS)
def test_parse_scalar_returns_or_raises_value_errors(field, text):
    env = {"a": field(2), "b": field(-3)}
    try:
        value = parse_scalar(text, field, env)
    except (ValueError, ZeroDivisionError):
        return
    assert field(value) == value


@FUZZ
@given(EXPRESSIONS)
def test_tampered_parameters_exit_cleanly(text):
    assert_clean_exit(*run("verify", "--case", "A", "--window", "3", "--tamper", "lambda=" + text))


def _outcome(parse, text, field, env):
    try:
        return "value", parse(text, field, env)
    except (ValueError, ZeroDivisionError) as exc:
        return type(exc), str(exc)


#: (expression, field, exception type, message), pinned on the parser of
#: nested closures
MALFORMED = [
    ("", Q, ValueError, "bad expression '' near position 0"),
    ("1+", Q, ValueError, "bad expression '1+' near position 2"),
    ("(1", Q, ValueError, "bad expression '(1' near position 2"),
    ("-(", F7, ValueError, "bad expression '-(' near position 2"),
    ("2^", Q, ValueError, "bad expression '2^' near position 2"),
    ("2^a", F7, ValueError, "bad expression '2^a' near position 2"),
    ("2^-1", Q, ValueError, "bad expression '2^-1' near position 2"),
    ("*", Q, ValueError, "bad expression '*'"),
    ("()", F7, ValueError, "bad expression '()'"),
    ("1)", Q, ValueError, "trailing input in expression '1)'"),
    ("2^ 3 4", F7, ValueError, "trailing input in expression '2^ 3 4'"),
    ("b", Q, ValueError, "unknown constant 'b' in expression 'b'"),
    ("lambda", F7, ValueError, "unknown constant 'lambda' in expression 'lambda'"),
    ("2^100000", Q, ValueError, "power too large in expression '2^100000'"),
    ("(2/3)^40000", Q, ValueError, "power too large in expression '(2/3)^40000'"),
    ("a^1000000", Q, ValueError, "power too large in expression 'a^1000000'"),
    ("1$2", Q, ValueError, "unexpected character '$' in expression '1$2'"),
    ("3 @", F7, ValueError, "unexpected character '@' in expression '3 @'"),
    ("1/0", Q, ZeroDivisionError, "Fraction(1, 0)"),
    ("a/(7*a)", F7, ZeroDivisionError, "division by zero in F_7"),
]


@pytest.mark.parametrize("text,field,kind,message", MALFORMED,
                         ids=["%r/%s" % (m[0], m[1].name) for m in MALFORMED])
def test_malformed_expression_messages(text, field, kind, message):
    env = {"a": field(2)}
    assert _outcome(parse_scalar, text, field, env) == (kind, message)
    assert _outcome(reference_parse_scalar, text, field, env) == (kind, message)


@settings(max_examples=400, deadline=None)
@given(st.sampled_from([Q, F7]), EXPRESSIONS)
def test_parse_scalar_matches_the_reference_on_token_strings(field, text):
    env = {"a": field(2), "b": field(-3)}
    assert (_outcome(parse_scalar, text, field, env)
            == _outcome(reference_parse_scalar, text, field, env))


def _spaced(draw, parts):
    return "".join(p + draw(st.sampled_from(["", "", " ", "\t"])) for p in parts)


@st.composite
def expression_trees(draw, depth=3):
    """The text of a random expression tree: ints, the names a, b and
    lambda (unbound), unary minus, the four operations, powers with small
    and occasionally huge exponents, and parentheses."""
    if depth == 0 or draw(st.integers(0, 3)) == 0:
        leaf = draw(st.one_of(st.integers(0, 10 ** 6).map(str), st.sampled_from(["a", "b", "lambda"])))
        return _spaced(draw, [leaf])
    kind = draw(st.sampled_from(["+", "-", "*", "/", "^", "neg", "()"]))
    inner = draw(expression_trees(depth - 1))
    if kind == "neg":
        return _spaced(draw, ["-", inner])
    if kind == "()":
        return _spaced(draw, ["(", inner, ")"])
    if kind == "^":
        n = draw(st.one_of(st.integers(0, 12), st.integers(0, 10 ** 6)))
        return _spaced(draw, ["(", inner, ")", "^", str(n)])
    return _spaced(draw, [inner, kind, draw(expression_trees(depth - 1))])


@settings(max_examples=400, deadline=None)
@given(st.sampled_from([Q, F7]), expression_trees())
def test_parse_scalar_matches_the_reference_on_expression_trees(field, text):
    env = {"a": field(2), "b": field(-3)}
    assert (_outcome(parse_scalar, text, field, env)
            == _outcome(reference_parse_scalar, text, field, env))
