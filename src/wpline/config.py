"""JSON configurations for verifying user-supplied homomorphism pairs.

A configuration names two algebras, a coefficient field, named constants
given by their defining polynomials or derived from earlier ones, group
generator images in "l;l1,..." notation, and algebra generator images as
term lists whose coefficients are small expressions over integers and the
named constants.  Parsing keeps the raw strings so that parse -> serialize
-> parse is the identity.  The built-in cases A-D are such documents.
"""

from __future__ import annotations

import json
import re
from typing import NamedTuple

from .algebra import CoordinateAlgebra
from .field import ConstantUnavailable, Field, InvalidLambda, RationalField
from .homverify import AlgebraHom
from .stringgroup import GroupHom, WeightSequence


def parse_scalar(text: str, field: Field, env: dict | None = None):
    """Evaluate a coefficient expression: ints, named constants, + - * / ^ ().

    Recursive descent over the token list of ``_tokenize`` ended by ``_END``:
    sum = product (("+" | "-") product)*, product = unary (("*" | "/")
    unary)*, unary = "-" unary | power, power = atom ("^" int)?, atom = int
    | name | "(" sum ")".  Each rule is a module function of (ctx, i), with
    ctx = (tokens, text, field, env) and i the index of the next token, and
    returns (value, next index); positions in messages are token indices.
    Over Q a power of more than 2^16 bits is refused."""
    tokens = _tokenize(text)
    tokens.append(_END)
    value, i = _sum((tokens, text, field, env or {}), 0)
    if i != len(tokens) - 1:
        raise ValueError("trailing input in expression %r" % text)
    return value


#: the token that ends every token list of ``parse_scalar``
_END = ("", "", "")


def _sum(ctx, i):
    node, i = _product(ctx, i)
    op = ctx[0][i][2]
    while op == "+" or op == "-":
        rhs, i = _product(ctx, i + 1)
        node = node + rhs if op == "+" else node - rhs
        op = ctx[0][i][2]
    return node, i


def _product(ctx, i):
    node, i = _unary(ctx, i)
    op = ctx[0][i][2]
    while op == "*" or op == "/":
        rhs, i = _unary(ctx, i + 1)
        node = node * rhs if op == "*" else node / rhs
        op = ctx[0][i][2]
    return node, i


def _unary(ctx, i):
    if ctx[0][i][2] == "-":
        node, i = _unary(ctx, i + 1)
        return -node, i
    base, i = _atom(ctx, i)
    tokens, text, field, _ = ctx
    if tokens[i][2] != "^":
        return base, i
    digits = tokens[i + 1][0]
    if not digits:
        raise ValueError("bad expression %r near position %d" % (text, i + 1))
    n = int(digits)
    if isinstance(field, RationalField) and n * (abs(base.numerator).bit_length()
                                                 + base.denominator.bit_length()) > 1 << 16:
        raise ValueError("power too large in expression %r" % text)
    return base ** n, i + 2


def _atom(ctx, i):
    tokens, text, field, env = ctx
    num, name, op = tokens[i]
    if num:
        return field(int(num)), i + 1
    if name:
        if name not in env:
            raise ValueError("unknown constant %r in expression %r" % (name, text))
        return env[name], i + 1
    if op == "(":
        node, i = _sum(ctx, i + 1)
        if tokens[i][2] != ")":
            raise ValueError("bad expression %r near position %d" % (text, i))
        return node, i + 1
    if not op:
        raise ValueError("bad expression %r near position %d" % (text, i))
    raise ValueError("bad expression %r" % text)


#: one token per match: (digits, "", ""), ("", name, "") or ("", "", character)
_TOKEN = re.compile(r"\s*(?:(\d+)|([^\W\d]\w*)|(\S))")


#: a character that ``_tokenize`` refuses: neither space, word nor operator
_BAD_CHAR = re.compile(r"[^\s\w+\-*/^()]")


def _tokenize(text: str) -> list[tuple[str, str, str]]:
    tokens = _TOKEN.findall(text)
    for _, _, op in tokens:
        if op and op not in "+-*/^()":
            raise ValueError("unexpected character %r in expression %r" % (op, text))
    return tokens


class VerifyConfig(NamedTuple):
    """A verification job as loaded from JSON, with raw strings preserved.

    A constant is either a root, given by the ascending coefficient list of
    its polynomial (degree 2 or 3), or a derived value, given by one
    expression.  The name ``lambda`` is bound from the command line, and no
    constant may take it.
    """

    source_weights: tuple[int, ...]
    source_params: tuple[str, ...]
    target_weights: tuple[int, ...]
    target_params: tuple[str, ...]
    field_spec: str
    constants: dict  # name -> coefficient expressions, ascending, or one expression
    pi: tuple[str, ...]
    phi: tuple  # per generator: list of [coeff expression, exponent vector]
    window: int = 20

    @classmethod
    def from_dict(cls, data: dict) -> "VerifyConfig":
        try:
            data = _json(data, dict, "document")
            source = _json(data["source"], dict, "source")
            target = _json(data["target"], dict, "target")
            constants = _json(data.get("constants", {}), dict, "constants")
            if "lambda" in constants:
                raise ValueError("constant name 'lambda' is reserved; lambda is bound by --lambda")
            return cls(
                source_weights=_each(source["weights"], "weights", _int),
                source_params=_each(source.get("params", []), "params", _expr),
                target_weights=_each(target["weights"], "weights", _int),
                target_params=_each(target.get("params", []), "params", _expr),
                field_spec=_expr(data["field"], "field"),
                constants={str(k): ([_expr(c, "constants") for c in v] if isinstance(v, list)
                                    else _expr(v, "constants"))
                           for k, v in constants.items()},
                pi=tuple(_json(s, str, "pi") for s in _json(data["pi"], list, "pi")),
                phi=tuple(tuple(map(_term, _json(gen, list, "phi")))
                          for gen in _json(data["phi"], list, "phi")),
                window=_int(data.get("window", 20), "window"),
            )
        except (KeyError, TypeError, AttributeError) as exc:
            why = "missing key %s" % exc if isinstance(exc, KeyError) else exc
            raise ValueError("malformed verification config: %s" % why) from None

    def to_dict(self) -> dict:
        return {
            "source": {"weights": list(self.source_weights),
                       "params": list(self.source_params)},
            "target": {"weights": list(self.target_weights),
                       "params": list(self.target_params)},
            "field": self.field_spec,
            "constants": {k: v if isinstance(v, str) else list(v)
                          for k, v in self.constants.items()},
            "pi": list(self.pi),
            "phi": [[[c, list(e)] for c, e in gen] for gen in self.phi],
            "window": self.window,
        }

    @classmethod
    def load(cls, path: str) -> "VerifyConfig":
        with open(path, "r", encoding="utf-8") as fh:
            return cls.from_dict(json.load(fh))

    def dump(self, path: str):
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.to_dict(), fh, indent=2, sort_keys=True)
            fh.write("\n")

    def resolve(self, field: Field, lam=None, root_pick: str = "smallest") -> dict:
        """Bind ``lambda`` (if the document uses it; a string ``lam`` is an
        expression, read by ``parse_scalar``) and then every constant,
        depth-first in order: the roots of each are tried smallest first (or
        largest first) until all later constants resolve too."""
        if root_pick not in ("smallest", "largest"):
            raise ValueError("root_pick must be 'smallest' or 'largest'")
        env: dict = {}
        texts = [*self.source_params, *self.target_params, *(c for g in self.phi for c, _ in g),
                 *(c for v in self.constants.values() for c in ([v] if isinstance(v, str) else v))]
        # a text names lambda only if it holds the substring; one with a bad
        # character is tokenized too, for _tokenize's error
        if any(("lambda" in t or _BAD_CHAR.search(t)) and ("", "lambda", "") in _tokenize(t)
               for t in texts):
            if lam is None:
                raise InvalidLambda("the constant lambda is unset (pass --lambda)")
            env["lambda"] = parse_scalar(lam, field) if isinstance(lam, str) else field(lam)
            if env["lambda"] in (field.zero, field.one):
                raise InvalidLambda("lambda must avoid 0 and 1")
        items = list(self.constants.items())

        def search(i: int) -> dict:
            if i == len(items):
                return env
            name, spec = items[i]
            if isinstance(spec, str):
                env[name] = parse_scalar(spec, field, env)
                return search(i + 1)
            roots = field.roots([parse_scalar(c, field, env) for c in spec])
            error = _unavailable(name, spec, field)
            for root in (roots[::-1] if root_pick == "largest" else roots):
                env[name] = root
                try:
                    return search(i + 1)
                except ConstantUnavailable as exc:
                    error = exc
            raise error

        return search(0)

    def group_hom(self) -> GroupHom:
        tgt_w = WeightSequence(self.target_weights)
        return GroupHom(WeightSequence(self.source_weights), tgt_w, map(tgt_w.parse, self.pi))

    def build(self, field: Field, env: dict, pi: GroupHom) -> AlgebraHom:
        """The algebra map over ``field``, with the constants bound in ``env``."""
        def values(texts):
            return [parse_scalar(t, field, env) for t in texts]
        source = CoordinateAlgebra(pi.source, field, values(self.source_params))
        target = CoordinateAlgebra(pi.target, field, values(self.target_params))
        images = [target.element([(parse_scalar(c, field, env), e) for c, e in gen])
                  for gen in self.phi]
        return AlgebraHom(source, target, pi, images)


def _int(value, what: str) -> int:
    if type(value) is not int:
        raise TypeError("%s: expected a JSON integer, got %r" % (what, value))
    return value


#: the JSON names of the types a document's lists, objects and strings load as
_JSON = {list: "list", dict: "object", str: "string"}


def _json(value, kind: type, what: str):
    if not isinstance(value, kind):
        raise TypeError("%s: expected a JSON %s, got %r" % (what, _JSON[kind], value))
    return value


def _each(value, what: str, item) -> tuple:
    """The items of a JSON list, each read by ``item(v, what)``."""
    return tuple(item(v, what) for v in _json(value, list, what))


def _expr(value, what: str) -> str:
    """An expression as its text: a JSON string, or a JSON integer."""
    if not isinstance(value, str) and type(value) is not int:
        raise TypeError("%s: expected a string or a JSON integer, got %r" % (what, value))
    return str(value)


def _term(term) -> tuple[str, tuple[int, ...]]:
    if not isinstance(term, list) or len(term) != 2:
        raise TypeError("phi term %r is not a [coefficient, exponents] pair" % (term,))
    return _expr(term[0], "phi coefficients"), _each(term[1], "phi exponents", _int)


def _unavailable(name: str, coeffs: list, field: Field) -> ConstantUnavailable:
    """The error for a constant without a root; x^n - a has an n-th root of a."""
    a = coeffs[0].strip()
    if coeffs[-1] != "1" or any(c != "0" for c in coeffs[1:-1]):
        return ConstantUnavailable("constant %r has no root in %s" % (name, field.name))
    if a.startswith("-") and len(_tokenize(a[1:])) == 1:
        a = a[1:].strip()
    else:
        a = "-" + a if len(_tokenize(a)) == 1 else "-(%s)" % a
    return ConstantUnavailable("no %s root of %s in %s"
                               % (("square", "cube")[len(coeffs) - 3], a, field.name))
