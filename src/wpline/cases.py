"""The four built-in verification cases and admissible-prime discovery.

Each case is a :class:`VerifyConfig` document plus the paper's kernel of
its string-group homomorphism, written in the order of ``GroupHom.kernel``
(zero first, then by (l, torsion)), as ``builtin_case`` compares it with the
computed kernel:

  A: (4,4,2)   -> (2,2,2,2; -1)          kernel of order 2
  B: (6,3,2)   -> (2,2,2,2; eps)         kernel of order 3
  C: (6,3,2)   -> (3,3,3)                kernel of order 2
  D: (2,2,2,2; lam') -> (2,2,2,2; lam)   kernel of order 2

Case D takes the target parameter lam and derives the source parameter
lam' = xi_minus/xi_plus; the displayed generator images satisfy the source
relations exactly for that orientation.
"""

from __future__ import annotations

from functools import cached_property

from .config import VerifyConfig
from .field import (ConstantUnavailable, Field, InvalidLambda, PrimeField, digits_digest,
                    primes)
from .homverify import AlgebraHom
from .stringgroup import GroupElement, GroupHom, WeightSequence

CASES = {
    "A": {"source": {"weights": [4, 4, 2], "params": ["1"]},
          "target": {"weights": [2, 2, 2, 2], "params": ["1", "-1"]},
          "constants": {},
          "pi": ["0;1,0,0,0", "0;0,1,0,0", "0;0,0,1,1"],
          "phi": [[["1", [1, 0, 0, 0]]], [["1", [0, 1, 0, 0]]], [["1", [0, 0, 1, 1]]]],
          "kernel": ["0;0,0,0", "-1;2,2,0"]},
    "B": {"source": {"weights": [6, 3, 2], "params": ["1"]},
          "target": {"weights": [2, 2, 2, 2], "params": ["1", "epsilon"]},
          "constants": {"epsilon": ["1", "-1", "1"],
                        "delta": ["3 - 6*epsilon", "0", "1"]},
          "pi": ["0;0,0,0,1", "1;0,0,0,0", "0;1,1,1,0"],
          "phi": [[["1", [0, 0, 0, 1]]],
                  [["1", [0, 2, 0, 0]], ["epsilon - 1", [2, 0, 0, 0]]],
                  [["delta", [1, 1, 1, 0]]]],
          "kernel": ["0;0,0,0", "-1;2,2,0", "-1;4,1,0"]},
    "C": {"source": {"weights": [6, 3, 2], "params": ["1"]},
          "target": {"weights": [3, 3, 3], "params": ["1"]},
          "constants": {"sqrt_minus_one": ["1", "0", "1"],
                        "cbrt_minus_four": ["4", "0", "0", "1"]},
          "pi": ["0;0,0,1", "0;1,1,0", "1;0,0,0"],
          "phi": [[["1", [0, 0, 1]]], [["cbrt_minus_four", [1, 1, 0]]],
                  [["sqrt_minus_one", [3, 0, 0]], ["sqrt_minus_one", [0, 3, 0]]]],
          "kernel": ["0;0,0,0", "-1;3,0,1"]},
    "D": {"source": {"weights": [2, 2, 2, 2], "params": ["1", "lambda_prime"]},
          "target": {"weights": [2, 2, 2, 2], "params": ["1", "lambda"]},
          "constants": {"sqrt_one_minus_lambda": ["lambda - 1", "0", "1"],
                        "xi_plus": "2 - lambda + 2*sqrt_one_minus_lambda",
                        "xi_minus": "2 - lambda - 2*sqrt_one_minus_lambda",
                        "sqrt_xi_plus": ["-xi_plus", "0", "1"],
                        "lambda_prime": "xi_minus / xi_plus"},
          "pi": ["0;1,0,1,0", "0;0,1,0,1", "1;0,0,0,0", "1;0,0,0,0"],
          "phi": [[["sqrt_xi_plus", [1, 0, 1, 0]]], [["1", [0, 1, 0, 1]]],
                  [["1", [0, 2, 0, 0]], ["-(1 + sqrt_one_minus_lambda)", [2, 0, 0, 0]]],
                  [["1", [0, 2, 0, 0]], ["-(1 - sqrt_one_minus_lambda)", [2, 0, 0, 0]]]],
          "kernel": ["0;0,0,0,0", "-1;0,0,1,1"]},
}
CASE_IDS = tuple(CASES)
#: the primes scanned for admissible fields, as --auto-prime's help names them
PRIME_SCAN = (5, 1000)


def case_config(case_id: str) -> VerifyConfig:
    """The document of a built-in case, over Q at window 20 unless overridden."""
    if str(case_id).upper() not in CASES:
        raise ValueError("unknown case %r" % case_id)
    return VerifyConfig.from_dict(dict(CASES[str(case_id).upper()], field="rationals", window=20))


def builtin_group_hom(case_id: str) -> GroupHom:
    """The string-group homomorphism of a built-in case (field independent)."""
    return case_config(case_id).group_hom()


def expected_kernel(case_id: str) -> tuple[GroupElement, ...]:
    """The kernel of a built-in case's group map, as the paper gives it."""
    source = WeightSequence(case_config(case_id).source_weights)
    return tuple(map(source.parse, CASES[str(case_id).upper()]["kernel"]))


class CaseSpec:
    """A case over a concrete field with its constants resolved.  The maps
    are built on first use, so that a map which breaks a relation still
    leaves the constants to report."""

    def __init__(self, case_id: str, config: VerifyConfig, field: Field, constants: dict):
        self.case_id = case_id
        self.config = config
        self.field = field
        self.constants = constants

    def __repr__(self) -> str:
        return ("CaseSpec(case_id=%r, config=%r, field=%r, constants=%r)"
                % (self.case_id, self.config, self.field, self.constants))

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return ((self.case_id, self.config, self.field, self.constants)
                    == (other.case_id, other.config, other.field, other.constants))
        return NotImplemented

    __hash__ = None

    @cached_property
    def group_hom(self) -> GroupHom:
        return self.config.group_hom()

    @cached_property
    def algebra_hom(self) -> AlgebraHom:
        return self.config.build(self.field, self.constants, self.group_hom)

    def report_constants(self) -> dict:
        """Each constant as text; past Python's limit on the digits of an
        int written in decimal, "a number of" its ``digits_digest``."""
        texts = {}
        for k, v in self.constants.items():
            try:
                texts[k] = str(v)
            except ValueError:
                texts[k] = "a number of " + digits_digest([("", v)])
        return texts

    def tampered(self, value: str) -> "CaseSpec":
        """The same case with the last target parameter replaced by ``value``,
        sharing this case's group map, which reads no parameter."""
        params = self.config.target_params
        if len(params) < 2:
            raise ValueError("case %s target has no free parameter to tamper with"
                             % self.case_id)
        spec = CaseSpec(self.case_id, self.config._replace(target_params=params[:-1] + (value,)),
                        self.field, self.constants)
        spec.group_hom = self.group_hom
        return spec


def builtin_case(case, field: Field, lam=None, root_pick: str = "smallest",
                 case_id: str = "custom") -> CaseSpec:
    """Instantiate a built-in case id, or a parsed VerifyConfig as case
    ``case_id``, over ``field``; the kernel of a built-in case id is checked
    against the paper's.  Raises ConstantUnavailable when a needed root is missing (choose another
    prime) and InvalidLambda for a bad or missing lambda."""
    if isinstance(case, str):
        case_id, case = str(case).upper(), case_config(case)
    spec = CaseSpec(case_id, case, field, case.resolve(field, lam, root_pick))
    if case_id in CASES and [str(k) for k in spec.group_hom.kernel()] != CASES[case_id]["kernel"]:
        raise AssertionError("case %s: the kernel differs from the paper's"
                             % case_id)  # pragma: no cover
    return spec


def resolve_constants(case_id: str, field: Field, lam=None,
                      root_pick: str = "smallest") -> dict:
    """The constants of a built-in case (with ``lambda`` for D) in ``field``."""
    return case_config(case_id).resolve(field, lam, root_pick)


def find_admissible_primes(case, count: int = 3, lam=None) -> list[int]:
    """Smallest primes in PRIME_SCAN whose fields resolve the case constants.
    An unset lambda fails alike on every prime: its InvalidLambda propagates."""
    cfg = case_config(case) if isinstance(case, str) else case
    skip = ConstantUnavailable if lam is None else (ConstantUnavailable, InvalidLambda)
    found = []
    for q in primes(*PRIME_SCAN):
        try:
            cfg.resolve(PrimeField(q), lam)
        except skip:
            continue
        found.append(q)
        if len(found) >= count:
            break
    return found


def auto_prime(case, lam=None, case_id: str | None = None) -> int:
    """The smallest admissible prime, for the command-line --auto-prime flag.
    ``case`` is a case id or a parsed case document; ``case_id`` names the
    case in the error message (by default the id, or "custom")."""
    found = find_admissible_primes(case, count=1, lam=lam)
    if not found:
        if case_id is None:
            case_id = case if isinstance(case, str) else "custom"
        raise ConstantUnavailable("no prime in [%d, %d] resolves the constants of case %s"
                                  % (*PRIME_SCAN, case_id))
    return found[0]
