"""Exact arithmetic for string groups of weight sequences, the graded
homogeneous coordinate algebras of weighted projective lines, and
machine checking that specific graded algebra homomorphisms are
isomorphisms onto restriction subalgebras."""

from .algebra import AlgebraElement, CoordinateAlgebra
from .cases import (CASE_IDS, CaseSpec, auto_prime, builtin_case,
                    builtin_group_hom, case_config, expected_kernel,
                    find_admissible_primes, resolve_constants)
from .config import VerifyConfig, parse_scalar
from .field import (ConstantUnavailable, Field, Fp, InvalidLambda, PrimeField,
                    RationalField, field_from_spec, is_prime, primes)
from .homverify import (AlgebraHom, DegreeRecord, GradednessError,
                        RelationError, VerificationResult, row_rank)
from .stringgroup import (AdmissibilityReport, GroupElement, GroupHom,
                          InfiniteFiberError, WeightSequence,
                          WellDefinednessError, generator_letter)

__version__ = "0.1.0"

__all__ = [
    "AdmissibilityReport", "AlgebraElement", "AlgebraHom", "CASE_IDS",
    "CaseSpec", "ConstantUnavailable", "CoordinateAlgebra",
    "DegreeRecord", "Field", "Fp", "GradednessError", "GroupElement",
    "GroupHom", "InfiniteFiberError", "InvalidLambda", "PrimeField",
    "RationalField", "RelationError", "VerificationResult", "VerifyConfig",
    "WeightSequence", "WellDefinednessError", "auto_prime", "builtin_case",
    "builtin_group_hom", "case_config", "expected_kernel", "field_from_spec",
    "find_admissible_primes", "generator_letter", "is_prime", "parse_scalar",
    "primes", "resolve_constants", "row_rank",
]
