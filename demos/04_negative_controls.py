"""The checker must demonstrably fail on broken input.  This demo tampers with
built-in cases in four ways and shows where each defect is caught.

Run:  python demos/04_negative_controls.py
"""

from wpline import (AlgebraHom, CoordinateAlgebra, GroupHom, PrimeField,
                    RationalField, RelationError, WeightSequence,
                    WellDefinednessError, builtin_case, builtin_group_hom)

Q = RationalField()

print("1. wrong target parameter (lambda = 2 instead of -1)")
pi = builtin_group_hom("A")
source = CoordinateAlgebra((4, 4, 2), Q, [1])
bad_target = CoordinateAlgebra((2, 2, 2, 2), Q, [1, 2])
x1, x2, x3, x4 = bad_target.gens
try:
    AlgebraHom(source, bad_target, pi, [x1, x2, x3 * x4])
except RelationError as exc:
    print("   RelationError:", exc)

print("\n2. inconsistent group images (third generator sent to a single point)")
L442 = WeightSequence((4, 4, 2))
L2222 = WeightSequence((2, 2, 2, 2))
g = L2222.gens
try:
    GroupHom(L442, L2222, [g[0], g[1], g[2]])
except WellDefinednessError as exc:
    print("   WellDefinednessError:", exc)

print("\n3. dropped cube-root scalar in the second image, over F_17")
spec = builtin_case("C", PrimeField(17))
y1, y2, y3 = spec.algebra_hom.target.gens
i = spec.constants["sqrt_minus_one"]
try:
    AlgebraHom(spec.algebra_hom.source, spec.algebra_hom.target,
               spec.group_hom, [y3, y1 * y2, i * (y1 ** 3 + y2 ** 3)])
except RelationError as exc:
    print("   RelationError:", exc)
print("   (scaling one image rescales each pooled vector, so per-degree")
print("    ranks cannot see this tamper; the relation residual does)")

print("\n4. zeroed image, constructed without validation")
spec_a = builtin_case("A", Q)
target = spec_a.algebra_hom.target
x1, x2, _, _ = target.gens
broken = AlgebraHom.unchecked(spec_a.algebra_hom.source, target,
                              spec_a.group_hom, [x1, x2, target.zero])
result = broken.verify_window(6)
bad = result.failing_records()[0]
print("   verification %s; first failing degree %s with rank %d < dim %d"
      % ("FAILED" if not result.passed else "passed?!",
         bad.degree, bad.image_rank, bad.target_dim))
