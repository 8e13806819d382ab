"""End-to-end verification of the four built-in cases.

For each case the pipeline checks that the group homomorphism is admissible
(effective image, fiber mult sums equal to target mult on the window) and
that the pooled images of the source component bases span every target
component of the image, degree by degree.  Together these certify that the
induced map onto the restriction subalgebra is an isomorphism of graded
algebras.

Run:  python demos/03_verify_cases.py
"""

import time

from wpline import (PrimeField, RationalField, builtin_case,
                    find_admissible_primes)

WINDOW = 12

print("case A: (4,4,2) -> (2,2,2,2;-1) over the rationals")
spec = builtin_case("A", RationalField())
t0 = time.perf_counter()
result = spec.algebra_hom.verify_window(WINDOW)
print("  kernel %s, %d degree records, %s  (%.2f s)"
      % ([k.pretty() for k in spec.group_hom.kernel()], len(result.records),
         "PASS" if result.passed else "FAIL", time.perf_counter() - t0))

for cid, lam, blurb in [
    ("B", None, "(6,3,2) -> (2,2,2,2;eps)"),
    ("C", None, "(6,3,2) -> (3,3,3)"),
    ("D", -1, "(2,2,2,2;lam') -> (2,2,2,2;lam)"),
]:
    primes = find_admissible_primes(cid, count=3, lam=lam)
    print("\ncase %s: %s, admissible primes %s" % (cid, blurb, primes))
    for q in primes:
        spec = builtin_case(cid, PrimeField(q), lam=lam)
        t0 = time.perf_counter()
        result = spec.algebra_hom.verify_window(WINDOW)
        consts = spec.report_constants()
        print("  F_%-3d %s  constants %s  (%.2f s)"
              % (q, "PASS" if result.passed else "FAIL", consts,
                 time.perf_counter() - t0))

print("\nEvery passing run reproduces one graded-algebra isomorphism onto a")
print("restriction subalgebra; the acting group is the kernel shown above.")
