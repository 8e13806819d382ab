"""Graded coordinate algebras: products of binary forms, homogeneous components,
and the dimension formula dim S_x = mult(x) checked against brute-force enumeration.

Run:  python demos/02_coordinate_algebras.py
"""

from wpline import CoordinateAlgebra, PrimeField, RationalField

# S(4,4,2) = k[Z1,Z2,Z3] / (Z3^2 - (Z2^4 - Z1^4)), graded by L(4,4,2).
S = CoordinateAlgebra((4, 4, 2), RationalField(), [1])
z1, z2, z3 = S.gens
print("in S(4,4,2):  z3^2 =", z3 ** 2)
print("              z3^5 =", z3 ** 5)

# Homogeneous components have the monomial basis
# {x1^(a p1) x2^(b p2) x1^l1 ... xt^lt : a+b = l}, so dim = max(l+1, 0).
S4 = CoordinateAlgebra((2, 2, 2, 2), RationalField(), [1, -1])
L = S4.weights
c = L.canonical()
print("\nbasis of the canonical-degree component of S(2,2,2,2;-1):",
      [str(S4.reduce_monomial(e)) for e in S4.component_basis(c)])

print("\nHilbert data along multiples of the canonical degree:")
print("  l   dim   mult   brute force")
for l in range(-2, 6):
    x = L.normalize(l, (0, 0, 0, 0))
    print("%3d %5d %6d %11d"
          % (l, S4.dim(x), x.mult(), S4.brute_force_dim(x)))

# The same machinery over a prime field: the sextic identity that drives one
# of the built-in verification cases, checked exactly in F_7.
F7 = PrimeField(7)
eps = F7(3)                       # root of x^2 - x + 1
delta = F7(1)                     # square root of 6*eps - 3
T = CoordinateAlgebra((2, 2, 2, 2), F7, [1, eps])
x1, x2, x3, x4 = T.gens
lhs = x4 ** 6
rhs = (x2 ** 2 + (eps - 1) * x1 ** 2) ** 3 - (delta * (x1 * x2 * x3)) ** 2
print("\nsextic identity in S(2,2,2,2;eps) over F_7:")
print("  x4^6                                =", lhs)
print("  (x2^2+(eps-1)x1^2)^3 - (d x1x2x3)^2 =", rhs)
print("  equal:", lhs == rhs)
