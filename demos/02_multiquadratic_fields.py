#!/usr/bin/env python3
"""Multiquadratic fields as square-class groups.

Q(sqrt(2), sqrt(3)) contains sqrt(6) for free: square classes multiply.  A
field is stored as a reduced basis of classes, so membership, degree, and
linear disjointness are small linear-algebra questions over GF(2).  Local
data (e, f, g) at every prime, including the delicate p = 2, comes from the
same class arithmetic.
"""

from splitlab import (
    MultiquadField,
    is_totally_real,
    linearly_disjoint,
    local_data,
    totally_split,
)

field = MultiquadField.from_generators([2, 3])
print("Q(sqrt2, sqrt3): degree", field.degree)
for m in (6, -6, 5):
    print(f"  contains sqrt({m})?", field.contains_sqrt(m))

print("\nAdjoining a dependent class does nothing:")
print("  adjoin 6 ->", [b.value for b in field.adjoin(6).basis])
print("Adjoining the sign class doubles the degree:")
bigger = field.adjoin(-1)
print("  adjoin -1 ->", [b.value for b in bigger.basis], "degree", bigger.degree)
print("  totally real?", is_totally_real(field), "->", is_totally_real(bigger))

print("\nLinear disjointness is a rank condition:")
print("  Q(sqrt2,sqrt3) vs Q(sqrt6):", linearly_disjoint(field, MultiquadField.from_generators([6])))
print("  Q(sqrt2,sqrt3) vs Q(sqrt5):", linearly_disjoint(field, MultiquadField.from_generators([5])))

print("\nLocal data (e, f, g) in Q(sqrt2, sqrt5):")
K = MultiquadField.from_generators([2, 5])
for p in (2, 3, 5, 11, 31, 41):
    d = local_data(K, p)
    tag = "totally split" if totally_split(K, p) else ""
    print(f"  p={p:>3}  e={d.e}  f={d.f}  g={d.g}  {tag}")

print("\nThe eighth cyclotomic field Q(i, sqrt2) is totally ramified at 2:")
zeta8 = MultiquadField.from_generators([-1, 2])
print("  local data at 2:", local_data(zeta8, 2))
