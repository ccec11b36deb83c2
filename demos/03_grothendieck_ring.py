#!/usr/bin/env python3
"""The coefficient ring and counting specializations.

Series coefficients live in a formal model of the localized Grothendieck
ring of varieties: Laurent polynomials in the Lefschetz class L with opaque
symbols e[label] for the residue fields that appear.  Specializing L to a
prime power and each symbol to its point count turns classes into numbers.
"""

from fractions import Fraction

from curvemotive import (
    RingElement,
    Specialization,
    count_divisors_open_line,
    sym_power_class,
)

L = RingElement.lefschetz
one = RingElement.one()

print("The class of the punctured line is L - 1; over a quadratic")
print("extension it is e*L - 1 with e the class of the field spectrum:")
e = RingElement.symbol("k2")
units = e * L() - one
print("  ", units)
print()

print("Counting points of Spec(F_{q^2}) over F_q gives 0, so e -> 0:")
spec = Specialization(lefschetz=Fraction(2), symbols={"k2": Fraction(0)})
print("   over F_2 the class counts to", units.specialize(spec))
print("Over F_4 both points are rational, e -> 2:")
spec4 = Specialization(lefschetz=Fraction(4), symbols={"k2": Fraction(2)})
print("   over F_4 it counts to", units.specialize(spec4))
print()

print("Symmetric powers of an open line assemble into explicit classes:")
for n in range(4):
    cls = sym_power_class(None, 2, n)
    print(f"   n = {n}:  {cls}")
print()

print("Specialized at L = q they count effective divisors, and a direct")
print("enumeration of monic polynomials over F_q agrees:")
for q in (2, 3):
    for m in (1, 2, 3):
        row = []
        for n in range(5):
            spec = Specialization(lefschetz=Fraction(q), default=Fraction(1))
            value = sym_power_class(None, m, n).specialize(spec)
            assert value == count_divisors_open_line(q, m, n)
            row.append(int(value))
        print(f"   q={q}, {m} points removed: {row}")
