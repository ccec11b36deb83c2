#!/usr/bin/env python3
"""The branch series and its classical shadow.

One variable per curve branch.  Setting L -> 1 (and every field symbol to 1)
collapses the motivic coefficients; for one totally rational branch what
survives is exactly the characteristic series of the branch's value
semigroup, which a brute-force semigroup closure confirms.

The branch series reads a Run: the graph itself and one bound per branch.
"""

import json
from fractions import Fraction
from pathlib import Path

from curvemotive import Run, Specialization, build, poincare_generalised, semigroup_gf

HERE = Path(__file__).parent
cusp = build(json.loads((HERE / "graphs" / "cusp.json").read_text()))

series = poincare_generalised(Run(cusp, (12,)))
print("Branch series of the cusp (the two display forms agreed internally):")
for exp, value in series.sorted_items():
    print(f"   t^{exp[0]}: {value}")
print()

spec = Specialization(lefschetz=Fraction(1), default=Fraction(1))
values = series.specialize(spec)
support = sorted(int(exp[0]) for exp in values)
print("At L = 1 the coefficients collapse to 1 on the value semigroup:")
print("   support:", support)

gf = semigroup_gf([2, 3], 12)
oracle_support = [k for k, hit in enumerate(gf) if hit]
assert support == oracle_support
assert all(v == 1 for v in values.values())
print("   semigroup <2,3> by exhaustive closure:", oracle_support)
print("   the two agree; the gap at 1 is the delta invariant showing up.")
print()

sat = build(json.loads((HERE / "graphs" / "satellite5.json").read_text()))
print("A satellite-rich tower gives Fibonacci-flavored curvette values:")
print("   last row of M:", [str(x) for x in sat.m_row(5)])
series = poincare_generalised(Run(sat, (13,)))
support = sorted(int(e[0]) for e in series.specialize(spec))
print("   semigroup support up to 13:", support)
