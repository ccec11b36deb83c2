#!/usr/bin/env python3
"""From proximity data to intersection theory.

A resolution graph is entered as a list of blowup centers in birth order.
Each center says which earlier centers it is proximate to and how large its
residue field is over the base field.  Everything else -- the proximity
matrix P, the intersection matrix N, and the curvette-value matrix
M = -N^{-1} -- is derived, in exact arithmetic.
"""

import json
from pathlib import Path

from curvemotive import GraphValidationError, build

HERE = Path(__file__).parent


def show(name, matrix):
    print(f"{name}:")
    for row in matrix:
        print("   ", [str(x) for x in row])


cusp = build(json.loads((HERE / "graphs" / "cusp.json").read_text()))
print("The standard cusp: three blowups, the last a satellite point.")
show("P", cusp.proximity_matrix)
show("N", cusp.intersection_matrix)
show("M = -N^{-1}", cusp.m_matrix)
print()
print("Rows of M are the valuation vectors of curvettes:")
print("  a curve transversal to E3 has values", [str(x) for x in cusp.m_row(3)])
print("  -- the (2, 3, 6) triple of the cusp's multiplicity filtration.")
print()
print("Intersection pairs with their point degrees:",
      [(p.i1, p.i2, p.degree) for p in cusp.pairs])
print("Neighbor counts nu_bullet:", cusp.nu_bullet,
      " with branches, nu_circ:", cusp.nu_circ)
print()

print("Residue degrees larger than one change the intersection numbers:")
chain = build(json.loads((HERE / "graphs" / "chain2_h12.json").read_text()))
show("N", chain.intersection_matrix)
show("M", chain.m_matrix)
print("M picks up denominators; every value stays an exact fraction.")
print()

print("Invalid input is rejected with a structured report:")
try:
    build({"centers": [{"prox": []}, {"prox": [1]}, {"prox": [1, 2]}, {"prox": [1, 2]}]})
except GraphValidationError as err:
    for issue in err.issues:
        print("   ", issue)
