#!/usr/bin/env python3
"""The divisorial series and the extended-semigroup closed form.

The extended-semigroup series admits a rational closed form: a product of
one factor per intersection pair over denominators (1 - t^{m_i}) and
(1 - e_i L t^{m_i}), with m_i the i-th row of M.  Its expansion must agree,
coefficient by coefficient, with the stratum sum, built per key by the same
engine as the branch and divisorial series; running both routes is the
library's core self-verification.
"""

import json
from pathlib import Path

from curvemotive import (
    build,
    divisorial_closed_form,
    divisorial_semigroup_stratum_sum,
    expand,
    poincare_divisorial,
)

HERE = Path(__file__).parent

single = build(json.loads((HERE / "graphs" / "single.json").read_text()))
cf = divisorial_closed_form(single)
print("One blowup:", cf.to_text())
series = expand(cf, (4,))
print("Coefficients are complete flags' worth of L-powers:")
for exp, value in series.sorted_items():
    print(f"   t^{exp[0]}: {value}")
print()

print("The divisorial series weights each stratum by L^(-codimension):")
pdg = poincare_divisorial(single, (3,))
for exp, value in pdg.sorted_items():
    print(f"   t^{exp[0]}: {value}")
print()

chain = build(json.loads((HERE / "graphs" / "chain2_h12.json").read_text()))
print("Degree-2 component: the closed form gains the pair degree h_sigma = 2")
print("as an exponent, and the lattice of t-exponents becomes rational:")
print("  ", divisorial_closed_form(chain).to_text())
bound = (3, 4)
closed = expand(divisorial_closed_form(chain), bound)
direct = divisorial_semigroup_stratum_sum(chain, bound)
assert closed == direct
print("closed form == stratum sum at bound", bound, "with",
      len(closed.terms), "terms; a sample:")
for exp, value in list(closed.sorted_items())[:6]:
    exps = ", ".join(str(x) for x in exp)
    print(f"   t^({exps}): {value}")
