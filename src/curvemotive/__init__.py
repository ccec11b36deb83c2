"""Motivic Poincare series of curve singularities, in exact arithmetic.

Given the combinatorics of an embedded resolution (blowup centers with
proximity relations and residue degrees, plus branch attachments), the
package derives the proximity/intersection matrices, stratum codimensions,
and three generating series with coefficients in a formal localized
Grothendieck-ring model, cross-validated against independent brute-force
oracles.
"""

from .codim import (
    ExponentVector,
    SemigroupMembershipWarning,
    Stratum,
    alpha_of,
    codim_F,
    codim_F_literal,
    codim_FD,
    deg_AA,
    deg_AK,
    hoskin_deligne,
    nhat,
    v_of,
    w_of,
)
from .grothendieck import (
    RingElement,
    Specialization,
    field_class,
    units_class,
)
from .oracles import (
    MonomialValuationSystem,
    count_divisors_open_line,
    monomial_codim,
    semigroup_gf,
)
from .resolution import (
    Branch,
    Center,
    GraphValidationError,
    PairSite,
    ResolutionGraph,
    build,
    matrices_report,
)
from .series import (
    ClosedFormExpr,
    Run,
    SeriesCrossCheckError,
    TruncatedSeries,
    divisorial_closed_form,
    divisorial_semigroup_stratum_sum,
    enumerate_strata,
    expand,
    poincare_divisorial,
    poincare_generalised,
    poincare_generalised_totally_rational,
    stratum_class,
    sym_power_class,
)

__version__ = "0.1.0"

__all__ = [
    "Branch",
    "Center",
    "ClosedFormExpr",
    "ExponentVector",
    "GraphValidationError",
    "MonomialValuationSystem",
    "PairSite",
    "ResolutionGraph",
    "RingElement",
    "Run",
    "SemigroupMembershipWarning",
    "SeriesCrossCheckError",
    "Specialization",
    "Stratum",
    "TruncatedSeries",
    "alpha_of",
    "build",
    "codim_F",
    "codim_F_literal",
    "codim_FD",
    "count_divisors_open_line",
    "deg_AA",
    "deg_AK",
    "divisorial_closed_form",
    "divisorial_semigroup_stratum_sum",
    "enumerate_strata",
    "expand",
    "field_class",
    "hoskin_deligne",
    "matrices_report",
    "monomial_codim",
    "nhat",
    "poincare_divisorial",
    "poincare_generalised",
    "poincare_generalised_totally_rational",
    "semigroup_gf",
    "stratum_class",
    "sym_power_class",
    "units_class",
    "v_of",
    "w_of",
]
