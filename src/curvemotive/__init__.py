"""Motivic Poincare series of curve singularities, in exact arithmetic.

Given the combinatorics of an embedded resolution (blowup centers with
proximity relations and residue degrees, plus branch attachments), the
package derives the proximity/intersection matrices, stratum codimensions,
and three generating series with coefficients in a formal localized
Grothendieck-ring model, cross-validated against independent brute-force
oracles.

Each layer imports only the layers before it: ``_linalg`` (the value types'
``Record`` base and the exact linear algebra) -> ``resolution`` ->
``grothendieck`` -> ``codim`` -> ``series`` -> ``cli``, with ``oracles``
reading ``_linalg`` only.  The public names below are bound on first use,
from their home modules (PEP 562), so ``import curvemotive`` loads this file
alone and ``build(d).m_matrix`` loads only ``_linalg`` and ``resolution``.
"""

__version__ = "0.1.0"

# public name -> the module that defines it
_HOME = {
    "Branch": "resolution",
    "Center": "resolution",
    "ClosedFormExpr": "series",
    "ExponentVector": "codim",
    "GraphValidationError": "resolution",
    "MonomialValuationSystem": "oracles",
    "PairSite": "resolution",
    "ResolutionGraph": "resolution",
    "RingElement": "grothendieck",
    "Run": "series",
    "SemigroupMembershipWarning": "codim",
    "SeriesCrossCheckError": "series",
    "Specialization": "grothendieck",
    "Stratum": "codim",
    "TruncatedSeries": "series",
    "alpha_of": "codim",
    "build": "resolution",
    "codim_F": "codim",
    "codim_F_literal": "codim",
    "codim_FD": "codim",
    "count_divisors_open_line": "oracles",
    "deg_AA": "codim",
    "deg_AK": "codim",
    "divisorial_closed_form": "series",
    "divisorial_semigroup_stratum_sum": "series",
    "enumerate_strata": "series",
    "expand": "series",
    "field_class": "grothendieck",
    "hoskin_deligne": "codim",
    "matrices_report": "resolution",
    "monomial_codim": "oracles",
    "nhat": "codim",
    "poincare_divisorial": "series",
    "poincare_generalised": "series",
    "poincare_generalised_totally_rational": "series",
    "semigroup_gf": "oracles",
    "stratum_class": "series",
    "sym_power_class": "series",
    "units_class": "grothendieck",
    "v_of": "codim",
    "w_of": "codim",
}

__all__ = sorted(_HOME)


def __getattr__(name):
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module

    value = globals()[name] = getattr(import_module(f"{__name__}.{_HOME[name]}"), name)
    return value


def __dir__():
    return sorted({*globals(), *__all__})
