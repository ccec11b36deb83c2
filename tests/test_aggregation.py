"""The per-key series engine against a plain per-stratum reference sum."""

import json
import random
from pathlib import Path

import pytest

from curvemotive import (
    Run,
    SeriesCrossCheckError,
    build,
    codim_F,
    codim_FD,
    enumerate_strata,
    nhat,
    poincare_divisorial,
    poincare_generalised,
    stratum_class,
    v_of,
    w_of,
)
from curvemotive import series as series_module

from conftest import random_graph, summed_series

DEMO_GRAPHS = sorted((Path(__file__).parent.parent / "demos" / "graphs").glob("*.json"))
INTEGRAL = (False, True)


def reference_series(g, bound, integral):
    """``sum [Y] L^(-F) t^v`` term by term over the enumerated strata, or
    ``sum [Y] L^(-F_D) t^w`` when ``g`` has no branches.

    With ``integral``, a stratum with a non-integral ``w`` or exponent is
    counted in ``skipped_nonintegral`` instead of summed.
    """
    terms, skipped = [], 0
    for st in enumerate_strata(g, bound):
        w = w_of(nhat(st, g), g)
        exp, codim = (v_of(st, g), codim_F(st, g)) if g.r else (w, codim_FD(st, g))
        if integral and not (w.is_integral and exp.is_integral):
            skipped += 1
            continue
        terms.append((exp, stratum_class(st, g).lefschetz_shift(-codim)))
    return summed_series(bound, terms, skipped)


def assert_matches_reference(g, pg_bound, pdg_bound):
    skipped = 0
    for integral in INTEGRAL:
        cases = [(poincare_divisorial, g.without_branches, (pdg_bound,) * g.s)]
        if g.r >= 1:
            cases.append((poincare_generalised, g, (pg_bound,) * g.r))
        for compute, h, bound in cases:
            got = compute(Run(h, bound, integral=integral))
            want = reference_series(h, bound, integral)
            assert got == want, (compute, integral)
            assert got.skipped_nonintegral == want.skipped_nonintegral, (compute, integral)
            skipped += got.skipped_nonintegral
    return skipped


@pytest.mark.parametrize("path", DEMO_GRAPHS, ids=lambda p: p.stem)
def test_demo_graphs_match_reference(path):
    g = build(json.loads(path.read_text(encoding="utf-8")))
    assert_matches_reference(g, pg_bound=9, pdg_bound=5)


def test_two_branch_cusp_matches_reference(cusp_two_branches):
    assert_matches_reference(cusp_two_branches, pg_bound=9, pdg_bound=6)
    # non-uniform bounds, one of them zero
    g = cusp_two_branches
    for bound in ((9, 0), (3, 8)):
        assert poincare_generalised(Run(g, bound)) == reference_series(g, bound, "literal")


def test_random_multibranch_graphs_with_degrees_match_reference():
    rng = random.Random(20261017)
    graphs = []
    while len(graphs) < 8:
        g = random_graph(rng, max_centers=4, max_branches=3)
        if g.r >= 2 and not g.is_totally_rational:
            graphs.append(g)
    skipped = sum(assert_matches_reference(g, pg_bound=4, pdg_bound=3) for g in graphs)
    assert skipped > 0, "integral mode must drop some strata on these graphs"


def test_codimension_mismatch_names_nhat_and_both_values(cusp, monkeypatch):
    original = series_module.nhat_codim_literal

    def off_by_one_at(nh, g):
        value = original(nh, g)
        return value + 1 if nh == (0, 1, 0) else value

    monkeypatch.setattr(series_module, "nhat_codim_literal", off_by_one_at)
    with pytest.raises(SeriesCrossCheckError) as info:
        poincare_divisorial(Run(cusp.without_branches, (4, 4, 4)))
    assert str(info.value) == (
        "divisorial series: composed codimension and literal codimension disagree at "
        "nhat = (0, 1, 0): composed codimension 3, literal codimension 4"
    )


def test_stratum_count_mismatch_is_a_cross_check_failure(cusp, monkeypatch):
    original = series_module._scan_strata

    def one_short(*args):
        strata, skipped = original(*args)
        return series_module._Strata(strata.rows[:-1]), skipped

    monkeypatch.setattr(series_module, "_scan_strata", one_short)
    with pytest.raises(SeriesCrossCheckError, match=r"counts 4 strata .* the enumeration 3 "):
        poincare_divisorial(Run(cusp.without_branches, (4, 4, 4)))
