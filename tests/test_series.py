"""Symmetric powers, stratum enumeration, the three series and their identities."""

import gc
import json
import random
from fractions import Fraction
from itertools import product
from operator import add, le
from pathlib import Path

import pytest

from curvemotive import codim
from curvemotive import series as series_module
from curvemotive import (
    ExponentVector,
    RingElement,
    Run,
    Specialization,
    Stratum,
    TruncatedSeries,
    build,
    divisorial_closed_form,
    divisorial_semigroup_stratum_sum,
    enumerate_strata,
    expand,
    expand_totally_rational,
    nhat,
    poincare_divisorial,
    poincare_generalised,
    poincare_generalised_totally_rational,
    semigroup_gf,
    stratum_class,
    sym_power_class,
    units_class,
    v_of,
    w_of,
)

ROOT = Path(__file__).parent.parent
GRAPH_FILES = sorted((ROOT / "demos" / "graphs").glob("*.json")) + sorted(
    (ROOT / "perfbench" / "graphs").glob("*.json")
)
L = RingElement.lefschetz
one = RingElement.one()


def ev(*xs):
    return ExponentVector(xs)


# -- symmetric powers --------------------------------------------------------


def test_sym_power_trivial_cases():
    assert sym_power_class(None, 2, 0) == one
    assert sym_power_class(None, 2, 1) == L() + one - RingElement.integer(2)
    assert sym_power_class("k2", 3, 1) == RingElement.symbol("k2") * L() - 2 * one


def test_sym_power_binomial_example():
    # coefficient of t^2 in (1 - L t)^{-1} (1 - t): L^2 - L
    assert sym_power_class(None, 2, 2) == L(2) - L()


def test_sym_power_no_removed_points():
    # nu = 0: the full projective line, sum of L-powers
    expected = one + L() + L(2) + L(3)
    assert sym_power_class(None, 0, 3) == expected


def test_sym_power_matches_convolution_oracle():
    # coefficient of x^n in the product of the geometric series in (e L x)
    # and the binomial (1-x)^(nu-1), convolved by hand
    from math import comb

    rng = random.Random(11)
    for _ in range(60):
        nu = rng.randint(0, 4)
        n = rng.randint(0, 5)
        label = rng.choice((None, "k"))
        e = one if label is None else RingElement.symbol("k")
        geometric = [(e * L()) ** k for k in range(n + 1)]
        if nu >= 1:
            binom = [
                RingElement.integer((-1) ** l * comb(nu - 1, l))
                for l in range(nu)
            ]
        else:
            binom = [one] * (n + 1)
        expected = RingElement.zero()
        for k, g_k in enumerate(geometric):
            l = n - k
            if 0 <= l < len(binom):
                expected = expected + g_k * binom[l]
        assert sym_power_class(label, nu, n) == expected


# -- stratum classes ---------------------------------------------------------


def test_stratum_class_examples(cusp):
    assert stratum_class(Stratum.zero(3), cusp) == one
    st = Stratum(pairs=((1, 3),), branches=(), point_mults=(0, 0, 0), pair_mults=((1, 1),))
    assert stratum_class(st, cusp) == L() - one
    st = Stratum(pairs=(), branches=(), point_mults=(0, 0, 1))
    # E3 loses the branch point too, unless the graph has no branch
    assert stratum_class(st, cusp) == L() - 2 * one
    assert stratum_class(st, cusp.without_branches) == L() - one
    st = Stratum(pairs=(), branches=(1,), point_mults=(0, 0, 1), branch_mults=((1, 1),))
    assert stratum_class(st, cusp) == (L() - 2 * one) * (L() - one)


# -- enumeration -------------------------------------------------------------


def naive_strata(g, bound):
    """Nested-loop enumeration: box per variable, then exact filtering.

    The exponent is ``v`` on a graph with branches and ``w`` on one without.
    """
    bound = tuple(Fraction(b) for b in bound)
    pairs0 = [site.key for site in g.pairs]
    branch_range = range(1, g.r + 1)
    m = g.m_matrix

    def var_cap(idx):
        # unit of nhat at idx raises exponent coordinate c by m[idx][c]
        caps = []
        for c, b in enumerate(bound):
            col = g.branch(c + 1).attach - 1 if g.r else c
            caps.append(b / m[idx][col])
        return int(min(caps))

    found = set()
    pair_subsets = [
        tuple(p for p, keep in zip(pairs0, flags) if keep)
        for flags in product((False, True), repeat=len(pairs0))
    ]
    branch_subsets = [
        tuple(j for j, keep in zip(branch_range, flags) if keep)
        for flags in product((False, True), repeat=g.r)
    ]
    for pairs in pair_subsets:
        for branches in branch_subsets:
            ranges = [range(var_cap(i) + 1) for i in range(g.s)]
            for i1, i2 in pairs:
                ranges.append(range(1, var_cap(i1 - 1) + 1))
                ranges.append(range(1, var_cap(i2 - 1) + 1))
            for j in branches:
                attach = g.branch(j).attach
                ranges.append(range(1, var_cap(attach - 1) + 1))
                # a unit of t''_j raises v_j by the degree of E_attach
                ranges.append(range(1, bound[j - 1] // g.degree_of(attach) + 1))
            for values in product(*ranges):
                point_mults = values[: g.s]
                rest = values[g.s :]
                pair_mults = tuple(
                    (rest[2 * k], rest[2 * k + 1]) for k in range(len(pairs))
                )
                off = 2 * len(pairs)
                branch_mults = tuple(
                    (rest[off + 2 * k], rest[off + 2 * k + 1])
                    for k in range(len(branches))
                )
                st = Stratum(
                    pairs=pairs,
                    branches=branches,
                    point_mults=point_mults,
                    pair_mults=pair_mults,
                    branch_mults=branch_mults,
                )
                exp = v_of(st, g) if g.r else w_of(nhat(st, g), g)
                if exp.leq(bound):
                    found.add(st)
    return found


def two_branch_graphs_with_degrees():
    """Four random graphs, each with two branches and a site of degree > 1.

    Their numbers of pairs run from 0 to 3, and the naive product over them
    stays small at the bound ``MIXED_BOUND``.
    """
    from conftest import random_graph

    rng = random.Random(6)
    graphs = []
    while len(graphs) < 4:
        g = random_graph(rng, max_centers=4)
        if g.r >= 2 and not g.is_totally_rational:
            graphs.append(g)
    return graphs


MIXED_BOUND = 3


@pytest.mark.parametrize(
    "series_graph",
    [pytest.param(lambda g: g, id="full"), pytest.param(lambda g: g.without_branches, id="divisorial")],
)
def test_enumeration_matches_naive_oracle(cusp, chain2_h12, series_graph):
    cases = [(cusp, 7), (chain2_h12, 5)]
    cases += [(g, MIXED_BOUND) for g in two_branch_graphs_with_degrees()]
    for g, bound in cases:
        g = series_graph(g)
        got = list(enumerate_strata(g, (bound,) * (g.r or g.s)))
        assert len(got) == len(set(got)), "strata must be emitted exactly once"
        assert set(got) == naive_strata(g, (bound,) * (g.r or g.s))


def test_enumeration_zero_bound(cusp):
    assert list(enumerate_strata(cusp, (0,))) == [Stratum.zero(3)]
    assert list(enumerate_strata(cusp.without_branches, (0, 0, 0))) == [Stratum.zero(3)]


def test_enumeration_single_divisorial(single):
    strata = list(enumerate_strata(single.without_branches, (3,)))
    assert sorted(st.point_mults[0] for st in strata) == [0, 1, 2, 3]


def test_enumeration_cusp_excludes_branch_stratum_beyond_bound(cusp):
    strata = list(enumerate_strata(cusp, (6,)))
    assert Stratum(pairs=(), branches=(), point_mults=(0, 0, 1)) in strata
    barely = Stratum(
        pairs=(), branches=(1,), point_mults=(0, 0, 0), branch_mults=((1, 1),)
    )
    assert barely not in strata  # v = 7 > 6
    assert barely in enumerate_strata(cusp, (7,))


def test_integral_mode_checks_w_not_just_exponents():
    # branch on E1: every branch exponent v is an integer, but w_2 is
    # fractional for odd nhat_2, and those strata carry fractional
    # L-codimensions; strict mode must drop them anyway
    from curvemotive import build

    g = build(
        {
            "centers": [{"prox": []}, {"prox": [1], "h": 2}],
            "branches": [{"attach": 1}],
        }
    )
    literal = poincare_generalised(Run(g, (5,)))
    assert all(exp.is_integral for exp in literal.terms)
    assert not literal.is_integral_lattice  # fractional L-powers sneak in
    strict = poincare_generalised(Run(g, (5,)), strictness="integral")
    assert strict.skipped_nonintegral > 0
    assert strict.is_integral_lattice


def test_integral_mode_drops_and_counts(chain2_h12):
    g = chain2_h12.without_branches
    literal = list(enumerate_strata(g, (4, 6)))
    integral = list(enumerate_strata(g, (4, 6), strictness="integral"))
    assert len(integral) < len(literal)
    assert all(w_of(nhat(st, g), g).is_integral for st in integral)
    series = poincare_divisorial(Run(chain2_h12.without_branches, (4, 6)), strictness="integral")
    assert series.skipped_nonintegral == len(literal) - len(integral)
    # integral mode keeps the literal strata with integral w and exponent,
    # in the literal order, and counts the rest
    for route, series_graph in (
        (poincare_generalised, lambda g: g),
        (poincare_divisorial, lambda g: g.without_branches),
    ):
        dropped = 0
        for g in two_branch_graphs_with_degrees():
            h = series_graph(g)
            bound = (MIXED_BOUND,) * (h.r or h.s)
            literal = list(enumerate_strata(h, bound))
            integral = list(enumerate_strata(h, bound, strictness="integral"))
            kept = [
                st
                for st in literal
                if w_of(nhat(st, h), h).is_integral and (not h.r or v_of(st, h).is_integral)
            ]
            assert integral == kept, (g, route)
            skipped = route(Run(h, bound), strictness="integral").skipped_nonintegral
            assert skipped == len(literal) - len(kept), (g, route)
            dropped += skipped
        assert dropped > 0, route


def test_nhat_walk_yields_exactly_the_nhats_of_the_strata():
    # check's codimension line walks these keys instead of the strata
    from conftest import random_graph

    rng = random.Random(1200)
    demos = [build(json.loads(path.read_text(encoding="utf-8"))) for path in GRAPH_FILES]
    graphs = demos + [random_graph(rng, max_centers=5) for _ in range(30)]
    for g in graphs:
        for b in (0, 2, 4, 6):
            for h in [g.without_branches] + ([g] if g in demos else []):
                bound = (b,) * (h.r or h.s)
                walked = [n for n, _z in Run(h, bound).walk_nhats[3]]
                assert walked == sorted(set(walked)), (h, b)
                strata = enumerate_strata(h, bound)
                assert set(walked) == {nhat(st, h) for st in strata}, (h, b)


# -- the branch series -------------------------------------------------------


def test_pg_constant_term(cusp, chain2_h12):
    for g in (cusp, chain2_h12):
        series = poincare_generalised(Run(g, (3,) * g.r))
        assert series.coefficient((0,) * g.r) == one


def test_pg_cusp_frozen_low_order(cusp):
    series = poincare_generalised(Run(cusp, (7,)))
    assert series.coefficient(ev(0)) == one
    assert series.coefficient(ev(1)) == RingElement.zero()
    assert series.coefficient(ev(2)) == L(-1)
    assert series.coefficient(ev(3)) == L(-2)
    assert series.coefficient(ev(4)) == L(-3)
    assert series.coefficient(ev(5)) == L(-4)
    assert series.coefficient(ev(6)) == L(-5)
    assert series.coefficient(ev(7)) == L(-6)


def test_pg_classical_specialization_is_semigroup(cusp):
    series = poincare_generalised(Run(cusp, (20,)))
    spec = Specialization(lefschetz=Fraction(1), default=Fraction(1))
    values = series.specialize(spec)
    support = sorted(int(exp[0]) for exp in values)
    gf = semigroup_gf([2, 3], 20)
    assert support == [k for k, hit in enumerate(gf) if hit]
    assert all(v == 1 for v in values.values())


def test_pg_requires_a_branch():
    from curvemotive import build

    g = build({"centers": [{"prox": []}]})
    with pytest.raises(ValueError):
        poincare_generalised(Run(g, ()))


def test_pg_totally_rational_reduction(cusp, satellite5, chain2, chain3):
    for g in (cusp, satellite5, chain2, chain3):
        run = Run(g, (10,) * g.r)
        assert poincare_generalised(run) == poincare_generalised_totally_rational(run)


# -- the divisorial series ---------------------------------------------------


def test_pdg_single_blowup_frozen(single):
    series = poincare_divisorial(Run(single.without_branches, (3,)))
    # coefficient at t^n is L^(-n(n+1)/2) (1 + L^-1 + ... + L^-n) shifted by L^n
    assert series.coefficient(ev(0)) == one
    assert series.coefficient(ev(1)) == L(-1) + L(-2)
    assert series.coefficient(ev(2)) == L(-3) + L(-4) + L(-5)
    assert series.coefficient(ev(3)) == L(-6) + L(-7) + L(-8) + L(-9)


def test_pdg_zero_bound_is_one(cusp):
    series = poincare_divisorial(Run(cusp.without_branches, (0, 0, 0)))
    assert series.terms == {ev(0, 0, 0): one}


def test_divisorial_routes_reject_a_run_with_branches(single, cusp):
    # on single r == s, so the branch series would fit the bound and pass for pdg
    assert poincare_generalised(Run(single, (3,))) != poincare_divisorial(Run(single.without_branches, (3,)))
    for g in (single, cusp):
        for route in (poincare_divisorial, divisorial_semigroup_stratum_sum):
            with pytest.raises(ValueError, match="branch-free"):
                route(Run(g, (3,) * g.s))


def test_divisorial_series_ignore_branches():
    # both divisorial routes run on the branch-free graph, whose open
    # components lose only their pairwise intersections, nu_bullet
    from conftest import random_graph, random_stratum

    rng = random.Random(14)
    graphs = []
    while len(graphs) < 30:
        g = random_graph(rng, max_centers=5)
        if g.r:
            graphs.append(g)
    for g in graphs:
        bare = build({"centers": [{"prox": list(c.proximate_to), "h": c.degree} for c in g.centers]})
        bound = (3,) * g.s
        branch_free, bare = Run(g.without_branches, bound), Run(bare, bound)
        assert poincare_divisorial(branch_free) == poincare_divisorial(bare)
        assert divisorial_semigroup_stratum_sum(branch_free) == divisorial_semigroup_stratum_sum(bare)
        st = random_stratum(rng, g, divisorial=True)
        bullet = one
        for i, n_i in enumerate(st.point_mults, start=1):
            if n_i:
                bullet = bullet * sym_power_class(g.component_label(i), g.nu_bullet[i - 1], n_i)
        for i1, i2 in st.pairs:
            bullet = bullet * units_class(g.pair_label(g.pair_site(i1, i2)))
        assert stratum_class(st, g.without_branches) == bullet


# -- the extended-semigroup series -------------------------------------------


def test_closed_form_single(single):
    cf = divisorial_closed_form(single)
    assert cf.to_text() == "1 / ((1 - t1)*(1 - L*t1))"
    series = expand(cf, (4,))
    for w in range(5):
        expected = sum((L(k) for k in range(w + 1)), RingElement.zero())
        assert series.coefficient(ev(w)) == expected


def test_closed_form_vs_stratum_sum(corpus):
    for name, g in corpus.items():
        bound = (6,) * g.s
        assert expand(divisorial_closed_form(g), bound) == \
            divisorial_semigroup_stratum_sum(Run(g.without_branches, bound)), name


def test_closed_form_vs_stratum_sum_many_bounds(cusp, chain2_h12):
    # every scalar bound up to 12, plus non-uniform bounds
    cases = [(chain2_h12, (b, b)) for b in range(13)]
    cases += [(cusp, bound) for bound in ((4, 6, 12), (1, 2, 3), (12, 0, 5))]
    for g, bound in cases:
        run = Run(g.without_branches, bound)
        assert expand(divisorial_closed_form(g), bound) == divisorial_semigroup_stratum_sum(run), bound


def test_stratum_sum_zero_bound_is_one(cusp):
    series = divisorial_semigroup_stratum_sum(Run(cusp.without_branches, (0, 0, 0)))
    assert series.terms == {ev(0, 0, 0): one}


def test_closed_form_chain2_h12_frozen(chain2_h12):
    bound = (3, 4)
    series = expand(divisorial_closed_form(chain2_h12), bound)
    e2 = RingElement.symbol("E2")
    es = RingElement.symbol("P(1,2)")
    assert series.coefficient(ev(1, 1)) == L() - one
    assert series.coefficient(ev(1, Fraction(3, 2))) == e2 * L() - one
    assert series.coefficient(ev(2, Fraction(5, 2))) == (
        (L() - one) * (e2 * L() - one) + es * L() - one
    )
    assert series == divisorial_semigroup_stratum_sum(Run(chain2_h12.without_branches, bound))


def test_totally_rational_closed_form_reduction(cusp, satellite5, chain3):
    for g in (cusp, satellite5, chain3):
        bound = (8,) * g.s
        assert expand(divisorial_closed_form(g), bound) == expand_totally_rational(
            g, bound
        )
    with pytest.raises(ValueError):
        expand_totally_rational(
            __import__("curvemotive").build(
                {"centers": [{"prox": []}, {"prox": [1], "h": 2}]}
            ),
            (2, 2),
        )


def test_cusp_closed_form_first_coefficients(cusp):
    series = expand(divisorial_closed_form(cusp), (4, 6, 12))
    assert series.coefficient(ev(0, 0, 0)) == one
    assert series.coefficient(ev(1, 1, 2)) == L()
    assert series.coefficient(ev(1, 2, 3)) == L()
    # w = (2,2,4) = 2 * row1
    assert series.coefficient(ev(2, 2, 4)) == L(2)


def truncated_product(f, g, bound):
    """``f * g`` for dicts from exponent vectors to ring values, truncated at ``bound``."""
    out = {}
    for e1, c1 in f.items():
        for e2, c2 in g.items():
            exp = ExponentVector(e1) + ExponentVector(e2)
            if exp.leq(bound):
                out[exp] = out.get(exp, RingElement.zero()) + c1 * c2
    return {exp: value for exp, value in out.items() if value}


def truncated_geometric(step, ratio, bound):
    """``sum_k ratio^k t^(k * step)``, truncated at ``bound``."""
    out, k, power = {}, 0, one
    while (exp := ExponentVector(k * x for x in step)).leq(bound):
        out[exp] = power
        power, k = power * ratio, k + 1
    return out


def reference_expansion(cf, bound):
    """The closed form expanded as a product of truncated geometric series."""
    bound = tuple(Fraction(b) for b in bound)
    zero = ExponentVector((0,) * cf.arity)
    series = {zero: one} if zero.leq(bound) else {}
    for i1, i2, h, units in cf.pair_data:
        a, b = cf.m_rows[i1 - 1], cf.m_rows[i2 - 1]
        d = {zero: one, a: -one, b: -one, a + b: one}
        for _ in range(h - 1):
            series = truncated_product(series, d, bound)
        series = truncated_product(series, {zero: one, a: -one, b: -one, a + b: one + units}, bound)
    for row, e in zip(cf.m_rows, cf.component_classes):
        series = truncated_product(series, truncated_geometric(row, one, bound), bound)
        series = truncated_product(series, truncated_geometric(row, e * L(), bound), bound)
    return series


def assert_expansions_match_reference(g, bound):
    want = reference_expansion(divisorial_closed_form(g), bound)
    assert expand(divisorial_closed_form(g), bound).terms == want, bound
    if g.is_totally_rational:
        assert expand_totally_rational(g, bound).terms == want, bound


@pytest.mark.parametrize("path", GRAPH_FILES, ids=lambda p: f"{p.parent.parent.name}-{p.stem}")
def test_expansions_match_product_of_geometric_series(path):
    g = build(json.loads(path.read_text(encoding="utf-8")))
    for b in range(15):
        assert_expansions_match_reference(g, (b,) * g.s)


def test_expansions_match_reference_on_random_graphs_with_fields():
    from conftest import random_graph

    rng = random.Random(20261018)
    graphs = []
    while len(graphs) < 6:
        g = random_graph(rng, max_centers=5)
        if any(site.degree > 1 for site in g.pairs) and not g.is_totally_rational:
            graphs.append(g)
    for g in graphs:
        for bound in ((5,) * g.s, tuple(rng.randint(0, 7) for _ in range(g.s))):
            assert_expansions_match_reference(g, bound)


def test_expansions_reject_a_bound_of_the_wrong_length(cusp):
    # a negative entry is rejected too, as by the stratum enumeration
    for bound in ((4, 4), (4, 4, 4, 4), (-1, -1, -1), (4, -1, 4), (Fraction(-1, 3),) * 3):
        with pytest.raises(ValueError):
            expand(divisorial_closed_form(cusp), bound)
        with pytest.raises(ValueError):
            expand_totally_rational(cusp, bound)
    with pytest.raises(ValueError, match="bounds must be nonnegative"):
        Run(cusp, (-1,)).walk_nhats


@pytest.mark.parametrize("step", [(0, 2), (1, 2)], ids=["zero-entry", "positive"])
@pytest.mark.parametrize(
    "c",
    [one, RingElement.symbol("k") * L(), L(-2)],
    ids=["one", "eL", "L^-2"],
)
def test_running_sum_is_division_by_the_geometric_factor(step, c):
    e = RingElement.symbol("k")
    # (0, 1) and (0, 5) lie on one chain of either step; the chain through
    # (0, 5) runs three positions past it, where the input has no term
    poly = {(0, 1): one, (0, 5): e * L() - one, (1, 0): 3 * one, (2, 3): L(-1)}
    caps = [9, 11]
    want = truncated_product(poly, truncated_geometric(step, c, caps), caps)
    got = series_module._divide(poly, step, c, caps)
    assert got == want
    assert all((k * step[0], 5 + k * step[1]) in got for k in (1, 2, 3))


# -- series infrastructure ----------------------------------------------------


def test_series_json_round_trip(cusp, chain2_h12):
    for g, bound in ((cusp, (4, 6, 12)), (chain2_h12, (3, 4))):
        series = expand(divisorial_closed_form(g), bound)
        again = TruncatedSeries.from_json(series.to_json())
        assert again == series
        assert again.to_json() == series.to_json()


def test_series_rendering_orders_terms_graded_lex(single):
    series = poincare_divisorial(Run(single.without_branches, (2,)))
    lines = series.to_text().splitlines()
    assert lines[0].startswith("1:")
    assert lines[1].startswith("t1:")
    assert lines[2].startswith("t1^2:")


def test_workers_do_not_change_results(cusp, capsys, monkeypatch, tmp_path):
    # The library has no worker pool; the CLI still accepts --workers, and
    # neither it nor CURVEMOTIVE_WORKERS, which nothing reads, changes a byte
    # of the output.
    import json

    from conftest import cusp_description
    from curvemotive.cli import main

    for series_fn, run in (
        (poincare_generalised, Run(cusp, (12,))),
        (poincare_divisorial, Run(cusp.without_branches, (4, 4, 4))),
        (divisorial_semigroup_stratum_sum, Run(cusp.without_branches, (4, 4, 4))),
        (poincare_generalised_totally_rational, Run(cusp, (12,))),
    ):
        with pytest.raises(TypeError):
            series_fn(run, workers=2)
    path = tmp_path / "cusp.json"
    path.write_text(json.dumps(cusp_description()))
    argv = ["compute", "--series", "pg", "--bound", "12", "--input", str(path)]
    outputs = []
    for extra, env in (([], None), (["--workers", "8"], None), ([], "3")):
        if env is None:
            monkeypatch.delenv("CURVEMOTIVE_WORKERS", raising=False)
        else:
            monkeypatch.setenv("CURVEMOTIVE_WORKERS", env)
        assert main(argv + extra) == 0
        outputs.append(capsys.readouterr())
    assert outputs[0] == outputs[1] == outputs[2]
    assert outputs[0].out == poincare_generalised(Run(cusp, (12,))).to_text() + "\n"


def test_repeated_runs_identical_text(satellite5):
    a = poincare_divisorial(Run(satellite5.without_branches, (6,) * 5)).to_text()
    b = poincare_divisorial(Run(satellite5.without_branches, (6,) * 5)).to_text()
    assert a == b


def test_two_branch_series(cusp_two_branches):
    g = cusp_two_branches
    series = poincare_generalised(Run(g, (6, 6)))
    assert series.coefficient(ev(0, 0)) == one
    assert series == poincare_generalised_totally_rational(Run(g, (6, 6)))
    # branch 2 sits on E1, so t2 tracks the multiplicity filtration
    assert series.coefficient(ev(2, 1)) != RingElement.zero()
    naive = naive_strata(g, (6, 6))
    assert set(enumerate_strata(g, (6, 6))) == naive


def test_totally_rational_reduction_composes_each_nhat_codimension_once(cusp_two_branches, monkeypatch):
    g = cusp_two_branches
    expected = poincare_generalised(Run(g, (8, 8)))
    calls = []

    def counted(nh, graph):
        calls.append(nh)
        return codim.nhat_codim(nh, graph)

    monkeypatch.setattr(series_module, "nhat_codim", counted)
    assert poincare_generalised_totally_rational(Run(g, (8, 8))) == expected
    strata = list(enumerate_strata(g, (8, 8)))
    assert sorted(calls) == sorted({nhat(st, g) for st in strata})
    assert len(calls) < len(strata)


def test_stratum_sum_matches_the_per_stratum_classes(cusp, monkeypatch):
    g = cusp.without_branches
    bound = (16, 16, 16)  # reaches the strata with a pair
    expected = TruncatedSeries.zero(g.s, bound)
    for st in enumerate_strata(g, bound):
        expected.add_term(w_of(nhat(st, g), g), stratum_class(st, g))
    calls = []

    def counted(st, graph):
        calls.append(st)
        return stratum_class(st, graph)

    monkeypatch.setattr(series_module, "stratum_class", counted)
    assert divisorial_semigroup_stratum_sum(Run(cusp.without_branches, bound)) == expected
    assert calls == []  # summed per key, never stratum by stratum


def test_scan_leaves_no_stratum_in_a_reference_cycle(cusp):
    # with the collector off, a cycle would keep every stratum of a
    # forgotten Run alive until the next collection
    gc.collect()
    enabled, flags = gc.isenabled(), gc.get_debug()
    gc.disable()
    try:
        run = Run(cusp.without_branches, (12, 12, 12))
        strata, _skipped = series_module._scan_strata(run, "literal")
        assert strata
        del strata, run
        gc.set_debug(gc.DEBUG_SAVEALL)  # keep what a collection finds unreachable
        gc.collect()
        left = [obj for obj in gc.garbage if isinstance(obj, (Stratum, series_module._Strata, Run))]
    finally:
        gc.set_debug(flags)
        gc.garbage.clear()
        if enabled:
            gc.enable()
    assert left == []


def _eager_scan(g, bound, strictness):
    """The scan as it was when it built one ``Stratum`` per stratum in its loop."""
    d, nhat_step, caps, points, t_steps = Run(g, bound).walk_nhats
    width = len(nhat_step[0])
    strata, skipped = [], 0
    for pair_subset in series_module._subsets([site.key for site in g.pairs]):
        for branch_subset in series_module._subsets(list(range(1, g.r + 1))):
            legs = [nhat_step[i - 1] for pair in pair_subset for i in pair]
            for j in branch_subset:
                t_step = [t_steps[j - 1] if k == j - 1 else 0 for k in range(width)]
                legs += [nhat_step[g.branch(j).attach - 1], t_step]
            least = list(map(sum, zip([0] * width, *legs)))
            if not all(map(le, least, caps)):
                continue
            cut = 2 * len(pair_subset)
            for n, z in points:
                for values, z_leg in series_module._walk(legs, [1] * len(legs), list(map(add, z, least)), caps):
                    if strictness == "integral" and any(x % d for x in z_leg):
                        skipped += 1
                        continue
                    p, b = iter(values[:cut]), iter(values[cut:])
                    strata.append(Stratum(pair_subset, branch_subset, n, tuple(zip(p, p)), tuple(zip(b, b))))
    return tuple(strata), skipped


def _assert_reads_as(seq, expected: tuple):
    """``seq`` answers ``len``, ``bool``, iteration and ``in`` as the tuple ``expected`` does."""
    n = len(expected)
    assert len(seq) == n and bool(seq) == bool(expected)
    assert tuple(seq) == expected
    assert all(st in seq for st in expected[:: max(1, n // 4)])
    s = len(expected[0].point_mults)  # every scan holds the zero stratum
    assert Stratum.zero(s + 1) not in seq
    assert None not in seq


def test_scan_gives_the_strata_of_the_eager_loop():
    from conftest import random_graph

    rng = random.Random(2210)
    graphs = [random_graph(rng, max_centers=4, max_branches=2) for _ in range(25)]
    scanned = dropped = 0
    for g in graphs:
        for h in dict.fromkeys((g, g.without_branches)):
            for b in (0, 2, 4):
                bound = (b,) * (h.r or h.s)
                for strictness in ("literal", "integral"):
                    strata, skipped = series_module._scan_strata(Run(h, bound), strictness)
                    expected, expected_skipped = _eager_scan(h, bound, strictness)
                    assert tuple(strata) == expected, (h, b, strictness)
                    assert list(strata) == list(enumerate_strata(h, bound, strictness))
                    assert skipped == expected_skipped, (h, b, strictness)
                    _assert_reads_as(strata, expected)
                    scanned += len(expected)
                    dropped += skipped
    assert scanned > 5000 and dropped > 0, (scanned, dropped)


@pytest.mark.parametrize("name", ["cusp", "chain2_h12"])
def test_engine_builds_no_stratum(name, request, monkeypatch):
    g = request.getfixturevalue(name)
    built = []
    init = Stratum.__init__

    def counted(self, *args, **kwargs):
        built.append(None)
        init(self, *args, **kwargs)

    monkeypatch.setattr(Stratum, "__init__", counted)
    run, branch_free = Run(g, (10,) * g.r), Run(g.without_branches, (10,) * g.s)
    assert poincare_generalised(run).terms
    assert poincare_divisorial(branch_free).terms
    assert divisorial_semigroup_stratum_sum(branch_free).terms
    assert built == []
    if g.is_totally_rational:  # the per-stratum reference builds each stratum once
        strata, _skipped = series_module._scan_strata(run, "literal")
        poincare_generalised_totally_rational(run)
        assert len(built) == len(strata) > 0


def test_expand_hands_out_a_fresh_series(cusp):
    cf = divisorial_closed_form(cusp)
    first = expand(cf, (6, 6, 6))
    expected = first.to_json()
    first.add_term(ev(0, 0, 0), one)
    first.terms.pop(ev(1, 1, 2))
    again = expand(cf, [6, 6, 6])
    assert again is not first
    assert again.to_json() == expected


def _assert_immutable(value):
    if isinstance(value, series_module._Strata):
        # a scan's strata: rows of immutables, no item assignment, and every
        # item, built when read, an immutable Stratum
        assert not hasattr(type(value), "__setitem__")
        _assert_immutable(value.rows)
        for st in value:
            assert isinstance(st, Stratum), st
            _assert_immutable(st)
    elif isinstance(value, tuple):
        for item in value:
            _assert_immutable(item)
    elif isinstance(value, Stratum):
        _assert_immutable(value._values())
    else:
        assert isinstance(value, (int, Fraction)), value


def test_immutability_check_rejects_mutable_values():
    row = (((), (), 0), (0, 0), ())
    for value in ([1], (1, [2]), series_module._Strata([row]), series_module._Strata((row[:2] + ([],),))):
        with pytest.raises(AssertionError):
            _assert_immutable(value)
    _assert_immutable(series_module._Strata((row,)))


def test_every_bound_form_gives_the_same_results(cusp):
    g = cusp
    h = g.without_branches
    routes = {
        "walk_nhats branch": lambda b: Run(g, b[:1]).walk_nhats,
        "walk_nhats divisorial": lambda b: Run(h, b).walk_nhats,
        "enumerate_strata branch": lambda b: list(enumerate_strata(g, b[:1])),
        "enumerate_strata divisorial": lambda b: list(enumerate_strata(h, b)),
        "pg": lambda b: poincare_generalised(Run(g, b[:1])).to_json(),
        "pdg": lambda b: poincare_divisorial(Run(h, b)).to_json(),
        "stratum sum": lambda b: divisorial_semigroup_stratum_sum(Run(h, b)).to_json(),
        "expand": lambda b: expand(divisorial_closed_form(g), b).to_json(),
    }
    forms = ([6, 6, 6], (6, 6, 6), (Fraction(6),) * 3)
    results = [{name: route(bound) for name, route in routes.items()} for bound in forms]
    assert results[1] == results[0] == results[2]

    # a Run copies its bound, and what it shares between routes is immutable
    bound = [6, 6, 6]
    run = Run(h, bound)
    bound[0] = 0
    assert run.bound == (6, 6, 6)
    pdg = poincare_divisorial(run)
    assert pdg.to_json() == results[0]["pdg"]
    pdg.terms.clear()
    assert poincare_divisorial(run).to_json() == results[0]["pdg"]
    assert divisorial_semigroup_stratum_sum(run).to_json() == results[0]["stratum sum"]
    scanned = series_module._scan_strata(run, "literal")
    assert series_module._scan_strata(run, "literal") is scanned  # scanned once per strictness
    _assert_immutable(run.walk_nhats)
    _assert_immutable(scanned)


def test_cross_checks_on_random_graphs():
    from conftest import random_graph

    rng = random.Random(20260810)
    exercised_branches = 0
    for _ in range(15):
        g = random_graph(rng, max_centers=5)
        bound = (4,) * g.s
        poincare_divisorial(Run(g.without_branches, bound))  # dual-path equality asserted inside
        assert expand(divisorial_closed_form(g), bound) == \
            divisorial_semigroup_stratum_sum(Run(g.without_branches, bound))
        if g.r >= 1:
            exercised_branches += 1
            poincare_generalised(Run(g, (4,) * g.r))
    assert exercised_branches >= 3
