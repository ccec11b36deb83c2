"""The brute-force validators themselves, plus their ties to the main code."""

import json
import random
from fractions import Fraction
from itertools import product
from operator import add, le, sub
from pathlib import Path

import pytest

from curvemotive import (
    MonomialValuationSystem,
    RingElement,
    Specialization,
    count_divisors_open_line,
    hoskin_deligne,
    monomial_codim,
    semigroup_gf,
    sym_power_class,
    w_of,
)
from curvemotive import ExponentVector, Run, build, poincare_generalised
from curvemotive.oracles import (
    SEMIGROUP_BOUND,
    _field_ops,
    branch_series_at_one,
    codims_from_series,
    conductor,
    one_branch_series,
)

from conftest import random_graph


def test_semigroup_gf_examples():
    assert semigroup_gf([1], 3) == [1, 1, 1, 1]
    assert semigroup_gf([2, 3], 7) == [1, 0, 1, 1, 1, 1, 1, 1]
    coeffs = semigroup_gf([4, 6], 12)
    assert [k for k, hit in enumerate(coeffs) if hit] == [0, 4, 6, 8, 10, 12]
    with pytest.raises(ValueError):
        semigroup_gf([], 5)
    with pytest.raises(ValueError):
        semigroup_gf([0], 5)
    with pytest.raises(ValueError):
        semigroup_gf([2, 3], -1)
    # beyond desk scale, refused before the table is allocated
    for bound in (SEMIGROUP_BOUND + 1, 10**24):
        with pytest.raises(ValueError, match="out of this oracle's range"):
            semigroup_gf([2, 3], bound)


def test_monomial_codim_examples():
    assert monomial_codim(MonomialValuationSystem(((1, 1),)), [3]) == 6
    cusp_system = MonomialValuationSystem(((1, 1), (1, 2), (2, 3)))
    assert monomial_codim(cusp_system, [2, 3, 6]) == 5
    assert monomial_codim(cusp_system, [0, 0, 0]) == 0
    with pytest.raises(ValueError):
        MonomialValuationSystem(())
    with pytest.raises(ValueError):
        monomial_codim(cusp_system, [1, 2])
    with pytest.raises(ValueError, match="above 1000"):
        monomial_codim(MonomialValuationSystem(((1, 1),)), [100000])


def test_count_divisors_examples():
    assert count_divisors_open_line(3, 2, 0) == 1
    # affine line minus one point over GF(2): a single rational point
    assert count_divisors_open_line(2, 2, 1) == 1
    # the affine line itself: monic polynomials
    for q in (2, 3, 4, 5):
        for n in range(5):
            assert count_divisors_open_line(q, 1, n) == q**n
    with pytest.raises(ValueError):
        count_divisors_open_line(7, 1, 2)
    with pytest.raises(ValueError):
        count_divisors_open_line(2, 4, 2)  # only 3 rational points exist
    # monic, degree 6, nonzero constant term: 5^6 polynomials enumerated
    assert count_divisors_open_line(5, 2, 6) == 4 * 5**5
    for removed in (0, 1):
        with pytest.raises(ValueError, match="between 0 and 6"):
            count_divisors_open_line(2, removed, 50)


def test_count_divisors_full_projective_line():
    # removing nothing: S^n P^1 has (q^(n+1)-1)/(q-1) points
    for q in (2, 3):
        for n in range(4):
            assert count_divisors_open_line(q, 0, n) == sum(q**d for d in range(n + 1))


def test_gf4_is_a_field_with_x_a_root_of_x2_x_1():
    add, mul = _field_ops(4)
    elems = range(4)
    for a in elems:
        for b in elems:
            assert add(a, b) == add(b, a) and mul(a, b) == mul(b, a)
            for c in elems:
                assert add(add(a, b), c) == add(a, add(b, c))
                assert mul(mul(a, b), c) == mul(a, mul(b, c))
                assert mul(a, add(b, c)) == add(mul(a, b), mul(a, c))
    for a in elems:
        assert add(a, 0) == a and mul(a, 1) == a
        assert any(add(a, b) == 0 for b in elems)
        if a:
            assert any(mul(a, b) == 1 for b in elems)
    x = 2
    assert add(add(mul(x, x), x), 1) == 0


def test_symmetric_power_counting_specialization():
    for q in (2, 3, 4, 5):
        for m in range(0, min(4, q + 1) + 1):
            for n in range(7):
                spec = Specialization(lefschetz=Fraction(q), default=Fraction(1))
                lhs = sym_power_class(None, m, n).specialize(spec)
                assert lhs == count_divisors_open_line(q, m, n), (q, m, n)


def test_degree_two_units_class_has_no_rational_points():
    # Spec(F_{q^2}) has no F_q-points, so e -> 0 and the punctured-line class
    # e*L - 1 counts to -1
    e_zero = Specialization(lefschetz=Fraction(2), default=Fraction(0))
    assert (RingElement.symbol("k") * RingElement.lefschetz() - RingElement.one()).specialize(
        e_zero
    ) == -1


def test_hoskin_deligne_matches_monomial_oracle_on_chain_and_cusp():
    graphs = {
        "single": (build({"centers": [{"prox": []}]}), ((1, 1),)),
        "chain2": (
            build({"centers": [{"prox": []}, {"prox": [1]}]}),
            ((1, 1), (1, 2)),
        ),
        "chain3": (
            build({"centers": [{"prox": []}, {"prox": [1]}, {"prox": [2]}]}),
            ((1, 1), (1, 2), (1, 3)),
        ),
        "cusp": (
            build({"centers": [{"prox": []}, {"prox": [1]}, {"prox": [1, 2]}]}),
            ((1, 1), (1, 2), (2, 3)),
        ),
    }
    for name, (g, weights) in graphs.items():
        system = MonomialValuationSystem(weights)
        # semigroup elements within the box: w = nhat . M for nhat >= 0
        seen = set()
        cap = 9
        def rec(prefix):
            if len(prefix) == g.s:
                w = w_of(prefix, g)
                if all(0 <= x <= 8 for x in w) and w not in seen:
                    seen.add(w)
                    hd = hoskin_deligne(w, g)
                    mc = monomial_codim(system, [int(x) for x in w])
                    assert hd == mc, (name, tuple(w))
                return
            for value in range(cap):
                candidate = prefix + (value,)
                partial_w = w_of(candidate + (0,) * (g.s - len(candidate)), g)
                if any(x > 8 for x in partial_w):
                    break
                rec(candidate)
        rec(())
        assert seen, name


def test_branch_series_oracles_examples():
    # the cusp's semigroup <2, 3>
    assert one_branch_series([2, 3], 6) == {0: 0, 2: 1, 3: 2, 4: 3, 5: 4, 6: 5}
    # the cusp at L = 1: (1 - t^2)^-1 (1 - t^3)^-1 (1 - t^6), <2, 3> once more
    assert branch_series_at_one([(2,), (3,), (6,)], [1, 1, -1], (7,)) == {
        (k,): 1 for k in (0, 2, 3, 4, 5, 6, 7)
    }
    # chi = 0 leaves a factor out; two variables
    assert branch_series_at_one([(1, 2), (5, 5)], [-1, 0], (3, 3)) == {(0, 0): 1, (1, 2): -1}
    with pytest.raises(ValueError):
        branch_series_at_one([(0, 1)], [1], (3, 3))
    with pytest.raises(ValueError):
        branch_series_at_one([(1,)], [1], (3, 3))


def assert_branch_series_oracles(g, bound):
    """``pg`` of a degree-one graph against both closed formulas of ``oracles``."""
    pg = poincare_generalised(Run(g, (bound,) * g.r))
    exponents = [tuple(row[b.attach - 1] for b in g.branches) for row in g.m_matrix]
    at_one = branch_series_at_one(exponents, [2 - nu for nu in g.nu_circ], (bound,) * g.r)
    assert pg.specialize(Specialization(lefschetz=Fraction(1), default=Fraction(1))) == at_one
    if g.r == 1:
        column = [row[g.branch(1).attach - 1] for row in g.m_matrix]
        expected = {
            ExponentVector((v,)): RingElement.lefschetz(-c)
            for v, c in one_branch_series(column, bound).items()
        }
        assert pg.terms == expected


def test_branch_series_oracles_on_totally_rational_corpus(corpus, cusp_two_branches):
    graphs = [g for g in corpus.values() if g.is_totally_rational] + [cusp_two_branches]
    assert len(graphs) == 4
    for g in graphs:
        assert_branch_series_oracles(g, 12)


@pytest.mark.parametrize("seed", range(3))
def test_branch_series_oracles_on_random_graphs(seed):
    rng = random.Random(seed)
    checked = 0
    while checked < 8:
        g = random_graph(rng, max_centers=4, max_branches=2, allow_degrees=False)
        if g.r:
            assert_branch_series_oracles(g, 10 if g.r == 1 else 6)
            checked += 1


def test_codims_from_series_examples():
    L, one = RingElement.lefschetz(), RingElement.one()
    # the cusp: pg = 1 + L^-1 t^2 + L^-2 t^3 + ..., c steps by 1 at 0, 2, 3, 4
    cusp = [one, RingElement.zero(), L**-1, L**-2, L**-3]
    assert codims_from_series(cusp, L, 1) == [0, 1, 1, 2, 3, 4]
    at_two = [Fraction(1), Fraction(0), Fraction(1, 2), Fraction(1, 4), Fraction(1, 8)]
    assert codims_from_series(at_two, 2, 1) == [0, 1, 1, 2, 3, 4]
    assert codims_from_series([], 2, 1) == [0]
    # a step of 2 needs a branch of degree 2; a coefficient of 0 at v = 0 is no step
    assert codims_from_series([Fraction(3, 2)], 2, 2) == [0, 2]
    assert codims_from_series([Fraction(3, 2)], 2, 1) == 0
    assert codims_from_series([Fraction(0)], 2, 1) == [0, 0]
    assert codims_from_series([one, one], L, 1) == 1


def telescoped_codims(g, bound, q):
    """``codims_from_series`` of ``pg`` on the one-branch graph ``g``: in the
    ring if ``q`` is ``L``, else at ``L = q`` with every symbol at 0."""
    pg = poincare_generalised(Run(g, (bound,)))
    coefficients = [pg.coefficient((v,)) for v in range(bound + 1)]
    if not isinstance(q, RingElement):
        spec = Specialization(lefschetz=Fraction(q), default=Fraction(0))
        coefficients = [c.specialize(spec) for c in coefficients]
    codims = codims_from_series(coefficients, q, g.branch(1).degree)
    assert isinstance(codims, list), f"no step of c fits at v = {codims}"
    # valuations are integers, so the coefficients read are all of pg
    assert set(pg.terms) <= {ExponentVector((v,)) for v in range(bound + 1)}
    return codims


@pytest.mark.parametrize("seed", range(3))
def test_codims_telescope_out_of_pg_on_random_degree_one_graphs(seed):
    rng = random.Random(1500 + seed)
    bound = 12
    checked = 0
    while checked < 6:
        g = random_graph(rng, max_centers=5, max_branches=1, allow_degrees=False)
        if g.r != 1:
            continue
        codims = telescoped_codims(g, bound, RingElement.lefschetz())
        # c(v) counts the values below v, so its steps of 1 fall on the value semigroup
        column = [row[g.branch(1).attach - 1] for row in g.m_matrix]
        values = semigroup_gf(column, bound)
        assert codims == [sum(values[:v]) for v in range(bound + 2)]
        assert telescoped_codims(g, bound, 2) == telescoped_codims(g, bound, 3) == codims
        checked += 1


NON_SPLIT_NODE = {"centers": [{"prox": []}], "branches": [{"attach": 1, "h": 2}]}


@pytest.mark.xfail(
    strict=True,
    raises=AssertionError,
    reason="ROADMAP item 1: on a graph with a site of degree > 1, pg is not the curve's series",
)
@pytest.mark.parametrize("name", ["non-split node", "chain2_h12"])
def test_codims_telescope_out_of_pg_at_l_equal_q_on_a_degree_two_branch(name, request):
    # x^2 + xy + y^2 over GF(2): every L^(-c(v)) at L = 2, e -> 0 must be a power of 2
    g = build(NON_SPLIT_NODE) if name == "non-split node" else request.getfixturevalue(name)
    telescoped_codims(g, 6, 2)


def gorenstein_symmetry(g):
    """``(c, delta, F)`` for ``F(T) = pg(L T) prod_j (1 - T_j)``, read from ``pg``
    at the bound ``c + 2``, with ``c`` the conductor; asserts that ``F`` has no
    term outside the box ``[0, c]`` and that ``F_v = L^(delta - |c - v|)
    F_(c - v)`` with ``|c| = 2 delta``: the value semigroup of a plane curve is
    symmetric."""
    c = conductor(g)
    bound = tuple(x + 2 for x in c)
    zero = RingElement.zero()
    terms = {}
    for exp, value in poincare_generalised(Run(g, bound)).terms.items():
        value = value.lefschetz_shift(sum(exp))
        for corner in product((0, 1), repeat=g.r):
            e = tuple(map(add, exp, corner))
            terms[e] = terms.get(e, zero) + (-value if sum(corner) % 2 else value)
    F = {e: value for e, value in terms.items() if value and all(map(le, e, bound))}
    delta, odd = divmod(sum(c), 2)
    assert not odd, c
    assert all(all(map(le, v, c)) for v in F), (c, sorted(F))
    for v in product(*(range(x + 1) for x in c)):
        mirror = tuple(map(sub, c, v))
        assert F.get(v, zero) == F.get(mirror, zero).lefschetz_shift(delta - sum(mirror)), (c, v)
    return c, delta, F


@pytest.mark.parametrize(
    "path, c, delta, terms",
    [
        ("demos/graphs/cusp.json", (2,), 1, 3),
        ("perfbench/graphs/cusp2.json", (4, 2), 3, 9),
        ("demos/graphs/satellite5.json", (28,), 14, 19),
    ],
)
def test_gorenstein_symmetry_examples(path, c, delta, terms):
    g = build(json.loads((Path(__file__).parent.parent / path).read_text(encoding="utf-8")))
    got_c, got_delta, F = gorenstein_symmetry(g)
    assert (got_c, got_delta, len(F)) == (c, delta, terms)


def test_gorenstein_symmetry_on_random_degree_one_graphs():
    rng = random.Random(7)
    checked = 0
    while checked < 25:
        g = random_graph(rng, max_centers=5, max_branches=3, allow_degrees=False)
        if g.r and sum(conductor(g)) <= 30:  # pg at c + 2 stays small
            gorenstein_symmetry(g)
            checked += 1


@pytest.mark.xfail(
    strict=True,
    raises=AssertionError,
    reason="ROADMAP item 1: on a graph with a site of degree > 1, pg is not the curve's series",
)
def test_gorenstein_symmetry_on_the_non_split_node():
    # Noether's formula gives c = 0, yet F has a term at T^2
    gorenstein_symmetry(build(NON_SPLIT_NODE))
