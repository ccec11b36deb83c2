"""The brute-force validators themselves, plus their ties to the main code."""

import random
from fractions import Fraction

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
from curvemotive.oracles import _field_ops, branch_series_at_one, one_branch_series

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
