"""Multiplicity/valuation vectors, Hoskin-Deligne values, stratum codimensions."""

import random
from fractions import Fraction

import pytest

from curvemotive import codim
from curvemotive import (
    ExponentVector,
    SemigroupMembershipWarning,
    Stratum,
    alpha_of,
    build,
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

from conftest import random_graph, random_stratum


def zero(g):
    return Stratum.zero(g.s)


def test_nhat_contributions(cusp):
    assert nhat(zero(cusp), cusp) == (0, 0, 0)
    st = Stratum(pairs=((1, 3),), branches=(), point_mults=(0, 0, 0), pair_mults=((1, 1),))
    assert nhat(st, cusp) == (1, 0, 1)
    st = Stratum(pairs=(), branches=(1,), point_mults=(0, 0, 1), branch_mults=((2, 1),))
    assert nhat(st, cusp) == (0, 0, 3)


def test_w_and_v(cusp):
    w = w_of((1, 0, 0), cusp)
    assert tuple(w) == (1, 1, 2)
    st = Stratum(pairs=(), branches=(), point_mults=(1, 0, 0))
    assert tuple(v_of(st, cusp)) == (2,)

    st = Stratum(pairs=(), branches=(1,), point_mults=(0, 0, 1), branch_mults=((1, 1),))
    # nhat = (0, 0, 2): the branch's first multiplicity also meets E3
    assert nhat(st, cusp) == (0, 0, 2)
    assert tuple(w_of(nhat(st, cusp), cusp)) == (4, 6, 12)
    assert tuple(v_of(st, cusp)) == (13,)


def test_w_row_of_m(cusp):
    w = w_of((0, 0, 1), cusp)
    assert tuple(w) == (2, 3, 6)
    st = Stratum(pairs=(), branches=(1,), point_mults=(0, 0, 0), branch_mults=((1, 1),))
    assert tuple(v_of(st, cusp)) == (7,)


def test_non_integral_w_flagged(chain2_h12):
    w = w_of((0, 1), chain2_h12)
    assert tuple(w) == (1, Fraction(3, 2))
    assert w.integral_flags == (True, False)
    assert not w.is_integral


def test_hoskin_deligne_monomial_values(single, cusp):
    assert hoskin_deligne((3,), single) == 6
    assert hoskin_deligne((1,), single) == 1
    assert alpha_of((2, 3, 6), cusp) == (2, 1, 1)
    assert hoskin_deligne((2, 3, 6), cusp) == 5


def test_hoskin_deligne_reports_negative_alpha(cusp):
    # w = (1, 0, 0) rewrites with alpha = (1, -1, -1)
    with pytest.warns(SemigroupMembershipWarning):
        value = hoskin_deligne((1, 0, 0), cusp)
    assert value == 1  # formula value; not a dimension off the semigroup
    # alpha >= 0 alone does not certify membership; no warning here even
    # though (0,0,6) is not a valuation vector, and the formula value is
    # the caller's responsibility
    assert hoskin_deligne((0, 0, 6), cusp) == 21


def test_deg_intersections(cusp):
    assert deg_AA((0, 0, 0), cusp) == 0
    assert deg_AK((0, 0, 0), cusp) == 0
    # epsilon = (1, 1, 0), so AK = 1 - (2 + 3 + 0) = -4
    assert deg_AA((0, 0, 1), cusp) == -6
    assert deg_AK((0, 0, 1), cusp) == -4
    assert hoskin_deligne(w_of((0, 0, 1), cusp), cusp) == -Fraction(
        deg_AA((0, 0, 1), cusp) + deg_AK((0, 0, 1), cusp), 2
    )


@pytest.mark.parametrize(
    "fn",
    [w_of, alpha_of, hoskin_deligne, deg_AA, deg_AK, codim.nhat_codim, codim.nhat_codim_literal],
)
def test_codimension_functions_reject_a_vector_of_the_wrong_length(cusp, fn):
    # s = 3 on cusp: one entry too many or too few is an error, not a value
    for vec in ((1, 0, 0, 5), (2, 3, 6, 1), (1, 0)):
        with pytest.raises(ValueError, match=rf"\b{len(vec)}\b.*\b3\b"):
            fn(vec, cusp)


def test_genus_identity_on_random_nhat(corpus):
    rng = random.Random(5)
    for g in corpus.values():
        for _ in range(50):
            nh = tuple(rng.randint(0, 4) for _ in range(g.s))
            lhs = hoskin_deligne(w_of(nh, g), g)
            rhs = -(deg_AA(nh, g) + deg_AK(nh, g)) / 2
            assert lhs == rhs
            assert all(a >= 0 for a in alpha_of(w_of(nh, g), g))


def test_codim_F_examples(single, cusp):
    assert codim_F(zero(cusp), cusp) == 0
    st = Stratum(pairs=(), branches=(), point_mults=(1,))
    assert codim_F(st, single) == 2
    st = Stratum(pairs=(), branches=(1,), point_mults=(0, 0, 0), branch_mults=((1, 1),))
    assert codim_F(st, cusp) == 7


def test_codim_FD_examples(single, cusp):
    assert codim_FD(zero(cusp), cusp) == 0
    st = Stratum(pairs=(), branches=(), point_mults=(2,))
    assert codim_FD(st, single) == 5
    st = Stratum(pairs=((1, 3),), branches=(), point_mults=(0, 1, 0), pair_mults=((1, 2),))
    assert codim_FD(st, cusp) == codim_F(st, cusp)


def test_literal_equals_composed_on_random_strata(corpus):
    rng = random.Random(41)
    for g in corpus.values():
        for _ in range(100):
            st = random_stratum(rng, g)
            assert codim_F(st, g) == codim_F_literal(st, g)


def test_monotonicity_of_w(corpus):
    rng = random.Random(43)
    for g in corpus.values():
        for _ in range(25):
            nh = [rng.randint(0, 3) for _ in range(g.s)]
            base = w_of(tuple(nh), g)
            for k in range(g.s):
                bumped = list(nh)
                bumped[k] += 1
                w = w_of(tuple(bumped), g)
                assert w[k] > base[k]
                assert all(w[i] >= base[i] for i in range(g.s))


def test_totally_rational_values_are_integers(cusp, satellite5):
    rng = random.Random(47)
    for g in (cusp, satellite5):
        for _ in range(40):
            st = random_stratum(rng, g)
            assert w_of(nhat(st, g), g).is_integral
            assert v_of(st, g).is_integral
            f = codim_F(st, g)
            assert Fraction(f).denominator == 1


def test_exponent_vector_keeps_only_non_integral_entries_as_fractions():
    v = ExponentVector((Fraction(4, 2), Fraction(3, 2)))
    assert v == (2, Fraction(3, 2))
    assert [type(x) for x in v] == [int, Fraction]
    assert [type(x) for x in v + ExponentVector((0, Fraction(1, 2)))] == [int, int]


def test_rational_codimensions_carried_exactly(chain2_h12):
    st = Stratum(pairs=(), branches=(), point_mults=(0, 1))
    # w = (1, 3/2), alpha = (1, 1/2), hD = 1 + 2*(1/2)(3/2)/2 = 7/4
    assert hoskin_deligne(w_of(nhat(st, chain2_h12), chain2_h12), chain2_h12) == Fraction(7, 4)
    assert codim_F(st, chain2_h12) == Fraction(7, 4) + 2


def test_stratum_validation():
    with pytest.raises(ValueError):
        Stratum(pairs=((1, 2),), branches=(), point_mults=(0, 0))
    with pytest.raises(ValueError):
        Stratum(pairs=(), branches=(), point_mults=(-1,))
    with pytest.raises(ValueError):
        Stratum(
            pairs=((1, 2),),
            branches=(),
            point_mults=(0, 0),
            pair_mults=((0, 1),),
        )
    with pytest.raises(ValueError):
        codim_FD(
            Stratum(
                pairs=(),
                branches=(1,),
                point_mults=(0,),
                branch_mults=((1, 1),),
            ),
            None,
        )


def test_nhat_codimensions_are_computed_once_per_set_of_centers():
    memos = {"composed": codim._composed, "literal": codim._literal}
    calls = []
    cusp_centers = [{"prox": []}, {"prox": [1]}, {"prox": [1, 2]}]
    cusp = build({"centers": cusp_centers, "branches": [{"attach": 3}]})
    cusp2 = build({"centers": cusp_centers, "branches": [{"attach": 3}, {"attach": 1}]})
    chain3 = build({"centers": [{"prox": []}, {"prox": [1]}, {"prox": [2]}]})
    nh = (1, 2, 1)
    values = {}
    for g in (cusp, cusp2, cusp.without_branches, chain3, cusp, chain3):
        misses = {name: memo.cache_info().misses for name, memo in memos.items()}
        pair = codim.nhat_codim(nh, g), codim.nhat_codim_literal(nh, g)
        values.setdefault(g.centers, set()).add(pair)
        calls += [
            (name, g.centers)
            for name, memo in memos.items()
            if memo.cache_info().misses > misses[name]
        ]
    composed, literal = (memo.__wrapped__ for memo in memos.values())
    # graphs on the same centers share each entry; other centers never do
    assert calls == [
        (name, g.centers) for g in (cusp, chain3) for name in ("composed", "literal")
    ]
    assert values == {
        g.centers: {(composed(nh, g), literal(nh, g))} for g in (cusp, chain3)
    }
    assert values[cusp.centers] != values[chain3.centers]


def _hoskin_deligne_reference(w, g):
    alpha = [sum(Fraction(w[i]) * g.proximity_matrix[i][j] for i in range(g.s)) for j in range(g.s)]
    return sum(g.degree_of(j + 1) * a * (a + 1) for j, a in enumerate(alpha)) / 2, alpha


def _literal_reference(nh, g):
    m, eps = g.m_matrix, g.epsilon
    quad = sum(Fraction(m[i][k]) * nh[i] * nh[k] for i in range(g.s) for k in range(g.s))
    lin = sum(
        nh[i] * (sum(Fraction(m[i][k]) * eps[k] for k in range(g.s)) + 2 * g.degree_of(i + 1) - 1)
        for i in range(g.s)
    )
    return (quad + lin) / 2


def test_integer_lattice_codimensions_match_fraction_references():
    rng = random.Random(53)
    graphs = warned = 0
    while graphs < 40:
        g = random_graph(rng)
        if all(Fraction(x).denominator == 1 for row in g.m_matrix for x in row):
            continue  # only fractional M: a site of degree > 1
        graphs += 1
        for _ in range(10):
            nh = tuple(rng.randint(0, 5) for _ in range(g.s))
            composed = _hoskin_deligne_reference(w_of(nh, g), g)[0]
            composed += sum(n * g.degree_of(i + 1) for i, n in enumerate(nh))
            assert codim.nhat_codim(nh, g) == composed
            assert codim.nhat_codim_literal(nh, g) == _literal_reference(nh, g)
            assert type(codim.nhat_codim(nh, g)) is (int if composed.denominator == 1 else Fraction)
        w = tuple(Fraction(rng.randint(-6, 6), rng.choice((1, 2, 4))) for _ in range(g.s))
        value, alpha = _hoskin_deligne_reference(w, g)
        if min(alpha) < 0:
            warned += 1
            text = f"w = {tuple(map(str, w))} is not a valuation vector of the graph (alpha = {tuple(map(str, alpha))})"
            with pytest.warns(SemigroupMembershipWarning) as record:
                assert hoskin_deligne(w, g) == value
            assert [str(r.message) for r in record] == [text]
        else:
            assert hoskin_deligne(w, g) == value
    assert warned > 10
