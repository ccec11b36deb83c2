"""Graph validation and the derived matrix layer."""

import json
import random
from fractions import Fraction
from pathlib import Path

import pytest

from curvemotive import Center, GraphValidationError, ResolutionGraph, build
from curvemotive import _linalg, resolution
from curvemotive.cli import main

from conftest import random_graph

ROOT = Path(__file__).resolve().parent.parent


def test_single_center_is_valid():
    g = build({"centers": [{"prox": [], "h": 1}]})
    assert g.s == 1 and g.r == 0
    assert g.proximity_matrix == ((1,),)
    assert g.intersection_matrix == ((-1,),)
    assert g.m_matrix == ((1,),)


def test_proximity_to_later_center_rejected():
    with pytest.raises(GraphValidationError, match="earlier center"):
        build({"centers": [{"prox": []}, {"prox": [3]}, {"prox": [1]}]})


def test_orphan_center_rejected():
    with pytest.raises(GraphValidationError, match="at least one earlier"):
        build({"centers": [{"prox": []}, {"prox": []}]})


def test_degree_divisibility_enforced():
    with pytest.raises(GraphValidationError, match="not divisible"):
        build({"centers": [{"prox": [], "h": 2}, {"prox": [1], "h": 3}]})


def test_dangling_branch_rejected():
    with pytest.raises(GraphValidationError, match="dangling"):
        build({"centers": [{"prox": []}], "branches": [{"attach": 2}]})


def test_branch_degree_divisibility():
    with pytest.raises(GraphValidationError, match="branch 1"):
        build(
            {
                "centers": [{"prox": [], "h": 2}],
                "branches": [{"attach": 1, "h": 3}],
            }
        )


def test_unrealizable_proximity_rejected():
    # two satellites at the same (already separated) pair
    with pytest.raises(GraphValidationError, match="not realizable"):
        build(
            {
                "centers": [
                    {"prox": []},
                    {"prox": [1]},
                    {"prox": [1, 2]},
                    {"prox": [1, 2]},
                ]
            }
        )


def test_cusp_matrices(cusp):
    assert cusp.proximity_matrix == ((1, -1, -1), (0, 1, -1), (0, 0, 1))
    assert cusp.intersection_matrix == ((-3, 0, 1), (0, -2, 1), (1, 1, -1))
    assert cusp.m_matrix == ((1, 1, 2), (1, 2, 3), (2, 3, 6))
    assert [(p.i1, p.i2, p.degree) for p in cusp.pairs] == [(1, 3, 1), (2, 3, 1)]
    assert cusp.nu_bullet == (1, 1, 2)
    assert cusp.nu_circ == (1, 1, 3)
    assert cusp.epsilon == (1, 1, 0)


def test_integral_m_entries_are_ints(cusp, satellite5):
    for g in (cusp, satellite5):
        assert all(type(x) is int for row in g.m_matrix for x in row)


def test_two_center_matrices():
    g = build({"centers": [{"prox": []}, {"prox": [1]}]})
    assert g.proximity_matrix == ((1, -1), (0, 1))
    assert g.intersection_matrix == ((-2, 1), (1, -1))


def test_chain2_h12_matrices(chain2_h12):
    assert chain2_h12.intersection_matrix == ((-3, 2), (2, -2))
    assert chain2_h12.m_matrix == (
        (1, 1),
        (1, Fraction(3, 2)),
    )
    assert [type(x) for row in chain2_h12.m_matrix for x in row] == [int, int, int, Fraction]
    # the degree-2 intersection point makes nu_bullet != h * beta on E1,
    # which valid geometry allows
    assert chain2_h12.nu_bullet == (2, 2)
    assert chain2_h12.beta == (1, 1)
    assert [p.degree for p in chain2_h12.pairs] == [2]


def valid_graphs(s_max, degrees=(1, 2, 4)):
    """Every branch-free graph with at most ``s_max`` centers of the given degrees.

    Adding a center only lowers the earlier entries of ``N`` and keeps every
    degree that fails to divide, so a graph that validation rejects is not
    extended.
    """
    todo = [ResolutionGraph((Center((), h),)) for h in degrees]
    while todo:
        g = todo.pop()
        yield g
        if g.s == s_max:
            continue
        for mask in range(1, 1 << g.s):
            prox = tuple(i for i in range(1, g.s + 1) if mask >> (i - 1) & 1)
            for h in degrees:
                try:
                    todo.append(ResolutionGraph(g.centers + (Center(prox, h),)))
                except GraphValidationError:
                    pass


def test_validation_leaves_only_free_and_satellite_points():
    # what a graph that validation accepts cannot have: a center proximate to
    # three points, a pair whose point has a degree above both components',
    # a component that meets no other, or a valuation matrix with an entry
    # <= 0.  For the last: P = I - A with A >= 0 strictly upper triangular, so
    # P^-1 = sum A^k >= 0; every center after the first is proximate to an
    # earlier one, so row 1 of P^-1 is positive; and M = P^-t Delta^-1 P^-1
    # gives M_ij >= (P^-1)_1i (P^-1)_1j / h_1 > 0.
    rng = random.Random(20)
    exhaustive = list(valid_graphs(4))
    assert len(exhaustive) == 279
    for g in exhaustive + [random_graph(rng) for _ in range(300)]:
        assert all(len(center.proximate_to) <= 2 for center in g.centers), g
        assert all(site.degree <= g.degree_of(site.i2) for site in g.pairs), g
        assert g.s == 1 or min(g.nu_bullet) >= 1, g
        p_inv = _linalg.unitriangular_inverse(g.proximity_matrix)
        assert min(x for row in p_inv for x in row) >= 0 and min(p_inv[0]) > 0, g
        assert min(x for row in g.m_matrix for x in row) > 0, g


def test_h_sigma_overrides_is_an_unknown_key(capsys, tmp_path):
    # a pair's degree is derived from the graph alone, never entered
    rng = random.Random(5)
    for _ in range(50):
        g = random_graph(rng)
        n = g.intersection_matrix
        assert all(site.degree == n[site.i1 - 1][site.i2 - 1] > 0 for site in g.pairs)
    description = {
        "centers": [{"prox": []}, {"prox": [1]}, {"prox": [1, 2]}],
        "branches": [{"attach": 3}],
        "h_sigma_overrides": {"1,3": 2},
    }
    with pytest.raises(GraphValidationError, match=r"unknown top-level keys \['h_sigma_overrides'\]"):
        build(description)
    path = tmp_path / "override.json"
    path.write_text(json.dumps(description))
    assert main(["matrices", "--input", str(path)]) == 1
    assert capsys.readouterr() == ("", "validation error: unknown top-level keys ['h_sigma_overrides']\n")


def test_labels_share_symbols():
    g = build(
        {
            "centers": [{"prox": []}, {"prox": [1], "h": 2}],
            "labels": {"E2": "k2", "P(1,2)": "k2"},
        }
    )
    assert g.component_label(2) == "k2"
    assert g.pair_label(g.pair_site(1, 2)) == "k2"
    # degree-1 sites never carry a symbol, even when labelled
    assert g.component_label(1) is None
    with pytest.raises(GraphValidationError) as info:
        build(
            {
                "centers": [{"prox": [], "h": 2}, {"prox": [1], "h": 4}],
                "labels": {"E1": "k", "E2": "k"},
            }
        )
    assert info.value.issues == ("label 'k' is shared by sites of degrees 2 and 4",)


def test_without_branches_drops_exactly_the_branch_labels():
    free = build({"centers": [{"prox": []}, {"prox": [1]}]})
    assert free.without_branches is free
    g = build(
        {
            "centers": [{"prox": []}, {"prox": [1], "h": 2}],
            "branches": [{"attach": 2, "h": 2}, {"attach": 1, "h": 2}],
            "labels": {"E2": "k", "C1": "k", "C2": "m", "P(1,2)": "p"},
        }
    )
    bare = g.without_branches
    assert bare is g.without_branches
    assert (bare.centers, bare.branches) == (g.centers, ())
    # "k" is shared by E2 and C1: it goes from C1 only
    assert bare.labels == (("E2", "k"), ("P(1,2)", "p"))
    assert bare.component_label(2) == "k"


def test_graphs_on_the_same_centers_share_one_matrix_layer():
    centers = [{"prox": []}, {"prox": [1]}, {"prox": [1, 2]}]
    g = build({"centers": centers, "branches": [{"attach": 3}]})
    g2 = build({"centers": centers, "branches": [{"attach": 3}, {"attach": 1}]})
    assert g.m_matrix == g2.m_matrix == g.without_branches.m_matrix
    chain = build({"centers": [{"prox": []}, {"prox": [1]}, {"prox": [2]}]})
    assert chain.m_matrix != g.m_matrix


def test_unknown_label_site_rejected():
    with pytest.raises(GraphValidationError) as info:
        build({"centers": [{"prox": []}], "labels": {"E7": "x"}})
    assert info.value.issues == ("label for unknown site 'E7'",)


def test_only_a_labelled_graph_checks_its_labels():
    # a default label is its site's key, so an unlabelled graph has none to check
    g = build({"centers": [{"prox": []}, {"prox": [1]}, {"prox": [1, 2]}], "branches": [{"attach": 3}]})
    assert "pairs" not in vars(g) and "labelled_sites" not in vars(g)
    g = build({"centers": [{"prox": []}, {"prox": [1], "h": 2}], "labels": {"E2": "k"}})
    assert "pairs" in vars(g) and "labelled_sites" in vars(g)


def test_intersection_matrix_against_local_product(corpus):
    # independent check of N = -P Delta P^t with a local triple loop
    for g in corpus.values():
        s = g.s
        p = g.proximity_matrix
        h = [g.degree_of(i) for i in range(1, s + 1)]
        expected = [
            [-sum(p[i][k] * h[k] * p[j][k] for k in range(s)) for j in range(s)]
            for i in range(s)
        ]
        assert [list(row) for row in g.intersection_matrix] == expected


def test_m_matrix_against_gauss_jordan_oracle(corpus):
    from test_linalg import gauss_jordan_inverse

    for g in corpus.values():
        neg_n = tuple(tuple(-x for x in row) for row in g.intersection_matrix)
        assert g.m_matrix == gauss_jordan_inverse(neg_n)


def test_matrix_invariants_on_random_graphs():
    from test_linalg import gauss_jordan_inverse, is_positive_definite

    rng = random.Random(1139)
    for _ in range(60):
        g = random_graph(rng)
        p = g.proximity_matrix
        n = g.intersection_matrix
        m = g.m_matrix
        s = g.s
        p_inv = gauss_jordan_inverse(p)
        # unitriangular with an integral inverse: det P = 1
        assert all(p[i][i] == 1 for i in range(s))
        assert all(p[i][j] == 0 for i in range(s) for j in range(i))
        assert all(x.denominator == 1 for row in p_inv for x in row)
        assert n == _linalg.transpose(n)
        assert m == _linalg.transpose(m)
        assert _linalg.mat_mul(m, _linalg.neg(n)) == _linalg.identity(s)
        assert all(x > 0 for row in m for x in row)
        assert all(x >= 0 for row in p_inv for x in row)
        assert is_positive_definite(_linalg.neg(n))
        assert all(
            nc >= nb for nc, nb in zip(g.nu_circ, g.nu_bullet)
        )
        # a point of degree above h_i only raises nu_bullet_i
        assert all(
            nb >= g.degree_of(i) * b for i, (nb, b) in enumerate(zip(g.nu_bullet, g.beta), start=1)
        )
        assert g.epsilon == tuple(
            2 * g.degree_of(i) - g.nu_bullet[i - 1] for i in range(1, s + 1)
        )
        if g.is_totally_rational:
            assert all(x.denominator == 1 for row in m for x in row)


def test_m_inverts_minus_n_on_graph_files():
    # M (-N) = I with a local product; an entry is an int exactly when integral
    paths = sorted((ROOT / "demos" / "graphs").glob("*.json"))
    paths += sorted((ROOT / "perfbench" / "graphs").glob("*.json"))
    assert len(paths) == 7
    for path in paths:
        g = build(json.loads(path.read_text()))
        m, n, s = g.m_matrix, g.intersection_matrix, g.s
        assert [
            [sum(-m[i][k] * n[k][j] for k in range(s)) for j in range(s)]
            for i in range(s)
        ] == [[int(i == j) for j in range(s)] for i in range(s)], path.name
        for row in m:
            for x in row:
                assert type(x) is (int if x.denominator == 1 else Fraction), path.name


def test_proximity_cardinality_beyond_two_is_unrealizable():
    # more than two proximities always drives some intersection number
    # negative (h_3 >= h_2 by divisibility), so the realizability check fires
    with pytest.raises(GraphValidationError, match="not realizable"):
        build(
            {
                "centers": [
                    {"prox": []},
                    {"prox": [1]},
                    {"prox": [1, 2]},
                    {"prox": [1, 2, 3]},
                ]
            }
        )


def test_messages_show_input_values_whole_up_to_80_characters():
    # a value whose repr fits is shown as repr gives it, a dict in its own key
    # order; a longer one is cut to 77 characters and "..."
    fits = [1.5, True, None, "x" * 78, [0] * 26, {"b": 1, "a": [2, 3]}, [[[[[]]]]], "[" * 40]
    for value in fits:
        assert len(repr(value)) <= 80
        with pytest.raises(GraphValidationError) as info:
            build({"centers": [{"prox": [], "h": value}]})
        assert str(info.value) == f"malformed graph record: expected an integer, got {value!r}"
    deep = []
    for _ in range(900):
        deep = [deep]
    for value in ("x" * 79, [0] * 27, list(range(5000)), {str(k): k for k in range(100)}, deep, 10**100):
        shown = resolution._shown(value)
        assert len(shown) == 80 and shown.endswith("...")
    assert resolution._shown(list(range(5000))) == repr(list(range(5000)))[:77] + "..."
    assert resolution._shown(deep) == ("[" * 40 + "[...]" + "]" * 40)[:77] + "..."
