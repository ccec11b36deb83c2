"""Shared corpus graphs, the per-test cache reset and generators for
randomized property tests."""

from __future__ import annotations

import random

import pytest

from curvemotive import Branch, Center, ResolutionGraph, Stratum, build, codim, resolution, series


@pytest.fixture(autouse=True)
def fresh_caches():
    """Empty the caches keyed on the centers before each test, so that no test
    reads what an earlier one left and a monkeypatched function is reached."""
    for cached in (
        codim._composed,
        codim._literal,
        resolution._m_matrix,
        resolution._m_lattice,
        series.sym_power_class,
    ):
        cached.cache_clear()


def cusp_description():
    return {
        "centers": [{"prox": []}, {"prox": [1]}, {"prox": [1, 2]}],
        "branches": [{"attach": 3}],
    }


@pytest.fixture(scope="session")
def single():
    return build({"centers": [{"prox": []}], "branches": [{"attach": 1}]})


@pytest.fixture(scope="session")
def chain2_h12():
    return build(
        {
            "centers": [{"prox": []}, {"prox": [1], "h": 2}],
            "branches": [{"attach": 2, "h": 2}],
        }
    )


@pytest.fixture(scope="session")
def cusp():
    return build(cusp_description())


@pytest.fixture(scope="session")
def satellite5():
    return build(
        {
            "centers": [
                {"prox": []},
                {"prox": [1]},
                {"prox": [1, 2]},
                {"prox": [2, 3]},
                {"prox": [3, 4]},
            ],
            "branches": [{"attach": 5}],
        }
    )


@pytest.fixture(scope="session")
def cusp_two_branches():
    return build(
        {
            "centers": [{"prox": []}, {"prox": [1]}, {"prox": [1, 2]}],
            "branches": [{"attach": 3}, {"attach": 1}],
        }
    )


@pytest.fixture(scope="session")
def chain2():
    return build(
        {"centers": [{"prox": []}, {"prox": [1]}], "branches": [{"attach": 2}]}
    )


@pytest.fixture(scope="session")
def chain3():
    return build(
        {
            "centers": [{"prox": []}, {"prox": [1]}, {"prox": [2]}],
            "branches": [{"attach": 3}],
        }
    )


@pytest.fixture(scope="session")
def corpus(single, chain2_h12, cusp, satellite5):
    return {
        "single": single,
        "chain2_h12": chain2_h12,
        "cusp": cusp,
        "satellite5": satellite5,
    }


def random_graph(rng: random.Random, max_centers=6, max_branches=2, allow_degrees=True):
    """A random geometrically realizable graph, built by simulating blowups.

    A free point sits on one component and may have any residue degree that
    is a multiple of the component's; a satellite blows up a surviving
    intersection point, whose degree it must inherit exactly (and the blowup
    then separates the pair).
    """
    s = rng.randint(1, max_centers)
    degrees = [rng.choice((1, 1, 2)) if allow_degrees else 1]
    centers = [Center((), degrees[0])]
    live_pairs: list[tuple[int, int, int]] = []  # (k, l, point degree)
    for i in range(2, s + 1):
        if live_pairs and rng.random() < 0.4:
            k, l, degree = rng.choice(live_pairs)
            live_pairs.remove((k, l, degree))
            prox = (k, l)
        else:
            k = rng.randint(1, i - 1)
            l = None
            mult = rng.choice((1, 1, 2)) if allow_degrees else 1
            degree = degrees[k - 1] * mult
            prox = (k,)
        degrees.append(degree)
        centers.append(Center(tuple(sorted(prox)), degree))
        live_pairs.append((k, i, degree))
        if l is not None:
            live_pairs.append((l, i, degree))
    branches = []
    for _ in range(rng.randint(0, max_branches)):
        attach = rng.randint(1, s)
        mult = rng.choice((1, 1, 2)) if allow_degrees else 1
        branches.append(Branch(attach, degrees[attach - 1] * mult))
    return ResolutionGraph(centers=tuple(centers), branches=tuple(branches))


def random_stratum(rng: random.Random, g, max_mult=3, divisorial=False) -> Stratum:
    pairs = tuple(site.key for site in g.pairs if rng.random() < 0.5)
    branches = (
        ()
        if divisorial
        else tuple(j for j in range(1, g.r + 1) if rng.random() < 0.5)
    )
    return Stratum(
        pairs=pairs,
        branches=branches,
        point_mults=tuple(rng.randint(0, max_mult) for _ in range(g.s)),
        pair_mults=tuple(
            (rng.randint(1, max_mult), rng.randint(1, max_mult)) for _ in pairs
        ),
        branch_mults=tuple(
            (rng.randint(1, max_mult), rng.randint(1, max_mult)) for _ in branches
        ),
    )
