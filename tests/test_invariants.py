"""Property tests: invariants of the series that need no oracle.

Any order of the blowup centers that lists each center after those it is
proximate to gives the same resolution; only the names of its sites change.
So on a graph with its centers reordered, ``pg`` is the same series once its
symbols are renamed, and ``pdg`` is too, once its variables are permuted the
same way.  Reordering the branches permutes ``pg``'s variables.
"""

import random
from itertools import count

import pytest

from curvemotive import Branch, Center, ResolutionGraph, RingElement, Run, poincare_divisorial, poincare_generalised

from conftest import random_graph

COUNT = 45  # reordered graphs per case
PG_BOUND = 4
PDG_BOUND = 3


def reordered_centers(g, rng):
    """``g`` with its centers in a random order, not their own, that lists each
    center after those it is proximate to, and the map from old to new 1-based
    index; ``None`` if no such order came up in a few tries."""
    for _try in range(4):
        order = []
        while len(order) < g.s:
            ready = [
                i for i in range(1, g.s + 1)
                if i not in order and all(k in order for k in g.centers[i - 1].proximate_to)
            ]
            order.append(rng.choice(ready))
        if order != sorted(order):
            break
    else:
        return None
    new = {old: k for k, old in enumerate(order, start=1)}
    centers = tuple(
        Center(tuple(sorted(new[k] for k in g.centers[old - 1].proximate_to)), g.degree_of(old)) for old in order
    )
    branches = tuple(Branch(new[b.attach], b.degree) for b in g.branches)
    return ResolutionGraph(centers, branches), new


def reordered_branches(g, rng):
    """``g`` with its branches in a random order, not their own, and the
    old-to-new map; ``g`` has at least two branches."""
    order = list(range(1, g.r + 1))
    while order == sorted(order):
        rng.shuffle(order)
    return ResolutionGraph(g.centers, tuple(g.branch(j) for j in order)), {old: k for k, old in enumerate(order, 1)}


def graphs(degrees, **shape):
    """``(seed, g, rng)`` for seeds 0, 1, 2, ...: ``g`` the random graph of
    ``shape`` and ``allow_degrees=degrees`` that ``rng``, seeded so, draws."""
    for seed in count():
        rng = random.Random(seed)
        yield seed, random_graph(rng, allow_degrees=degrees, **shape), rng


def renaming(g, h, center=None, branch=None):
    """Each site label of ``g`` -> the label of the same site of ``h``, whose
    centers and branches ``g``'s map to by ``center`` and ``branch``."""
    center = center or {i: i for i in range(1, g.s + 1)}
    branch = branch or {j: j for j in range(1, g.r + 1)}
    names = {g.component_label(i): h.component_label(center[i]) for i in range(1, g.s + 1)}
    for site in g.pairs:
        names[g.pair_label(site)] = h.pair_label(h.pair_site(*sorted((center[site.i1], center[site.i2]))))
    names.update({g.branch_label(j): h.branch_label(branch[j]) for j in range(1, g.r + 1)})
    assert names.pop(None, None) is None  # a site of degree one has no label on either graph
    return names


def moved(series, names, variable=None):
    """The terms of ``series`` with every symbol renamed by ``names`` and
    variable ``k`` (1-based) moved to ``variable[k]``."""
    out = {}
    for exp, value in series.terms.items():
        items = value.to_json()
        for item in items:
            item["symbols"] = {names[label]: e for label, e in item["symbols"].items()}
        if variable is not None:
            permuted = [None] * len(exp)
            for k, x in enumerate(exp, start=1):
                permuted[variable[k] - 1] = x
            exp = tuple(permuted)
        out[tuple(exp)] = RingElement.from_json(items)
    return out


def pg(g):
    return poincare_generalised(Run(g, (PG_BOUND,) * g.r))


def pdg(g):
    return poincare_divisorial(Run(g.without_branches, (PDG_BOUND,) * g.s))


def as_dict(series):
    return {tuple(exp): value for exp, value in series.terms.items()}


@pytest.mark.parametrize("degrees", [False, True])
def test_reordering_the_centers_renames_the_sites(degrees):
    reordered = 0
    for seed, g, rng in graphs(degrees, max_centers=5, max_branches=2):
        found = reordered_centers(g, rng)
        if found is None:  # a chain of centers has one order only
            continue
        h, new = found
        names = renaming(g, h, center=new)
        if g.r:
            assert moved(pg(g), names) == as_dict(pg(h)), seed
        assert moved(pdg(g), names, variable=new) == as_dict(pdg(h)), seed
        reordered += 1
        if reordered == COUNT:
            break


@pytest.mark.parametrize("degrees", [False, True])
def test_reordering_the_branches_permutes_the_variables_of_pg(degrees):
    permuted = 0
    for seed, g, rng in graphs(degrees, max_centers=4, max_branches=3):
        if g.r < 2:
            continue
        h, new = reordered_branches(g, rng)
        assert moved(pg(g), renaming(g, h, branch=new), variable=new) == as_dict(pg(h)), seed
        permuted += 1
        if permuted == COUNT:
            break
