"""Property test: the per-key engine equals the per-stratum sum on random graphs."""

import random

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import assume, given, settings, strategies as st  # noqa: E402

from conftest import random_graph  # noqa: E402
from test_aggregation import assert_matches_reference  # noqa: E402


@settings(max_examples=25, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2**32 - 1), bound=st.integers(0, 4))
def test_engine_matches_reference_on_random_graphs(seed, bound):
    g = random_graph(random.Random(seed), max_centers=4, max_branches=3)
    assume(g.r >= 2)
    assert_matches_reference(g, pg_bound=bound, pdg_bound=min(bound, 3))
