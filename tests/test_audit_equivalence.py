"""The rank-count long-edge audit against its scalar reference.

``long_edge_audit`` ranks the vertices by distance once per center and
counts the active edges by rank; ``oracles`` keeps the census evaluated at
every breakpoint and midpoint by sorting all edges per vertex. The whole
``AuditResult`` must match: count, witness (vertex, radius, edges) and the
per-vertex profile.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from doubling import (
    DisconnectedGraph,
    WeightedGraph,
    build_spanner,
    exponential_star,
    random_euclidean,
    random_tree,
    shortest_path_metric,
)
from doubling.closure import AuditResult, _long_edges, long_edge_audit
from oracles import scalar_long_edge_audit, scalar_long_edges

SEEDS = st.integers(min_value=0, max_value=10_000)


def spanner_graph(seed: int, n: int) -> WeightedGraph:
    return build_spanner(random_euclidean(n, 2, seed), 0.25).graph


@st.composite
def small_integer_graphs(draw, max_vertices: int = 9) -> WeightedGraph:
    """Connected graphs with lengths in 1..4: lengths often equal endpoint
    distances and many distances tie."""
    n = draw(st.integers(min_value=2, max_value=max_vertices))
    tree = [(draw(st.integers(0, i - 1)), i) for i in range(1, n)]
    others = [(i, j) for i in range(n) for j in range(i + 1, n) if (i, j) not in tree]
    extra = draw(st.lists(st.sampled_from(others), unique=True)) if others else []
    pairs = tree + extra
    lengths = draw(st.lists(st.integers(1, 4), min_size=len(pairs), max_size=len(pairs)))
    return WeightedGraph(n, [(i, j, float(w)) for (i, j), w in zip(pairs, lengths)])


def assert_same_audit(g: WeightedGraph) -> AuditResult:
    got, want = long_edge_audit(g), scalar_long_edge_audit(g)
    assert (got.max_count, got.witness) == (want.max_count, want.witness)
    assert np.array_equal(got.per_vertex_profile, want.per_vertex_profile)
    assert got.per_vertex_profile.dtype == np.intp
    return got


class TestMatchesScalarAudit:
    @settings(max_examples=40, deadline=None)
    @given(seed=SEEDS, n=st.integers(min_value=1, max_value=25))
    def test_random_trees(self, seed, n):
        assert_same_audit(random_tree(n, seed))

    @pytest.mark.parametrize("n", range(1, 12))
    def test_exponential_stars(self, n):
        assert_same_audit(exponential_star(n))

    @settings(max_examples=15, deadline=None)
    @given(seed=SEEDS, n=st.integers(min_value=2, max_value=24))
    def test_spanners_of_euclidean_metrics(self, seed, n):
        assert_same_audit(spanner_graph(seed, n))

    @settings(max_examples=80, deadline=None)
    @given(g=small_integer_graphs())
    def test_tie_heavy_integer_graphs(self, g):
        assert_same_audit(g)

    def test_disconnected_graph(self):
        """Unreachable vertices have no finite distance to count from; both
        audits refuse the graph the same way."""
        g = WeightedGraph(6, [(0, 1, 1.0), (1, 2, 3.0), (3, 4, 2.0), (3, 5, 5.0)])
        with pytest.raises(DisconnectedGraph) as new:
            long_edge_audit(g)
        with pytest.raises(DisconnectedGraph) as old:
            scalar_long_edge_audit(g)
        assert (new.value.rep_a, new.value.rep_b) == (old.value.rep_a, old.value.rep_b)

    def test_one_vertex(self):
        assert_same_audit(WeightedGraph(1, []))

    @pytest.mark.parametrize("length", [2.0**-40, 1.0, 3.0, 2.0**40])
    def test_single_edge(self, length):
        g = WeightedGraph(2, [(0, 1, length)])
        audit = assert_same_audit(g)
        # the plateau from 0 is reported at half the only breakpoint
        assert audit.witness == (0, length / 2.0, ((0, 1),))


class TestLongEdges:
    @settings(max_examples=40, deadline=None)
    @given(g=small_integer_graphs())
    def test_mask_matches_the_edge_loop(self, g):
        D = shortest_path_metric(g).dist
        values = np.unique(np.concatenate([D.ravel(), [w for *_, w in g.edges]]))
        radii = np.unique(np.concatenate([values, (values[:-1] + values[1:]) / 2.0]))
        for u in range(g.n_vertices):
            for r in radii[np.isfinite(radii)]:
                rows = _long_edges(g, D[u], float(r))
                got = list(zip(g.u[rows].tolist(), g.v[rows].tolist()))
                assert got == scalar_long_edges(g, D[u], float(r))

    def test_edgeless_graph_has_none(self):
        g = WeightedGraph(1, [])
        assert _long_edges(g, shortest_path_metric(g).dist[0], 1.0).tolist() == []


def scaled(g: WeightedGraph, factor: float) -> WeightedGraph:
    return WeightedGraph(g.n_vertices, [(a, b, w * factor) for a, b, w in g.edges])


@pytest.mark.parametrize("factor", [2.0**-40, 2.0**40])
class TestScaleInvariance:
    """Powers of two rescale every distance and breakpoint exactly, so the
    audit must return the same counts and edges and a radius scaled by the
    same factor."""

    def check(self, g: WeightedGraph, factor: float) -> None:
        base = long_edge_audit(g)
        big = long_edge_audit(scaled(g, factor))
        assert big.max_count == base.max_count
        assert np.array_equal(big.per_vertex_profile, base.per_vertex_profile)
        (u, r, edges), (su, sr, sedges) = base.witness, big.witness
        assert (su, sedges) == (u, edges)
        assert sr == r * factor

    @settings(max_examples=25, deadline=None)
    @given(seed=SEEDS, n=st.integers(min_value=2, max_value=25))
    def test_random_trees(self, factor, seed, n):
        self.check(random_tree(n, seed), factor)

    @settings(max_examples=10, deadline=None)
    @given(seed=SEEDS, n=st.integers(min_value=2, max_value=20))
    def test_spanners_of_euclidean_metrics(self, factor, seed, n):
        self.check(spanner_graph(seed, n), factor)

    @settings(max_examples=40, deadline=None)
    @given(g=small_integer_graphs())
    def test_tie_heavy_integer_graphs(self, factor, g):
        self.check(g, factor)

    def test_exponential_star(self, factor):
        self.check(exponential_star(9), factor)
