import functools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from doubling import (
    REL_TOL,
    ConfigError,
    EmptyLongEdgeSet,
    InvalidPoint,
    WeightedGraph,
    build_spanner,
    complete_tree,
    exponential_star,
    lcp_metric,
    random_euclidean,
    random_tree,
    shortest_path_metric,
)
from doubling import closure
from doubling.closure import (
    ConvPoint,
    conv_distance,
    conv_geodesic_point,
    long_edge_audit,
    long_edge_packing_witness,
    sample_metric,
    sample_points,
    sampled_conv_dimension,
)
from oracles import brute_audit_max, scalar_conv_distance, scalar_geodesic_point


def single_edge(length: float = 4.0) -> WeightedGraph:
    return WeightedGraph(2, [(0, 1, length)])


def unit_triangle() -> WeightedGraph:
    return WeightedGraph(3, [(0, 1, 1.0), (0, 2, 1.0), (1, 2, 1.0)])


class TestConvPoint:
    def test_vertex_and_edge_constructors(self):
        v = ConvPoint.at_vertex(3)
        assert v.is_vertex and v.vertex == 3
        e = ConvPoint.on_edge(0, 2, 0.5)
        assert not e.is_vertex
        assert e.edge == (0, 2) and e.offset == 0.5

    def test_edge_endpoints_must_be_ordered(self):
        with pytest.raises(InvalidPoint):
            ConvPoint.on_edge(2, 0, 0.5)

    @pytest.mark.parametrize("offset", [0.0, 4.0, -1.0, 5.0])
    def test_offsets_must_be_interior(self, offset):
        g = single_edge()
        with pytest.raises(InvalidPoint):
            conv_distance(g, ConvPoint.on_edge(0, 1, offset), ConvPoint.at_vertex(0))

    def test_unknown_edge(self):
        g = unit_triangle()
        with pytest.raises(InvalidPoint):
            conv_distance(g, ConvPoint.on_edge(0, 3, 0.1), ConvPoint.at_vertex(0))


class TestConvDistance:
    def test_along_a_single_edge(self):
        g = single_edge(4.0)
        assert conv_distance(g, ConvPoint.on_edge(0, 1, 1.0), ConvPoint.on_edge(0, 1, 3.0)) == 2.0
        assert conv_distance(g, ConvPoint.at_vertex(0), ConvPoint.on_edge(0, 1, 1.0)) == 1.0

    def test_triangle_midpoints_meet_through_shared_vertex(self):
        g = unit_triangle()
        d = conv_distance(g, ConvPoint.on_edge(0, 1, 0.5), ConvPoint.on_edge(0, 2, 0.5))
        assert d == 1.0

    def test_same_edge_detour_can_beat_direct(self):
        # going around: 0.1 + d(0,1) + 0.1 where the edge itself is length 10
        g = WeightedGraph(3, [(0, 1, 10.0), (0, 2, 1.0), (1, 2, 1.0)])
        p = ConvPoint.on_edge(0, 1, 0.1)
        q = ConvPoint.on_edge(0, 1, 9.9)
        assert conv_distance(g, p, q) == pytest.approx(2.2)

    def test_vertex_pairs_match_shortest_paths(self):
        g = WeightedGraph(4, [(0, 1, 1.0), (1, 2, 2.0), (2, 3, 3.0), (0, 3, 2.0)])
        m = shortest_path_metric(g)
        for i in range(4):
            for j in range(4):
                got = conv_distance(g, ConvPoint.at_vertex(i), ConvPoint.at_vertex(j))
                assert got == m.d(i, j)

    def test_symmetry(self):
        g = unit_triangle()
        p = ConvPoint.on_edge(0, 1, 0.25)
        q = ConvPoint.on_edge(1, 2, 0.75)
        assert conv_distance(g, p, q) == conv_distance(g, q, p)


class TestGeodesicPoint:
    def test_edge_midpoint(self):
        g = single_edge(4.0)
        m = conv_geodesic_point(g, ConvPoint.at_vertex(0), ConvPoint.at_vertex(1), 2.0)
        assert m == ConvPoint.on_edge(0, 1, 2.0)

    def test_zero_walk_returns_start(self):
        g = unit_triangle()
        p = ConvPoint.on_edge(0, 1, 0.5)
        assert conv_geodesic_point(g, p, ConvPoint.at_vertex(2), 0.0) == p

    def test_star_unit_step(self):
        g = exponential_star(5)
        pt = conv_geodesic_point(g, ConvPoint.at_vertex(0), ConvPoint.at_vertex(3), 1.0)
        assert pt == ConvPoint.on_edge(0, 3, 1.0)

    def test_full_walk_lands_on_target(self):
        g = unit_triangle()
        p = ConvPoint.on_edge(0, 1, 0.5)
        q = ConvPoint.on_edge(1, 2, 0.5)
        total = conv_distance(g, p, q)
        assert conv_geodesic_point(g, p, q, total) == q

    @settings(max_examples=40, deadline=None)
    @given(
        x=st.floats(min_value=0.05, max_value=0.95),
        y=st.floats(min_value=0.05, max_value=0.95),
        frac=st.floats(min_value=0.0, max_value=1.0),
    )
    def test_split_distances_add_up(self, x, y, frac):
        """The walked point is s from p and total - s from q, within 1e-9."""
        g = WeightedGraph(4, [(0, 1, 1.0), (1, 2, 2.0), (2, 3, 3.0), (0, 3, 2.0)])
        p = ConvPoint.on_edge(0, 1, x)
        q = ConvPoint.on_edge(2, 3, 3.0 * y)
        total = conv_distance(g, p, q)
        s = frac * total
        mid = conv_geodesic_point(g, p, q, s)
        assert conv_distance(g, p, mid) == pytest.approx(s, abs=1e-9)
        assert conv_distance(g, mid, q) == pytest.approx(total - s, abs=1e-9)


# k in [0, 700) picks each graph; completed stars run over 16-40 leaves
# (k % 25) and eps = 2^-2 ... 2^-29 (k // 25), completed random trees over
# 2-13 vertices (k % 12) and eps = 2^-2 ... 2^-8 (k % 7)
GEODESIC_GRAPHS = {
    "random-tree": lambda k: random_tree(2 + k % 20, k),
    "completed-star": lambda k: complete_tree(
        exponential_star(16 + k % 25), 2.0 ** -(2 + k // 25)
    ).output,
    "completed-tree": lambda k: complete_tree(random_tree(2 + k % 12, k), 2.0 ** -(2 + k % 7)).output,
    "planar-spanner": lambda k: build_spanner(random_euclidean(3 + k % 28, 2, k), 0.25).graph,
    "lcp-spanner": lambda k: build_spanner(lcp_metric(2 + k % 3), 2.0 ** -(3 + k % 3)).graph,
}


@functools.lru_cache(maxsize=2)
def geodesic_graph(family: str, k: int) -> WeightedGraph:
    return GEODESIC_GRAPHS[family](k)


@st.composite
def closure_pairs(draw, g: WeightedGraph):
    """(p, q): vertices and interior points, q on p's own edge half the
    time p is interior."""
    fractions = st.one_of(st.sampled_from([0.25, 0.5, 0.75]), st.floats(0.001, 0.999))

    def on_edge(i: int) -> ConvPoint:
        return ConvPoint.on_edge(int(g.u[i]), int(g.v[i]), draw(fractions) * float(g.w[i]))

    def point() -> ConvPoint:
        if draw(st.booleans()):
            return ConvPoint.at_vertex(draw(st.integers(0, g.n_vertices - 1)))
        return on_edge(draw(st.integers(0, g.w.size - 1)))

    p = point()
    if not p.is_vertex and draw(st.booleans()):
        u, v = p.edge
        return p, ConvPoint.on_edge(u, v, draw(fractions) * g.edge_length(u, v))
    return p, point()


@pytest.mark.parametrize("family", sorted(GEODESIC_GRAPHS))
@settings(max_examples=25, deadline=None)
@given(k=st.integers(0, 699), data=st.data())
def test_geodesic_walk_matches_the_piece_walk(family, k, data):
    """The stop-by-stop walk, reading only the Dijkstra rows of the exit
    vertices, lands on the point the route-piece walk of
    ``oracles.scalar_geodesic_point`` lands on over the symmetrised
    all-pairs matrix, bit for bit, from s = 0 to just past the total."""
    g = geodesic_graph(family, k)
    for _ in range(3):
        p, q = data.draw(closure_pairs(g))
        total = conv_distance(g, p, q)
        fractions = data.draw(st.lists(st.floats(0.0, 1.0), min_size=1, max_size=3))
        for s in [0.0, *(f * total for f in fractions), total, total * (1.0 + REL_TOL / 2.0)]:
            got = conv_geodesic_point(g, p, q, s)
            assert repr(got) == repr(scalar_geodesic_point(g, p, q, s)), (p, q, s)


class TestAudit:
    def test_star_counts_all_edges_near_the_center(self):
        audit = long_edge_audit(exponential_star(5))
        assert audit.max_count == 5
        u, r, edges = audit.witness
        assert u == 0 and 0.0 < r < 2.0
        assert len(edges) == 5
        assert audit.per_vertex_profile[0] == 5

    def test_single_edge(self):
        audit = long_edge_audit(single_edge(2.0))
        assert audit.max_count == 1
        assert audit.witness[0] == 0

    def test_unit_complete_graph(self):
        g = WeightedGraph(8, [(i, j, 1.0) for i in range(8) for j in range(i + 1, 8)])
        audit = long_edge_audit(g)
        assert audit.max_count == 7

    def test_witness_edges_requalify(self, audit_graphs):
        """Every witness edge is long and near in the reported ball."""
        for name, g in audit_graphs.items():
            audit = long_edge_audit(g)
            u, r, edges = audit.witness
            D = shortest_path_metric(g).dist
            for a, b in edges:
                assert g.edge_length(a, b) > r, name
                assert min(D[u, a], D[u, b]) <= r, name

    def test_matches_dense_grid_oracle(self, audit_graphs):
        for name, g in audit_graphs.items():
            assert long_edge_audit(g).max_count == brute_audit_max(g), name

    def test_edgeless_graph(self):
        audit = long_edge_audit(WeightedGraph(1, []))
        assert audit.max_count == 0
        assert audit.witness == (0, 0.0, ())


class TestPackingWitness:
    def test_star_witness_realizes_the_radius(self):
        g = exponential_star(5)
        W = long_edge_packing_witness(g, 0, 1.9)
        assert len(W) == 5
        assert set(W) == {ConvPoint.on_edge(0, i, 0.95) for i in range(1, 6)}
        for i, a in enumerate(W):
            for b in W[i + 1 :]:
                assert conv_distance(g, a, b) == pytest.approx(1.9)

    def test_singleton_on_a_single_edge(self):
        W = long_edge_packing_witness(single_edge(4.0), 0, 1.0)
        assert W == [ConvPoint.on_edge(0, 1, 0.5)]

    def test_points_stay_inside_the_double_ball(self, audit_graphs):
        for name, g in audit_graphs.items():
            u, r, _ = long_edge_audit(g).witness
            for pt in long_edge_packing_witness(g, u, r):
                assert conv_distance(g, ConvPoint.at_vertex(u), pt) <= 2.0 * r * (1 + 1e-9), name

    @pytest.mark.parametrize("scale", [1e-12, 1e12])
    def test_rescaling_keeps_the_verdict(self, scale):
        """The separation floor is relative: an audit witness on a random
        tree is accepted at every scale, not just near unit lengths."""
        for seed in range(30):
            g = random_tree(12, seed)
            big = WeightedGraph(g.n_vertices, [(a, b, w * scale) for a, b, w in g.edges])
            u, r, _ = long_edge_audit(g).witness
            su, sr, _ = long_edge_audit(big).witness
            assert len(long_edge_packing_witness(g, u, r)) == len(
                long_edge_packing_witness(big, su, sr)
            ), seed

    def test_no_long_edges(self):
        with pytest.raises(EmptyLongEdgeSet):
            long_edge_packing_witness(single_edge(2.0), 0, 3.0)

    def test_rejects_nonpositive_radius(self):
        with pytest.raises(ValueError):
            long_edge_packing_witness(single_edge(2.0), 0, 0.0)


class TestSampledDimension:
    def test_sample_point_census(self):
        g = unit_triangle()
        pts = sample_points(g, 2)
        assert len(pts) == 3 + 2 * 3
        assert ConvPoint.on_edge(0, 1, 1.0 / 3.0) in pts

    @pytest.mark.parametrize(
        "g,s",
        [
            (unit_triangle(), 2),
            (WeightedGraph(3, [(0, 1, 1.0), (1, 2, 4.0)]), 3),
            (exponential_star(4), 1),
        ],
    )
    def test_sample_metric_agrees_with_scalar_distances(self, g, s):
        pts = sample_points(g, s)
        m = sample_metric(g, s)
        for i, p in enumerate(pts):
            for j, q in enumerate(pts):
                both = min(scalar_conv_distance(g, p, q), scalar_conv_distance(g, q, p))
                assert m.dist[i, j] == (0.0 if i == j else both)

    def test_sample_offsets_beyond_float_range_are_refused(self, monkeypatch):
        """Two samples on an edge of length 1e308 would sit at 2e308 / 3:
        refused before any point is built. One sample sits at 5e307, and
        the exit sums past the float range that its distances drop raise
        no warning (the suite turns one into an error)."""
        g = single_edge(1e308)
        with monkeypatch.context() as mp:
            mp.setattr(closure, "sample_points", lambda *a: pytest.fail("built points"))
            with pytest.raises(ConfigError, match="edge of length 1e\\+308"):
                sample_metric(g, 2)
        assert sample_points(g, 1)[-1] == ConvPoint.on_edge(0, 1, 5e307)
        np.testing.assert_array_equal(
            sample_metric(g, 1).dist, [[0.0, 1e308, 5e307], [1e308, 0.0, 5e307], [5e307, 5e307, 0.0]]
        )

    def test_single_vertex(self):
        est = sampled_conv_dimension(WeightedGraph(1, []), 3)
        assert est.dim_upper == 0.0 and est.dim_lower == 0.0

    def test_five_point_path_sample(self):
        """s=3 on one edge gives an evenly spaced path; the worst ball is an
        inner point covering three samples by singleton half-step balls."""
        est = sampled_conv_dimension(single_edge(4.0), 3)
        assert est.mode == "exact-cover"
        assert est.dim_upper == pytest.approx(math.log2(3.0))
        assert est.dim_lower == pytest.approx(0.5 * math.log2(5.0))

    def test_star_sampled_bounds_stay_flat_in_size(self):
        """Proportional per-edge sampling never aligns offsets across edges,
        so the packing bound plateaus at 5 points for every star size."""
        vals = {
            n: sampled_conv_dimension(exponential_star(n), 1).dim_lower
            for n in (4, 8)
        }
        expected = 0.5 * math.log2(5.0)
        assert vals[4] == pytest.approx(expected)
        assert vals[8] == pytest.approx(expected)
