import functools
import math
import re

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
from oracles import (
    brute_audit_max,
    scalar_conv_distance,
    scalar_geodesic_point,
    scalar_packing_witness,
    scalar_sample_points,
    scalar_weighted_graph,
)


# edge lengths from subnormal, where sample offsets round onto each other,
# to near the float maximum, where they overflow
EDGE_LENGTHS = st.one_of(
    st.sampled_from([5e-324, 1e-323, 1.5e-323, 1e-322, 2.2e-308, 1.0, 1e308, 1.7976931348623157e308]),
    st.floats(min_value=5e-324, max_value=1.7976931348623157e308),
)


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


def path_graph() -> WeightedGraph:
    return WeightedGraph(3, [(0, 1, 1.0), (1, 2, 2.0)])


@pytest.mark.parametrize(
    "bad,message",
    [
        (ConvPoint.at_vertex(3), "vertex 3 out of range for 3 vertices"),
        (ConvPoint.at_vertex(-1), "vertex -1 out of range for 3 vertices"),
        (ConvPoint(), "point is neither a vertex nor an edge position"),
        (ConvPoint.on_edge(0, 2, 0.5), "no edge between 0 and 2"),
        (ConvPoint(edge=(2, 1), offset=0.5), "edge point endpoints must be given in increasing order"),
        (ConvPoint(edge=(1, 1), offset=0.5), "no edge between 1 and 1"),
        (ConvPoint.on_edge(1, 2, 0.0), "offset 0.0 outside the open interval (0, 2.0)"),
        (ConvPoint.on_edge(1, 2, 2.0), "offset 2.0 outside the open interval (0, 2.0)"),
    ],
)
@pytest.mark.parametrize(
    "query",
    [
        lambda g, bad: closure.point_distances(g, [ConvPoint.at_vertex(0), bad], [ConvPoint.at_vertex(1)]),
        lambda g, bad: closure.point_distances(g, [ConvPoint.at_vertex(0)], [bad]),
        lambda g, bad: closure.pairwise_window(g, [ConvPoint.at_vertex(0), bad]),
        lambda g, bad: conv_geodesic_point(g, bad, ConvPoint.at_vertex(0), 0.0),
        lambda g, bad: conv_geodesic_point(g, ConvPoint.at_vertex(0), bad, 0.0),
    ],
    ids=["point_distances-P", "point_distances-Q", "pairwise_window", "geodesic-p", "geodesic-q"],
)
def test_invalid_points_are_refused_by_name(query, bad, message):
    """Every closure query checks its points in one place and names the
    check that failed."""
    with pytest.raises(InvalidPoint, match=f"^{re.escape(message)}$"):
        query(path_graph(), bad)


@pytest.mark.parametrize(
    "points,message",
    [
        ([ConvPoint.on_edge(1, 2, 0.0), ConvPoint()], "offset 0.0 outside the open interval (0, 2.0)"),
        ([ConvPoint(), ConvPoint.on_edge(1, 2, 0.0)], "point is neither a vertex nor an edge position"),
        ([ConvPoint.on_edge(0, 2, 0.5), ConvPoint.at_vertex(3)], "no edge between 0 and 2"),
        (
            [ConvPoint.on_edge(0, 1, 0.5), ConvPoint.at_vertex(3), ConvPoint.on_edge(1, 2, 9.0)],
            "vertex 3 out of range for 3 vertices",
        ),
    ],
)
def test_the_first_point_at_fault_is_named(points, message):
    """Edge points are checked after the loop, in one lookup; a fault the
    loop finds still gives way to an edge point at fault before it."""
    with pytest.raises(InvalidPoint, match=f"^{re.escape(message)}$"):
        closure.pairwise_window(path_graph(), points)


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
        return p, ConvPoint.on_edge(u, v, draw(fractions) * float(g.w[g.edge_rows(u, v)]))
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
            lengths = scalar_weighted_graph(g.n_vertices, g.edges).lengths
            for a, b in edges:
                assert lengths[(a, b)] > r, name
                assert min(D[u, a], D[u, b]) <= r, name

    def test_matches_dense_grid_oracle(self, audit_graphs):
        for name, g in audit_graphs.items():
            assert long_edge_audit(g).max_count == brute_audit_max(g), name

    def test_edgeless_graph(self):
        audit = long_edge_audit(WeightedGraph(1, []))
        assert audit.max_count == 0
        assert audit.witness == (0, 0.0, ())


class TestPackingWitness:
    def test_a_tie_measures_from_the_smaller_endpoint(self):
        """Edge (1, 2) is long at vertex 0 and both its ends are 1 away: the
        point sits r/2 from the smaller end, as in the loop."""
        g = WeightedGraph(3, [(0, 1, 1.0), (0, 2, 1.0), (1, 2, 3.0)])
        assert long_edge_packing_witness(g, 0, 1.5) == [ConvPoint.on_edge(1, 2, 0.75)]
        assert scalar_packing_witness(g, 0, 1.5) == [ConvPoint.on_edge(1, 2, 0.75)]

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
            mp.setattr(closure, "_sample_offsets", lambda *a: pytest.fail("built points"))
            with pytest.raises(ConfigError, match="edge of length 1e\\+308"):
                sample_metric(g, 2)
        assert sample_points(g, 1)[-1] == ConvPoint.on_edge(0, 1, 5e307)
        np.testing.assert_array_equal(
            sample_metric(g, 1).dist, [[0.0, 1e308, 5e307], [1e308, 0.0, 5e307], [5e307, 5e307, 0.0]]
        )

    @pytest.mark.parametrize(
        "length,interior",
        [(5e-324, []), (1e-323, [5e-324])],
    )
    def test_subnormal_edges_sample_distinct_interior_points(self, length, interior):
        """On an edge too short for its spacing the offsets j * length / 3
        round onto 0, onto the length or onto each other: those are dropped,
        so the sample holds no endpoint twice and no two points at distance 0."""
        g = single_edge(length)
        pts = sample_points(g, 2)
        assert pts == [ConvPoint.at_vertex(0), ConvPoint.at_vertex(1)] + [
            ConvPoint.on_edge(0, 1, x) for x in interior
        ]
        m = sample_metric(g, 2)
        assert m.n == len(pts) and (m.dist[~np.eye(m.n, dtype=bool)] > 0.0).all()
        est = sampled_conv_dimension(g, 2)
        assert est.dim_upper >= est.dim_lower > 0.0

    @settings(max_examples=150, deadline=None)
    @given(data=st.data())
    def test_sample_points_match_the_offset_loop(self, data):
        """The one-pass offsets keep exactly the points the per-edge loop
        keeps, in its order, on lengths from subnormal (offsets that round
        onto 0, the length or each other) to near the float maximum (where
        ``j * length`` overflows to inf and is dropped)."""
        n = data.draw(st.integers(1, 6))
        pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
        chosen = data.draw(st.lists(st.sampled_from(pairs), unique=True, max_size=8)) if pairs else []
        g = WeightedGraph(n, [(u, v, data.draw(EDGE_LENGTHS)) for u, v in chosen])
        s = data.draw(st.integers(0, 9))
        got, want = sample_points(g, s), scalar_sample_points(g, s)
        assert got == want
        assert [repr(p) for p in got] == [repr(p) for p in want]

    def test_sample_metric_builds_no_points(self, monkeypatch):
        """The sample goes from its offsets to exit-table columns directly."""
        g = exponential_star(6)
        want = sample_metric(g, 3).dist
        monkeypatch.setattr(closure, "ConvPoint", None)
        assert sample_metric(g, 3).dist.tobytes() == want.tobytes()

    @settings(max_examples=100, deadline=None)
    @given(data=st.data())
    def test_sample_metric_is_the_symmetrised_point_distances(self, data):
        """The column-built sample equals, bit for bit, the point distances
        among :func:`sample_points`, symmetrised with a zero diagonal, on
        connected graphs with lengths from subnormal to near the float
        maximum. Offsets beyond the float range are refused before the
        sample is built, and distances beyond it once they are measured."""
        n = data.draw(st.integers(1, 6))
        tree = [(data.draw(st.integers(0, v - 1)), v) for v in range(1, n)]
        others = [(u, v) for u in range(n) for v in range(u + 1, n) if (u, v) not in tree]
        extra = data.draw(st.lists(st.sampled_from(others), unique=True, max_size=4)) if others else []
        g = WeightedGraph(n, [(u, v, data.draw(EDGE_LENGTHS)) for u, v in tree + extra])
        s = data.draw(st.integers(0, 4))
        if not math.isfinite(s * float(g.w.max(initial=0.0))):
            with pytest.raises(ConfigError):
                sample_metric(g, s)
            return
        pts = sample_points(g, s)
        want = closure.point_distances(g, pts, pts)
        want = np.minimum(want, want.T)
        np.fill_diagonal(want, 0.0)
        if not np.isfinite(want).all():
            with pytest.raises(ValueError, match="distances must be finite"):
                sample_metric(g, s)
            return
        assert sample_metric(g, s).dist.tobytes() == want.tobytes()

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
