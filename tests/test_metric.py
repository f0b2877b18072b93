import math
import os
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.sparse.csgraph import dijkstra

from doubling import (
    ConfigError,
    DisconnectedGraph,
    FiniteMetric,
    SizeMismatch,
    WeightedGraph,
    distance_rows,
    doubling_estimate,
    greedy_net,
    lcp_metric,
    load_graph,
    load_metric,
    packing_lower_bound,
    random_euclidean,
    random_tree,
    save_graph,
    save_metric,
    shortest_path_metric,
    verify_stretch,
)
from doubling import metric
from doubling.closure import ConvPoint, long_edge_audit, point_distances, sample_metric
from oracles import exhaustive_doubling_constant


def uniform_metric(n: int) -> FiniteMetric:
    return FiniteMetric(np.ones((n, n)) - np.eye(n))


class TestFiniteMetric:
    def test_basic_accessors(self):
        m = FiniteMetric([[0.0, 2.0], [2.0, 0.0]])
        assert m.n == 2
        assert m.d(0, 1) == 2.0
        assert m.min_distance() == 2.0
        assert m.diameter() == 2.0

    def test_matrix_is_frozen(self):
        m = uniform_metric(3)
        with pytest.raises(ValueError):
            m.dist[0, 1] = 5.0

    @pytest.mark.parametrize(
        "bad",
        [
            [[0.0, 1.0]],  # not square
            [[0.0, 1.0], [2.0, 0.0]],  # asymmetric
            [[0.5, 1.0], [1.0, 0.0]],  # nonzero diagonal
            [[0.0, -1.0], [-1.0, 0.0]],  # negative
            [[0.0, 0.0], [0.0, 0.0]],  # zero off-diagonal
            [[0.0, math.inf], [math.inf, 0.0]],  # infinite
        ],
    )
    def test_rejects_malformed_matrices(self, bad):
        with pytest.raises(ValueError):
            FiniteMetric(bad)

    @pytest.mark.parametrize("validate", [True, False])
    @pytest.mark.parametrize(
        "bad,message",
        [
            ([[math.nan, 1.0], [1.0, 0.0]], "diagonal must be exactly zero"),
            ([[0.0, math.nan], [math.nan, 0.0]], "distance matrix must be symmetric"),
            ([[0.0, -math.inf], [-math.inf, 0.0]], "off-diagonal distances must be positive"),
            (
                [[0.0, math.inf, -1.0], [math.inf, 0.0, 1.0], [-1.0, 1.0, 0.0]],
                "off-diagonal distances must be positive",
            ),
            ([[0.0, math.inf], [math.inf, 0.0]], "distances must be finite"),
        ],
    )
    def test_malformed_matrices_name_the_first_check_they_fail(self, bad, message, validate):
        with pytest.raises(ValueError, match=f"^{message}$"):
            FiniteMetric(bad, validate=validate)

    def test_unvalidated_matrix_is_taken_without_a_copy(self):
        D = random_euclidean(50, 2, 0).dist.copy()
        assert np.shares_memory(FiniteMetric(D, validate=False).dist, D)
        assert not D.flags.writeable
        E = D.copy()
        assert not np.shares_memory(FiniteMetric(E).dist, E)

    def test_unvalidated_construction_allocates_no_matrix(self):
        """Its checks hold one n x n bool mask at a time (1/8 of the
        float64 input), where a copy and an off-diagonal gather held 2.1
        float64 matrices."""
        D = random_euclidean(300, 2, 0).dist.copy()
        tracemalloc.start()
        try:
            FiniteMetric(D, validate=False)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 0.25 * D.nbytes

    def test_rejects_triangle_violation(self):
        D = [[0.0, 1.0, 9.0], [1.0, 0.0, 1.0], [9.0, 1.0, 0.0]]
        with pytest.raises(ValueError):
            FiniteMetric(D)
        # metrics known-good by construction may skip the O(n^3) check
        FiniteMetric(D, validate=False)

    def test_restrict_reindexes(self):
        m = shortest_path_metric(WeightedGraph(3, [(0, 1, 1.0), (1, 2, 4.0)]))
        sub = m.restrict([2, 0])
        assert sub.n == 2
        assert sub.d(0, 1) == 5.0


class TestWeightedGraph:
    def test_canonical_edges(self):
        g = WeightedGraph(3, [(2, 1, 3.0), (1, 0, 1.0)])
        assert g.edges == ((0, 1, 1.0), (1, 2, 3.0))
        assert g.edge_rows(2, 1) == 1 and g.w[g.edge_rows(2, 1)] == 3.0
        assert g.edge_rows(0, 2) == -1
        assert g.degrees() == [1, 2, 1]
        row = slice(g.csr.indptr[1], g.csr.indptr[2])
        assert g.csr.indices[row].tolist() == [0, 2] and g.csr.data[row].tolist() == [1.0, 3.0]

    @pytest.mark.parametrize(
        "n,edges",
        [
            (2, [(0, 0, 1.0)]),  # self-loop
            (2, [(0, 1, 1.0), (1, 0, 2.0)]),  # duplicate pair
            (2, [(0, 2, 1.0)]),  # out of range
            (2, [(0, 1, 0.0)]),  # nonpositive length
        ],
    )
    def test_rejects_malformed_edges(self, n, edges):
        with pytest.raises(ValueError):
            WeightedGraph(n, edges)

    def test_canonical_rows_are_taken_as_they_are(self):
        u, v, w = np.array([0, 0, 1]), np.array([1, 2, 2]), np.array([1.0, 2.0, 3.0])
        g = WeightedGraph._from_rows(3, u, v, w)
        assert g.u is u and g.v is v and g.w is w
        assert not any(column.flags.writeable for column in (u, v, w))
        want = WeightedGraph(3, [(2, 1, 3.0), (0, 2, 2.0), (1, 0, 1.0)])
        assert g.edges == want.edges
        for name in ("indptr", "indices", "data"):
            assert getattr(g.csr, name).tolist() == getattr(want.csr, name).tolist()
        empty = np.array([], dtype=np.intp)
        assert WeightedGraph._from_rows(2, empty, empty.copy(), np.array([])).edges == ()

    @pytest.mark.parametrize(
        "u,v,w,reason",
        [
            ([0, 1, 0], [1, 2, 2], [1.0, 1.0, 1.0], "not strictly ascending"),
            ([0, 0], [1, 1], [1.0, 2.0], "not strictly ascending"),
            ([0, 1], [1, 1], [1.0, 1.0], "0 <= u < v"),
            ([1], [0], [1.0], "0 <= u < v"),
            ([-1], [0], [1.0], "0 <= u < v"),
            ([0], [3], [1.0], "0 <= u < v"),
            ([0], [1], [0.0], "positive finite"),
            ([0], [1], [-1.0], "positive finite"),
            ([0], [1], [math.inf], "positive finite"),
            ([0], [1], [math.nan], "positive finite"),
        ],
        ids=[
            "unsorted",
            "duplicate row",
            "self-loop",
            "u > v",
            "below the range",
            "beyond the range",
            "zero length",
            "negative length",
            "infinite length",
            "NaN length",
        ],
    )
    def test_rows_out_of_canonical_form_trip_an_assertion(self, u, v, w, reason):
        u, v, w = np.array(u, dtype=np.intp), np.array(v, dtype=np.intp), np.array(w)
        with pytest.raises(AssertionError, match=reason):
            WeightedGraph._from_rows(3, u, v, w)

    def test_tree_and_connectivity_predicates(self):
        path = WeightedGraph(3, [(0, 1, 1.0), (1, 2, 1.0)])
        cycle = WeightedGraph(3, [(0, 1, 1.0), (1, 2, 1.0), (0, 2, 1.0)])
        split = WeightedGraph(4, [(0, 1, 1.0), (2, 3, 1.0)])
        assert path.is_tree()
        assert cycle.is_connected() and not cycle.is_tree()
        assert not split.is_connected()

    def test_components_are_labelled_once_per_graph(self, monkeypatch):
        """Every ``distance_rows`` call checks connectivity; the labels behind
        the check are computed once per graph and cannot be written."""
        runs = []
        labelled = metric.connected_components
        monkeypatch.setattr(
            metric, "connected_components", lambda *a, **k: runs.append(1) or labelled(*a, **k)
        )
        g = random_tree(12, 3)
        for sources in ([0], [1, 2], range(12), []):
            distance_rows(g, sources)
        assert g.is_connected() and g.is_tree() and len(runs) == 1
        assert not g.component_labels.flags.writeable
        split = WeightedGraph(4, [(0, 1, 1.0), (2, 3, 1.0)])
        for _ in range(3):
            with pytest.raises(DisconnectedGraph):
                distance_rows(split, [0])
        assert len(runs) == 2

    def test_shortest_paths_and_disconnection(self):
        g = WeightedGraph(4, [(0, 1, 1.0), (1, 2, 2.0), (0, 2, 10.0), (2, 3, 1.0)])
        m = shortest_path_metric(g)
        assert m.d(0, 2) == 3.0  # detour beats the direct heavy edge
        assert m.d(0, 3) == 4.0
        with pytest.raises(DisconnectedGraph) as err:
            shortest_path_metric(WeightedGraph(3, [(0, 1, 1.0)]))
        assert {err.value.rep_a, err.value.rep_b} == {0, 2}

    @pytest.mark.parametrize(
        "edges,pair",
        [
            ([(0, 1, 1.7976931348623157e308), (1, 2, 1e300)], "(0,2)"),
            ([(0, 1, 1e308), (0, 2, 1e308)], "(1,2)"),
        ],
    )
    def test_path_sums_beyond_float_range_are_refused(self, edges, pair):
        """A shortest path whose length overflows float64 is a usage error
        naming the first such pair i < j, and no metric is cached."""
        g = WeightedGraph(3, edges)
        with pytest.raises(ConfigError, match=rf"^shortest-path distance {re.escape(pair)} overflows float64$"):
            shortest_path_metric(g)
        assert g._metric is None


# lengths whose sums round, so a row from another search order would show
ROW_LENGTHS = (0.1, 0.2, 0.3, 0.7, 1e-3, 3.3e4)


@st.composite
def graphs_and_requests(draw):
    """A connected graph (a random tree plus extra edges) and a mix of
    requests on it: row sources with repeats or none, point queries between
    vertices and edge midpoints, and the all-pairs metric."""
    n = draw(st.integers(1, 12))
    edges = {(draw(st.integers(0, v - 1)), v): draw(st.sampled_from(ROW_LENGTHS)) for v in range(1, n)}
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    for pair in draw(st.lists(st.sampled_from(pairs), max_size=8)) if pairs else []:
        edges[pair] = draw(st.sampled_from(ROW_LENGTHS))
    g = WeightedGraph(n, [(u, v, w) for (u, v), w in edges.items()])
    points = [ConvPoint.at_vertex(v) for v in range(n)]
    points += [ConvPoint.on_edge(u, v, w / 2.0) for u, v, w in g.edges]
    sources = st.lists(st.integers(0, n - 1), max_size=6)
    request = st.one_of(
        st.tuples(st.just("rows"), sources),
        st.tuples(st.just("points"), st.lists(st.sampled_from(points), max_size=4)),
        st.just(("metric", None)),
    )
    return g, draw(st.lists(request, max_size=6)), draw(sources)


def fresh_rows(g: WeightedGraph, sources) -> np.ndarray:
    """Dijkstra from ``sources`` on a new copy of the graph, which has
    searched nothing before."""
    copy = WeightedGraph(g.n_vertices, g.edges)
    return dijkstra(copy.csr, directed=True, indices=np.asarray(sources, dtype=np.intp))


class TestDistanceRows:
    @settings(max_examples=100, deadline=None)
    @given(case=graphs_and_requests())
    def test_rows_equal_a_fresh_search_after_any_requests(self, case):
        g, requests, last = case
        for kind, arg in requests:
            if kind == "rows":
                got = distance_rows(g, arg)
                assert got.shape == (len(arg), g.n_vertices)
                assert got.tobytes() == fresh_rows(g, arg).tobytes()
            elif kind == "points":
                point_distances(g, arg, arg)
            else:
                shortest_path_metric(g)
        everyone = list(range(g.n_vertices))
        for sources in (last, everyone[::-1] + everyone, []):
            got = distance_rows(g, sources)
            assert got.shape == (len(sources), g.n_vertices)
            assert got.tobytes() == fresh_rows(g, sources).tobytes()

    def test_streaming_audit_keeps_at_most_one_block(self):
        """An audit reads all 2000 rows of a path in blocks; the graph keeps
        at most ``ROW_BLOCK`` of them afterwards."""
        n = 2000
        g = WeightedGraph(n, [(i, i + 1, 1.0 + 0.1 * (i % 7)) for i in range(n - 1)])
        g.csr, g.component_labels
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            audit = long_edge_audit(g)
            held = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert g._all_rows is None and len(g._kept_rows) <= metric.ROW_BLOCK
        # one block of rows, plus the audit's 2000-entry profile
        assert held < 8 * n * metric.ROW_BLOCK + (1 << 18)
        again = long_edge_audit(WeightedGraph(n, g.edges))
        assert (audit.max_count, audit.witness) == (again.max_count, again.witness)
        assert np.array_equal(audit.per_vertex_profile, again.per_vertex_profile)

    def test_a_cached_metric_adds_one_matrix(self):
        """Beside the metric the graph keeps one more n x n array, its
        unsymmetrised Dijkstra matrix, and serves every row from it."""
        n = 300
        g = random_tree(n, 1)
        distance_rows(g, [0, 1])
        g.csr, g.component_labels
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            shortest_path_metric(g)
            held = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        matrix = 8 * n * n
        assert 2 * matrix <= held < 2 * matrix + (1 << 16)
        assert g._kept_rows == {}
        assert distance_rows(g, range(n)).tobytes() == fresh_rows(g, range(n)).tobytes()

    @pytest.mark.parametrize("metric_first", [False, True])
    @pytest.mark.parametrize("sources", [[3], [0, 5, 0], list(range(300))])
    def test_served_rows_are_read_only(self, metric_first, sources):
        g = random_tree(300, 2)
        if metric_first:
            shortest_path_metric(g)
        for _ in range(2):  # searched, then served again
            rows = distance_rows(g, sources)
            with pytest.raises(ValueError):
                rows[0, 0] = 1.0
        for row in g._kept_rows.values():
            with pytest.raises(ValueError):
                row[0] = 1.0


class TestGreedyNet:
    def test_uniform_examples(self):
        m = uniform_metric(4)
        assert greedy_net(m, 0.5) == [0, 1, 2, 3]
        assert greedy_net(m, 1.5) == [0]

    def test_lcp_example(self):
        assert greedy_net(lcp_metric(2), 3.0) == [0, 2]

    def test_respects_point_subset(self):
        """The subset is scanned in ascending id, whatever its order and
        repeats."""
        m = uniform_metric(4)
        for points in ([3, 1], [3, 1, 3, 1], np.array([3, 3, 1])):
            assert greedy_net(m, 0.5, points=points) == [1, 3]

    @settings(max_examples=30, deadline=None)
    @given(st.lists(st.floats(min_value=0.0, max_value=100.0), min_size=2, max_size=12), st.floats(min_value=0.1, max_value=120.0))
    def test_packing_and_covering(self, xs, r):
        """Net points are pairwise separated and cover every input point."""
        pts = sorted(set(round(x, 3) for x in xs))
        if len(pts) < 2:
            pts = [0.0, 1.0]
        D = np.abs(np.subtract.outer(pts, pts))
        m = FiniteMetric(D, validate=False)
        net = greedy_net(m, r)
        assert net[0] == 0
        for i, a in enumerate(net):
            for b in net[i + 1 :]:
                assert m.d(a, b) > r
        for p in range(m.n):
            assert min(m.d(p, a) for a in net) <= r


class TestDoublingEstimate:
    def test_uniform_four_point(self):
        est = doubling_estimate(uniform_metric(4))
        assert est.lambda_upper == 4
        assert est.dim_upper == 2.0
        assert est.mode == "exact-cover"

    def test_lcp_two(self):
        est = doubling_estimate(lcp_metric(2))
        assert est.lambda_upper == 2
        assert est.dim_upper == 1.0

    def test_single_point(self):
        est = doubling_estimate(FiniteMetric([[0.0]]))
        assert est.lambda_upper == 1 and est.dim_upper == 0.0

    def test_matches_exhaustive_oracle(self, oracle_metrics):
        for name, m in oracle_metrics.items():
            est = doubling_estimate(m)
            assert est.lambda_upper == exhaustive_doubling_constant(m), name

    def test_cover_witness_recovers_lambda(self, oracle_metrics):
        """The reported worst ball really needs that many balls: the witness
        cover is valid and dropping any one center uncovers a point."""
        m = oracle_metrics["euclid10"]
        est = doubling_estimate(m)
        x, r, centers = est.upper_witness
        universe = [p for p in range(m.n) if m.d(x, p) <= 2.0 * r]
        assert len(centers) == est.lambda_upper
        for p in universe:
            assert min(m.d(c, p) for c in centers) <= r
        for drop in centers:
            rest = [c for c in centers if c != drop]
            assert any(min(m.d(c, p) for c in rest) > r for p in universe)

    def test_halved_subnormal_radii_round_down(self):
        """A centre 3 ulp from three points 2 ulp apart: at the event
        r = 1.5 ulp no ball holds two points, so all four need a ball of
        their own. Rounded to even, r would be 2 ulp and cover three."""
        ulp = 5e-324
        D = np.full((4, 4), 2 * ulp)
        D[0, :] = D[:, 0] = 3 * ulp
        np.fill_diagonal(D, 0.0)
        est = doubling_estimate(FiniteMetric(D))
        assert est.lambda_upper == 4 and est.upper_witness[1] == ulp

    def test_greedy_mode_stays_an_upper_bound(self, oracle_metrics):
        for m in oracle_metrics.values():
            exact = doubling_estimate(m)
            greedy = doubling_estimate(m, exact_max_n=1)
            assert greedy.mode == "greedy-cover"
            assert greedy.lambda_upper >= exact.lambda_upper

    def test_subset_doubling_close_to_full(self, oracle_metrics):
        """Restrictions keep the dimension, up to one bit of grid slack."""
        m = oracle_metrics["euclid10"]
        full = doubling_estimate(m).dim_upper
        for subset in ([0, 2, 4, 6, 8], [1, 3, 5], list(range(7))):
            sub = doubling_estimate(m.restrict(subset)).dim_upper
            assert sub <= full + 1.0


class TestPackingLowerBound:
    def test_uniform_four_point(self):
        est = packing_lower_bound(uniform_metric(4))
        assert est.dim_lower == 1.0
        x, r, packed = est.lower_witness
        assert len(packed) == 4 and r == 1.0

    def test_halved_subnormal_separations_round_up(self):
        """At r = 1 ulp the separation r / 2 underflows to 0 and reads D > 0.
        A centre 5 ulp from three points 2 ulp apart: at r = 5 ulp the
        separation 2.5 ulp rounds to 2 ulp and would pack all four, so the
        best packing is the three points at r = 4 ulp."""
        ulp = 5e-324
        pair = packing_lower_bound(FiniteMetric([[0.0, ulp], [ulp, 0.0]]))
        assert pair.lower_witness[2] == (0, 1)
        D = np.full((4, 4), 2 * ulp)
        D[0, :] = D[:, 0] = 5 * ulp
        np.fill_diagonal(D, 0.0)
        assert len(packing_lower_bound(FiniteMetric(D)).lower_witness[2]) == 3

    def test_lower_never_exceeds_exact_upper(self, oracle_metrics):
        for name, m in oracle_metrics.items():
            up = doubling_estimate(m)
            low = packing_lower_bound(m)
            assert low.dim_lower <= up.dim_upper + 1e-12, name
            merged = up.merged_with_lower(low)
            assert merged.dim_upper == up.dim_upper
            assert merged.dim_lower == low.dim_lower

    def test_witness_maps_into_the_parent_metric(self, oracle_metrics):
        """A packing of a submetric is a packing of the whole metric."""
        m = oracle_metrics["euclid10"]
        subset = [0, 1, 3, 5, 7, 9]
        sub = m.restrict(subset)
        x, r, packed = packing_lower_bound(sub).lower_witness
        original = [subset[p] for p in packed]
        for i, a in enumerate(original):
            assert m.d(subset[x], a) <= r * (1.0 + 1e-9)
            for b in original[i + 1 :]:
                assert m.d(a, b) >= (r / 2.0) * (1.0 - 1e-9)

    def test_net_size_inside_balls_is_dimension_bounded(self, oracle_metrics):
        """|B(x, R) ∩ N| <= (4R/r)^dim for an r-net N."""
        for name in ("euclid10", "lcp3"):
            m = oracle_metrics[name]
            dim = doubling_estimate(m).dim_upper
            for r_frac, R_frac in ((0.1, 0.3), (0.2, 0.5), (0.05, 0.2)):
                r = m.diameter() * r_frac
                R = m.diameter() * R_frac
                net = greedy_net(m, r)
                for x in range(m.n):
                    inside = sum(1 for a in net if m.d(x, a) <= R)
                    assert inside <= (4.0 * R / r) ** dim + 1e-9, (name, r, R, x)


class TestVerifyStretch:
    def test_identical_metrics_pass(self):
        m = uniform_metric(4)
        rep = verify_stretch(m, m, 0.25)
        assert rep.passed and rep.min_ratio == 1.0 and rep.max_ratio == 1.0
        assert rep.violation is None
        assert rep.bounds() == (1.0, 1.25)

    def test_expansion_beyond_window_fails_with_witness(self):
        m = uniform_metric(3)
        inflated = FiniteMetric(m.dist * 1.5, validate=False)
        rep = verify_stretch(m, inflated, 0.25)
        assert not rep.passed
        assert rep.max_ratio == pytest.approx(1.5)
        assert rep.violation is not None

    def test_contraction_window(self):
        m = uniform_metric(3)
        shrunk = FiniteMetric(m.dist * 0.9, validate=False)
        assert not verify_stretch(m, shrunk, 0.25).passed
        assert verify_stretch(m, shrunk, 0.25, allow_contraction=True).passed
        # below (1+eps)^-1 = 0.8 even the loose mode fails
        tiny = FiniteMetric(m.dist * 0.7, validate=False)
        assert not verify_stretch(m, tiny, 0.25, allow_contraction=True).passed

    def test_size_mismatch(self):
        with pytest.raises(SizeMismatch):
            verify_stretch(uniform_metric(3), uniform_metric(4), 0.25)


class TestFileFormats:
    def test_metric_round_trip(self, tmp_path, oracle_metrics):
        m = oracle_metrics["euclid8"]
        path = str(tmp_path / "m.metric")
        save_metric(m, path)
        back = load_metric(path)
        assert back.n == m.n
        assert np.array_equal(back.dist, m.dist)

    def test_graph_round_trip(self, tmp_path):
        g = WeightedGraph(4, [(0, 1, 1.5), (1, 2, 2.0), (2, 3, 0.125)])
        path = str(tmp_path / "g.graph")
        save_graph(g, path)
        back = load_graph(path)
        assert back.n_vertices == 4
        assert back.edges == g.edges

    def test_rejects_malformed_files(self, tmp_path):
        bad = tmp_path / "bad.graph"
        bad.write_text("graph 2\ne 0 1\n")  # missing length
        with pytest.raises(ValueError):
            load_graph(str(bad))
        worse = tmp_path / "worse.metric"
        worse.write_text("graph 1\n")
        with pytest.raises(ValueError):
            load_metric(str(worse))


@pytest.fixture(scope="module")
def euclid_300_file(tmp_path_factory):
    path = str(tmp_path_factory.mktemp("preflight") / "euclid300.metric")
    save_metric(random_euclidean(300, 2, 0), path)
    return path


class TestMemoryPreflight:
    @pytest.mark.parametrize(
        "build",
        [
            lambda _: lcp_metric(10),
            lambda _, tree=random_tree(300, 1): sample_metric(tree, 2),
            lambda _: random_euclidean(600, 2, 0),
            lambda _: shortest_path_metric(random_tree(600, 1)),
            load_metric,
        ],
        ids=[
            "lcp_metric(10)",
            "898-point closure sample",
            "random_euclidean(600)",
            "600-vertex shortest-path metric",
            "300-point metric file",
        ],
    )
    def test_counted_bytes_bound_the_measured_peak(self, monkeypatch, euclid_300_file, build):
        """With one byte less memory than the build's measured peak, the
        preflight refuses it: the bytes it counts are at least that peak."""
        tracemalloc.start()
        try:
            build(euclid_300_file)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        sizes = {"SC_PHYS_PAGES": peak - 1, "SC_PAGE_SIZE": 1}
        monkeypatch.setattr(os, "sysconf", sizes.__getitem__)
        with pytest.raises(ConfigError, match="memory"):
            build(euclid_300_file)
