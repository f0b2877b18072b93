import math
import os
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
    random_tree,
    save_graph,
    save_metric,
    shortest_path_metric,
    verify_stretch,
)
from doubling import metric
from doubling.closure import sample_metric
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
        assert g.has_edge(2, 1) and g.edge_length(2, 1) == 3.0
        assert not g.has_edge(0, 2)
        assert g.degrees() == [1, 2, 1]
        assert g.adjacency()[1] == [(0, 1.0), (2, 3.0)]

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


class TestMemoryPreflight:
    @pytest.mark.parametrize(
        "build",
        [lambda: lcp_metric(10), lambda tree=random_tree(300, 1): sample_metric(tree, 2)],
        ids=["lcp_metric(10)", "898-point closure sample"],
    )
    def test_counted_bytes_bound_the_measured_peak(self, monkeypatch, build):
        """With one byte less memory than the build's measured peak, the
        preflight refuses it: the bytes it counts are at least that peak."""
        tracemalloc.start()
        try:
            build()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        sizes = {"SC_PHYS_PAGES": peak - 1, "SC_PAGE_SIZE": 1}
        monkeypatch.setattr(os, "sysconf", sizes.__getitem__)
        with pytest.raises(ConfigError, match="memory"):
            build()
