import math
import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from doubling import (
    FiniteMetric,
    InstanceSpec,
    TooFewLeaves,
    VertexSetMismatch,
    WeightedGraph,
    complete_tree,
    crossing_midpoint_packing,
    exponential_star,
    lcp_crossing_check,
    lcp_metric,
    random_euclidean,
    random_tree,
    shortest_path_metric,
    star_lb_certificate,
)
from doubling import metric
from oracles import scalar_lcp_crossing_check


def full_prefix_graph(p: int) -> WeightedGraph:
    """The complete graph realizing the prefix metric on 2**p strings."""
    m = lcp_metric(p)
    n = 1 << p
    return WeightedGraph(
        n, [(i, j, float(m.dist[i, j])) for i in range(n) for j in range(i + 1, n)]
    )


class TestGenerators:
    def test_prefix_metric_table(self):
        m = lcp_metric(2)
        expected = np.array(
            [
                [0.0, 2.0, 4.0, 4.0],
                [2.0, 0.0, 4.0, 4.0],
                [4.0, 4.0, 0.0, 2.0],
                [4.0, 4.0, 2.0, 0.0],
            ]
        )
        assert np.array_equal(m.dist, expected)

    def test_prefix_metric_smallest_case(self):
        assert np.array_equal(lcp_metric(1).dist, np.array([[0.0, 2.0], [2.0, 0.0]]))

    def test_star_edges_double(self):
        g = exponential_star(3)
        assert g.edges == ((0, 1, 2.0), (0, 2, 4.0), (0, 3, 8.0))

    def test_euclidean_is_seeded(self):
        a = random_euclidean(20, 3, seed=5)
        b = random_euclidean(20, 3, seed=5)
        c = random_euclidean(20, 3, seed=6)
        assert np.array_equal(a.dist, b.dist)
        assert not np.array_equal(a.dist, c.dist)

    def test_euclidean_single_point(self):
        assert random_euclidean(1, 4, seed=0).n == 1

    @pytest.mark.parametrize("ambient_dim", [1, 2, 3, 7, 13])
    def test_euclidean_matches_scipy(self, ambient_dim):
        """Squared differences summed one coordinate at a time give scipy's
        pdist distances bit for bit."""
        from scipy.spatial.distance import pdist, squareform

        for n, seed in ((2, 0), (57, 1), (300, 2)):
            pts = np.random.default_rng(seed).random((n, ambient_dim))
            assert np.array_equal(random_euclidean(n, ambient_dim, seed).dist, squareform(pdist(pts)))

    def test_import_loads_no_scipy(self):
        """A fresh ``import doubling, doubling.cli`` loads numpy only; scipy
        waits for the first graph search."""
        src = os.path.dirname(os.path.dirname(metric.__file__))
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        env = {**os.environ, "PYTHONPATH": path}
        code = (
            "import sys, doubling, doubling.cli; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
        )
        run = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
        assert run.stdout == "[]\n"

    def test_star_lengths_stay_in_float_range(self):
        assert exponential_star(1023).w[-1] == 2.0**1023
        with pytest.raises(ValueError, match="beyond float range"):
            exponential_star(1024)

    @pytest.mark.parametrize("ambient_dim", [1, 2, 3, 4, 5])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_euclidean_needs_no_triangle_check(self, ambient_dim, seed):
        """The generator skips the check; its distances pass it anyway."""
        for n in (2, 17, 200):
            m = random_euclidean(n, ambient_dim, seed)
            assert metric._triangle_violation(m.dist) is None

    @pytest.mark.parametrize("p", range(1, 9))
    def test_prefix_metric_needs_no_triangle_check(self, p):
        assert metric._triangle_violation(lcp_metric(p).dist) is None

    def test_random_tree_shape(self):
        g = random_tree(30, seed=2)
        assert g.is_tree()
        assert g.edges == random_tree(30, seed=2).edges

    @pytest.mark.parametrize(
        "call",
        [
            lambda: exponential_star(0),
            lambda: lcp_metric(0),
            lambda: random_euclidean(0, 2, seed=1),
            lambda: random_euclidean(3, 0, seed=1),
            lambda: random_tree(0, seed=1),
        ],
    )
    def test_degenerate_sizes_rejected(self, call):
        with pytest.raises(ValueError):
            call()


class TestInstanceSpec:
    def test_unknown_family(self):
        with pytest.raises(ValueError):
            InstanceSpec(family="grid")

    def test_build_routes_to_the_generators(self):
        star = InstanceSpec(family="exponential-star", n=3).build()
        assert isinstance(star, WeightedGraph)
        assert star.edges == exponential_star(3).edges

        prefix = InstanceSpec(family="lcp-hypercube", p=2).build()
        assert isinstance(prefix, FiniteMetric)
        assert np.array_equal(prefix.dist, lcp_metric(2).dist)

        eu = InstanceSpec(family="euclidean-random", n=10, ambient_dim=3, seed=4).build()
        assert np.array_equal(eu.dist, random_euclidean(10, 3, seed=4).dist)

        tree = InstanceSpec(family="random-tree", n=12, seed=9).build()
        assert tree.edges == random_tree(12, seed=9).edges

    def test_missing_parameter(self):
        with pytest.raises(ValueError):
            InstanceSpec(family="lcp-hypercube").build()

    def test_describe_is_family_specific(self):
        assert InstanceSpec(family="lcp-hypercube", p=3).describe() == {
            "family": "lcp-hypercube",
            "p": 3,
        }
        assert InstanceSpec(family="euclidean-random", n=5, seed=2).describe() == {
            "family": "euclidean-random",
            "n": 5,
            "ambient_dim": 2,
            "seed": 2,
        }


class TestStarCertificate:
    @pytest.mark.parametrize("eps,size", [(2.0**-6, 5), (2.0**-8, 7), (2.0**-10, 9)])
    def test_size_tracks_eps(self, eps, size):
        g = exponential_star(10)
        cert = star_lb_certificate(complete_tree(g, eps), eps)
        assert cert.size == size
        assert cert.ok
        assert cert.dim_lower == pytest.approx(0.5 * math.log2(size))

    def test_window_is_measured_not_assumed(self):
        g = exponential_star(10)
        cert = star_lb_certificate(complete_tree(g, 2.0**-8), 2.0**-8)
        assert 1.0 - 1e-9 <= cert.min_pairwise
        assert cert.max_pairwise <= 2.0 + 1e-9
        assert cert.ball_radius == 2.0

    def test_single_point_at_the_coarse_end(self):
        g = exponential_star(4)
        cert = star_lb_certificate(complete_tree(g, 0.25), 0.25)
        assert cert.size == 1
        assert cert.dim_lower == 0.0
        assert cert.min_pairwise == cert.max_pairwise == 0.0
        assert cert.ok

    def test_too_few_leaves(self):
        g = exponential_star(3)
        with pytest.raises(TooFewLeaves):
            star_lb_certificate(complete_tree(g, 2.0**-6), 2.0**-6)

    def test_eps_domain(self):
        g = exponential_star(4)
        c = complete_tree(g, 0.25)
        with pytest.raises(ValueError):
            star_lb_certificate(c, 0.3)


class TestCrossingCheck:
    def test_complete_graph_has_every_crossing(self):
        rep = lcp_crossing_check(full_prefix_graph(2), 2)
        assert rep.present == rep.total == 4
        assert rep.all_present
        assert rep.missing is None

    def test_first_missing_pair_is_named(self):
        g = full_prefix_graph(2)
        pruned = WeightedGraph(
            4, [(u, v, w) for u, v, w in g.edges if (u, v) != (0, 2)]
        )
        rep = lcp_crossing_check(pruned, 2)
        assert rep.present == 3
        assert rep.missing == (0, 2)
        assert not rep.all_present

    def test_vertex_count_must_match(self):
        with pytest.raises(VertexSetMismatch):
            lcp_crossing_check(WeightedGraph(5, [(0, 1, 1.0)]), 2)

    def test_dropping_a_crossing_stretches_its_pair(self):
        g = full_prefix_graph(2)
        pruned = WeightedGraph(
            4, [(u, v, w) for u, v, w in g.edges if (u, v) != (0, 2)]
        )
        m = shortest_path_metric(pruned)
        # two hops through either half: well past the 1 + 2^-(p+1) window
        assert m.d(0, 2) / lcp_metric(2).d(0, 2) == 1.5

    @pytest.mark.parametrize("p", [1, 2, 3])
    def test_each_single_gap_is_the_first_missing(self, p):
        g = full_prefix_graph(p)
        half = 1 << (p - 1)
        for x in range(half):
            for y in range(half, 2 * half):
                pruned = WeightedGraph(g.n_vertices, [e for e in g.edges if e[:2] != (x, y)])
                rep = lcp_crossing_check(pruned, p)
                assert rep == scalar_lcp_crossing_check(pruned, p)
                assert rep.missing == (x, y) and rep.present == half * half - 1


@settings(max_examples=60, deadline=None)
@given(p=st.integers(1, 4), data=st.data())
def test_crossing_check_matches_the_grid_walk(p, data):
    """Any subset of the complete prefix graph's edges, crossing or not."""
    edges = full_prefix_graph(p).edges
    keep = data.draw(st.lists(st.booleans(), min_size=len(edges), max_size=len(edges)))
    g = WeightedGraph(1 << p, [e for e, kept in zip(edges, keep) if kept])
    assert lcp_crossing_check(g, p) == scalar_lcp_crossing_check(g, p)


class TestCrossingMidpoints:
    def test_small_cube_window(self):
        cert = crossing_midpoint_packing(full_prefix_graph(2), 2)
        assert cert.size == 4
        assert cert.min_pairwise == 4.0
        assert cert.max_pairwise == 6.0
        assert cert.ok
        assert cert.dim_lower == 1.0

    def test_spanner_at_p4_keeps_all_midpoints(self, lcp4_spanner):
        cert = crossing_midpoint_packing(lcp4_spanner.graph, 4)
        assert cert.size == 64
        assert cert.min_pairwise == 16.0
        assert cert.max_pairwise == 24.0
        assert cert.dim_lower == 3.0
        assert cert.ok

    def test_single_edge_degenerates(self):
        g = WeightedGraph(2, [(0, 1, 2.0)])
        cert = crossing_midpoint_packing(g, 1)
        assert cert.size == 1
        assert cert.min_pairwise == 0.0
        assert cert.ok
        assert cert.dim_lower == 0.0

    def test_vertex_count_must_match(self):
        with pytest.raises(VertexSetMismatch):
            crossing_midpoint_packing(WeightedGraph(3, [(0, 1, 1.0)]), 2)
