import copy
import re

import numpy as np
import pytest

from doubling import (
    ConfigError,
    FiniteMetric,
    LevelOutOfRange,
    WeightedGraph,
    build_net_tree,
    load_net_tree,
    save_net_tree,
    shortest_path_metric,
    validate_net_tree,
)
from doubling.metric import greedy_net
from doubling.net_tree import NetTree, check_eps, tau_for
from oracles import net_ancestor


def two_point_metric(d: float = 1.0) -> FiniteMetric:
    return FiniteMetric([[0.0, d], [d, 0.0]])


def collinear_metric() -> FiniteMetric:
    """Three collinear points {0, 1, 2}: rescaling puts the long pair at 512."""
    return shortest_path_metric(WeightedGraph(3, [(0, 1, 1.0), (1, 2, 1.0)]))


@pytest.mark.parametrize(
    "eps,tau", [(0.25, 8), (0.125, 9), (1.0 / 32.0, 11), (2.0**-10, 16)]
)
def test_normalization_exponent(eps, tau):
    assert tau_for(eps) == tau


@pytest.mark.parametrize("eps", [0.0, -0.1, 0.26, 0.5, 1.0])
def test_eps_domain_rejected(eps):
    with pytest.raises(ValueError):
        check_eps(eps)


def test_eps_boundary_accepted():
    check_eps(0.25)  # the closed right endpoint is in range
    check_eps(1e-6)


class TestBuild:
    def test_two_points(self):
        """Any two-point metric rescales to 256 apart: the labels coexist on
        levels 1..7, merge at radius 2^8, and the survivor roots the tree."""
        t = build_net_tree(two_point_metric(), 0.25)
        assert t.scale == 256.0
        assert t.top_level == 8
        assert t.istar.tolist() == [8, 7]
        for i in range(8):
            assert t.labels(i) == [0, 1]
        assert t.labels(8) == [0]

    def test_greedy_walk_at_512(self):
        """A pair scaled to 512 survives through level 8 and merges at 9."""
        m = FiniteMetric([[0.0, 512.0], [512.0, 0.0]])
        assert greedy_net(m, 2.0**8) == [0, 1]
        assert greedy_net(m, 2.0**9) == [0]

    def test_collinear_long_pair(self):
        """The rescaled {0,1,2} line realizes the 512 walk inside a build."""
        t = build_net_tree(collinear_metric(), 0.25)
        assert t.scale == 256.0
        assert float(t.scaled_dist[0, 2]) == 512.0
        assert t.top_level == 9
        assert t.istar.tolist() == [9, 7, 8]
        assert t.labels(8) == [0, 2]
        assert t.labels(9) == [0]

    def test_uniform_merges_to_singleton_at_tau(self):
        """All distances land exactly on 2^tau, so level tau is a singleton."""
        m = FiniteMetric(np.ones((5, 5)) * 3.0 - np.eye(5) * 3.0)
        t = build_net_tree(m, 0.25)
        assert t.top_level == 8
        assert t.labels(7) == [0, 1, 2, 3, 4]
        assert t.labels(8) == [0]

    def test_single_point(self):
        t = build_net_tree(FiniteMetric([[0.0]]), 0.25)
        assert t.top_level == 0
        assert t.n_points == 1
        assert t.istar.tolist() == [0]

    @pytest.mark.parametrize(
        "dist,fault",
        [
            ([[0.0, 5e-324], [5e-324, 0.0]], "smallest distance 5e-324"),
            (
                [[0.0, 1e-300, 1e300], [1e-300, 0.0, 1e300], [1e300, 1e300, 0.0]],
                "largest distance 1e+300",
            ),
        ],
    )
    def test_rescale_beyond_float_range_is_refused(self, dist, fault):
        """2**8 / 5e-324 and 1e300 * 2**8 / 1e-300 overflow: refused before
        the matrix is scaled, naming the distance at fault."""
        with pytest.raises(ConfigError, match=re.escape(fault)):
            build_net_tree(FiniteMetric(dist, validate=False), 0.25)

    def test_scaled_minimum_is_exact(self):
        m = FiniteMetric([[0.0, 0.7, 1.4], [0.7, 0.0, 0.7], [1.4, 0.7, 0.0]], validate=False)
        t = build_net_tree(m, 0.25)
        assert float(np.min(t.scaled_dist[t.scaled_dist > 0])) == 256.0


class TestAncestors:
    def test_level_zero_is_the_point(self):
        t = build_net_tree(collinear_metric(), 0.25)
        for v in range(3):
            assert net_ancestor(t, v, 0) == v

    def test_merged_point_routes_to_survivor(self):
        t = build_net_tree(collinear_metric(), 0.25)
        assert net_ancestor(t, 1, 8) == 0  # 1 merged into 0 at level 8
        assert net_ancestor(t, 2, 9) == 0
        assert net_ancestor(t, 2, 8) == 2

    def test_out_of_range_level(self):
        t = build_net_tree(two_point_metric(), 0.25)
        with pytest.raises(LevelOutOfRange):
            t.labels(t.top_level + 1)

    def test_istar_marks_last_surviving_level(self):
        t = build_net_tree(collinear_metric(), 0.25)
        for v in range(3):
            k = int(t.istar[v])
            for i in range(k + 1):
                assert v in t.labels(i)
            if k < t.top_level:
                assert v not in t.labels(k + 1)

    def test_parent_distance_telescopes(self):
        """d(v, level-i ancestor) <= sum of radii 2^1..2^i = 2^(i+1) - 2."""
        from doubling import random_euclidean

        m = random_euclidean(20, 2, 11)
        t = build_net_tree(m, 0.25)
        S = t.scaled_dist
        for v in range(m.n):
            for i in range(t.top_level + 1):
                anc = net_ancestor(t, v, i)
                assert S[v, anc] <= 2.0 ** (i + 1) - 2.0 + 1e-6


class TestValidate:
    def test_fresh_builds_validate(self, oracle_metrics):
        for name, m in oracle_metrics.items():
            t = build_net_tree(m, 0.25)
            report = validate_net_tree(t, m)
            assert report.ok, (name, report.clause, report.detail)

    def test_tampered_parent_distance(self):
        m = collinear_metric()
        t = build_net_tree(m, 0.25)
        nets = copy.deepcopy(t.nets)
        # reroute point 2's level-8 parent onto the root's chain at level 9:
        # its own label disappears from level 8's children
        nets[8][1] = 1
        bad = NetTree(nets, t.parents, t.scale, t.scaled_dist)
        report = validate_net_tree(bad, m)
        assert not report.ok
        assert report.clause in ("same-label child", "packing", "nesting")

    def test_tampered_scale_breaks_packing(self):
        m = collinear_metric()
        t = build_net_tree(m, 0.25)
        bad = NetTree(copy.deepcopy(t.nets), copy.deepcopy(t.parents), t.scale / 4.0, t.scaled_dist / 4.0)
        report = validate_net_tree(bad, m)
        assert not report.ok

    def test_truncated_tree_has_no_root(self):
        m = collinear_metric()
        t = build_net_tree(m, 0.25)
        bad = NetTree(copy.deepcopy(t.nets[:-1]), copy.deepcopy(t.parents[:-1]), t.scale, t.scaled_dist)
        report = validate_net_tree(bad, m)
        assert not report.ok
        assert report.clause == "root"


class TestSerialization:
    def test_round_trip(self, tmp_path):
        m = collinear_metric()
        t = build_net_tree(m, 0.25)
        path = str(tmp_path / "t.nettree")
        save_net_tree(t, path)
        back = load_net_tree(path, m)
        assert back.scale == t.scale
        assert back.top_level == t.top_level
        for i in range(t.top_level + 1):
            assert back.labels(i) == t.labels(i)
        assert validate_net_tree(back, m).ok

    def test_bad_header(self, tmp_path):
        p = tmp_path / "x.nettree"
        p.write_text("node 0 0 0 -\n")
        with pytest.raises(ValueError):
            load_net_tree(str(p), two_point_metric())

    def test_out_of_order_nodes(self, tmp_path):
        p = tmp_path / "y.nettree"
        p.write_text("nettree 1 1.0\nnode 0 1 0 -\n")
        with pytest.raises(ValueError):
            load_net_tree(str(p), two_point_metric())

    @pytest.mark.parametrize(
        "text,line,reason",
        [
            ("nettree 2 256.0\nnode 0 0 0 0\nnode 0 1 1 0\nnode 1 0 5 -\n", 4, "label 5 outside"),
            ("nettree 2 256.0\nnode 0 0 1 0\nnode 0 1 0 0\nnode 1 0 1 -\n", 2, "level 0 must list"),
            ("nettree 2 256.0\nnode 0 0 0 0\nnode 1 0 0 -\n", 3, "level 0 has 1 of the metric's 2"),
            ("nettree 2 -1.0\nnode 0 0 0 0\n", 1, "not positive and finite"),
            ("nettree x 256.0\n", 1, "expected 'nettree"),
            ("", 1, "expected 'nettree"),
            ("nettree 2 256.0\n\n# level 0\nnode 0 0 0 0\nnode 0 1 1\n", 5, "bad record"),
            ("nettree 2 256.0\nnode 0 0 0 0\nnode 2 0 0 -\n", 3, "level 2 out of range"),
        ],
    )
    def test_malformed_file_names_its_line(self, tmp_path, text, line, reason):
        p = tmp_path / "bad.nettree"
        p.write_text(text)
        with pytest.raises(ValueError, match=rf"^{re.escape(str(p))}:{line}: .*{reason}"):
            load_net_tree(str(p), two_point_metric())
