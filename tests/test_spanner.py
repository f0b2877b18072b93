import re
import tracemalloc

import numpy as np
import pytest

from doubling import (
    ConfigError,
    FiniteMetric,
    WeightedGraph,
    build_spanner,
    complete_tree,
    exponential_star,
    lcp_metric,
    load_spanner,
    random_euclidean,
    save_spanner,
    shortest_path_metric,
)
from doubling import metric, spanner
from doubling.net_tree import NetTree, build_net_tree
from doubling.spanner import (
    assign_directions,
    build_base_edge_sets,
    cover_constant,
    donate_edges,
    donation_threshold,
)


def uniform4() -> FiniteMetric:
    return FiniteMetric(np.ones((4, 4)) - np.eye(4))


def collinear3() -> FiniteMetric:
    return shortest_path_metric(WeightedGraph(3, [(0, 1, 1.0), (1, 2, 1.0)]))


def geometric_progression_metric() -> FiniteMetric:
    """A 1-D comb that floods vertex 0 with one in-edge group per level.

    Point j > 0 sits at C * 2^j, so the pair {0, j} lands in edge set E_j
    and every such edge is directed into 0 (the longest-surviving label).
    Sixteen nonempty groups against a keep-threshold of fourteen forces
    exactly two donations.
    """
    C = cover_constant(0.25)
    pos = [0.0] + [C * 2.0**j for j in range(1, 17)]
    return FiniteMetric(np.abs(np.subtract.outer(pos, pos)), validate=False)


def test_constants():
    assert cover_constant(0.25) == 132.0
    assert cover_constant(0.125) == 260.0
    assert donation_threshold(0.25) == 14
    assert donation_threshold(1.0 / 32.0) == 35


class TestBaseEdgeSets:
    def test_uniform_pairs_enter_level_one(self):
        m = uniform4()
        t = build_net_tree(m, 0.25)
        sets = build_base_edge_sets(m, t, 0.25)
        assert sets[0].tolist() == []
        assert sets[1].tolist() == [[0, 1], [0, 2], [0, 3], [1, 2], [1, 3], [2, 3]]
        assert all(s.size == 0 for s in sets[2:])

    def test_collinear_long_pair_enters_level_two(self):
        # scaled distances 256, 256, 512: 512 clears C*r_1 = 264 but not 528
        m = collinear3()
        t = build_net_tree(m, 0.25)
        sets = build_base_edge_sets(m, t, 0.25)
        assert sets[1].tolist() == [[0, 1], [1, 2]]
        assert sets[2].tolist() == [[0, 2]]

    def test_single_point(self):
        m = FiniteMetric([[0.0]])
        t = build_net_tree(m, 0.25)
        assert all(s.size == 0 for s in build_base_edge_sets(m, t, 0.25))

    @pytest.mark.parametrize("i", [1, 2, 5, 12])
    def test_length_on_a_bound_takes_its_level_in_candidates_and_lifts(self, i):
        """A scaled length of exactly C * 2**i closes level i's bracket, as
        a candidate pair and as a lifted edge. The path 0 - 1 - 2 has its
        smallest edge, 1, scaled to 2**8 at eps = 1/4, so the edge (0, 1) of
        length 33 * 2**(i-6) scales to 132 * 2**i; its ends survive past
        level i, where 2 has merged into 1."""
        g = WeightedGraph(3, [(0, 1, 33.0 * 2.0 ** (i - 6)), (1, 2, 1.0)])
        m = shortest_path_metric(g)
        t = build_net_tree(m, 0.25)
        assert m.dist[0, 1] * t.scale == cover_constant(0.25) * 2.0**i
        sets = build_base_edge_sets(m, t, 0.25)
        assert [level for level, pairs in enumerate(sets) if [0, 1] in pairs.tolist()] == [i]
        lifts = complete_tree(g, 0.25).lifts
        assert (lifts.u[0], lifts.v[0], lifts.level[0]) == (0, 1, i)

    def test_pair_at_or_below_C_in_the_level_one_net_raises(self):
        """Scaled by half the true scale, the uniform pairs sit at 128 <= C."""
        m = uniform4()
        t = build_net_tree(m, 0.25)
        short = NetTree(t.nets, t.parents, t.scale / 2.0)
        with pytest.raises(AssertionError, match=r"^edge \(0, 1\) of scaled length 128\.0 outside the level-1 bracket$"):
            build_base_edge_sets(m, short, 0.25)

    @pytest.mark.parametrize(
        "level,labels", [(9, [1]), (8, [0, 0])], ids=["not nested", "repeated label"]
    )
    def test_levels_that_are_not_nested_sets_raise(self, level, labels):
        """The levels are read as nested sets: a root that level 8 lacks, or
        a label listed twice, is refused before any pair is placed."""
        m = collinear3()
        t = build_net_tree(m, 0.25)
        nets = [net.copy() for net in t.nets]
        nets[level] = np.array(labels)
        with pytest.raises(AssertionError, match="not nested sets"):
            build_base_edge_sets(m, NetTree(nets, t.parents, t.scale), 0.25)

    def test_every_pair_appears_once(self, lcp4_spanner):
        sets = build_base_edge_sets(lcp_metric(4), lcp4_spanner.net_tree, lcp4_spanner.eps)
        seen = [tuple(p) for s in sets for p in s.tolist()]
        assert len(seen) == len(set(seen))


class TestDirections:
    def test_heads_are_longer_survivors(self):
        m = uniform4()
        t = build_net_tree(m, 0.25)
        directed = assign_directions(build_base_edge_sets(m, t, 0.25), t)
        # 0 survives to the top, so everything touching it flows into 0;
        # equal-istar pairs break toward the larger id
        assert directed.tolist() == [
            [1, 0, 1],
            [2, 0, 1],
            [3, 0, 1],
            [1, 2, 1],
            [1, 3, 1],
            [2, 3, 1],
        ]

    def test_empty_input(self):
        t = build_net_tree(uniform4(), 0.25)
        assert assign_directions([np.empty((0, 2), dtype=np.intp)], t).tolist() == []


class TestDonation:
    def test_below_threshold_keeps_everything(self):
        m = uniform4()
        t = build_net_tree(m, 0.25)
        directed = assign_directions(build_base_edge_sets(m, t, 0.25), t)
        s = donate_edges(directed, m, 0.25, net_tree=t)
        assert all(rec.kind_v == "B" and rec.donor is None for rec in s.edges)
        assert len(s.edges) == 6

    def test_progression_donates_exactly_two_groups(self):
        """Ranks 15 and 16 at vertex 0 move to the rank-1 and rank-2 tails."""
        m = geometric_progression_metric()
        t = build_net_tree(m, 0.25)
        s = donate_edges(assign_directions(build_base_edge_sets(m, t, 0.25), t), m, 0.25)
        donated = [r for r in s.edges if r.kind_v == "C"]
        assert [(r.u, r.v, r.level, r.donor) for r in donated] == [
            (15, 1, 15, 0),
            (16, 2, 16, 0),
        ]
        for rec in donated:
            assert rec.length == m.d(rec.u, rec.v)  # re-measured, not copied

    def test_donation_distance_contract(self):
        """d(donor, new endpoint) <= eps^6 * originating length."""
        m = geometric_progression_metric()
        s = build_spanner(m, 0.25)
        for rec in s.edges:
            if rec.donor is None:
                continue
            original = m.d(rec.u, rec.donor)
            assert m.d(rec.donor, rec.v) <= 0.25**6 * original

    def test_no_duplicate_pairs(self, lcp4_spanner):
        pairs = [rec.pair for rec in lcp4_spanner.edges]
        assert len(pairs) == len(set(pairs))
        assert len(pairs) == len(lcp4_spanner.graph.edges)


class TestBuildSpanner:
    def test_two_points(self):
        s = build_spanner(FiniteMetric([[0.0, 5.0], [5.0, 0.0]]), 0.25)
        assert len(s.edges) == 1
        assert s.stretch.min_ratio == 1.0 and s.stretch.max_ratio == 1.0
        assert s.max_degree == 1

    def test_euclidean_stretch_all_pairs(self):
        m = random_euclidean(50, 2, 1)
        s = build_spanner(m, 0.25)
        sp = shortest_path_metric(s.graph)
        ratios = sp.dist[np.triu_indices(50, k=1)] / m.dist[np.triu_indices(50, k=1)]
        assert ratios.min() >= 1.0 - 1e-9
        assert ratios.max() <= 1.25 + 1e-9

    def test_level_brackets_hold_for_origins(self, lcp4_spanner):
        """Each record's originating pair sits in its level's length window."""
        t = lcp4_spanner.net_tree
        S = lcp_metric(4).dist * t.scale
        C = cover_constant(lcp4_spanner.eps)
        for rec in lcp4_spanner.edges:
            a, b = rec.origin
            d = float(S[a, b])
            assert C * 2.0 ** (rec.level - 1) < d <= C * 2.0**rec.level

    def test_star_degree_saturates_at_threshold(self):
        """Below m0 leaves the center keeps its full degree; beyond it the
        donation pass caps the center at exactly m0 in-groups."""
        degrees = {}
        for n in (12, 16, 24, 32):
            s = build_spanner(shortest_path_metric(exponential_star(n)), 0.25)
            degrees[n] = s.max_degree
            assert s.stretch.max_ratio <= 1.25 + 1e-9
        assert degrees[12] == 12  # 12 groups, no donation
        assert degrees[24] == 14
        assert degrees[16] == degrees[32] == 14  # size-independent past m0

    def test_deterministic_rebuild(self):
        m = random_euclidean(30, 2, 4)
        a = build_spanner(m, 0.25)
        b = build_spanner(m, 0.25)
        assert a.edges == b.edges
        assert a.graph.edges == b.graph.edges

    def test_planar_uniform_degree_regression(self, euclidean_raw_max_degrees):
        """Recorded max degrees of the donated (raw) spanners on the seeded
        planar corpus at eps = 1/4."""
        assert euclidean_raw_max_degrees == {
            (100, 1): 99,
            (100, 2): 99,
            (100, 3): 99,
            (100, 4): 98,
            (100, 5): 99,
            (400, 1): 397,
            (400, 2): 395,
            (400, 3): 397,
            (400, 4): 391,
            (400, 5): 397,
        }


def traced_peak(build) -> int:
    """The tracemalloc peak of ``build()``, in bytes."""
    tracemalloc.start()
    try:
        build()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestBuildMemory:
    def test_planar_build_peak_in_matrices(self):
        """The n = 400 planar build peaks near 7.2 n x n float64 arrays
        beyond its input (19.7 when donation held about thirty temporaries
        the length of the candidate list)."""
        m = random_euclidean(400, 2, 1)
        assert traced_peak(lambda: build_spanner(m, 0.25)) < 11 * 8 * m.n**2

    def test_refused_before_the_net_tree(self, monkeypatch):
        """Fifteen 20 x 20 float64 arrays are counted: one byte less is
        refused before the net-tree, exactly that much builds."""
        m = random_euclidean(20, 2, 0)
        monkeypatch.setattr(metric, "_physical_memory", lambda: 15 * 8 * 20 * 20 - 1)
        with monkeypatch.context() as patch:
            patch.setattr(spanner, "build_net_tree", lambda *a: pytest.fail("built a net-tree"))
            refusal = r"^a spanner on 20 points peaks near 15 float64 arrays of 20 x 20 "
            with pytest.raises(ConfigError, match=refusal):
                build_spanner(m, 0.25)
        monkeypatch.setattr(metric, "_physical_memory", lambda: 15 * 8 * 20 * 20)
        assert build_spanner(m, 0.25).stretch.passed

    @pytest.mark.parametrize(
        "m,eps",
        [
            (random_euclidean(400, 2, 1), 0.25),
            (random_euclidean(300, 2, 2), 1 / 32),
            (lcp_metric(8), 2.0**-9),
        ],
        ids=["planar 400", "planar 300 at 1/32", "lcp p=8"],
    )
    def test_counted_matrices_bound_the_measured_peak(self, monkeypatch, m, eps):
        """With one byte less memory than the input plus the build's
        measured peak, the preflight refuses the build."""
        peak = traced_peak(lambda: build_spanner(m, eps))
        monkeypatch.setattr(metric, "_physical_memory", lambda: m.dist.nbytes + peak - 1)
        with pytest.raises(ConfigError, match="memory"):
            build_spanner(m, eps)


class TestSerialization:
    def test_round_trip(self, tmp_path):
        m = geometric_progression_metric()
        s = build_spanner(m, 0.25)
        path = str(tmp_path / "s.spanner")
        save_spanner(s, path)
        back = load_spanner(path, 0.25)
        assert back.graph.edges == s.graph.edges
        assert back.edges == s.edges
        assert back.max_degree == s.max_degree
        assert back.eps == 0.25
        assert back.net_tree is None and back.stretch is None

    def test_records_sit_on_their_edge_rows(self, tmp_path):
        """Record i is the record of graph edge i, for a built spanner and
        for one loaded from meta lines in any order."""
        s = build_spanner(random_euclidean(60, 2, 3), 0.25)
        rec, g = s.records, s.graph
        assert s.raw_n_edges > g.w.size  # the pruning dropped edges
        assert np.array_equal(np.minimum(rec.u, rec.v), g.u) and np.array_equal(np.maximum(rec.u, rec.v), g.v)
        assert np.array_equal(rec.length, g.w)
        path = tmp_path / "s.spanner"
        save_spanner(s, str(path))
        lines = path.read_text().splitlines()
        meta = [line for line in lines if line.startswith("meta")]
        path.write_text("\n".join([line for line in lines if line not in meta] + meta[::-1]) + "\n")
        assert load_spanner(str(path), 0.25).edges == s.edges

    def test_rejects_malformed_meta(self, tmp_path):
        p = tmp_path / "bad.spanner"
        p.write_text("graph 2\ne 0 1 1.0\nmeta 0 1 level=1\n")
        with pytest.raises(ValueError):
            load_spanner(str(p), 0.25)

    @pytest.mark.parametrize(
        "meta,reason",
        [
            ("meta 0 2 level=1 kind=B donor=-", "names no edge"),
            ("meta 0 1 kind=B donor=-", "bad meta record"),
            ("meta 0 1 lvl=1 kind=B donor=-", "needs level=, kind= and donor="),
            ("meta 0 1 level1 kind=B donor=-", "bad meta record"),
            ("meta 0 1 level=x kind=B donor=-", "invalid literal"),
            ("meta 0 1 level=1 kind=C donor=-", "kind=C disagrees with donor=-"),
            ("meta 0 1 level=1 kind=B donor=2", "kind=B disagrees with donor=2"),
            ("meta 0 1 level=1 kind=C donor=-1", "donor=-1 names no vertex"),
            ("meta 0 1 level=1 kind=C donor=3", "donor=3 names no vertex"),
            ("meta 0 1 level=-7 kind=C donor=2", "level=-7 is below 1"),
            ("meta 0 1 level=0 kind=B donor=-", "level=0 is below 1"),
            ("meta 0 1 level=1 kind=C donor=0", "donor=0 is an endpoint of its own edge"),
            ("meta 1 0 level=1 kind=C donor=0", "donor=0 is an endpoint of its own edge"),
            ("meta 0 1 level=1 kind=C donor=1", "donor=1 is an endpoint of its own edge"),
            ("meta 1 2 level=2 kind=B donor=-", r"a second meta record for edge \(1,2\)"),
            ("meta 2 1 level=1 kind=B donor=-", r"a second meta record for edge \(2,1\)"),
        ],
    )
    def test_malformed_meta_names_its_line(self, tmp_path, meta, reason):
        p = tmp_path / "bad.spanner"
        p.write_text(f"graph 3\n# edges\ne 0 1 1.0\ne 1 2 1.0\nmeta 1 2 level=1 kind=B donor=-\n{meta}\n")
        with pytest.raises(ValueError, match=rf"^{re.escape(str(p))}:6: .*{reason}"):
            load_spanner(str(p), 0.25)

    @pytest.mark.parametrize(
        "text,line,reason",
        [
            # the first edge without a record, at the last data line (a comment is none)
            ("graph 3\ne 0 1 1.0\ne 1 2 1.0\nmeta 0 1 level=1 kind=B donor=-\n", 4, "(1,2)"),
            ("graph 3\ne 0 1 1.0\ne 1 2 1.0\nmeta 1 2 level=1 kind=B donor=-\n# end\n", 4, "(0,1)"),
            ("graph 2\ne 0 1 1.0\n", 2, "(0,1)"),
        ],
    )
    def test_an_edge_without_meta_names_the_last_line(self, tmp_path, text, line, reason):
        p = tmp_path / "bad.spanner"
        p.write_text(text)
        match = rf"^{re.escape(str(p))}:{line}: edge {re.escape(reason)} has no meta record$"
        with pytest.raises(ValueError, match=match):
            load_spanner(str(p), 0.25)

    def test_records_read_back_as_written(self, tmp_path):
        p = tmp_path / "big.spanner"
        p.write_text("graph 3\ne 0 1 1.5\nmeta 1 0 level=99999999999999999999 kind=C donor=2\n")
        (rec,) = load_spanner(str(p), 0.25).edges
        assert (rec.u, rec.v, rec.length, rec.level, rec.donor) == (1, 0, 1.5, 10**20 - 1, 2)
