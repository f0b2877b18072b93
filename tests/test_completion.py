import dataclasses
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from doubling import (
    Completion,
    LevelOutOfRange,
    LevelUnderflow,
    WeightedGraph,
    attach_tails,
    complete_tree,
    doubling_estimate,
    exponential_star,
    lift_edges,
    load_completion,
    long_edge_audit,
    random_tree,
    sampled_conv_dimension,
    save_completion,
    shortest_path_metric,
    verify_completion,
)
from doubling.net_tree import build_net_tree
from oracles import dense_completion_stretch, scalar_complete_tree


def path3() -> WeightedGraph:
    return WeightedGraph(3, [(0, 1, 1.0), (1, 2, 1.0)])


def collinear_triangle() -> WeightedGraph:
    return WeightedGraph(3, [(0, 1, 1.0), (0, 2, 2.0), (1, 2, 1.0)])


class TestAttachTails:
    def test_collinear_tail_census(self):
        g = path3()
        t = build_net_tree(shortest_path_metric(g), 0.25)
        tailed, tail_start = attach_tails(g, t)
        assert t.istar.tolist() == [9, 7, 8]
        assert tailed.n_vertices == 3 + 9 + 7 + 8
        # vertex u's tail positions 1, 2, ... start at tail_start[u]
        assert tail_start.tolist() == [3, 12, 19, 27]

    def test_tail_path_lengths_double(self):
        g = path3()
        t = build_net_tree(shortest_path_metric(g), 0.25)
        tailed, tail_start = attach_tails(g, t)
        m = shortest_path_metric(tailed)
        # walking to the j-th tail vertex sums 2 + 4 + ... + 2^j scaled units
        tip = tail_start[0] + 8  # position 9
        assert tip == tail_start[1] - 1
        assert m.d(0, tip) * t.scale == 1022.0
        assert m.d(0, tail_start[0]) * t.scale == 2.0

    def test_vertex_count_mismatch(self):
        t = build_net_tree(shortest_path_metric(path3()), 0.25)
        with pytest.raises(ValueError):
            attach_tails(WeightedGraph(4, [(0, 1, 1.0), (1, 2, 1.0), (2, 3, 1.0)]), t)


class TestLiftEdges:
    def test_collinear_triangle_lift_map(self):
        c = complete_tree(collinear_triangle(), 0.25)
        assert [column.tolist() for column in c.lifts] == [
            [0, 0, 1],  # u
            [1, 2, 2],  # v
            [1, 2, 1],  # level
            [3, 4, 12],  # a
            [12, 20, 19],  # b
        ]
        assert c.scale == 256.0
        assert not c.input_is_tree

    def test_original_edges_are_gone(self):
        c = complete_tree(collinear_triangle(), 0.25)
        pairs = {(u, v) for u, v, _ in c.output.edges}
        assert not {(0, 1), (0, 2), (1, 2)} & pairs
        # the lifted copies carry the original lengths
        weights = {(u, v): w for u, v, w in c.output.edges}
        assert weights[(3, 12)] == 1.0
        assert weights[(4, 20)] == 2.0
        assert weights[(12, 19)] == 1.0

    def test_two_point_lift(self):
        g = WeightedGraph(2, [(0, 1, 1.0)])
        c = complete_tree(g, 0.25)
        assert [column.tolist() for column in c.lifts] == [[0], [1], [1], [2], [10]]
        assert c.output.n_vertices == 2 + 8 + 7
        assert c.output.is_tree()

    def test_short_edge_has_no_level(self):
        g = path3()
        t = build_net_tree(shortest_path_metric(g), 0.25)
        tailed, tail_start = attach_tails(g, t)
        for shrunk, edge in [
            (WeightedGraph(3, [(0, 1, 0.001), (1, 2, 1.0)]), "(0, 1) of scaled length 0.256"),
            (WeightedGraph(3, [(0, 1, 1.0), (1, 2, 0.001)]), "(1, 2) of scaled length 0.256"),
        ]:
            with pytest.raises(LevelUnderflow, match=rf"^edge {re.escape(edge)} sits below the first level$"):
                lift_edges(tailed, tail_start, shrunk, t, 0.25)

    def test_faults_name_the_first_edge_at_fault(self):
        """Row order decides between an edge below level 1 and one above the
        top level, as the one-edge-at-a-time loop does."""
        g = WeightedGraph(3, [(0, 1, 1.0), (1, 2, 1.0), (0, 2, 1000.0)])
        with pytest.raises(LevelOutOfRange, match=r"^level 11 outside \[0, 9\]$"):
            complete_tree(g, 0.25)
        t = build_net_tree(shortest_path_metric(g), 0.25)
        tailed, tail_start = attach_tails(g, t)
        for lengths, error, message in [
            ((1.0, 1000.0, 0.001), LevelOutOfRange, "level 11 "),  # (0, 2) comes before (1, 2)
            ((1.0, 1000.0, 0.001)[::-1], LevelUnderflow, "edge "),
            # scaled by 256, 1e308 is inf: at level 1017, the first whose
            # bound 132 * 2^i is past the float range
            ((1.0, 1e308, 0.001), LevelOutOfRange, "level 1017 "),
            ((0.001, 1e308, 1.0), LevelUnderflow, "edge "),
        ]:
            h = WeightedGraph(3, list(zip([0, 0, 1], [1, 2, 2], lengths)))
            with pytest.raises(error, match=f"^{message}"):
                lift_edges(tailed, tail_start, h, t, 0.25)

    def test_star_completion_is_a_tree(self):
        g = exponential_star(3)
        c = complete_tree(g, 0.25)
        t = build_net_tree(shortest_path_metric(g), 0.25)
        assert t.istar.tolist() == [10, 7, 8, 9]
        assert c.output.n_vertices == 38
        assert len(c.output.edges) == 37
        assert c.output.is_tree()


class TestVerifyCompletion:
    def test_star_report_passes(self):
        g = exponential_star(3)
        c = complete_tree(g, 0.25)
        rep = verify_completion(g, c, 0.25)
        assert rep.passed
        assert rep.tree_ok is True
        assert rep.stretch.min_ratio >= 1.0 / 1.25 - 1e-9
        assert rep.stretch.max_ratio <= 1.25 + 1e-9

    def test_non_tree_input_skips_the_shape_check(self):
        g = collinear_triangle()
        rep = verify_completion(g, complete_tree(g, 0.25), 0.25)
        assert rep.tree_ok is None
        assert rep.passed

    def test_halved_lifted_edge_is_caught(self):
        g = exponential_star(3)
        c = complete_tree(g, 0.25)
        row = g.edge_rows(0, 1)
        a, b = int(c.lifts.a[row]), int(c.lifts.b[row])
        lo, hi = (a, b) if a < b else (b, a)
        edges = [
            (u, v, w / 2.0 if (u, v) == (lo, hi) else w) for u, v, w in c.output.edges
        ]
        tampered = dataclasses.replace(c, output=WeightedGraph(c.output.n_vertices, edges))
        rep = verify_completion(g, tampered, 0.25)
        assert not rep.stretch.passed
        assert rep.stretch.violation is not None
        assert not rep.passed

    @settings(max_examples=60)
    @given(data=st.data())
    def test_stretch_matches_the_dense_matrix(self, data):
        """Rows from the input vertices give the report the completed graph's
        full all-pairs matrix gives, on honest and on tampered completions."""
        family = data.draw(st.sampled_from(["tree", "star", "triangle"]))
        if family == "tree":
            g = random_tree(data.draw(st.integers(2, 30)), data.draw(st.integers(0, 999)))
            eps = 2.0 ** -data.draw(st.integers(2, 4))
        elif family == "star":
            g = exponential_star(data.draw(st.integers(1, 6)))
            eps = 2.0 ** -data.draw(st.integers(2, 10))
        else:
            g, eps = collinear_triangle(), 0.25
        c = complete_tree(g, eps)
        if data.draw(st.booleans()):
            row = data.draw(st.integers(0, g.w.size - 1))
            a, b = int(c.lifts.a[row]), int(c.lifts.b[row])
            factor = data.draw(st.sampled_from([0.5, 0.9, 1.1, 2.0]))
            key = (min(a, b), max(a, b))
            edges = [(u, v, w * factor if (u, v) == key else w) for u, v, w in c.output.edges]
            c = dataclasses.replace(c, output=WeightedGraph(c.output.n_vertices, edges))
        assert verify_completion(g, c, eps).stretch == dense_completion_stretch(g, c, eps)

    def test_audit_grows_slowly_as_eps_shrinks(self):
        g = exponential_star(16)
        counts = {
            eps: long_edge_audit(complete_tree(g, eps).output).max_count
            for eps in (0.25, 0.0625, 0.015625)
        }
        assert counts == {0.25: 8, 0.0625: 10, 0.015625: 12}

    def test_completed_dimension_stays_near_the_input(self):
        g = exponential_star(8)
        base = doubling_estimate(shortest_path_metric(g)).dim_upper
        conv = sampled_conv_dimension(complete_tree(g, 0.25).output, 1)
        assert conv.dim_upper <= base + 2.0 + 1e-9

    def test_eps_domain(self):
        with pytest.raises(ValueError):
            complete_tree(path3(), 0.5)


def assert_reloads(c: Completion, tmp_path) -> None:
    """``c`` saves, loads back with the same tails and lifts, and saves again
    to the same bytes."""
    first, again = tmp_path / "first.completion", tmp_path / "again.completion"
    save_completion(c, str(first))
    loaded = load_completion(str(first))
    assert loaded.tail_start.tolist() == c.tail_start.tolist()
    assert [col.tolist() for col in loaded.lifts] == [col.tolist() for col in c.lifts]
    save_completion(loaded, str(again))
    assert again.read_bytes() == first.read_bytes()


# a graph of 2 inputs and 3 tail vertices, and its scale and meta records
FIVE = "graph 5\ne 0 1 1.0\nscale 2.0\nmeta 2 1\n"
TAILS = "tail 0 0 0\ntail 0 1 2\ntail 0 2 3\ntail 1 0 1\ntail 1 1 4\n"  # on FIVE, lines 5-9


class TestSerialization:
    def test_round_trip(self, tmp_path):
        g = exponential_star(3)
        c = complete_tree(g, 0.25)
        path = str(tmp_path / "completion.txt")
        save_completion(c, path)
        loaded = load_completion(path)
        assert loaded.output.edges == c.output.edges
        assert loaded.tail_start.tolist() == c.tail_start.tolist()
        assert [column.tolist() for column in loaded.lifts] == [column.tolist() for column in c.lifts]
        assert loaded.scale == c.scale
        assert loaded.n_original == c.n_original
        assert loaded.input_is_tree is True
        assert verify_completion(g, loaded, 0.25).passed

    @pytest.mark.parametrize("n,seed", [(12, 3), (60, 1)])
    def test_every_written_lift_loads(self, tmp_path, n, seed):
        """The lift checks accept every lift complete_tree writes."""
        c = complete_tree(random_tree(n, seed), 0.25)
        assert_reloads(c, tmp_path)

    def test_tail_records_in_any_order(self, tmp_path):
        """Tails are checked in (vertex, position) order, whatever order the
        file lists them in."""
        path = tmp_path / "shuffled.completion"
        path.write_text(f"{FIVE}tail 1 1 4\ntail 0 2 3\ntail 1 0 1\ntail 0 0 0\ntail 0 1 2\n")
        assert load_completion(str(path)).tail_start.tolist() == [2, 4, 5]

    def test_missing_meta_record(self, tmp_path):
        path = tmp_path / "broken.txt"
        path.write_text("graph 2\ne 0 1 1.0\nscale 2.0\n", encoding="utf-8")
        with pytest.raises(ValueError):
            load_completion(str(path))

    @pytest.mark.parametrize(
        "records,line,reason",
        [
            ("scale 2.0\nmeta 2 1\ntail 0 1\n", 5, "bad tail record"),
            ("scale 2.0\nmeta 2 1\nlift 0 1 1 0 x\n", 5, "invalid literal"),
            ("scale 2.0\nmeta 2 1\nmeta 2 1\n", 5, "exactly one meta record"),
            ("meta 2 1\ntail 0 0 0\n", 4, "exactly one scale record"),
            ("scale two\nmeta 2 1\n", 3, "could not convert"),
            ("scale 2.0\nmeta 2\n", 4, "bad meta record"),
            ("scale -1.0\nmeta 2 1\n", 3, "scale -1.0 is not positive and finite"),
            ("scale nan\nmeta 2 1\n", 3, "scale nan is not positive and finite"),
            ("meta 2 1\nscale inf\n", 4, "scale inf is not positive and finite"),
            ("scale 2.0\nmeta 999 1\n", 4, "wants 1..2 inputs"),
            ("scale 2.0\nmeta 0 1\n", 4, "wants 1..2 inputs"),
            ("scale 2.0\nmeta 2 7\n", 4, "tree flag 0 or 1"),
            ("scale 2.0\nmeta 2 1\ntail 0 99 12345\n", 5, "names an id outside"),
            ("scale 2.0\nmeta 1 1\ntail 0 0 0\ntail 1 0 1\n", 6, "names an id outside"),
            ("scale 2.0\nmeta 2 1\nlift 0 9 1 0 1\n", 5, "names an id outside"),
            ("scale 2.0\nmeta 2 1\nlift 0 1 1 0 2\n", 5, "names an id outside"),
            ("scale 2.0\nmeta 2 1\ntail 0 0 0\ntail 0 0 1\n", 6, "a second tail record"),
            ("scale 2.0\nmeta 2 1\nlift 0 1 1 0 1\nlift 0 1 2 1 0\n", 6, "a second lift"),
            ("scale 2.0\nmeta 2 1\ntail 0 -1 1\n", 5, "position 0 is u, others new vertices"),
            ("scale 2.0\nmeta 2 1\ntail 0 0 1\n", 5, "position 0 is u, others new vertices"),
            ("scale 2.0\nmeta 2 1\ntail 0 1 1\n", 5, "position 0 is u, others new vertices"),
            ("scale 2.0\nmeta 2 1\nlift 0 1 0 0 1\n", 5, "wants u < v and a level >= 1"),
            ("scale 2.0\nmeta 2 1\nlift 1 0 1 0 1\n", 5, "wants u < v and a level >= 1"),
            # tail layouts complete_tree never writes, on 2 inputs with 3 tail vertices
            (f"{FIVE}tail 0 0 0\ntail 0 1 2\ntail 0 2 4\ntail 1 0 1\ntail 1 1 3\n", 7, "run on from 3$"),
            (f"{FIVE}tail 0 0 0\ntail 0 2 2\ntail 1 0 1\ntail 1 1 3\n", 6, "no tail record for \\(0,1\\)"),
            (f"{FIVE}tail 0 0 0\ntail 0 1 2\ntail 1 1 3\n", 7, "no tail record for \\(1,0\\) before"),
            (f"{FIVE}tail 0 0 0\ntail 0 1 2\ntail 0 2 3\n", 7, "no tail record for \\(1,0\\)$"),
            (f"{FIVE}tail 0 0 0\ntail 0 1 2\ntail 1 0 1\ntail 1 1 3\n", 8, "vertices 4..4 lie past"),
            (f"{FIVE}", 4, "no tail record for \\(0,0\\)$"),
            # lifts complete_tree never writes: off the tails at their level, or
            # between two tail vertices the graph does not join
            ("scale 2.0\nmeta 2 1\ntail 0 0 0\ntail 1 0 1\nlift 0 1 7 0 1\n", 7, "at position 7$"),
            (f"{FIVE}{TAILS}lift 0 1 2 3 4\n", 10, "-> \\(3,4\\): wants tail vertices at position 2$"),
            (f"{FIVE}{TAILS}lift 0 1 1 0 2\n", 10, "wants tail vertices at position 1$"),
            (f"{FIVE}{TAILS}lift 0 1 1 2 4\n", 10, "-> \\(2,4\\): the graph has no such edge$"),
            (
                "graph 6\ne 0 1 1.0\ne 1 2 1.0\nscale 2.0\nmeta 3 1\ntail 0 0 0\ntail 0 1 3\n"
                "tail 1 0 1\ntail 1 1 4\ntail 2 0 2\ntail 2 1 5\nlift 1 2 1 4 5\nlift 0 1 1 3 4\n",
                12,
                "lift \\(1,2\\) -> \\(4,5\\): the graph has no such edge$",
            ),
        ],
    )
    def test_malformed_record_names_its_line(self, tmp_path, records, line, reason):
        path = tmp_path / "broken.completion"
        text = records if records.startswith("graph") else "graph 2\ne 0 1 1.0\n" + records
        path.write_text(text, encoding="utf-8")
        with pytest.raises(ValueError, match=rf"^{re.escape(str(path))}:{line}: .*{reason}"):
            load_completion(str(path))


def tails_as_dict(c) -> dict[tuple[int, int], int]:
    """(vertex, position) -> output vertex, from the tail offsets."""
    starts = c.tail_start.tolist()
    tails = {(u, 0): u for u in range(c.n_original)}
    for u in range(c.n_original):
        tails.update({(u, j): new for j, new in enumerate(range(starts[u], starts[u + 1]), start=1)})
    return tails


def assert_same_completion(g: WeightedGraph, eps: float) -> None:
    """Offset tails and lift columns against the dict-based loops: the same
    output graph bytes, tails and lifts, or the same error."""
    try:
        want = scalar_complete_tree(g, eps)
    except (LevelUnderflow, LevelOutOfRange) as exc:
        with pytest.raises(type(exc), match=f"^{re.escape(str(exc))}$"):
            complete_tree(g, eps)
        return
    c = complete_tree(g, eps)
    assert c.output.n_vertices == want.output.n_vertices
    for name in ("u", "v", "w"):
        got, ref = getattr(c.output, name), getattr(want.output, name)
        assert got.dtype == ref.dtype and got.tobytes() == ref.tobytes(), name
    assert tails_as_dict(c) == want.tail_index
    lifted = {(u, v): (a, b, level) for u, v, level, a, b in zip(*(col.tolist() for col in c.lifts))}
    assert lifted == want.lifted


class TestAgainstTheLoops:
    @settings(max_examples=40, deadline=None)
    @given(n=st.integers(1, 60), seed=st.integers(0, 10_000), k=st.integers(2, 5))
    def test_random_trees(self, n, seed, k):
        assert_same_completion(random_tree(n, seed), 2.0**-k)

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 10_000))
    def test_non_trees(self, seed):
        """Extra edges up to 2^12 long are often far longer than the path
        between their ends: they lift to one shared ancestor (degenerate),
        collide, or climb past the top level."""
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 12))
        edges = {(int(rng.integers(0, v)), v): float(2 ** rng.uniform(0, 12)) for v in range(1, n)}
        for _ in range(n):
            a, b = sorted(rng.choice(n, 2, replace=False).tolist())
            edges[(a, b)] = float(2 ** rng.uniform(0, 12))
        assert_same_completion(WeightedGraph(n, [(a, b, w) for (a, b), w in edges.items()]), 0.25)

    def test_a_non_tree_with_degenerate_lifts(self, tmp_path):
        rng = np.random.default_rng(13)
        edges = {(int(rng.integers(0, v)), v): float(2 ** rng.uniform(0, 12)) for v in range(1, 10)}
        for _ in range(10):
            a, b = sorted(rng.choice(10, 2, replace=False).tolist())
            edges[(a, b)] = float(2 ** rng.uniform(0, 12))
        g = WeightedGraph(10, [(a, b, w) for (a, b), w in edges.items()])
        c = complete_tree(g, 0.25)
        assert (c.lifts.a == c.lifts.b).sum() == 2
        assert_same_completion(g, 0.25)
        assert_reloads(c, tmp_path)

    @pytest.mark.parametrize("k", range(2, 18))
    def test_stars(self, k):
        assert_same_completion(exponential_star(16), 2.0**-k)
