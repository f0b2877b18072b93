"""The array-backed ``WeightedGraph`` against its scalar references.

The graph validates its edges in one vectorised pass, keeps them as sorted
arrays and one cached CSR, and runs directed Dijkstra on that CSR;
``oracles.scalar_weighted_graph`` keeps the per-edge constructor loop and
``oracles.scalar_apsp`` the list-built CSR with undirected Dijkstra. Edges,
degrees, CSR neighbour rows, edge-row lookups, error messages and distance
bits must match exactly, and so must the spanner records built on first
read.
"""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from doubling import (
    ConvPoint,
    WeightedGraph,
    build_spanner,
    complete_tree,
    conv_geodesic_point,
    exponential_star,
    lcp_metric,
    long_edge_audit,
    long_edge_packing_witness,
    random_euclidean,
    random_tree,
    sample_metric,
    save_completion,
    save_graph,
    save_spanner,
    shortest_path_metric,
)
from doubling.net_tree import build_net_tree
from doubling.spanner import (
    SpannerEdge,
    assign_directions,
    build_base_edge_sets,
    donate_edges,
    donation_threshold,
)
from oracles import lexsort_csr, scalar_apsp, scalar_donation, scalar_weighted_graph

# lengths whose sums round, so a change in the order of relaxations shows
LENGTHS = (0.1, 0.2, 0.3, 0.7, 1.0, 1.5, 2.0, 1e-3, 3.3e4)
BAD_LENGTHS = (0.0, -1.0, -0.0, math.nan, math.inf, -math.inf)


def outcome(build):
    """The built value, or the ``ValueError`` message raised instead."""
    try:
        return build()
    except ValueError as exc:
        return ("ValueError", str(exc))


def assert_same_graph(n, edges):
    want = outcome(lambda: scalar_weighted_graph(n, edges))
    for given_as in (edges, np.array(edges, dtype=np.float64).reshape(-1, 3), iter(edges)):
        got = outcome(lambda: WeightedGraph(n, given_as))
        if isinstance(want, tuple) and want[0] == "ValueError":
            assert got == want
            continue
        assert isinstance(got, WeightedGraph)
        assert got.edges == want.edges
        assert all(type(x) is t for e in got.edges for x, t in zip(e, (int, int, float)))
        assert got.degrees() == want.degrees
        assert_same_lookup(got, want)


def csr_lists(g: WeightedGraph) -> list[list[tuple[int, float]]]:
    """Per vertex, ``(neighbour, length)`` as its CSR row lists them."""
    ptr, cols, data = g.csr.indptr.tolist(), g.csr.indices.tolist(), g.csr.data.tolist()
    return [list(zip(cols[a:b], data[a:b])) for a, b in zip(ptr, ptr[1:])]


def assert_same_lookup(got: WeightedGraph, want) -> None:
    """``edge_rows`` against the scalar graph's length dict for every ordered
    pair of ids, one just outside the range on each side included: one pair
    at a time, then all pairs as one array. Rows name the edges in
    ``want.edges`` order, and the CSR rows list ``want.adjacency``."""
    n = got.n_vertices
    row_of = {(u, v): k for k, (u, v, _) in enumerate(want.edges)}
    ids = range(-1, n + 1)
    expected = [[row_of.get((min(u, v), max(u, v)), -1) for v in ids] for u in ids]
    for u in ids:
        for v in ids:
            row = got.edge_rows(u, v)
            assert type(row) is int and row == expected[u + 1][v + 1]
            if row >= 0:
                assert got.w[row] == want.lengths[(min(u, v), max(u, v))]
    uu, vv = np.meshgrid(ids, ids, indexing="ij")
    rows = got.edge_rows(uu, vv)
    assert rows.dtype == np.intp and rows.tolist() == expected
    assert got.edge_rows(np.array(list(ids)), 0).tolist() == [e[1] for e in expected]  # v = 0
    assert csr_lists(got) == want.adjacency


@st.composite
def edge_lists(draw, faults: bool):
    """(n, edges): a random edge list in random orientation; with ``faults``
    some edges are self-loops, out of range, repeats (either orientation) or
    badly sized, often several in one list."""
    n = draw(st.integers(1, 9))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    chosen = draw(st.lists(st.sampled_from(pairs), unique=True, max_size=12)) if pairs else []
    edges = []
    for u, v in chosen:
        if draw(st.booleans()):
            u, v = v, u
        edges.append((u, v, draw(st.sampled_from(LENGTHS))))
    if faults:
        for _ in range(draw(st.integers(1, 3))):
            kind = draw(st.sampled_from(["loop", "range", "repeat", "length"]))
            u = draw(st.integers(0, n - 1))
            if kind == "loop":
                bad = (u, u, 1.0)
            elif kind == "range":
                bad = (u, draw(st.sampled_from([-1, n, n + 3, 10**20])), 1.0)
                if draw(st.booleans()):
                    bad = (bad[1], bad[0], 1.0)
            elif kind == "repeat" and edges:
                a, b, _ = draw(st.sampled_from(edges))
                bad = (b, a, 2.0) if draw(st.booleans()) else (a, b, 1.0)
            else:
                v = draw(st.integers(0, n - 1))
                bad = (u, v, draw(st.sampled_from(BAD_LENGTHS)))
            edges.insert(draw(st.integers(0, len(edges))), bad)
    return n, edges


@settings(max_examples=150)
@given(case=edge_lists(faults=False))
def test_valid_edge_lists_match_the_loop(case):
    assert_same_graph(*case)


@settings(max_examples=300)
@given(case=edge_lists(faults=True))
def test_bad_edge_lists_raise_the_loop_message(case):
    assert_same_graph(*case)


@pytest.mark.parametrize(
    "edges",
    [
        [(0, 1, 1.0), (1, 1, 0.0)],  # self-loop before its bad length
        [(0, 1, 1.0), (2, 5, -1.0)],  # range before length
        [(0, 1, 1.0), (1, 0, math.nan)],  # repeat before length
        [(2, 1, 1.0), (1, 2, 1.0), (0, 0, 1.0)],  # the first bad edge wins
        [(0, 1, 0.0), (0, 1, 1.0)],  # a bad first edge hides the repeat
        [(0.0, 2.0, 1.0), (1.7, 2, 1.0)],  # fractional ids truncate, as int does
        [(1, 0, 1.0), (-0.5, 1, 1.0)],  # and -0.5 truncates to vertex 0
        [(0, 3, math.inf)],
        [],
    ],
)
def test_mixed_faults(edges):
    assert_same_graph(3, edges)


def test_ids_far_outside_the_graph_find_no_edge():
    """A pair's key ``lo * n + hi`` can match a real edge's key, or wrap past
    int64, for ids outside the graph; those pairs still find nothing."""
    g = WeightedGraph(3, [(1, 2, 1.0)])
    assert g.edge_rows(1, 2) == 0
    assert g.edge_rows(0, 5) == -1  # key 5 is edge (1, 2)'s
    assert g.edge_rows(2, -1) == -1 and g.edge_rows(-4, -2) == -1
    huge = np.iinfo(np.intp).max
    assert g.edge_rows(np.array([huge, 1, huge // 2]), np.array([huge - 1, 2, 3])).tolist() == [-1, 0, -1]
    assert WeightedGraph(4, []).edge_rows(np.zeros((2, 3), dtype=int), 1).tolist() == [[-1] * 3] * 2


def test_edge_rows_must_be_triples():
    with pytest.raises(ValueError, match="triples"):
        WeightedGraph(3, [(0, 1), (1, 2)])
    with pytest.raises(ValueError):
        WeightedGraph(0, [])


def test_arrays_are_sorted_and_read_only():
    g = WeightedGraph(4, [(3, 1, 2.0), (0, 2, 1.0), (1, 0, 0.5)])
    assert g.u.tolist() == [0, 0, 1] and g.v.tolist() == [1, 2, 3]
    assert g.w.tolist() == [0.5, 1.0, 2.0]
    for column in (g.u, g.v, g.w):
        with pytest.raises(ValueError):
            column[0] = 1


@st.composite
def connected_graphs(draw):
    """A random spanning tree plus extra edges, lengths from ``LENGTHS``."""
    n = draw(st.integers(1, 14))
    edges = {}
    for v in range(1, n):
        edges[(draw(st.integers(0, v - 1)), v)] = draw(st.sampled_from(LENGTHS))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    for u, v in draw(st.lists(st.sampled_from(pairs), max_size=20)) if pairs else []:
        edges[(u, v)] = draw(st.sampled_from(LENGTHS))
    return n, [(u, v, w) for (u, v), w in edges.items()]


def assert_same_apsp(g: WeightedGraph):
    want = scalar_apsp(g.n_vertices, g.edges)
    assert shortest_path_metric(g).dist.tobytes() == want.tobytes()


@settings(max_examples=150)
@given(case=connected_graphs())
def test_apsp_matches_undirected_dijkstra_bit_for_bit(case):
    assert_same_apsp(WeightedGraph(*case))


@pytest.mark.parametrize(
    "build",
    [
        lambda: build_spanner(random_euclidean(120, 2, 1), 0.25).graph,
        lambda: build_spanner(random_euclidean(60, 3, 2), 0.125).graph,
        lambda: build_spanner(lcp_metric(5), 2.0**-6).graph,
        lambda: random_tree(300, 3),
        lambda: complete_tree(exponential_star(16), 2.0**-14).output,
        lambda: complete_tree(random_tree(20, 1), 0.25).output,
    ],
    ids=["planar", "spatial", "lcp5", "tree", "star16", "tree-completion"],
)
def test_apsp_matches_on_built_graphs(build):
    g = build()
    assert_same_apsp(g)
    want = scalar_weighted_graph(g.n_vertices, g.edges)
    assert g.degrees() == want.degrees and csr_lists(g) == want.adjacency
    rows = g.edge_rows(g.v, g.u)  # every edge, reversed
    assert rows.tolist() == list(range(g.w.size))


@st.composite
def any_graphs(draw):
    """Any edge set on up to 20 vertices: edgeless, with isolated vertices,
    disconnected or dense."""
    n = draw(st.integers(1, 20))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    chosen = draw(st.sets(st.sampled_from(pairs), max_size=len(pairs))) if pairs else set()
    return n, [(u, v, draw(st.sampled_from(LENGTHS))) for u, v in sorted(chosen)]


def assert_same_csr(g: WeightedGraph):
    want, got = lexsort_csr(g), g.csr
    for name in ("indptr", "indices", "data"):
        a, b = getattr(want, name), getattr(got, name)
        assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), name
    assert got.shape == want.shape and got.has_sorted_indices


@settings(max_examples=150)
@given(case=any_graphs())
def test_csr_matches_the_lexsort_construction(case):
    assert_same_csr(WeightedGraph(*case))


@pytest.mark.parametrize(
    "n,edges",
    [(1, []), (5, []), (6, [(1, 4, 2.0)]), (7, [(0, 6, 1.0), (2, 3, 0.5), (3, 5, 0.1)])],
    ids=["single vertex", "edgeless", "one edge, four isolated", "isolated 1 and 4"],
)
def test_csr_of_edgeless_graphs_and_isolated_vertices(n, edges):
    assert_same_csr(WeightedGraph(n, edges))


def test_csr_is_built_without_sorting_copies():
    """The CSR keeps 24 bytes per edge (two int32 indices, two lengths);
    writing each entry into its slot peaks below 64 bytes per edge, where
    two concatenated index columns and a lexsort peaked near 90."""
    n, m = 700, 80_000
    rng = np.random.default_rng(5)
    iu, iv = np.triu_indices(n, k=1)
    pick = rng.choice(iu.size, size=m, replace=False)
    g = WeightedGraph(n, np.stack([iu[pick], iv[pick], 1.0 + rng.random(m)], axis=1))
    tracemalloc.start()
    try:
        csr = g.csr
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64 * m
    assert_same_csr(g)
    assert csr.nnz == 2 * m


def eager_records(directed, m, eps):
    """The records as the donation used to build them, one object per edge."""
    rows = scalar_donation(directed.tolist(), m.dist, donation_threshold(eps))
    return tuple(SpannerEdge(u, v, w, level, donor) for u, v, w, level, donor in rows)


@settings(max_examples=30)
@given(seed=st.integers(0, 10_000), n=st.integers(1, 40), eps=st.sampled_from([0.25, 0.125]))
def test_records_built_on_first_read_match_the_eager_ones(seed, n, eps):
    m = random_euclidean(n, 2, seed)
    t = build_net_tree(m, eps)
    directed = assign_directions(build_base_edge_sets(m, t, eps), t)
    s = donate_edges(directed, m, eps, net_tree=t)
    assert "edges" not in vars(s)  # nothing built until read
    assert s.edges == eager_records(directed, m, eps)
    assert s.edges is s.edges
    assert s.graph.edges == tuple((*r.pair, r.length) for r in s.edges)


def test_donated_records_match_the_eager_ones():
    m = shortest_path_metric(exponential_star(24))
    t = build_net_tree(m, 0.25)
    directed = assign_directions(build_base_edge_sets(m, t, 0.25), t)
    s = donate_edges(directed, m, 0.25, net_tree=t)
    assert s.edges == eager_records(directed, m, 0.25)
    assert any(r.donor is not None for r in s.edges)


def test_package_code_reads_columns_not_the_tuple_view(tmp_path):
    """Saving, sampling, auditing and walking read the ``u``/``v``/``w``
    columns: on fresh graphs, none of these builds ``edges`` (nor a
    spanner's records)."""
    g = random_tree(12, 3)
    save_graph(g, str(tmp_path / "tree.graph"))
    s = build_spanner(random_euclidean(12, 2, 1), 0.25)
    save_spanner(s, str(tmp_path / "run.spanner"))
    c = complete_tree(g, 0.25)
    save_completion(c, str(tmp_path / "run.completion"))
    h = random_tree(8, 1)
    sample_metric(h, 2)
    u, r, _ = long_edge_audit(h).witness
    long_edge_packing_witness(h, u, r)
    conv_geodesic_point(h, ConvPoint.at_vertex(0), ConvPoint.on_edge(int(h.u[-1]), int(h.v[-1]), 0.5), 2.0)
    for graph in (g, s.graph, c.output, h):
        assert "edges" not in vars(graph)
    assert "edges" not in vars(s)
