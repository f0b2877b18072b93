"""The array-based construction layers against their scalar references.

``build_net_tree`` keeps per-level label and parent arrays,
``build_base_edge_sets`` places each pair with one mask per level, and
``donate_edges`` groups and merges the in-edges with ``lexsort``; ``oracles``
keeps the per-node tree, the ``seen``-set candidates and the dict-based
donation. Every layer must match exactly: nets, parents, istar, every level
ancestor, edge sets, directed rows, spanner records and graph edges. The
net-tree copies the levels below its closest pair, so it is also checked at
the certificates' smallest eps, where most levels are copied.

The closure distances of the certificates go through a point-to-exit table;
``oracles.scalar_conv_distance`` sums the four exit pairs of each pair, and
the two must agree on points that share an edge and on exit sums that
overflow to inf.
"""

import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from doubling import (
    FiniteMetric,
    WeightedGraph,
    exponential_star,
    lcp_metric,
    random_euclidean,
    shortest_path_metric,
)
from doubling import closure, net_tree
from doubling.closure import ConvPoint, point_distances
from doubling.net_tree import NetTree, build_net_tree, tau_for
from doubling.spanner import (
    assign_directions,
    build_base_edge_sets,
    cover_constant,
    donate_edges,
    donation_threshold,
)
from oracles import (
    net_ancestor,
    scalar_base_edge_sets,
    scalar_conv_distance,
    scalar_directions,
    scalar_donation,
    scalar_istar,
    scalar_level_ancestor,
    scalar_net_tree,
)

EPSILONS = (1.0 / 4.0, 1.0 / 8.0, 1.0 / 32.0)


def integer_grid(seed: int, n: int, dim: int) -> FiniteMetric:
    """Distinct points of a 5^dim grid under the L1 norm: many equal distances."""
    rng = np.random.default_rng(seed)
    cells = rng.choice(5**dim, size=n, replace=False)
    pts = np.stack([(cells // 5**k) % 5 for k in range(dim)], axis=1).astype(float)
    return FiniteMetric(np.abs(pts[:, None, :] - pts[None, :, :]).sum(axis=2))


def comb() -> FiniteMetric:
    """Point j > 0 at C * 2^j: vertex 0 gets one in-edge group per level."""
    pos = [0.0] + [cover_constant(0.25) * 2.0**j for j in range(1, 17)]
    return FiniteMetric(np.abs(np.subtract.outer(pos, pos)), validate=False)


def as_tuples(rows: np.ndarray) -> list[tuple[int, ...]]:
    return [tuple(row) for row in rows.tolist()]


def assert_net_tree_matches(m: FiniteMetric, eps: float) -> tuple[NetTree, list]:
    """Check the net-tree against its oracle; returns it and the oracle's levels."""
    t = build_net_tree(m, eps)
    scale, levels = scalar_net_tree(m, eps)
    assert t.scale == scale
    assert [net.tolist() for net in t.nets] == [[label for label, _ in level] for level in levels]
    assert [up.tolist() for up in t.parents] == [
        [-1 if parent is None else parent for _, parent in level] for level in levels
    ]
    istar_of = scalar_istar(levels)
    assert t.istar.tolist() == [istar_of[v] for v in range(m.n)]
    for v in range(m.n):
        for i in range(t.top_level + 1):
            assert net_ancestor(t, v, i) == scalar_level_ancestor(levels, v, i)
    return t, levels


def assert_matches_oracles(m: FiniteMetric, eps: float) -> int:
    """Check every layer against its oracle; returns the donated record count."""
    t, levels = assert_net_tree_matches(m, eps)
    istar_of = scalar_istar(levels)
    sets = build_base_edge_sets(m, t, eps)
    pairs = [as_tuples(level) for level in sets]
    assert pairs == scalar_base_edge_sets(t.scaled_dist, levels, cover_constant(eps))
    directed = assign_directions(sets, t)
    assert as_tuples(directed) == scalar_directions(pairs, istar_of)

    s = donate_edges(directed, m, eps, net_tree=t)
    expected = scalar_donation(as_tuples(directed), m.dist, donation_threshold(eps))
    assert [(r.u, r.v, r.length, r.level, r.donor) for r in s.edges] == expected
    assert list(s.graph.edges) == [(min(u, v), max(u, v), w) for u, v, w, _, _ in expected]
    assert all(r.kind_v == ("B" if r.donor is None else "C") for r in s.edges)
    return sum(r.donor is not None for r in s.edges)


eps_st = st.sampled_from(EPSILONS)


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 10_000), n=st.integers(1, 40), dim=st.sampled_from([2, 3]), eps=eps_st)
def test_random_euclidean(seed, n, dim, eps):
    assert_matches_oracles(random_euclidean(n, dim, seed), eps)


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 10_000), n=st.integers(2, 40), dim=st.sampled_from([2, 3]), eps=eps_st)
def test_tie_heavy_integer_grid(seed, n, dim, eps):
    assert_matches_oracles(integer_grid(seed, min(n, 5**dim), dim), eps)


@settings(max_examples=20, deadline=None)
@given(leaves=st.integers(12, 32), eps=eps_st)
def test_exponential_star(leaves, eps):
    donated = assert_matches_oracles(shortest_path_metric(exponential_star(leaves)), eps)
    if eps == 0.25 and leaves > donation_threshold(eps):
        assert donated > 0  # the donation path is exercised


def two_armed_comb() -> FiniteMetric:
    """Points at 0.75 * C * 2^j on both axes, j = 1..17: vertex 0 gets two
    tails per in-edge group, and more groups than the threshold keeps."""
    arm = 0.75 * cover_constant(0.25) * 2.0 ** np.arange(1, 18)
    zero = np.zeros_like(arm)
    pts = np.concatenate([[[0.0, 0.0]], np.stack([arm, zero], 1), np.stack([zero, arm], 1)])
    return FiniteMetric(np.sqrt(((pts[:, None, :] - pts[None, :, :]) ** 2).sum(axis=2)))


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 10_000))
def test_donation_ignores_the_input_order(seed):
    """Groups and the tails inside them are ordered by the pass, not its input."""
    m = two_armed_comb()
    t = build_net_tree(m, 0.25)
    directed = assign_directions(build_base_edge_sets(m, t, 0.25), t)
    shuffled = directed[np.random.default_rng(seed).permutation(len(directed))]
    s = donate_edges(shuffled, m, 0.25)
    expected = scalar_donation(as_tuples(directed), m.dist, donation_threshold(0.25))
    assert [(r.u, r.v, r.length, r.level, r.donor) for r in s.edges] == expected
    assert sum(r.donor is not None for r in s.edges) > 2


@pytest.mark.parametrize(
    "m,donates",
    [(random_euclidean(400, 2, 1), False), (shortest_path_metric(exponential_star(40)), True)],
    ids=["planar 400", "star 40"],
)
def test_donation_columns_at_benchmark_size(m, donates):
    """At the benchmark's n = 400 (72k candidate rows), and on a star whose
    hub donates, the records and graph rows equal the dict-based pass, and
    every column keeps its dtype: intp ids, float64 lengths, int32 levels
    and donors."""
    t = build_net_tree(m, 0.25)
    directed = assign_directions(build_base_edge_sets(m, t, 0.25), t)
    s = donate_edges(directed, m, 0.25, net_tree=t)
    expected = scalar_donation(as_tuples(directed), m.dist, donation_threshold(0.25))
    u, v, length, level, donor = (list(column) for column in zip(*expected))
    donor = [-1 if x is None else x for x in donor]
    assert (max(donor) >= 0) == donates
    assert [column.tolist() for column in s.records] == [u, v, length, level, donor]
    assert [column.dtype for column in s.records] == [np.intp, np.intp, np.float64, np.int32, np.int32]
    assert s.graph.u.tolist() == np.minimum(u, v).tolist()
    assert s.graph.v.tolist() == np.maximum(u, v).tolist()
    assert s.graph.w.tolist() == length
    assert [s.graph.u.dtype, s.graph.v.dtype, s.graph.w.dtype] == [np.intp, np.intp, np.float64]


def test_raw_spanner_holds_48_bytes_per_edge():
    """The raw spanner keeps intp tails and heads, float64 lengths (shared
    with its graph), int32 levels and donors, and its graph's intp rows:
    48 bytes per raw edge. With intp levels and donors it held 56, 4.29 MB
    for the 76,574 raw edges of the benchmark's n = 400."""
    m = random_euclidean(400, 2, 1)
    t = build_net_tree(m, 0.25)
    directed = assign_directions(build_base_edge_sets(m, t, 0.25), t)
    tracemalloc.start()
    try:
        s = donate_edges(directed, m, 0.25, net_tree=t)
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert s.graph.w.size == 76_574
    assert held < 50 * s.graph.w.size
    assert [s.graph.u.dtype, s.graph.v.dtype, s.graph.w.dtype] == [np.intp, np.intp, np.float64]


@pytest.mark.parametrize("eps", EPSILONS)
def test_geometric_progression_comb(eps):
    donated = assert_matches_oracles(comb(), eps)
    assert donated == (2 if eps == 0.25 else 0)


@pytest.mark.parametrize("eps", EPSILONS)
@pytest.mark.parametrize("p", range(1, 6))
def test_prefix_metric(p, eps):
    assert_matches_oracles(lcp_metric(p), eps)


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 10_000), n=st.integers(1, 40), dim=st.sampled_from([2, 3]), eps=eps_st)
def test_each_level_is_strictly_ascending(seed, n, dim, eps):
    """``assign_directions`` keeps its input order, so each level must already
    hold its pairs ``a < b`` in strictly ascending order."""
    for m in (random_euclidean(n, dim, seed), integer_grid(seed, min(n, 5**dim), dim)):
        for pairs in build_base_edge_sets(m, build_net_tree(m, eps), eps):
            assert pairs.ndim == 2 and pairs.shape[1] == 2
            assert np.all(pairs[:, 0] < pairs[:, 1])
            rows = as_tuples(pairs)
            assert all(x < y for x, y in zip(rows, rows[1:]))


@pytest.mark.parametrize(
    "m", [lcp_metric(4), random_euclidean(60, 2, 3), shortest_path_metric(exponential_star(24))]
)
def test_candidate_count_is_the_pair_and_row_count(m):
    """The benchmark traces ``sum(map(len, sets))`` as its candidate edge
    count: it must be the number of candidate pairs and of directed rows."""
    t = build_net_tree(m, 0.25)
    sets = build_base_edge_sets(m, t, 0.25)
    levels = scalar_net_tree(m, 0.25)[1]
    pairs = scalar_base_edge_sets(t.scaled_dist, levels, cover_constant(0.25))
    count = sum(map(len, sets))
    assert count == sum(map(len, pairs))
    assert assign_directions(sets, t).shape == (count, 3)


@pytest.mark.parametrize("k", range(2, 18))
def test_net_tree_of_the_certified_star(k):
    """The 16-leaf star at every eps of the star certificates, 2^-2 to
    2^-17: from 7 to 22 levels lie below its closest pair."""
    assert_net_tree_matches(shortest_path_metric(exponential_star(16)), 2.0**-k)


@pytest.mark.parametrize("p", [5, 6])
def test_net_tree_of_the_certified_prefix_metric(p):
    assert_net_tree_matches(lcp_metric(p), 2.0 ** -(p + 1))


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 10_000), n=st.integers(6, 25), eps=eps_st)
def test_grid_pairs_at_the_floor_merge_on_the_first_searched_level(seed, n, eps):
    """On an integer grid with a pair at distance 1 the closest scaled pair
    is exactly 2**tau: levels below tau are copied without a greedy net,
    and level tau, whose radius ties that pair, is searched and merges it."""
    m = integer_grid(seed, n, 2)
    assume(m.min_distance() == 1.0)
    calls = []
    greedy = net_tree.greedy_net
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(net_tree, "greedy_net", lambda *a, **k: calls.append(a[1]) or greedy(*a, **k))
        t, _ = assert_net_tree_matches(m, eps)
    tau = tau_for(eps)
    assert t.scale * m.min_distance() == 2.0**tau
    assert [net.size for net in t.nets[:tau]] == [m.n] * tau
    assert t.nets[tau].size < m.n
    assert calls == [2.0**i for i in range(tau, t.top_level + 1)]


def assert_point_distances_match(g: WeightedGraph, pts: list[ConvPoint]) -> None:
    want = np.array([[scalar_conv_distance(g, p, q) for q in pts] for p in pts])
    for budget in (1, 7, closure._BLOCK_ENTRIES):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(closure, "_BLOCK_ENTRIES", budget)
            assert point_distances(g, pts, pts).tobytes() == want.tobytes(), budget


def test_point_distances_on_one_edge():
    """Points on the long edge of a triangle: near pairs go straight along
    it, far pairs around through vertex 2."""
    g = WeightedGraph(3, [(0, 1, 10.0), (0, 2, 1.0), (1, 2, 1.0)])
    pts = [ConvPoint.on_edge(0, 1, x) for x in (0.1, 0.3, 3.3, 5.0, 9.7, 9.9)]
    pts += [ConvPoint.on_edge(0, 2, 0.7), ConvPoint.at_vertex(2)]
    assert_point_distances_match(g, pts)


def test_point_distances_with_exit_sums_past_the_float_range():
    """Exits 1e308 apart: some exit sums overflow to inf and the minimum
    drops them; the distances match the pair loop and raise no warning."""
    g = WeightedGraph(3, [(0, 1, 1e308), (1, 2, 1e307)])
    assert 0.95e308 + 1e308 == np.inf
    pts = [ConvPoint.on_edge(0, 1, x) for x in (0.05e308, 0.5e308, 0.95e308)]
    pts += [ConvPoint.on_edge(1, 2, 0.5e307)] + [ConvPoint.at_vertex(v) for v in range(3)]
    assert_point_distances_match(g, pts)
