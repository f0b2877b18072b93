"""The path-greedy pruning stage against its scalar reference.

``prune_edges`` tests sorted pairs in blocks, keeps forced pairs without
reading its distance matrix, and lowers only the entries a new edge can
improve; ``oracles.scalar_path_greedy`` visits one pair at a time and lowers
the whole matrix after every kept edge. The kept edge sets must be equal.
The pruned spanner must also keep to the raw spanner: its edges and records
are raw ones, its degree is at most the raw degree, and its stretch stays
within 1+eps.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import dijkstra

from doubling import (
    FiniteMetric,
    VerificationError,
    WeightedGraph,
    build_spanner,
    exponential_star,
    lcp_metric,
    long_edge_audit,
    random_euclidean,
    shortest_path_metric,
    spanner,
    verify_stretch,
)
from doubling.net_tree import build_net_tree
from doubling.spanner import (
    Spanner,
    SpannerRecords,
    assign_directions,
    build_base_edge_sets,
    donate_edges,
    prune_edges,
)
from oracles import scalar_path_greedy
from test_construction_equivalence import comb, integer_grid

EPSILONS = (1.0 / 4.0, 1.0 / 8.0, 1.0 / 32.0)
eps_st = st.sampled_from(EPSILONS)


def raw_spanner(m: FiniteMetric, eps: float) -> Spanner:
    """The donated spanner, before pruning."""
    t = build_net_tree(m, eps)
    return donate_edges(assign_directions(build_base_edge_sets(m, t, eps), t), m, eps, net_tree=t)


def kept_pairs(s: Spanner) -> list[tuple[int, int]]:
    return list(zip(s.graph.u.tolist(), s.graph.v.tolist()))


def assert_prunes_like_the_loop(m: FiniteMetric, eps: float) -> Spanner:
    """Kept edges equal the scalar greedy's, and the pruned spanner keeps to
    the raw one: raw edges and records only, no higher degree, and its
    stretch within 1+eps. Returns the pruned spanner."""
    raw = raw_spanner(m, eps)
    s = prune_edges(raw, m)
    assert kept_pairs(s) == scalar_path_greedy(raw, m)

    assert set(s.graph.edges) <= set(raw.graph.edges)
    raw_records = {(r.u, r.v, r.length, r.level, r.donor) for r in raw.edges}
    assert {(r.u, r.v, r.length, r.level, r.donor) for r in s.edges} <= raw_records
    assert [r.pair for r in s.edges] == kept_pairs(s)
    assert s.max_degree == max(s.graph.degrees(), default=0)
    assert s.max_degree <= s.raw_max_degree == raw.max_degree
    assert s.raw_n_edges == raw.graph.w.size
    if m.n > 1:
        assert verify_stretch(m, shortest_path_metric(s.graph), eps).passed
    return s


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 10_000), n=st.integers(1, 40), dim=st.sampled_from([2, 3]), eps=eps_st)
def test_random_euclidean(seed, n, dim, eps):
    assert_prunes_like_the_loop(random_euclidean(n, dim, seed), eps)


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 10_000), n=st.integers(2, 40), dim=st.sampled_from([2, 3]), eps=eps_st)
def test_tie_heavy_integer_grid(seed, n, dim, eps):
    assert_prunes_like_the_loop(integer_grid(seed, min(n, 5**dim), dim), eps)


@pytest.mark.parametrize("eps", EPSILONS)
@pytest.mark.parametrize("p", range(1, 6))
def test_prefix_metric(p, eps):
    assert_prunes_like_the_loop(lcp_metric(p), eps)


@pytest.mark.parametrize("p", range(1, 6))
def test_prefix_metric_at_certificate_eps_keeps_every_edge(p):
    """At eps = 2^-(p+1) every lcp pair is forced, so nothing is pruned and
    the raw spanner itself comes back."""
    m, eps = lcp_metric(p), 2.0 ** -(p + 1)
    raw = raw_spanner(m, eps)
    assert prune_edges(raw, m) is raw


@settings(max_examples=20, deadline=None)
@given(leaves=st.integers(12, 40), eps=eps_st)
def test_exponential_star(leaves, eps):
    assert_prunes_like_the_loop(shortest_path_metric(exponential_star(leaves)), eps)


@pytest.mark.parametrize("eps", EPSILONS)
def test_geometric_progression_comb(eps):
    assert_prunes_like_the_loop(comb(), eps)


def test_hits_served_by_a_raw_path_walk_it(monkeypatch):
    """On this input four hits lack their own raw edge and get the missing
    edges of their Dijkstra walk in the raw spanner, looked up by row."""
    sources = []

    def counted(*args, **kwargs):
        sources.append(kwargs["indices"])
        return dijkstra(*args, **kwargs)

    monkeypatch.setattr(spanner, "_dijkstra", counted)
    assert_prunes_like_the_loop(random_euclidean(40, 2, 4), 0.25)
    assert len(sources) == 4


def test_star_center_keeps_the_donation_bound():
    """Greedy over all pairs would keep every centre edge of the star (each
    comes before the leaf pairs that could route around it); restricted to
    the raw edges, the centre keeps the donation threshold."""
    m = shortest_path_metric(exponential_star(32))
    s = assert_prunes_like_the_loop(m, 0.25)
    assert s.max_degree == 14


def test_a_pair_without_a_raw_path_is_named():
    """A raw edge set that cannot serve some pair within its stretch fails
    with the pair named, never with a spanner that breaks its bound. Here
    (0, 2) at 1.7 routes through 1 at 2 <= 1.25 * 1.7, so it is not forced,
    but its only raw route 0-1-3-2 has length 2.2."""
    m = FiniteMetric(
        [[0.0, 1.0, 1.7, 1.5], [1.0, 0.0, 1.0, 0.6], [1.7, 1.0, 0.0, 0.6], [1.5, 0.6, 0.6, 0.0]]
    )
    graph = WeightedGraph(4, [(0, 1, 1.0), (1, 3, 0.6), (2, 3, 0.6)])
    records = SpannerRecords(
        graph.u, graph.v, graph.w, np.ones(3, dtype=np.int64), np.full(3, -1, dtype=np.intp)
    )
    # the bound is (1 + eps) * 1.7 = 2.125, widened by REL_TOL
    with pytest.raises(VerificationError, match=r"no path from 0 to 2 within 2\.125000002125$"):
        prune_edges(Spanner(graph, records, 0.25, None, 2), m)


def test_a_walk_keeps_an_edge_its_own_pair_did_not_need():
    """(1, 2) at 0.530 is served through 5 (0.650 <= 1.25 * 0.530), so it is
    not kept for itself. (2, 3) at 0.635 has no raw edge and no kept route
    within 1.25 * 0.635; its raw walk 2-1-3 (0.787) keeps (1, 2) after all,
    and the stretch holds only with it."""
    pts = np.array([[0.265, 0.186], [0.726, 0.665], [0.198, 0.62], [0.8, 0.419], [0.91, 0.183], [0.543, 0.83]])
    m = FiniteMetric(np.sqrt(((pts[:, None] - pts[None]) ** 2).sum(-1)))
    pairs = [(0, 1), (0, 2), (0, 3), (0, 4), (1, 2), (1, 3), (1, 5), (2, 4), (2, 5), (3, 4)]
    graph = WeightedGraph(6, [(a, b, m.dist[a, b]) for a, b in pairs])
    records = SpannerRecords(
        graph.u, graph.v, graph.w, np.ones(10, dtype=np.int64), np.full(10, -1, dtype=np.intp)
    )
    raw = Spanner(graph, records, 0.25, None, max(graph.degrees()))
    s = prune_edges(raw, m)
    assert kept_pairs(s) == scalar_path_greedy(raw, m)
    assert (1, 2) in kept_pairs(s)
    assert verify_stretch(m, shortest_path_metric(s.graph), 0.25).passed


def test_a_forced_pair_without_its_edge_is_named():
    """(0, 2) at 1.5 has no third point within 1.25 * 1.5 of both ends, so
    only its own edge can serve it."""
    m = FiniteMetric([[0.0, 1.0, 1.5], [1.0, 0.0, 1.0], [1.5, 1.0, 0.0]])
    graph = WeightedGraph(3, [(0, 1, 1.0), (1, 2, 1.0)])
    records = SpannerRecords(
        graph.u, graph.v, graph.w, np.ones(2, dtype=np.int64), np.full(2, -1, dtype=np.intp)
    )
    with pytest.raises(VerificationError, match="no path from 0 to 2: the pair needs its own edge"):
        prune_edges(Spanner(graph, records, 0.25, None, 2), m)


def test_audit_recount_from_the_witness_vertex():
    """On this n = 400 spanner the symmetrised all-pairs matrix puts some
    distances from the witness vertex one ulp below single-source Dijkstra
    from it, on a radius the audit reads off a vertex distance. A recount by
    single-source Dijkstra must find exactly the witness edges."""
    s = build_spanner(random_euclidean(400, 2, 21029), 0.25)
    audit = long_edge_audit(s.graph)
    u, r, witness = audit.witness
    g = s.graph
    csr = csr_matrix(
        (np.concatenate([g.w, g.w]), (np.concatenate([g.u, g.v]), np.concatenate([g.v, g.u]))),
        shape=(g.n_vertices, g.n_vertices),
    )
    row = dijkstra(csr, directed=False, indices=u)
    counted = [(a, b) for a, b, w in g.edges if min(row[a], row[b]) <= r and w > r]
    assert len(counted) == audit.max_count
    assert tuple(counted) == witness
