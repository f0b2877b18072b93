"""The blocked closure-distance primitive against its scalar reference.

``closure.point_distances`` evaluates the four-exit formula for whole point
sets in row blocks; ``oracles.scalar_conv_distance`` keeps the one-pair
loop. Every entry must match exactly, at any block budget, and so must
everything built on top: ``sample_metric``, both certificates, the
long-edge packing witness and the prefix metric.
"""

import functools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from doubling import (
    VerificationError,
    WeightedGraph,
    build_spanner,
    complete_tree,
    crossing_midpoint_packing,
    exponential_star,
    lcp_crossing_check,
    lcp_metric,
    long_edge_audit,
    random_tree,
    star_lb_certificate,
)
from doubling import closure
from doubling.closure import (
    ConvPoint,
    conv_distance,
    long_edge_packing_witness,
    pairwise_window,
    point_distances,
    sample_metric,
    sample_points,
)
from oracles import (
    bit_length_lcp_matrix,
    scalar_conv_distance,
    scalar_crossing_midpoint_packing,
    scalar_lcp_crossing_check,
    scalar_packing_witness,
    scalar_pair_window,
)

# one row per block, a few rows per block, the module default
BUDGETS = (1, 40, closure._BLOCK_ENTRIES)


@functools.lru_cache(maxsize=None)
def lcp_spanner(p: int) -> WeightedGraph:
    return build_spanner(lcp_metric(p), 2.0 ** -(p + 1)).graph


FAMILIES = {
    "random-tree": lambda k: random_tree(1 + k % 12, k),
    "exponential-star": lambda k: exponential_star(1 + k % 8),
    "lcp-spanner": lambda k: lcp_spanner(2 + k % 2),
}


@st.composite
def point_sets(draw, g: WeightedGraph):
    """Vertices and edge points, crowded onto a few edges so that many
    pairs share one, at repeated and distinct offsets."""
    edges = draw(st.lists(st.sampled_from(g.edges), min_size=1, max_size=3)) if g.edges else ()
    fractions = st.one_of(st.sampled_from([0.125, 0.25, 0.5, 0.75]), st.floats(0.001, 0.999))
    one = st.integers(0, g.n_vertices - 1).map(ConvPoint.at_vertex)
    if edges:
        on_edge = st.tuples(st.sampled_from(edges), fractions).map(
            lambda e: ConvPoint.on_edge(e[0][0], e[0][1], e[1] * e[0][2])
        )
        one = st.one_of(one, on_edge)
    return draw(st.lists(one, max_size=14))


def scalar_matrix(g, P, Q) -> np.ndarray:
    return np.array([[scalar_conv_distance(g, p, q) for q in Q] for p in P]).reshape(len(P), len(Q))


@pytest.mark.parametrize("family", sorted(FAMILIES))
@settings(max_examples=25, deadline=None)
@given(data=st.data(), k=st.integers(0, 1000))
def test_point_distances_match_the_scalar_loop(family, data, k):
    g = FAMILIES[family](k)
    P = data.draw(point_sets(g), label="P")
    Q = data.draw(point_sets(g), label="Q")
    for budget in BUDGETS:
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(closure, "_BLOCK_ENTRIES", budget)
            PQ = point_distances(g, P, Q)
            PP = point_distances(g, P, P)
            window = pairwise_window(g, P)
        assert np.array_equal(PQ, scalar_matrix(g, P, Q)), budget
        assert np.array_equal(PP, scalar_matrix(g, P, P)), budget
        assert window == scalar_pair_window(g, P), budget


def test_conv_distance_is_one_entry():
    g = WeightedGraph(3, [(0, 1, 10.0), (0, 2, 1.0), (1, 2, 1.0)])
    pts = [ConvPoint.at_vertex(2), ConvPoint.on_edge(0, 1, 0.1), ConvPoint.on_edge(0, 1, 9.9)]
    for p in pts:
        for q in pts:
            assert conv_distance(g, p, q) == scalar_conv_distance(g, p, q)


@pytest.mark.parametrize("budget", BUDGETS)
@pytest.mark.parametrize("seed,s", [(1, 1), (2, 2), (3, 3)])
def test_sample_metric_is_the_symmetrised_scalar_matrix(monkeypatch, budget, seed, s):
    """Both orders of a pair are in the sample, so the symmetrised matrix
    hides the order of the sum; the unsymmetrised one must match too."""
    g = random_tree(9, seed)
    pts = sample_points(g, s)
    monkeypatch.setattr(closure, "_BLOCK_ENTRIES", budget)
    want = scalar_matrix(g, pts, pts)
    assert np.array_equal(point_distances(g, pts, pts), want)
    want = np.minimum(want, want.T)
    np.fill_diagonal(want, 0.0)
    assert np.array_equal(sample_metric(g, s).dist, want)


def without_crossings(p: int, keep_every: int) -> WeightedGraph:
    """The lcp spanner with all but every ``keep_every``-th crossing edge
    removed: fewer midpoints, and a wider window between the survivors."""
    g, half = lcp_spanner(p), 1 << (p - 1)
    crossing = [e for e in g.edges if e[0] < half <= e[1]]
    keep = set(crossing[::keep_every])
    kept = [e for e in g.edges if e[0] >= half or e[1] < half or e in keep]
    return WeightedGraph(g.n_vertices, kept)


@pytest.mark.parametrize("budget", BUDGETS)
@pytest.mark.parametrize("p", [2, 3, 4, 5])
def test_crossing_midpoint_packing_matches_the_loop(monkeypatch, budget, p):
    monkeypatch.setattr(closure, "_BLOCK_ENTRIES", budget)
    graphs = [lcp_spanner(p)] + [without_crossings(p, k) for k in (2, 5) if p > 2]
    for g in graphs:
        assert crossing_midpoint_packing(g, p) == scalar_crossing_midpoint_packing(g, p)
        assert lcp_crossing_check(g, p) == scalar_lcp_crossing_check(g, p)


@pytest.mark.parametrize("shortfall,ok", [(1e-9, True), (3e-9, False)])
def test_crossing_window_tolerance_is_relative(shortfall, ok):
    """Two crossing edges into vertex 3 fall short of 4 by ``shortfall``:
    the window is [4 - 2 shortfall, 8 - 2 shortfall], which misses both
    bounds by 2 shortfall. ``REL_TOL`` of the floor 4 allows 4e-9, an
    absolute 1e-9 would not."""
    short = 4.0 - shortfall
    g = WeightedGraph(4, [(0, 2, 4.0), (1, 2, 4.0), (0, 3, short), (1, 3, short)])
    cert = crossing_midpoint_packing(g, 2)
    assert cert.min_pairwise == pytest.approx(4.0 - 2 * shortfall, abs=1e-15)
    assert cert.max_pairwise == pytest.approx(8.0 - 2 * shortfall, abs=1e-15)
    assert cert.ok is ok


def outcome(build):
    try:
        return build()
    except VerificationError as exc:
        return str(exc)


@pytest.mark.parametrize("budget", BUDGETS)
@pytest.mark.parametrize("tol", [1e-9, -0.2, -0.45, -1.0])
@pytest.mark.parametrize("name,g", [("tree", random_tree(10, 24)), ("star", exponential_star(7))])
def test_packing_witness_matches_the_loop(monkeypatch, budget, tol, name, g):
    """Negative tolerances tighten both bounds until the witness fails,
    so the first point or pair at fault must match the loop as well. On
    the tree the first row's pairs are 2r apart and a later pair r, so at
    tol -0.2 the first pair at fault lies past the first row."""
    monkeypatch.setattr(closure, "_BLOCK_ENTRIES", budget)
    monkeypatch.setattr(closure, "REL_TOL", tol)
    u, r, _ = long_edge_audit(g).witness
    for radius in (r, 0.75 * r):
        want = outcome(lambda: scalar_packing_witness(g, u, radius, rel_tol=tol))
        assert outcome(lambda: long_edge_packing_witness(g, u, radius)) == want
    if tol < -0.3:
        assert isinstance(want, str)


@pytest.mark.parametrize(
    "leaves,k", [(16, 14), (16, 15), (16, 16), (16, 17), (24, 25), (28, 27), (40, 41)]
)
def test_star_certificate_below_two_to_the_minus_13(leaves, k):
    """Below eps = 2^-13 the completed star has edges shorter than the
    walk's tolerance near its long edges, and on larger stars edges below
    the float spacing of their distance to the leaf: the lex-min walk must
    still reach every leaf, and the certificate must hold."""
    eps = 2.0**-k
    c = complete_tree(exponential_star(leaves), eps)
    cert = star_lb_certificate(c, eps)
    size = math.floor(math.log2(1.0 / (2.0 * eps)))
    assert cert.ok and cert.size == size
    assert 1.96875 <= cert.min_pairwise <= cert.max_pairwise < 2.0
    assert (cert.min_pairwise, cert.max_pairwise) == scalar_pair_window(c.output, cert.points)
    center = ConvPoint.at_vertex(0)
    for pt in cert.points:
        assert math.isclose(scalar_conv_distance(c.output, center, pt), 1.0, rel_tol=1e-9)
    assert cert.dim_lower == 0.5 * math.log2(size)


@pytest.mark.parametrize("p", range(1, 9))
def test_lcp_metric_is_the_bit_length_matrix(p):
    assert np.array_equal(lcp_metric(p).dist, bit_length_lcp_matrix(p))
