"""Rescaling an input changes no verdict, count or choice.

Every tolerance in the library is relative, so multiplying all distances by
s = 2**40 or 2**-40 (exact in floating point, far from overflow and
subnormals at these sizes) must leave spanner edge sets, degrees, long-edge
audits, dimension witnesses, geodesic points and certificate verdicts as
they are, with every radius, length and offset multiplied by s.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from doubling import (
    REL_TOL,
    FiniteMetric,
    WeightedGraph,
    build_spanner,
    complete_tree,
    doubling_estimate,
    exponential_star,
    long_edge_audit,
    packing_lower_bound,
    random_euclidean,
    random_tree,
    shortest_path_metric,
    star_lb_certificate,
)
from doubling.closure import ConvPoint, conv_geodesic_point, pairwise_window, point_distances

SCALES = (2.0**40, 2.0**-40)


def scaled_graph(g: WeightedGraph, s: float) -> WeightedGraph:
    return WeightedGraph(g.n_vertices, [(u, v, w * s) for u, v, w in g.edges])


def scaled_metric(m: FiniteMetric, s: float) -> FiniteMetric:
    return FiniteMetric(m.dist * s, validate=False)


def scaled_point(p: ConvPoint, s: float) -> ConvPoint:
    return p if p.is_vertex else ConvPoint.on_edge(*p.edge, p.offset * s)


def scaled_witness(witness, s: float):
    center, r, points = witness
    return center, r * s, points


METRICS = {
    "planar": lambda k: random_euclidean(2 + k % 30, 2, k),
    "spatial": lambda k: random_euclidean(2 + k % 20, 3, k),
    "tree": lambda k: shortest_path_metric(random_tree(2 + k % 25, k)),
    "star": lambda k: shortest_path_metric(exponential_star(1 + k % 14)),
}
GRAPHS = {
    "tree": lambda k: random_tree(1 + k % 30, k),
    "star": lambda k: exponential_star(1 + k % 14),
    "planar-spanner": lambda k: build_spanner(random_euclidean(2 + k % 25, 2, k), 0.25).graph,
}


@settings(max_examples=30)
@given(family=st.sampled_from(sorted(METRICS)), k=st.integers(0, 1000), s=st.sampled_from(SCALES))
def test_spanner_edges_and_degree(family, k, s):
    m = METRICS[family](k)
    a, b = build_spanner(m, 0.25), build_spanner(scaled_metric(m, s), 0.25)
    assert b.graph.edges == tuple((u, v, w * s) for u, v, w in a.graph.edges)
    assert b.max_degree == a.max_degree
    assert [(r.u, r.v, r.level, r.donor) for r in b.edges] == [
        (r.u, r.v, r.level, r.donor) for r in a.edges
    ]


@settings(max_examples=30)
@given(family=st.sampled_from(sorted(GRAPHS)), k=st.integers(0, 1000), s=st.sampled_from(SCALES))
def test_long_edge_audit(family, k, s):
    g = GRAPHS[family](k)
    a, b = long_edge_audit(g), long_edge_audit(scaled_graph(g, s))
    assert b.max_count == a.max_count
    assert b.witness == scaled_witness(a.witness, s)
    assert np.array_equal(b.per_vertex_profile, a.per_vertex_profile)


@settings(max_examples=25)
@given(family=st.sampled_from(sorted(METRICS)), k=st.integers(0, 1000), s=st.sampled_from(SCALES))
def test_dimension_witnesses(family, k, s):
    m = METRICS[family](k)
    ms = scaled_metric(m, s)
    for estimate in (doubling_estimate, packing_lower_bound):
        a, b = estimate(m), estimate(ms)
        assert (b.lambda_upper, b.dim_upper, b.dim_lower, b.mode) == (
            a.lambda_upper,
            a.dim_upper,
            a.dim_lower,
            a.mode,
        )
        for got, want in ((b.upper_witness, a.upper_witness), (b.lower_witness, a.lower_witness)):
            assert got == (None if want is None else scaled_witness(want, s))


@pytest.mark.parametrize("s", (1.0, *SCALES))
def test_geodesic_on_a_scaled_triangle(s):
    """The route 0 -> 2 is the direct edge (1.5 s against 2 s through 1), so
    the point 1.2 s along it lies on that edge, 0.3 s short of vertex 2."""
    g = WeightedGraph(3, [(0, 1, s), (1, 2, s), (0, 2, 1.5 * s)])
    got = conv_geodesic_point(g, ConvPoint.at_vertex(0), ConvPoint.at_vertex(2), 1.2 * s)
    assert got == ConvPoint.on_edge(0, 2, 1.2 * s)


@st.composite
def closure_points(draw, g: WeightedGraph) -> ConvPoint:
    if not g.edges or draw(st.booleans()):
        return ConvPoint.at_vertex(draw(st.integers(0, g.n_vertices - 1)))
    u, v, w = draw(st.sampled_from(g.edges))
    return ConvPoint.on_edge(u, v, w * draw(st.sampled_from([0.125, 0.25, 0.5, 0.75])))


@settings(max_examples=60)
@given(data=st.data(), family=st.sampled_from(sorted(GRAPHS)), k=st.integers(0, 1000))
def test_geodesic_points(data, family, k):
    g = GRAPHS[family](k)
    p, q = data.draw(closure_points(g)), data.draw(closure_points(g))
    fraction = data.draw(st.sampled_from([0.0, 0.1, 0.5, 0.9, 1.0]))
    total = float(point_distances(g, [p], [q])[0, 0])
    want = conv_geodesic_point(g, p, q, fraction * total)
    for s in SCALES:
        gs, ps, qs = scaled_graph(g, s), scaled_point(p, s), scaled_point(q, s)
        assert conv_geodesic_point(gs, ps, qs, fraction * total * s) == scaled_point(want, s)


def star_verdict(g: WeightedGraph, k: int, unit: float):
    """(points, min, max, ok) as ``star_lb_certificate`` measures them, with
    ``unit`` in place of 1."""
    center = ConvPoint.at_vertex(0)
    points = tuple(
        conv_geodesic_point(g, center, ConvPoint.at_vertex(i), unit) for i in range(1, k + 1)
    )
    radial = point_distances(g, [center], points)[0]
    lo, hi = pairwise_window(g, points)
    ok = bool(np.all(np.abs(radial - unit) <= REL_TOL * unit)) and (
        len(points) <= 1 or (lo >= unit * (1.0 - REL_TOL) and hi <= 2.0 * unit * (1.0 + REL_TOL))
    )
    return points, lo, hi, ok


@pytest.mark.parametrize("leaves,power", [(16, 2), (16, 9), (16, 17), (24, 22), (40, 29)])
def test_star_certificate_verdict(leaves, power):
    eps = 2.0**-power
    c = complete_tree(exponential_star(leaves), eps)
    cert = star_lb_certificate(c, eps)
    k = math.floor(math.log2(1.0 / (2.0 * eps)))
    want = (cert.points, cert.min_pairwise, cert.max_pairwise, cert.ok)
    assert star_verdict(c.output, k, 1.0) == want
    for s in SCALES:
        points, lo, hi, ok = star_verdict(scaled_graph(c.output, s), k, s)
        assert points == tuple(scaled_point(p, s) for p in cert.points)
        assert (lo, hi, ok) == (cert.min_pairwise * s, cert.max_pairwise * s, cert.ok)
