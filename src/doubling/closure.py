"""The continuous metric a weighted graph induces on its edge segments.

Points are the graph vertices plus interior positions ``e[x]`` on each edge;
distances route through the cheapest combination of edge offsets and
vertex-to-vertex shortest paths. On top of the point metric this module
provides the long-edge audit, the half-radius packing witness it implies,
and a sampled doubling-dimension estimate.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import EmptyLongEdgeSet, InvalidPoint, VerificationError
from .metric import (
    REL_TOL,
    DimensionEstimate,
    FiniteMetric,
    WeightedGraph,
    doubling_estimate,
    packing_lower_bound,
    shortest_path_metric,
)

__all__ = [
    "ConvPoint",
    "AuditResult",
    "conv_distance",
    "conv_geodesic_point",
    "long_edge_audit",
    "long_edge_packing_witness",
    "sample_points",
    "sample_metric",
    "sampled_conv_dimension",
]


@dataclass(frozen=True, order=True)
class ConvPoint:
    """A vertex, or the position at offset ``x`` along an edge.

    Edge offsets are measured from the smaller endpoint and must stay
    strictly inside (0, length); the endpoints themselves are vertex points.
    """

    vertex: int | None = None
    edge: tuple[int, int] | None = None
    offset: float = 0.0

    @staticmethod
    def at_vertex(v: int) -> "ConvPoint":
        return ConvPoint(vertex=int(v))

    @staticmethod
    def on_edge(u: int, v: int, x: float) -> "ConvPoint":
        if u == v:
            raise InvalidPoint("edge endpoints must differ")
        if u > v:
            raise InvalidPoint("edge point endpoints must be given in increasing order")
        return ConvPoint(edge=(int(u), int(v)), offset=float(x))

    @property
    def is_vertex(self) -> bool:
        return self.vertex is not None

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        if self.is_vertex:
            return f"ConvPoint(vertex={self.vertex})"
        u, v = self.edge  # type: ignore[misc]
        return f"ConvPoint(edge=({u}, {v}), offset={self.offset!r})"


def _check_point(g: WeightedGraph, p: ConvPoint) -> None:
    if p.is_vertex:
        v = p.vertex
        if not 0 <= v < g.n_vertices:  # type: ignore[operator]
            raise InvalidPoint(f"vertex {v} out of range for {g.n_vertices} vertices")
        return
    if p.edge is None:
        raise InvalidPoint("point is neither a vertex nor an edge position")
    u, v = p.edge
    if not g.has_edge(u, v):
        raise InvalidPoint(f"no edge between {u} and {v}")
    length = g.edge_length(u, v)
    if not 0.0 < p.offset < length:
        raise InvalidPoint(
            f"offset {p.offset!r} outside the open interval (0, {length!r})"
        )


def _exits(g: WeightedGraph, p: ConvPoint) -> list[tuple[int, float]]:
    """(vertex, cost to reach it from p along p's own edge) options."""
    if p.is_vertex:
        return [(p.vertex, 0.0)]  # type: ignore[list-item]
    u, v = p.edge  # type: ignore[misc]
    length = g.edge_length(u, v)
    return [(u, p.offset), (v, length - p.offset)]


def conv_distance(g: WeightedGraph, p: ConvPoint, q: ConvPoint) -> float:
    """Distance between two points of the closure of ``g``.

    Both points leave their edges through either endpoint and travel along
    graph shortest paths; points sharing an edge may also connect straight
    through its interior.
    """
    _check_point(g, p)
    _check_point(g, q)
    D = shortest_path_metric(g).dist
    if p.is_vertex and q.is_vertex:
        return float(D[p.vertex, q.vertex])
    best = min(
        cp + float(D[a, b]) + cq for a, cp in _exits(g, p) for b, cq in _exits(g, q)
    )
    if not p.is_vertex and p.edge == q.edge:
        best = min(best, abs(p.offset - q.offset))
    return best


@dataclass
class _Route:
    """One realizing route: exit/entry segment costs plus a vertex walk."""

    vertices: tuple[int, ...]
    pieces: list[tuple[int, int, float, float]] = field(default_factory=list)
    # each piece: (u, v, start, end) — move along edge {u,v} from offset
    # `start` to offset `end`, both measured from u


def _lex_min_path(g: WeightedGraph, D: np.ndarray, a: int, b: int) -> tuple[int, ...]:
    """Lexicographically smallest shortest vertex path from a to b."""
    adjacency = g.adjacency()
    path = [a]
    current = a
    remaining = float(D[a, b])
    done_tol = REL_TOL * max(1.0, float(D[a, b]))
    for _ in range(g.n_vertices + 1):
        if current == b and remaining <= done_tol:
            return tuple(path)
        tol = REL_TOL * max(1.0, remaining)
        step = None
        for w, cost in adjacency[current]:
            if abs(cost + float(D[w, b]) - remaining) <= tol:
                step = (w, cost)
                break
        if step is None:
            raise AssertionError(f"no feasible step from {current} toward {b}")
        path.append(step[0])
        current = step[0]
        remaining -= step[1]
    raise AssertionError(f"shortest-path walk from {a} to {b} did not terminate")


def _entry_piece(g: WeightedGraph, q: ConvPoint, b: int) -> tuple[int, int, float, float]:
    u, v = q.edge  # type: ignore[misc]
    start = 0.0 if b == u else g.edge_length(u, v)
    return (u, v, start, q.offset)


def conv_geodesic_point(g: WeightedGraph, p: ConvPoint, q: ConvPoint, s: float) -> ConvPoint:
    """The point at distance ``s`` from ``p`` along a shortest route to ``q``.

    Among routes realizing the distance, the one whose vertex sequence is
    lexicographically smallest is walked (a same-edge segment visits no
    vertices and therefore wins every tie it enters).
    """
    total = conv_distance(g, p, q)
    if not -REL_TOL * max(1.0, total) <= s <= total * (1.0 + REL_TOL) + REL_TOL:
        raise ValueError(f"arc length {s!r} outside [0, {total!r}]")
    if s <= 0.0:
        return p
    D = shortest_path_metric(g).dist
    tol = REL_TOL * max(1.0, total)

    candidates: list[_Route] = []
    if not p.is_vertex and p.edge == q.edge and abs(p.offset - q.offset) <= total + tol:
        u, v = p.edge  # type: ignore[misc]
        candidates.append(_Route((), [(u, v, p.offset, q.offset)]))
    for a, cost_p in _exits(g, p):
        for b, cost_q in _exits(g, q):
            if abs(cost_p + float(D[a, b]) + cost_q - total) > tol:
                continue
            route = _Route(_lex_min_path(g, D, a, b))
            if not p.is_vertex:
                u, v = p.edge  # type: ignore[misc]
                end = 0.0 if a == u else g.edge_length(u, v)
                route.pieces.append((u, v, p.offset, end))
            walk = route.vertices
            for w1, w2 in zip(walk, walk[1:]):
                cu, cv = (w1, w2) if w1 < w2 else (w2, w1)
                length = g.edge_length(cu, cv)
                if w1 == cu:
                    route.pieces.append((cu, cv, 0.0, length))
                else:
                    route.pieces.append((cu, cv, length, 0.0))
            if not q.is_vertex:
                route.pieces.append(_entry_piece(g, q, b))
            candidates.append(route)
    if not candidates:
        raise AssertionError("no route realizes the computed distance")
    route = min(candidates, key=lambda r: r.vertices)

    remaining = s
    for cu, cv, start, end in route.pieces:
        length = abs(end - start)
        if remaining <= length:
            off = start + remaining if end > start else start - remaining
            if off <= 0.0:
                return ConvPoint.at_vertex(cu)
            if off >= g.edge_length(cu, cv):
                return ConvPoint.at_vertex(cv)
            return ConvPoint.on_edge(cu, cv, off)
        remaining -= length
    return q


@dataclass(frozen=True)
class AuditResult:
    """Outcome of the long-edge census.

    ``witness`` is the (vertex, radius, edges) triple attaining the global
    maximum — smallest vertex first, then smallest radius.
    """

    max_count: int
    witness: tuple[int, float, tuple[tuple[int, int], ...]]
    per_vertex_profile: dict[int, int]


def _edge_arrays(g: WeightedGraph) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Endpoints and lengths of ``g.edges`` as three arrays, in ``g.edges`` order."""
    table = np.array(g.edges, dtype=np.float64).reshape(-1, 3)
    return table[:, 0].astype(np.intp), table[:, 1].astype(np.intp), table[:, 2]


def _long_edges(g: WeightedGraph, D: np.ndarray, u: int, r: float) -> list[tuple[int, int]]:
    """Edges with an endpoint within ``r`` of ``u`` and length above ``r``,
    in ``g.edges`` order: one mask, independent of the audit's scan."""
    a, b, lengths = _edge_arrays(g)
    mask = (np.minimum(D[u, a], D[u, b]) <= r) & (lengths > r)
    return list(zip(a[mask].tolist(), b[mask].tolist()))


def long_edge_audit(g: WeightedGraph) -> AuditResult:
    """Census of edges that are long relative to their distance from a vertex.

    An edge counts toward vertex u at radius r when its nearer endpoint is
    within r of u (its start, ``dmin``) but its length exceeds r. The count
    is a right-continuous step function of r; the profile holds its maximum
    per vertex and the witness the first maximum, scanned as follows.

    An edge with ``length <= dmin`` never counts, so only the active edges
    (``length > dmin``) matter, each over ``[dmin, length)``. Edges are
    sorted by length once; per vertex the active stops at or below r are
    the active positions, in that order, before the first length above r.
    Every start is the distance from u to a vertex, so ranking the vertices
    by distance from u (one sort of n values) and keying each edge by the
    smaller rank of its endpoints turns the starts at or below each vertex
    distance into a cumulative ``bincount`` read at the end of that
    distance's tie group. The count only rises at a start, so its first
    maximum lies at the smallest vertex distance that reaches it.

    This equals the first maximum over a grid of every positive breakpoint
    (endpoint distance or edge length) and every positive midpoint between
    consecutive breakpoints: the grid hits each step at its left
    breakpoint, except the plateau starting at 0 (edges incident to u),
    which it first hits at ``e1 / 2`` with ``e1`` the smallest positive
    breakpoint. A first maximum at distance 0 is therefore reported at
    ``e1 / 2``, and results are unchanged from that grid census.
    """
    if not g.edges:
        return AuditResult(0, (0, 0.0, ()), {u: 0 for u in range(g.n_vertices)})
    D = shortest_path_metric(g).dist
    n = g.n_vertices
    a, b, lengths = _edge_arrays(g)
    by_length = np.argsort(lengths, kind="stable")
    a, b, lengths = a[by_length], b[by_length], lengths[by_length]

    best_count = 0
    best_vertex = 0
    best_radius = 0.0
    profile: dict[int, int] = {}
    rank = np.empty(n, dtype=np.intp)
    for u in range(n):
        order = np.argsort(D[u], kind="stable")
        ds = D[u, order]
        rank[order] = np.arange(n)
        key = np.minimum(rank[a], rank[b])  # ds[key] is each edge's dmin
        dmin = ds[key]
        active = np.flatnonzero(lengths > dmin)
        # counts[i]: active starts at or below ds[i] minus active stops there
        tie_end = np.searchsorted(ds, ds, side="right") - 1
        starts = np.bincount(key[active], minlength=n).cumsum()[tie_end]
        stops = np.searchsorted(active, np.searchsorted(lengths, ds, side="right"))
        counts = starts - stops
        k = int(np.argmax(counts))
        profile[u] = int(counts[k])
        if profile[u] > best_count:
            best_count = profile[u]
            best_vertex = u
            best_radius = float(ds[k])
            if best_radius == 0.0:
                best_radius = float(np.min(dmin, where=dmin > 0.0, initial=lengths[0])) / 2.0

    witness_edges = tuple(_long_edges(g, D, best_vertex, best_radius))
    if len(witness_edges) != best_count:
        raise AssertionError("audit recount disagrees with the scan")
    return AuditResult(best_count, (best_vertex, best_radius, witness_edges), profile)


def long_edge_packing_witness(g: WeightedGraph, u: int, r: float) -> list[ConvPoint]:
    """Half-radius points on the long edges at (u, r), verified as a packing.

    Each returned point sits r/2 along its edge from the endpoint nearer to
    u; the set lies inside the radius-2r ball around u with pairwise
    distances at least r (both up to relative tolerance ``REL_TOL``), which
    certifies a dimension lower bound of half the log of its size.
    """
    if r <= 0.0:
        raise ValueError("radius must be positive")
    D = shortest_path_metric(g).dist
    edges = _long_edges(g, D, u, r)
    if not edges:
        raise EmptyLongEdgeSet(f"no long edges at vertex {u}, radius {r!r}")
    points = []
    for a, b in edges:
        da, db = float(D[u, a]), float(D[u, b])
        near_is_a = da < db or (da == db and a < b)
        length = g.edge_length(a, b)
        x = r / 2.0 if near_is_a else length - r / 2.0
        points.append(ConvPoint.on_edge(a, b, x))

    center = ConvPoint.at_vertex(u)
    limit = 2.0 * r * (1.0 + REL_TOL)
    for pt in points:
        if conv_distance(g, center, pt) > limit:
            raise VerificationError(f"witness point {pt} falls outside the 2r ball")
    floor = r * (1.0 - REL_TOL)
    for i in range(len(points)):
        for j in range(i + 1, len(points)):
            d = conv_distance(g, points[i], points[j])
            if d < floor:
                raise VerificationError(
                    f"witness points {points[i]} and {points[j]} are only {d!r} apart"
                )
    return points


def sample_points(g: WeightedGraph, samples_per_edge: int) -> list[ConvPoint]:
    """All vertices plus evenly spaced interior points on every edge."""
    if samples_per_edge < 0:
        raise ValueError("samples_per_edge must be nonnegative")
    pts = [ConvPoint.at_vertex(v) for v in range(g.n_vertices)]
    for u, v, length in g.edges:
        for j in range(1, samples_per_edge + 1):
            pts.append(ConvPoint.on_edge(u, v, j * length / (samples_per_edge + 1)))
    return pts


def sample_metric(g: WeightedGraph, samples_per_edge: int) -> FiniteMetric:
    """Closure distances over :func:`sample_points`, as a finite metric."""
    pts = sample_points(g, samples_per_edge)
    D = shortest_path_metric(g).dist

    n = len(pts)
    exit_a = np.zeros(n, dtype=np.intp)
    exit_b = np.zeros(n, dtype=np.intp)
    cost_a = np.zeros(n)
    cost_b = np.zeros(n)
    eid = np.full(n, -1, dtype=np.intp)
    edge_index = {(u, v): k for k, (u, v, _) in enumerate(g.edges)}
    for i, p in enumerate(pts):
        if p.is_vertex:
            exit_a[i] = exit_b[i] = p.vertex  # type: ignore[assignment]
        else:
            u, v = p.edge  # type: ignore[misc]
            exit_a[i], exit_b[i] = u, v
            cost_a[i] = p.offset
            cost_b[i] = g.edge_length(u, v) - p.offset
            eid[i] = edge_index[(u, v)]

    out = D[np.ix_(exit_a, exit_a)] + cost_a[:, None] + cost_a[None, :]
    np.minimum(out, D[np.ix_(exit_a, exit_b)] + cost_a[:, None] + cost_b[None, :], out=out)
    np.minimum(out, D[np.ix_(exit_b, exit_a)] + cost_b[:, None] + cost_a[None, :], out=out)
    np.minimum(out, D[np.ix_(exit_b, exit_b)] + cost_b[:, None] + cost_b[None, :], out=out)
    same = (eid[:, None] == eid[None, :]) & (eid[:, None] >= 0)
    direct = np.abs(cost_a[:, None] - cost_a[None, :])
    out[same] = np.minimum(out[same], direct[same])
    out = np.minimum(out, out.T)
    np.fill_diagonal(out, 0.0)
    return FiniteMetric(out, validate=False)


def sampled_conv_dimension(
    g: WeightedGraph, samples_per_edge: int, exact_max_n: int = 64
) -> DimensionEstimate:
    """Doubling estimate for the closure, measured on an edge sample.

    Restricting to a subset never raises the doubling constant, so the
    sample's lower bound transfers to the full closure; the upper bound is
    evidence only.
    """
    m = sample_metric(g, samples_per_edge)
    upper = doubling_estimate(m, exact_max_n=exact_max_n)
    return upper.merged_with_lower(packing_lower_bound(m))
