"""The continuous metric a weighted graph induces on its edge segments.

Points are the graph vertices plus interior positions ``e[x]`` on each edge;
distances route through the cheapest combination of edge offsets and
vertex-to-vertex shortest paths. On top of the point metric this module
provides the long-edge audit, the half-radius packing witness it implies,
and a sampled doubling-dimension estimate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator, NamedTuple, Sequence

import numpy as np

from .errors import ConfigError, EmptyLongEdgeSet, InvalidPoint, VerificationError
from .metric import (
    REL_TOL,
    ROW_BLOCK,
    DimensionEstimate,
    FiniteMetric,
    WeightedGraph,
    _refuse_beyond_memory,
    _refuse_overflow,
    distance_rows,
    doubling_estimate,
    packing_lower_bound,
)

__all__ = [
    "ConvPoint",
    "AuditResult",
    "conv_distance",
    "conv_geodesic_point",
    "long_edge_audit",
    "long_edge_packing_witness",
    "pairwise_window",
    "point_distances",
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


# Distances (rows x columns, or rows x exit vertices where those are more)
# per row block when a point set is walked in blocks: 512 KiB per array, so
# a window over thousands of points holds about 1.5 MiB of temporaries
# instead of the whole pairwise matrix.
_BLOCK_ENTRIES = 1 << 16


class _ExitTable(NamedTuple):
    """Per point: both exits (a vertex exits twice through itself at cost 0)
    and its edge row in ``g`` (-1 for a vertex), so that points share an
    edge exactly when their rows match."""

    a: np.ndarray
    b: np.ndarray
    cost_a: np.ndarray
    cost_b: np.ndarray
    edge: np.ndarray

    def rows(self, lo: int, hi: int) -> "_ExitTable":
        return _ExitTable(*(column[lo:hi] for column in self))

    @classmethod
    def _from_columns(cls, g: WeightedGraph, vertices, rows, offsets) -> "_ExitTable":
        """The ``vertices``, then the points at ``offsets`` from ``u`` along
        the edge ``rows`` of ``g``, trusted to lie strictly inside them."""
        k = len(vertices)
        return cls(
            np.concatenate([vertices, g.u[rows]]),
            np.concatenate([vertices, g.v[rows]]),
            np.concatenate([np.zeros(k), offsets]),
            np.concatenate([np.zeros(k), g.w[rows] - offsets]),
            np.concatenate([np.full(k, -1), rows]),
        )


def _exit_table(g: WeightedGraph, pts: Sequence[ConvPoint]) -> _ExitTable:
    """The exit table of ``pts``; the first point that is neither a vertex of
    ``g`` nor strictly inside one of its edges (u < v) raises
    :class:`InvalidPoint`. One loop splits the points into columns, then one
    :meth:`WeightedGraph.edge_rows` call looks up every edge point."""
    n, nv = len(pts), g.n_vertices
    a = np.empty(n, dtype=np.intp)
    b = np.empty(n, dtype=np.intp)
    cost_a, cost_b = np.zeros(n), np.zeros(n)
    edge = np.full(n, -1, dtype=np.intp)
    bad, on_edge = n, []  # the first point found at fault; the edge points before it
    for i, p in enumerate(pts):
        if p.vertex is not None and 0 <= p.vertex < nv:
            a[i] = b[i] = p.vertex
        elif p.vertex is None and p.edge is not None and 0 <= p.edge[0] < p.edge[1] < nv:
            a[i], b[i] = p.edge
            cost_a[i] = p.offset
            on_edge.append(i)
        else:
            bad = i
            break
    if on_edge:
        at = np.array(on_edge)
        rows = g.edge_rows(a[at], b[at])
        found = rows >= 0
        edge[at] = rows
        cost_b[at[found]] = g.w[rows[found]] - cost_a[at[found]]
        # offset < length exactly when length - offset > 0; NaN fails both
        wrong = ~(found & (cost_a[at] > 0.0) & (cost_b[at] > 0.0))
        if wrong.any():
            bad = min(bad, int(at[np.argmax(wrong)]))
    if bad < n:
        p = pts[bad]
        if p.is_vertex:
            raise InvalidPoint(f"vertex {p.vertex} out of range for {nv} vertices")
        if p.edge is None:
            raise InvalidPoint("point is neither a vertex nor an edge position")
        u, v = p.edge
        if u > v:
            raise InvalidPoint("edge point endpoints must be given in increasing order")
        if edge[bad] < 0:
            raise InvalidPoint(f"no edge between {u} and {v}")
        length = float(g.w[edge[bad]])
        raise InvalidPoint(f"offset {p.offset!r} outside the open interval (0, {length!r})")
    return _ExitTable(a, b, cost_a, cost_b, edge)


def _exit_tables(
    g: WeightedGraph, *tables: _ExitTable
) -> tuple[np.ndarray, np.ndarray, np.ndarray, list[_ExitTable]]:
    """The sorted distinct exit vertices ``V`` of all ``tables``, their
    Dijkstra rows, the distances among ``V`` read from those rows and
    symmetrised, and each table with its exits renumbered into ``V``. Both
    directions of every pair are among the rows, so the third matrix is bit
    for bit ``shortest_path_metric(g).dist[np.ix_(V, V)]``, with no
    all-pairs run."""
    V = np.unique(np.concatenate([t.a for t in tables] + [t.b for t in tables]))
    rows = distance_rows(g, V)
    among = rows[:, V]
    renumbered = [t._replace(a=np.searchsorted(V, t.a), b=np.searchsorted(V, t.b)) for t in tables]
    return V, rows, np.minimum(among, among.T), renumbered


def _distance_block(D: np.ndarray, p: _ExitTable, q: _ExitTable) -> np.ndarray:
    """Closure distances from every point of ``p`` to every point of ``q``:
    the cheapest ``(cost_p + D[a, b]) + cost_q`` over the four exit pairs,
    or the straight offset difference for two points on one edge.

    First the point-to-exit table ``E[k, v] = min(D[a_k, v] + cost_a,
    D[b_k, v] + cost_b)`` of the block's points, over the exits ``v`` of
    ``D``; then each pair is the cheaper of ``E[k, a_q] + cost_qa`` and
    ``E[k, b_q] + cost_qb``, two gathers per pair instead of four. Rounding
    is monotone, so adding ``cost_q`` after the minimum gives the same bits
    as adding it to each term. Sums are taken in place, so a block holds at
    most three arrays of rows x exits or rows x ``q`` at a time. A sum past
    the float range is inf, the right value for an exit combination the
    minimum drops (or for a distance that large)."""
    with np.errstate(over="ignore"):
        E = D[p.a]
        E += p.cost_a[:, None]
        via_b = D[p.b]
        via_b += p.cost_b[:, None]
        np.minimum(E, via_b, out=E)
        del via_b
        out, term = E[:, q.a], E[:, q.b]
        del E
        out += q.cost_a
        term += q.cost_b
        np.minimum(out, term, out=out)
    same = (p.edge[:, None] == q.edge) & (p.edge[:, None] >= 0)
    if same.any():
        np.subtract(p.cost_a[:, None], q.cost_a, out=term)
        np.minimum(out, np.abs(term, out=term), out=out, where=same)
    return out


def point_distances(
    g: WeightedGraph, P: Sequence[ConvPoint], Q: Sequence[ConvPoint]
) -> np.ndarray:
    """The |P| x |Q| matrix of closure distances from ``P`` to ``Q``.

    Both points leave their edges through either endpoint and travel along
    graph shortest paths; points sharing an edge may also connect straight
    through its interior. Entry (i, j) is exactly ``conv_distance(g, P[i],
    Q[j])``; it can differ from entry (j, i) of the swapped call in the last
    bit, because the exit costs are added in the other order.
    """
    return _table_distances(g, _exit_table(g, P), _exit_table(g, Q))


def _table_distances(g: WeightedGraph, tp: _ExitTable, tq: _ExitTable) -> np.ndarray:
    """:func:`point_distances` between two exit tables' points, in row blocks."""
    V, _, D, (tp, tq) = _exit_tables(g, tp, tq)
    out = np.empty((tp.a.size, tq.a.size))
    rows = max(1, _BLOCK_ENTRIES // max(1, V.size, tq.a.size))
    for lo in range(0, tp.a.size, rows):
        out[lo : lo + rows] = _distance_block(D, tp.rows(lo, lo + rows), tq)
    return out


def _pair_blocks(g: WeightedGraph, table: _ExitTable) -> Iterator[tuple[int, np.ndarray]]:
    """The pairs i < j of ``table``'s points in blocks of at most ``_BLOCK_ENTRIES``
    distances: ``(lo, block)`` with ``block[r, c]`` the distance between
    points ``lo + r`` and ``lo + 1 + c``, and NaN where that is not a pair."""
    V, _, D, (table,) = _exit_tables(g, table)
    n = table.a.size
    rows = max(1, _BLOCK_ENTRIES // max(1, V.size, n))
    for lo in range(0, n - 1, rows):
        hi = min(lo + rows, n - 1)
        block = _distance_block(D, table.rows(lo, hi), table.rows(lo + 1, n))
        block[np.tri(hi - lo, n - lo - 1, -1, dtype=bool)] = np.nan
        yield lo, block


def pairwise_window(g: WeightedGraph, pts: Sequence[ConvPoint]) -> tuple[float, float]:
    """Smallest and largest closure distance over the pairs of ``pts``
    ((0.0, 0.0) for fewer than two points)."""
    lo, hi = math.inf, 0.0
    for _, block in _pair_blocks(g, _exit_table(g, pts)):
        lo, hi = min(lo, float(np.nanmin(block))), max(hi, float(np.nanmax(block)))
    return (lo, hi) if len(pts) > 1 else (0.0, 0.0)


def conv_distance(g: WeightedGraph, p: ConvPoint, q: ConvPoint) -> float:
    """Distance between two points of the closure of ``g``: one entry of
    :func:`point_distances`."""
    return float(point_distances(g, [p], [q])[0, 0])


def _lex_min_path(g: WeightedGraph, to_b: np.ndarray, a: int, b: int) -> tuple[int, ...]:
    """Lexicographically smallest shortest vertex path from a to b.

    ``to_b`` is b's own Dijkstra row. A step from x to w must be tight,
    ``cost + to_b[w]`` equal to ``to_b[x]`` within tolerance, and must not
    revisit the path. Tightness is read from the distances to b rather than
    from a running remainder, whose rounding error on a long route exceeds
    the tolerance of the short distances near b. Each step along b's
    shortest-path tree is exactly tight, since Dijkstra stored ``to_b[x]``
    as that very sum; the walk can differ from one over the symmetrised
    all-pairs column only where a step's slack lies within a few ulps of
    ``REL_TOL * to_b[x]``. Near a long edge the tolerance can exceed the
    shortest edges, so a step back or aside may pass as well: the walk is
    depth first, smallest neighbour first, backs out of the dead end such a
    step leads into and never enters a dead vertex again, so every vertex
    leaves the path at most once.
    """
    ptr, neighbour, cost_to = g.csr.indptr, g.csr.indices, g.csr.data
    to_b = to_b.tolist()

    def steps(x: int) -> Iterator[tuple[int, float]]:
        """(neighbour, edge length) of x by ascending neighbour: its CSR row."""
        row = slice(ptr[x], ptr[x + 1])
        return zip(neighbour[row].tolist(), cost_to[row].tolist())

    path = [a]
    choices = [steps(a)]
    on_path = {a}
    dead: set[int] = set()
    while path:
        current = path[-1]
        if current == b:
            return tuple(path)
        left = to_b[current]
        tol = REL_TOL * left
        for w, cost in choices[-1]:
            if w not in on_path and w not in dead and abs(cost + to_b[w] - left) <= tol:
                path.append(w)
                choices.append(steps(w))
                on_path.add(w)
                break
        else:
            dead.add(current)
            on_path.discard(path.pop())
            choices.pop()
    raise AssertionError(f"no shortest-path walk from {a} reaches {b}")


def conv_geodesic_point(g: WeightedGraph, p: ConvPoint, q: ConvPoint, s: float) -> ConvPoint:
    """The point at distance ``s`` from ``p`` along a shortest route to ``q``.

    Among routes realizing the distance, the one whose vertex sequence is
    lexicographically smallest is walked (a same-edge segment visits no
    vertices and therefore wins every tie it enters). The walk runs over
    consecutive stops, p, the route's vertices and q, one edge per step.
    Distances come from the Dijkstra rows of the exit vertices of p and q,
    searched once (for the total) and read again from the graph's kept rows
    (:func:`distance_rows`): which exit pairs are tight is read among those
    exits (:func:`_exit_tables`, exact), and the route to an exit b follows
    b's own row.
    """
    total = conv_distance(g, p, q)
    if not -REL_TOL * total <= s <= total * (1.0 + REL_TOL):
        raise ValueError(f"arc length {s!r} outside [0, {total!r}]")
    if s <= 0.0:
        return p
    V, rows, D, (tp, tq) = _exit_tables(g, _exit_table(g, [p]), _exit_table(g, [q]))
    # exit (position in V) -> cost; a vertex's two exits fold into one key
    exits_p, exits_q = (
        {int(t.a[0]): float(t.cost_a[0]), int(t.b[0]): float(t.cost_b[0])} for t in (tp, tq)
    )
    tol = REL_TOL * total
    walks: list[tuple[int, ...]] = []
    if not p.is_vertex and p.edge == q.edge and abs(p.offset - q.offset) <= total + tol:
        walks.append(())
    for a, cost_p in exits_p.items():
        for b, cost_q in exits_q.items():
            if abs(cost_p + float(D[a, b]) + cost_q - total) <= tol:
                walks.append(_lex_min_path(g, rows[b], int(V[a]), int(V[b])))
    if not walks:
        raise AssertionError("no route realizes the computed distance")
    stops = [ConvPoint.at_vertex(w) for w in min(walks)]
    if not p.is_vertex:
        stops.insert(0, p)
    if not q.is_vertex:
        stops.append(q)

    # each step runs along the edge (cu, cv) both its stops lie on, between
    # their offsets from cu
    steps = list(zip(stops, stops[1:]))
    ends = [x.edge or y.edge or (min(x.vertex, y.vertex), max(x.vertex, y.vertex)) for x, y in steps]
    lengths = g.w[g.edge_rows([cu for cu, _ in ends], [cv for _, cv in ends])].tolist()
    remaining = s
    for (x, y), (cu, cv), length in zip(steps, ends, lengths):
        start, end = (z.offset if z.edge else 0.0 if z.vertex == cu else length for z in (x, y))
        if remaining <= abs(end - start):
            off = start + remaining if end > start else start - remaining
            if off <= 0.0:
                return ConvPoint.at_vertex(cu)
            if off >= length:
                return ConvPoint.at_vertex(cv)
            return ConvPoint.on_edge(cu, cv, off)
        remaining -= abs(end - start)
    return q


@dataclass(frozen=True)
class AuditResult:
    """Outcome of the long-edge census.

    ``witness`` is the (vertex, radius, edges) triple attaining the global
    maximum — smallest vertex first, then smallest radius.
    ``per_vertex_profile[u]`` is vertex u's maximum, in a read-only intp array.
    """

    max_count: int
    witness: tuple[int, float, tuple[tuple[int, int], ...]]
    per_vertex_profile: np.ndarray

    def __post_init__(self) -> None:
        self.per_vertex_profile.setflags(write=False)


def _long_edges(g: WeightedGraph, row: np.ndarray, r: float) -> np.ndarray:
    """The rows of the edges with an endpoint within ``r`` of the vertex
    whose distance row is ``row`` and length above ``r``, ascending: one
    mask, independent of the audit's scan."""
    return np.flatnonzero((np.minimum(row[g.u], row[g.v]) <= r) & (g.w > r))


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

    Each vertex's distances are its own Dijkstra row (:func:`distance_rows`,
    read in blocks of ``ROW_BLOCK`` vertices), so a recount by single-source
    Dijkstra from the witness vertex finds exactly the witness edges.
    """
    n = g.n_vertices
    profile = np.zeros(n, dtype=np.intp)
    if not g.w.size:
        return AuditResult(0, (0, 0.0, ()), profile)
    by_length = np.argsort(g.w, kind="stable")
    a, b, lengths = g.u[by_length], g.v[by_length], g.w[by_length]

    best_count = 0
    best_vertex = 0
    best_radius = 0.0
    best_row = np.zeros(n)
    rank = np.empty(n, dtype=np.intp)
    for lo in range(0, n, ROW_BLOCK):
        rows = distance_rows(g, np.arange(lo, min(lo + ROW_BLOCK, n)))
        for u, row in enumerate(rows, start=lo):
            order = np.argsort(row, kind="stable")
            ds = row[order]
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
            profile[u] = count = int(counts[k])
            if count > best_count:
                best_count = count
                best_vertex = u
                best_row = row
                best_radius = float(ds[k])
                if best_radius == 0.0:
                    best_radius = float(np.min(dmin, where=dmin > 0.0, initial=lengths[0])) / 2.0

    rows = _long_edges(g, best_row, best_radius)
    witness_edges = tuple(zip(g.u[rows].tolist(), g.v[rows].tolist()))
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
    row = distance_rows(g, [u])[0]
    rows = _long_edges(g, row, r)
    if not rows.size:
        raise EmptyLongEdgeSet(f"no long edges at vertex {u}, radius {r!r}")
    a, b = g.u[rows], g.v[rows]
    # a < b, so a tie goes to a
    x = np.where(row[a] <= row[b], r / 2.0, g.w[rows] - r / 2.0)
    points = [ConvPoint.on_edge(*point) for point in zip(a.tolist(), b.tolist(), x.tolist())]

    table = _exit_table(g, [ConvPoint.at_vertex(u), *points])  # the center, then the points
    radial = _table_distances(g, table.rows(0, 1), table.rows(1, len(points) + 1))[0]
    outside = np.flatnonzero(radial > 2.0 * r * (1.0 + REL_TOL))
    if outside.size:
        raise VerificationError(f"witness point {points[outside[0]]} falls outside the 2r ball")
    floor = r * (1.0 - REL_TOL)
    for lo, block in _pair_blocks(g, table.rows(1, len(points) + 1)):
        close = block < floor  # NaN (not a pair) compares False
        if close.any():
            row, col = np.unravel_index(np.argmax(close), close.shape)
            raise VerificationError(
                f"witness points {points[lo + row]} and {points[lo + 1 + col]} "
                f"are only {float(block[row, col])!r} apart"
            )
    return points


def sample_points(g: WeightedGraph, samples_per_edge: int) -> list[ConvPoint]:
    """All vertices plus evenly spaced interior points on every edge.

    On an edge too short for its spacing (a subnormal length) offsets round
    onto 0, onto the length or onto each other; only those strictly inside
    (0, length) that differ from the offset kept before them are sampled:
    offsets only rise, so that is the offset just before (0 before the first).
    """
    rows, offsets = _sample_offsets(g, samples_per_edge)
    columns = zip(g.u[rows].tolist(), g.v[rows].tolist(), offsets.tolist())
    pts = [ConvPoint.at_vertex(v) for v in range(g.n_vertices)]
    return pts + [ConvPoint(edge=(u, v), offset=offset) for u, v, offset in columns]


def _sample_offsets(g: WeightedGraph, samples_per_edge: int) -> tuple[np.ndarray, np.ndarray]:
    """The edge rows and offsets from ``u`` of the edge points of :func:`sample_points`."""
    if samples_per_edge < 0:
        raise ValueError("samples_per_edge must be nonnegative")
    k = samples_per_edge + 1
    with np.errstate(over="ignore"):  # an overflowing offset is inf, never kept
        x = np.arange(k) * g.w[:, None] / k
    before, x = x[:, :-1], x[:, 1:]
    rows, j = np.nonzero((before < x) & (x < g.w[:, None]))
    return rows, x[rows, j]


def sample_metric(g: WeightedGraph, samples_per_edge: int) -> FiniteMetric:
    """Closure distances over :func:`sample_points`, as a finite metric. A
    matrix beyond physical memory, or an edge whose sample offsets overflow
    float64, is refused before any point is built, and a distance that
    overflows once measured names its pair, each with :class:`ConfigError`."""
    n = g.n_vertices + max(samples_per_edge, 0) * g.w.size
    _refuse_beyond_memory(n, "the closure sample")
    longest = float(g.w.max(initial=0.0))
    if not math.isfinite(samples_per_edge * longest):
        raise ConfigError(
            f"{samples_per_edge} samples per edge overflow the offsets on an edge of length {longest!r}"
        )
    rows, offsets = _sample_offsets(g, samples_per_edge)
    table = _ExitTable._from_columns(g, np.arange(g.n_vertices), rows, offsets)
    out = _table_distances(g, table, table)
    out = np.minimum(out, out.T)
    np.fill_diagonal(out, 0.0)
    _refuse_overflow(out, "closure sample")
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
