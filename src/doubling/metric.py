"""Finite metric spaces, weighted graphs, nets, and dimension estimates.

Distances are plain float64 throughout. All comparisons that decide
pass/fail use a relative tolerance of ``REL_TOL``; structural choices
(greedy scans, covers, packings) use exact comparisons so that repeated
runs make identical choices.
"""

from __future__ import annotations

import functools
import math
import os
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator, Sequence, TextIO

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import connected_components, dijkstra

from . import cover
from .errors import ConfigError, DisconnectedGraph, SizeMismatch

__all__ = [
    "REL_TOL",
    "FiniteMetric",
    "WeightedGraph",
    "DimensionEstimate",
    "StretchReport",
    "shortest_path_metric",
    "distance_rows",
    "greedy_net",
    "doubling_estimate",
    "packing_lower_bound",
    "verify_stretch",
    "load_metric",
    "save_metric",
    "load_graph",
    "save_graph",
]

REL_TOL = 1e-9

# Sources per Dijkstra call when a caller reads distance rows block by
# block: 256 rows of n distances live at a time.
ROW_BLOCK = 256

# Entries (rows x points) per block of the batched greedy scan in the
# dimension sweeps: a 1 MiB live mask plus an 8 MiB block of distance rows.
SCAN_BLOCK_ELEMENTS = 1 << 20


def _refuse_beyond_memory(n: int, what: str) -> None:
    """Refuse, before anything is built, a dense n x n float64 distance
    matrix whose construction peaks beyond physical memory: its builders
    hold up to about 3.3 such arrays at once, so four are counted."""
    need = 4 * 8 * n * n
    have = os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE")
    if need > have:
        raise ConfigError(
            f"{what} needs a {n} x {n} distance matrix ({need} bytes with its "
            f"temporaries), more than this machine's {have} bytes of memory"
        )


def _triangle_violation(D: np.ndarray) -> tuple[int, int, str] | None:
    """The first pair (i < j) whose distance exceeds a two-hop route, with
    the message that reports it; None when the triangle inequality holds."""
    n = D.shape[0]
    for k in range(n):
        via = D[:, k, None] + D[None, k, :]
        bad = D > via * (1.0 + REL_TOL)
        if bad.any():
            i, j = np.argwhere(bad)[0]  # bad is symmetric, so i < j
            return int(i), int(j), (
                f"triangle inequality fails: d({i},{j})={D[i, j]!r} > "
                f"d({i},{k})+d({k},{j})={via[i, j]!r}"
            )
    return None


class FiniteMetric:
    """A metric on points 0..n-1, stored as a dense symmetric matrix.

    Construction checks the zero diagonal, symmetry and positivity, and
    (unless ``validate=False``, for distances that are metrics by
    construction) the triangle inequality within relative tolerance 1e-9.
    The matrix is frozen after construction.
    """

    def __init__(self, dist: np.ndarray | Sequence[Sequence[float]], *, validate: bool = True) -> None:
        D = np.array(dist, dtype=np.float64)
        if D.ndim != 2 or D.shape[0] != D.shape[1]:
            raise ValueError("distance matrix must be square")
        n = D.shape[0]
        if n == 0:
            raise ValueError("a metric needs at least one point")
        if np.diag(D).any():
            raise ValueError("diagonal must be exactly zero")
        if not np.array_equal(D, D.T):
            raise ValueError("distance matrix must be symmetric")
        if n > 1:
            off = D[~np.eye(n, dtype=bool)]
            if not (off > 0.0).all():
                raise ValueError("off-diagonal distances must be positive")
            if not np.isfinite(off).all():
                raise ValueError("distances must be finite")
        if validate and (violation := _triangle_violation(D)) is not None:
            raise ValueError(violation[2])
        D = np.ascontiguousarray(D)
        D.setflags(write=False)
        self.dist = D
        self.n = n

    def d(self, i: int, j: int) -> float:
        return float(self.dist[i, j])

    def min_distance(self) -> float:
        """Smallest off-diagonal distance (needs n >= 2)."""
        if self.n < 2:
            raise ValueError("min_distance needs at least two points")
        iu = np.triu_indices(self.n, k=1)
        return float(self.dist[iu].min())

    def diameter(self) -> float:
        return float(self.dist.max())

    def restrict(self, points: Sequence[int]) -> "FiniteMetric":
        """Submetric on the given points, reindexed in the given order."""
        idx = np.asarray(points, dtype=np.intp)
        sub = self.dist[np.ix_(idx, idx)]
        return FiniteMetric(sub, validate=False)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"FiniteMetric(n={self.n})"


def _first_bad_edge(
    n: int, u: np.ndarray, v: np.ndarray, w: np.ndarray
) -> tuple[int, str] | None:
    """The first edge a one-at-a-time scan would reject, with its message;
    None when every edge is fine.

    ``u``/``v`` are vertex ids (fractions truncated, as ``int`` does) and
    ``w`` lengths. Each edge is checked in turn for a self-loop, an endpoint
    outside 0..n-1, a repeat of an earlier pair in either orientation and a
    length that is not positive and finite; the first edge failing any check
    is reported with the first check it fails.
    """
    u, v = np.trunc(u) + 0.0, np.trunc(v) + 0.0  # + 0.0 turns -0.0 into 0.0
    lo, hi = np.minimum(u, v), np.maximum(u, v)
    loop = u == v
    outside = ~((0 <= lo) & (hi < n))
    order = np.lexsort((hi, lo))  # stable: each pair's earliest edge first
    slo, shi = lo[order], hi[order]
    repeat = np.zeros(u.size, dtype=bool)
    repeat[order[1:]] = (slo[1:] == slo[:-1]) & (shi[1:] == shi[:-1])
    bad_length = ~((w > 0.0) & np.isfinite(w))
    bad = loop | outside | repeat | bad_length
    if not bad.any():
        return None
    k = int(np.argmax(bad))
    a, b = f"{u[k]:.0f}", f"{v[k]:.0f}"
    if loop[k]:
        return k, f"self-loop at vertex {a}"
    if outside[k]:
        return k, f"edge ({a},{b}) outside vertex range"
    pair = f"({lo[k]:.0f},{hi[k]:.0f})"
    if repeat[k]:
        return k, f"duplicate edge {pair}"
    return k, f"edge {pair} needs a positive finite length"


def _edge_table(edges: np.ndarray | Iterable[tuple[int, int, float]]) -> np.ndarray:
    """The edges as an (m, 3) float array of (u, v, length) rows."""
    table = np.array(edges if isinstance(edges, np.ndarray) else list(edges), dtype=np.float64)
    if table.size == 0:
        table = table.reshape(0, 3)
    if table.ndim != 2 or table.shape[1] != 3:
        raise ValueError("edges must be (u, v, length) triples")
    return table


class WeightedGraph:
    """An undirected graph with positive edge lengths.

    Edges are stored canonically as three read-only arrays sorted by
    endpoint pair: ``u < v`` (vertex ids) and ``w`` (lengths), so there are
    no self-loops and at most one edge per pair. ``edges`` is the same data
    as a tuple of ``(u, v, length)``. The edges go into one symmetric CSR
    matrix, the graph's only adjacency structure. The instance is treated as
    immutable once built; the tuple, the CSR, the edge lookup, the component
    labels and the shortest-path metric are each built on first use and
    cached on it.
    """

    def __init__(
        self, n_vertices: int, edges: np.ndarray | Iterable[tuple[int, int, float]]
    ) -> None:
        """``edges`` is an (m, 3) array or any iterable of (u, v, length)."""
        if n_vertices < 1:
            raise ValueError("a graph needs at least one vertex")
        table = _edge_table(edges)
        u, v, w = table.T
        bad = _first_bad_edge(n_vertices, u, v, w)
        if bad is not None:
            raise ValueError(bad[1])
        lo = np.minimum(u, v).astype(np.intp)
        hi = np.maximum(u, v).astype(np.intp)
        order = np.lexsort((hi, lo))
        self.n_vertices = n_vertices
        self.u, self.v, self.w = lo[order], hi[order], w[order]
        for column in (self.u, self.v, self.w):
            column.setflags(write=False)
        self._metric: FiniteMetric | None = None

    @functools.cached_property
    def edges(self) -> tuple[tuple[int, int, float], ...]:
        return tuple(zip(self.u.tolist(), self.v.tolist(), self.w.tolist()))

    @functools.cached_property
    def _length(self) -> dict[tuple[int, int], float]:
        return dict(zip(zip(self.u.tolist(), self.v.tolist()), self.w.tolist()))

    def has_edge(self, u: int, v: int) -> bool:
        return (min(u, v), max(u, v)) in self._length

    def edge_length(self, u: int, v: int) -> float:
        return self._length[(min(u, v), max(u, v))]

    @functools.cached_property
    def csr(self) -> csr_matrix:
        """Both directions of every edge, column indices sorted in each row."""
        n = self.n_vertices
        rows = np.concatenate([self.u, self.v])
        cols = np.concatenate([self.v, self.u])
        order = np.lexsort((cols, rows))
        indptr = np.zeros(n + 1, dtype=np.intp)
        np.cumsum(np.bincount(rows, minlength=n), out=indptr[1:])
        data = np.concatenate([self.w, self.w])[order]
        return csr_matrix((data, cols[order], indptr), shape=(n, n))

    def adjacency(self) -> list[list[tuple[int, float]]]:
        """Per vertex, ``(neighbour, length)`` by ascending neighbour: the
        rows of :attr:`csr` as lists."""
        ptr = self.csr.indptr.tolist()
        cols, data = self.csr.indices.tolist(), self.csr.data.tolist()
        return [list(zip(cols[a:b], data[a:b])) for a, b in zip(ptr, ptr[1:])]

    def degrees(self) -> list[int]:
        return np.diff(self.csr.indptr).tolist()

    @functools.cached_property
    def component_labels(self) -> np.ndarray:
        """Connected-component label of every vertex, read-only: one
        ``connected_components`` run on :attr:`csr` per graph."""
        _, labels = connected_components(self.csr, directed=False)
        labels.setflags(write=False)
        return labels

    def is_connected(self) -> bool:
        return bool((self.component_labels == 0).all())

    def is_tree(self) -> bool:
        return self.w.size == self.n_vertices - 1 and self.is_connected()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"WeightedGraph(n={self.n_vertices}, m={self.w.size})"


def _require_connected(g: WeightedGraph) -> None:
    """Raise :class:`DisconnectedGraph`, naming one vertex per component,
    when the graph is not connected."""
    labels = g.component_labels
    if labels.max(initial=0) > 0:
        rep_a = int(np.flatnonzero(labels == 0)[0])
        rep_b = int(np.flatnonzero(labels != 0)[0])
        raise DisconnectedGraph(rep_a, rep_b)


def shortest_path_metric(g: WeightedGraph) -> FiniteMetric:
    """All-pairs shortest-path metric of a connected graph.

    Raises :class:`DisconnectedGraph` naming one vertex per component when
    the graph is not connected. The result is cached on the graph.
    """
    if g._metric is not None:
        return g._metric
    _require_connected(g)
    # the CSR already holds both directions of every edge, so the directed
    # search sees the same candidate sums as an undirected one
    D = dijkstra(g.csr, directed=True)
    # Dijkstra from each source is symmetric up to float rounding; make it exact.
    D = np.minimum(D, D.T)
    # shortest-path distances satisfy the triangle inequality by construction
    m = FiniteMetric(D, validate=False)
    g._metric = m
    return m


def distance_rows(g: WeightedGraph, sources: Sequence[int] | np.ndarray) -> np.ndarray:
    """Shortest-path distances from each source to every vertex of a
    connected graph, one row per source: single-source Dijkstra on the
    cached CSR, directed (the CSR holds both directions of every edge).

    The rows are not symmetrised, so entry (k, v) is exactly what Dijkstra
    from ``sources[k]`` finds, which can differ in the last bit from
    :func:`shortest_path_metric`. Callers that need all n rows read them
    in blocks of ``ROW_BLOCK`` sources. Raises :class:`DisconnectedGraph`
    as :func:`shortest_path_metric` does.
    """
    _require_connected(g)
    sources = np.asarray(sources, dtype=np.intp)
    return dijkstra(g.csr, directed=True, indices=sources).reshape(sources.size, g.n_vertices)


def greedy_net(m: FiniteMetric, r: float, points: Sequence[int] | None = None) -> list[int]:
    """Greedy r-net over ``points`` (default: all points), ascending id.

    A point is kept iff it lies strictly farther than ``r`` from every point
    kept before it; anything at distance <= r of the net is covered by it.
    The kept set is therefore an r-packing and an r-covering of the scan set.
    """
    if not (r > 0.0):
        raise ValueError("net radius must be positive")
    return cover._greedy_picks(m.dist, np.arange(m.n) if points is None else points, r)


@dataclass(frozen=True)
class DimensionEstimate:
    """Doubling-dimension bounds with their witnesses.

    ``upper_witness`` is (center, radius, cover centers) for the worst ball;
    ``lower_witness`` is (center, radius, packed points). Fields not filled
    by the producing estimator are None.
    """

    lambda_upper: int | None = None
    dim_upper: float | None = None
    dim_lower: float | None = None
    mode: str | None = None
    upper_witness: tuple[int, float, tuple[int, ...]] | None = None
    lower_witness: tuple[int, float, tuple[int, ...]] | None = None

    def merged_with_lower(self, low: "DimensionEstimate") -> "DimensionEstimate":
        return DimensionEstimate(
            lambda_upper=self.lambda_upper,
            dim_upper=self.dim_upper,
            dim_lower=low.dim_lower,
            mode=self.mode,
            upper_witness=self.upper_witness,
            lower_witness=low.lower_witness,
        )


def _beating_events(
    D: np.ndarray,
    row: np.ndarray,
    limits: np.ndarray,
    thresholds: np.ndarray,
    best: Callable[[], int],
) -> Iterator[int]:
    """Events of one center whose greedy scan picks more than ``best()``.

    ``row`` is the center's distance row and event k is the greedy scan over
    the ball ``row <= limits[k]`` with threshold ``thresholds[k]``; limits
    ascend, so the balls are nested. Consecutive events are scanned together
    by :func:`cover.greedy_scan`, in blocks of at most
    ``SCAN_BLOCK_ELEMENTS`` entries. Events whose ball has at most ``best()``
    points are never scanned, and scans that can no longer beat ``best()``
    are cut short. Indices come out in ascending order, each checked against
    ``best()`` as it stands when the caller asks for the next one.
    """
    balls = np.searchsorted(np.sort(row), limits, side="right")
    rows = max(1, SCAN_BLOCK_ELEMENTS // row.size)
    hi = 0
    while True:
        lo = max(hi, int(np.searchsorted(balls, best(), side="right")))
        if lo == balls.size:
            return
        hi = min(lo + rows, balls.size)
        live = row[None, :] <= limits[lo:hi, None]
        picks = cover.greedy_scan(D, live, thresholds[lo:hi], beat=best())
        sizes = (picks >= 0).sum(axis=1)
        for k in np.flatnonzero(sizes > best()):
            if sizes[k] > best():
                yield lo + int(k)


def doubling_estimate(m: FiniteMetric, exact_max_n: int = 64) -> DimensionEstimate:
    """Doubling constant of the metric: the worst number of radius-r balls
    needed to cover a ball of radius 2r, maximized over centers and radii.

    For a fixed center the cover minimum can only drop while B(x, 2r) stays
    the same (growing r only grows the covering balls), so it suffices to
    test the radii where B(x, 2r) gains a point: r = d(x, p)/2 for every p.
    The constant is attained at one of those events, and the greedy cover is
    at least the minimum cover there, so the same events suffice in both
    modes.

    The events are visited in (center, ascending radius) order. Per center,
    one batched greedy scan sizes the covers of all its radii at once, in
    blocks of at most ``SCAN_BLOCK_ELEMENTS`` (radii x points) entries. Only
    an event whose greedy cover beats the best value so far is looked at
    further: its cover is rebuilt on its own and, in exact mode
    (n <= exact_max_n), branch and bound runs on that ball, pruned at the
    best exact value so far. The first event to reach each new maximum
    therefore supplies the witness, as in a one-event-at-a-time sweep.
    Above the cutoff the greedy cover itself is the estimate. Either way
    ``lambda_upper`` bounds the true constant from above.
    """
    n, D = m.n, m.dist
    exact = n <= exact_max_n
    mode = "exact-cover" if exact else "greedy-cover"
    best = 0
    witness: tuple[int, float, tuple[int, ...]] | None = None
    for x in range(n):
        row = D[x]
        radii = np.unique(row[row > 0.0]) / 2.0
        for k in _beating_events(D, row, 2.0 * radii, radii, lambda: best):
            r = float(radii[k])
            universe = np.flatnonzero(row <= 2.0 * r)
            greedy = cover.greedy_ball_cover(D, universe, r)
            if exact:
                size, centers, aborted = cover.min_ball_cover(
                    D, universe, r, greedy, prune_at=best
                )
                if aborted:
                    continue
                best = size
                witness = (x, r, tuple(centers))
            else:
                best = len(greedy)
                witness = (x, r, tuple(greedy))
    if best == 0:  # single point: one ball always suffices
        best, witness = 1, (0, 0.0, (0,))
    return DimensionEstimate(
        lambda_upper=best,
        dim_upper=math.log2(best),
        mode=mode,
        upper_witness=witness,
    )


def _verify_packing(D: np.ndarray, center: int, r: float, points: Sequence[int]) -> None:
    for a in points:
        if not D[center, a] <= r * (1.0 + REL_TOL):
            raise AssertionError(f"packed point {a} outside B({center}, {r!r})")
    for i, a in enumerate(points):
        for b in points[i + 1 :]:
            if not D[a, b] >= (r / 2.0) * (1.0 - REL_TOL):
                raise AssertionError(f"packed points {a},{b} closer than {r / 2.0!r}")


def packing_lower_bound(m: FiniteMetric) -> DimensionEstimate:
    """Dimension lower bound from a greedy packing witness.

    For every center x and radius r it extracts S within B(x, r) with pairwise
    distances >= r/2; such a set needs |S| distinct balls of radius r/4, which
    two doublings must provide, so dim >= log2(|S|)/2. Radii r = d(x, p) are
    where the ball grows; r = d(x, p)/2 probes the same balls against smaller
    separations.

    The events are visited in (center, ascending radius) order. Per center,
    one batched greedy scan sizes the packings of all its radii at once, in
    blocks of at most ``SCAN_BLOCK_ELEMENTS`` (radii x points) entries. An
    event whose packing beats the best so far is packed again on its own,
    re-verified by direct distance checks and becomes the witness, so the
    first event to reach each new maximum wins.
    """
    n, D = m.n, m.dist
    best = 1
    witness: tuple[int, float, tuple[int, ...]] = (0, 0.0, (0,))
    for x in range(n):
        row = D[x]
        positive = np.unique(row[row > 0.0])
        radii = np.unique(np.concatenate([positive / 2.0, positive]))
        below = np.nextafter(radii / 2.0, -np.inf)
        for k in _beating_events(D, row, radii, below, lambda: best):
            r = float(radii[k])
            packed = cover.greedy_packing(D, np.flatnonzero(row <= r), r / 2.0)
            _verify_packing(D, x, r, packed)
            best = len(packed)
            witness = (x, r, tuple(packed))
    return DimensionEstimate(
        dim_lower=0.5 * math.log2(best),
        lower_witness=witness,
    )


@dataclass(frozen=True)
class StretchReport:
    """Outcome of comparing a test metric against a base metric pairwise."""

    min_ratio: float
    max_ratio: float
    passed: bool
    eps: float
    allow_contraction: bool
    violation: tuple[int, int] | None = None

    def bounds(self) -> tuple[float, float]:
        lower = 1.0 / (1.0 + self.eps) if self.allow_contraction else 1.0
        return lower, 1.0 + self.eps


def verify_stretch(
    base: FiniteMetric,
    test: FiniteMetric,
    eps: float,
    allow_contraction: bool = False,
) -> StretchReport:
    """Check that all pairwise ratios test/base stay within the eps window.

    Strict mode requires ratios in [1, 1+eps]; with ``allow_contraction``
    the window widens to [(1+eps)^-1, 1+eps]. Both ends get relative
    tolerance 1e-9. The violation field names the worst offending pair.
    """
    if base.n != test.n:
        raise SizeMismatch(f"metrics differ in size: {base.n} vs {test.n}")
    n = base.n
    lower = 1.0 / (1.0 + eps) if allow_contraction else 1.0
    upper = 1.0 + eps
    if n == 1:
        return StretchReport(1.0, 1.0, True, eps, allow_contraction)
    iu = np.triu_indices(n, k=1)
    ratios = test.dist[iu] / base.dist[iu]
    lo_pos = int(np.argmin(ratios))
    hi_pos = int(np.argmax(ratios))
    min_ratio = float(ratios[lo_pos])
    max_ratio = float(ratios[hi_pos])
    ok_low = min_ratio >= lower * (1.0 - REL_TOL)
    ok_high = max_ratio <= upper * (1.0 + REL_TOL)
    violation = None
    if not ok_high:
        violation = (int(iu[0][hi_pos]), int(iu[1][hi_pos]))
    elif not ok_low:
        violation = (int(iu[0][lo_pos]), int(iu[1][lo_pos]))
    return StretchReport(min_ratio, max_ratio, ok_low and ok_high, eps, allow_contraction, violation)


# ---------------------------------------------------------------------------
# file formats
# ---------------------------------------------------------------------------


def _data_lines(handle: TextIO) -> Iterator[tuple[int, list[str]]]:
    """(1-based line number, fields) of every line that is not blank or a comment."""
    for number, raw in enumerate(handle, start=1):
        line = raw.split("#", 1)[0].strip()
        if line:
            yield number, line.split()


def _header(path: str, lines: Iterator[tuple[int, list[str]]], kind: str) -> tuple[int, int]:
    """(line number, n) of the ``<kind> <n>`` header that must open the file."""
    try:
        at, head = next(lines)
    except StopIteration:
        raise ValueError(f"{path}:1: empty {kind} file") from None
    if len(head) != 2 or head[0] != kind or not head[1].isdecimal() or int(head[1]) < 1:
        raise ValueError(f"{path}:{at}: expected '{kind} <n>' header with n >= 1")
    return at, int(head[1])


def save_metric(m: FiniteMetric, path: str) -> None:
    """Write ``metric <n>`` followed by one ``d <i> <j> <value>`` per pair i<j."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"metric {m.n}\n")
        for i in range(m.n):
            for j in range(i + 1, m.n):
                fh.write(f"d {i} {j} {float(m.dist[i, j])!r}\n")


def load_metric(path: str) -> FiniteMetric:
    """Read a file written by :func:`save_metric`; every ``ValueError`` reads
    ``path:line: reason``."""
    with open(path, "r", encoding="utf-8") as fh:
        lines = _data_lines(fh)
        at, n = _header(path, lines, "metric")
        D = np.zeros((n, n))
        line_of = np.zeros((n, n), dtype=np.int64)  # 0: pair not given yet
        try:
            for at, parts in lines:
                if parts[0] != "d" or len(parts) != 4:
                    raise ValueError(f"bad record {' '.join(parts)!r}")
                i, j, value = int(parts[1]), int(parts[2]), float(parts[3])
                if not (0 <= i < j < n):
                    raise ValueError(f"pair ({i},{j}) out of order or range")
                if not (value > 0.0 and math.isfinite(value)):
                    raise ValueError(f"pair ({i},{j}) needs a positive finite distance")
                D[i, j] = D[j, i] = value
                line_of[i, j] = at
            missing = np.argwhere(np.triu(line_of == 0, k=1))
            if missing.size:
                raise ValueError("missing distance for pair ({},{})".format(*missing[0]))
            violation = _triangle_violation(D)
            if violation is not None:
                at = int(line_of[violation[0], violation[1]])
                raise ValueError(violation[2])
        except ValueError as exc:
            raise ValueError(f"{path}:{at}: {exc}") from None
    return FiniteMetric(D, validate=False)


def save_graph(g: WeightedGraph, path: str) -> None:
    """Write ``graph <n>`` followed by one ``e <u> <v> <length>`` per edge."""
    with open(path, "w", encoding="utf-8") as fh:
        _write_graph(fh, g)


def _write_graph(fh: TextIO, g: WeightedGraph) -> None:
    """The ``graph``/``e`` lines of every file that holds a graph."""
    fh.write(f"graph {g.n_vertices}\n")
    for u, v, w in g.edges:
        fh.write(f"e {u} {v} {w!r}\n")


def _parse_graph_lines(
    path: str, lines: Iterable[tuple[int, list[str]]], extra_kinds: tuple[str, ...] = ()
) -> tuple[WeightedGraph, dict[str, list[tuple[int, list[str]]]], int]:
    """The graph, the ``(line, fields)`` of each record of an extra kind, and
    the number of the last line read."""
    lines = iter(lines)
    at, n = _header(path, lines, "graph")
    extras: dict[str, list[tuple[int, list[str]]]] = {kind: [] for kind in extra_kinds}
    edges: list[tuple[float, float, float]] = []
    edge_lines: list[int] = []
    fault: Exception | None = None
    try:
        for at, parts in lines:
            if parts[0] == "e" and len(parts) == 4:
                # an id beyond float range overflows here, at its own line
                edges.append((float(int(parts[1])), float(int(parts[2])), float(parts[3])))
                edge_lines.append(at)
            elif parts[0] in extras:
                extras[parts[0]].append((at, parts[1:]))
            else:
                raise ValueError(f"bad record {' '.join(parts)!r}")
    except (ValueError, OverflowError) as exc:
        fault = exc
    # An edge before the record at fault that a one-at-a-time scan would
    # reject is reported first, at its own line.
    table = _edge_table(edges)
    bad = _first_bad_edge(n, *table.T)
    if bad is not None:
        raise ValueError(f"{path}:{edge_lines[bad[0]]}: {bad[1]}")
    if fault is not None:
        raise ValueError(f"{path}:{at}: {fault}")
    return WeightedGraph(n, table), extras, at


def load_graph(path: str) -> WeightedGraph:
    with open(path, "r", encoding="utf-8") as fh:
        g, _, _ = _parse_graph_lines(path, _data_lines(fh))
    return g
