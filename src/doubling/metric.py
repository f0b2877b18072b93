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
from dataclasses import dataclass, replace
from typing import TYPE_CHECKING, Callable, Iterable, Iterator, Sequence, TextIO

import numpy as np

from . import cover
from .errors import ConfigError, DisconnectedGraph, InvalidPoint, SizeMismatch

if TYPE_CHECKING:
    from scipy.sparse import csr_matrix

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

# Entries (events x points) per block of the batched greedy scan in the
# dimension sweeps: a 64 KiB live mask plus 128 KiB of int16 rank rows.
SCAN_BLOCK_ELEMENTS = 1 << 16

# Entries (centers x points) per block of centers whose sweep events are
# listed at once; each entry takes about 80 bytes of event tables.
EVENT_BLOCK_ELEMENTS = 1 << 11


def _physical_memory() -> int:
    return os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE")


def _dijkstra(csgraph: csr_matrix, **kwargs) -> np.ndarray:
    """scipy's ``dijkstra``, imported on first call so ``import doubling`` loads numpy only."""
    from scipy.sparse.csgraph import dijkstra

    return dijkstra(csgraph, **kwargs)


def _connected_components(csgraph: csr_matrix, **kwargs) -> tuple[int, np.ndarray]:
    """scipy's ``connected_components``, imported on first call like :func:`_dijkstra`."""
    from scipy.sparse.csgraph import connected_components

    return connected_components(csgraph, **kwargs)


def _refuse_beyond_memory(n: int, what: str, matrices: int = 4) -> None:
    """Refuse, before anything is built, work whose peak of ``matrices``
    dense n x n float64 arrays exceeds physical memory. The default suits
    building one distance matrix: its builders hold up to about 3.3 such
    arrays at once, so four are counted."""
    need, have = matrices * 8 * n * n, _physical_memory()
    if need > have:
        raise ConfigError(
            f"{what} peaks near {matrices} float64 arrays of {n} x {n} ({need} bytes), "
            f"more than this machine's {have} bytes of memory"
        )


def _triangle_violation(D: np.ndarray) -> tuple[int, int, str] | None:
    """The first pair (i < j) whose distance exceeds a two-hop route, with
    the message that reports it; None when the triangle inequality holds."""
    n = D.shape[0]
    via = np.empty_like(D)  # one buffer and one mask, reused for every k
    bad = np.empty(D.shape, dtype=bool)
    for k in range(n):
        np.add(D[:, k, None], D[None, k, :], out=via)
        via *= 1.0 + REL_TOL
        if np.greater(D, via, out=bad).any():
            i, j = np.argwhere(bad)[0]  # bad is symmetric, so i < j
            return int(i), int(j), (
                f"triangle inequality fails: d({i},{j})={float(D[i, j])!r} > "
                f"d({i},{k})+d({k},{j})={float(D[i, k] + D[k, j])!r}"
            )
    return None


class FiniteMetric:
    """A metric on points 0..n-1, stored as a dense symmetric matrix.

    Construction checks the zero diagonal, symmetry and positivity, and
    (unless ``validate=False``, for distances that are metrics by
    construction) the triangle inequality within relative tolerance 1e-9.
    The matrix is frozen after construction. A validated input is copied;
    with ``validate=False`` a C-contiguous float64 array is taken as it is
    and frozen in place, so the caller hands over an array it no longer
    writes.
    """

    def __init__(self, dist: np.ndarray | Sequence[Sequence[float]], *, validate: bool = True) -> None:
        D = (np.array if validate else np.asarray)(dist, dtype=np.float64)
        if D.ndim != 2 or D.shape[0] != D.shape[1]:
            raise ValueError("distance matrix must be square")
        n = D.shape[0]
        if n == 0:
            raise ValueError("a metric needs at least one point")
        if np.diag(D).any():
            raise ValueError("diagonal must be exactly zero")
        if not np.array_equal(D, D.T):
            raise ValueError("distance matrix must be symmetric")
        # the diagonal is zero, so the positive entries are the n(n-1)
        # off-diagonal ones exactly when each of those is positive
        if np.count_nonzero(D > 0.0) != n * (n - 1):
            raise ValueError("off-diagonal distances must be positive")
        if not D.max() < np.inf:
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


class _BadEdge(ValueError):
    """An edge a one-at-a-time scan would reject; ``index`` is its position
    in the edge list as given."""

    def __init__(self, index: int, message: str) -> None:
        super().__init__(message)
        self.index = index


class WeightedGraph:
    """An undirected graph with positive edge lengths.

    Edges are stored canonically as three read-only arrays sorted by
    endpoint pair: ``u < v`` (vertex ids) and ``w`` (lengths), so there are
    no self-loops and at most one edge per pair. One pass truncates the ids
    as ``int`` does, sorts the edges and checks them; the first bad edge
    raises a ``ValueError`` that carries its index. An edge is named by its
    row in these arrays (:meth:`edge_rows`). ``edges`` is the same data as a
    tuple of ``(u, v, length)``. The edges go into one symmetric CSR matrix,
    the graph's only neighbour structure. The instance is treated as
    immutable once built; the tuple, the CSR, the edge keys, the component
    labels, the shortest-path metric and Dijkstra rows (see
    :func:`distance_rows`) are each built on first use and cached on it.
    """

    def __init__(
        self, n_vertices: int, edges: np.ndarray | Iterable[tuple[int, int, float]]
    ) -> None:
        """``edges`` is an (m, 3) array or any iterable of (u, v, length)."""
        if n_vertices < 1:
            raise ValueError("a graph needs at least one vertex")
        table = np.array(edges if isinstance(edges, np.ndarray) else list(edges), dtype=np.float64)
        if table.size == 0:
            table = table.reshape(0, 3)
        if table.ndim != 2 or table.shape[1] != 3:
            raise ValueError("edges must be (u, v, length) triples")
        u, v, w = table.T
        # vertex ids truncate as ``int`` does; + 0.0 turns -0.0 into 0.0
        u, v = np.trunc(u) + 0.0, np.trunc(v) + 0.0
        lo, hi = np.minimum(u, v), np.maximum(u, v)
        order = np.lexsort((hi, lo))  # stable: each pair's earliest edge first
        slo, shi = lo[order], hi[order]
        repeat = np.zeros(u.size, dtype=bool)
        repeat[order[1:]] = (slo[1:] == slo[:-1]) & (shi[1:] == shi[:-1])
        loop, outside = u == v, ~((0 <= lo) & (hi < n_vertices))
        bad = loop | outside | repeat | ~((w > 0.0) & np.isfinite(w))
        if bad.any():
            # the first bad edge, with the first check it fails
            k = int(np.argmax(bad))
            a, b, pair = f"{u[k]:.0f}", f"{v[k]:.0f}", f"({lo[k]:.0f},{hi[k]:.0f})"
            if loop[k]:
                raise _BadEdge(k, f"self-loop at vertex {a}")
            if outside[k]:
                raise _BadEdge(k, f"edge ({a},{b}) outside vertex range")
            if repeat[k]:
                raise _BadEdge(k, f"duplicate edge {pair}")
            raise _BadEdge(k, f"edge {pair} needs a positive finite length")
        self._set_rows(n_vertices, slo.astype(np.intp), shi.astype(np.intp), w[order])

    @classmethod
    def _from_rows(
        cls, n_vertices: int, u: np.ndarray, v: np.ndarray, w: np.ndarray
    ) -> "WeightedGraph":
        """The graph on rows its caller built canonical: intp ``u < v`` in
        range, strictly ascending by (u, v), float64 ``w`` positive and
        finite. The columns are taken without a copy and frozen; O(m)
        checks stand in for the sort and the per-edge masks of the
        constructor, and a broken row raises ``AssertionError``."""
        ascending = (u[1:] > u[:-1]) | ((u[1:] == u[:-1]) & (v[1:] > v[:-1]))
        if not ascending.all():
            raise AssertionError("graph rows are not strictly ascending by (u, v)")
        # u ascends, so its first entry is its least
        if not ((u < v).all() and (u[:1] >= 0).all() and (v < n_vertices).all()):
            raise AssertionError("graph rows need 0 <= u < v < n_vertices")
        if not ((w > 0.0).all() and w.max(initial=0.0) < np.inf):
            raise AssertionError("graph rows need positive finite lengths")
        g = cls.__new__(cls)
        g._set_rows(n_vertices, u, v, w)
        return g

    @classmethod
    def _shortest_rows(
        cls, n_vertices: int, u: np.ndarray, v: np.ndarray, w: np.ndarray
    ) -> "WeightedGraph":
        """:meth:`_from_rows` on intp rows ``u < v`` in any order, keeping
        each pair's shortest row."""
        key = u * n_vertices + v
        order = np.lexsort((w, key))
        order = order[np.unique(key[order], return_index=True)[1]]
        return cls._from_rows(n_vertices, u[order], v[order], w[order])

    def _set_rows(self, n_vertices: int, u: np.ndarray, v: np.ndarray, w: np.ndarray) -> None:
        self.n_vertices = n_vertices
        self.u, self.v, self.w = u, v, w
        for column in (u, v, w):
            column.setflags(write=False)
        self._metric: FiniteMetric | None = None
        # every source's Dijkstra row once the metric is built; before that,
        # the rows served so far while they fit in one ROW_BLOCK
        self._all_rows: np.ndarray | None = None
        self._kept_rows: dict[int, np.ndarray] = {}

    @functools.cached_property
    def edges(self) -> tuple[tuple[int, int, float], ...]:
        return tuple(zip(self.u.tolist(), self.v.tolist(), self.w.tolist()))

    @functools.cached_property
    def _edge_keys(self) -> np.ndarray:
        """``u * n + v`` per row, read-only; it ascends, as the rows do."""
        keys = self.u * self.n_vertices + self.v
        keys.setflags(write=False)
        return keys

    def edge_rows(self, u: int | np.ndarray, v: int | np.ndarray) -> int | np.ndarray:
        """The row of edge {u, v}, or -1 where the graph has no such edge.

        ``u`` and ``v`` are vertex ids or arrays of them, broadcast together,
        each pair in either orientation; ids outside the graph find no edge.
        Two scalars give an ``int``. One ``searchsorted`` over the key column."""
        scalar = np.ndim(u) == np.ndim(v) == 0
        # at least 1-d, so that a key past the id range wraps without a warning
        u, v = (np.atleast_1d(np.asarray(x, dtype=np.intp)) for x in (u, v))
        lo, hi = np.minimum(u, v), np.maximum(u, v)
        key = lo * self.n_vertices + hi
        keys = self._edge_keys
        at = np.searchsorted(keys, key)
        inside = (lo >= 0) & (hi < self.n_vertices)
        found = inside & (keys.take(at, mode="clip") == key) if keys.size else False
        rows = np.where(found, at, -1)
        return int(rows[0]) if scalar else rows

    @functools.cached_property
    def csr(self) -> csr_matrix:
        """Both directions of every edge, column indices sorted in each row.

        Row x lists its smaller neighbours, then its larger ones. Edges are
        sorted by (u, v), so edge k is number ``k - (edges before u's)`` among
        u's larger neighbours, and a stable argsort of v lists every vertex's
        smaller neighbours in ascending order. Each entry is written straight
        into its slot, in the index type scipy would pick."""
        from scipy.sparse import csr_matrix

        n, m = self.n_vertices, self.w.size
        index = np.int32 if max(n, 2 * m) <= np.iinfo(np.int32).max else np.int64
        smaller = np.bincount(self.v, minlength=n)  # neighbours below each vertex
        larger = np.bincount(self.u, minlength=n)
        indptr = np.zeros(n + 1, dtype=index)
        np.cumsum(smaller + larger, out=indptr[1:])
        indices = np.empty(2 * m, dtype=index)
        data = np.empty(2 * m)
        # (u, v) goes after every smaller neighbour of the vertices up to u
        slot = np.cumsum(smaller)[self.u]
        slot += np.arange(m)
        indices[slot], data[slot] = self.v, self.w
        # (v, u) goes after every larger neighbour of the vertices below v
        del slot
        order = np.argsort(self.v, kind="stable")
        slot = np.repeat(np.cumsum(larger) - larger, smaller)
        slot += np.arange(m)
        indices[slot] = self.u[order]
        data[slot] = self.w[order]
        return csr_matrix((data, indices, indptr), shape=(n, n))

    def degrees(self) -> list[int]:
        return np.bincount(np.concatenate([self.u, self.v]), minlength=self.n_vertices).tolist()

    @functools.cached_property
    def component_labels(self) -> np.ndarray:
        """Connected-component label of every vertex, read-only: one
        ``connected_components`` run on :attr:`csr` per graph."""
        _, labels = _connected_components(self.csr, directed=False)
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


def _refuse_overflow(D: np.ndarray, what: str) -> None:
    """Name the first pair i < j of the symmetric ``D`` whose distance is inf."""
    if not D.max(initial=0.0) < np.inf:
        i, j = divmod(int(np.argmax(np.isinf(D))), D.shape[0])
        raise ConfigError(f"{what} distance ({i},{j}) overflows float64")


def shortest_path_metric(g: WeightedGraph) -> FiniteMetric:
    """All-pairs shortest-path metric of a connected graph.

    Raises :class:`DisconnectedGraph` naming one vertex per component when
    the graph is not connected, and :class:`ConfigError` before any search
    when the matrix would not fit in memory, or naming the first pair whose
    length overflows float64. The result is cached on the graph, and so is
    the unsymmetrised Dijkstra matrix it was made from (one more n x n
    array, within the four the preflight counts), which then serves every
    :func:`distance_rows` request on the graph.
    """
    if g._metric is not None:
        return g._metric
    _refuse_beyond_memory(g.n_vertices, "the shortest-path metric")
    _require_connected(g)
    # the CSR already holds both directions of every edge, so the directed
    # search sees the same candidate sums as an undirected one
    rows = _dijkstra(g.csr, directed=True)
    rows.setflags(write=False)
    # Dijkstra from each source is symmetric up to float rounding; make it exact.
    D = np.minimum(rows, rows.T)
    _refuse_overflow(D, "shortest-path")
    # shortest-path distances satisfy the triangle inequality by construction
    m = FiniteMetric(D, validate=False)
    g._metric, g._all_rows, g._kept_rows = m, rows, {}
    return m


def distance_rows(g: WeightedGraph, sources: Sequence[int] | np.ndarray) -> np.ndarray:
    """Shortest-path distances from each source to every vertex of a
    connected graph, one read-only row per source: single-source Dijkstra
    on the cached CSR, directed (the CSR holds both directions of every
    edge).

    The rows are not symmetrised, so entry (k, v) is exactly what Dijkstra
    from ``sources[k]`` finds, which can differ in the last bit from
    :func:`shortest_path_metric`. Each source's row is searched once per
    graph where it can be kept: once the metric is cached every row is read
    from its Dijkstra matrix; before that, newly searched rows are kept only
    while the graph holds at most ``ROW_BLOCK`` of them in all, so a caller
    that streams all n rows (in blocks of ``ROW_BLOCK`` sources) keeps at
    most one block, while a few repeated sources are searched once. Raises
    :class:`InvalidPoint`, naming the first source outside 0..n-1, before
    any search, and :class:`DisconnectedGraph` as
    :func:`shortest_path_metric` does.
    """
    sources = np.asarray(sources, dtype=np.intp).reshape(-1)
    outside = (sources < 0) | (sources >= g.n_vertices)
    if outside.any():
        bad = int(sources[outside.argmax()])
        raise InvalidPoint(f"vertex {bad} out of range for {g.n_vertices} vertices")
    _require_connected(g)
    if g._all_rows is not None:
        out = g._all_rows[sources]
    else:
        wanted = sources.tolist()
        kept = g._kept_rows
        new = sorted(set(wanted).difference(kept))
        if new:
            rows = _dijkstra(g.csr, directed=True, indices=new).reshape(len(new), g.n_vertices)
            rows.setflags(write=False)
            found = dict(zip(new, rows))
            if len(kept) + len(new) <= ROW_BLOCK:
                kept.update(found)
            else:
                kept = {**kept, **found}
        out = np.array([kept[s] for s in wanted]).reshape(sources.size, g.n_vertices)
    out.setflags(write=False)
    return out


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
        return replace(self, dim_lower=low.dim_lower, lower_witness=low.lower_witness)


def _half_down(v: np.ndarray) -> np.ndarray:
    """v / 2, rounded down where the division rounds up (below the normal
    range), so that ``D <= h`` reads ``D <= v / 2`` exactly."""
    h = v / 2.0
    return np.where(2.0 * h > v, np.nextafter(h, -np.inf), h)


def _half_up(v: np.ndarray) -> np.ndarray:
    """v / 2, rounded up where the division rounds down (below the normal
    range, down to 0), so that ``D >= h`` reads ``D >= v / 2`` exactly."""
    h = v / 2.0
    return np.where(2.0 * h < v, np.nextafter(h, np.inf), h)


def _runs(S: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Masks of the first and the last entry of every run of equal values
    along the rows of ``S``, whose rows are sorted."""
    first = np.ones(S.shape, dtype=bool)
    np.not_equal(S[:, 1:], S[:, :-1], out=first[:, 1:])
    last = np.ones(S.shape, dtype=bool)
    last[:, :-1] = first[:, 1:]
    return first, last


def _radius_events(S: np.ndarray, halves: bool) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The sweep events of a block of centers, from their sorted distance
    rows: every distinct positive distance r of a center (with ``halves``,
    also every half of one), as (center in block, radius r, size of the
    ball ``D <= r``), flat in (center, ascending r) order."""
    if halves:
        # each row's distances and their halves, the distances first on ties;
        # zero distances stay in the balls but make no radius
        both = np.concatenate([S, S / 2.0], axis=1)
        both[np.concatenate([S, S], axis=1) <= 0.0] = -1.0
        order = np.argsort(both, axis=1, kind="stable")
        merged = np.take_along_axis(both, order, axis=1)
        inside = np.cumsum(order < S.shape[1], axis=1)  # distances at or before each entry
        first, last = _runs(merged)
        radius = merged >= 0.0
        return np.nonzero(first & radius)[0], merged[first & radius], inside[last & radius]
    first, last = _runs(S)
    positive = S > 0.0
    return np.nonzero(first & positive)[0], S[first & positive], np.nonzero(last & positive)[1] + 1


def _distinct_distances(D: np.ndarray) -> np.ndarray:
    """The sorted distinct entries of the symmetric matrix ``D``, read
    ``ROW_BLOCK`` rows at a time from the block's first column on, so that
    at most about one n x n float64 array of values is held at once."""
    n = D.shape[0]
    parts = [np.unique(D[lo : lo + ROW_BLOCK, lo:]) for lo in range(0, n, ROW_BLOCK)]
    values = np.concatenate(parts)
    del parts
    values.sort()
    first = np.ones(values.size, dtype=bool)
    np.not_equal(values[1:], values[:-1], out=first[1:])
    return values[first]


def _rank_type(top: int) -> type:
    """The narrowest signed integer type that holds 0..top."""
    return np.int16 if top < 1 << 15 else np.int32 if top < 1 << 31 else np.int64


def _beating_events(
    D: np.ndarray,
    halves: bool,
    threshold: Callable[[np.ndarray], np.ndarray],
    best: Callable[[], int],
) -> Iterator[tuple[int, float, float]]:
    """Events whose greedy scan picks more than ``best()``, as (center,
    radius, threshold), in (center, ascending radius) order.

    The events are those of :func:`_radius_events`; event (x, r) is the
    greedy scan over the ball ``D[x] <= r`` with threshold ``threshold(r)``.
    They are listed ``EVENT_BLOCK_ELEMENTS`` entries of centers at a time
    and scanned together by :func:`cover.greedy_scan`, across centers, in
    blocks that start at n events and double up to ``SCAN_BLOCK_ELEMENTS``
    entries, so that ``best()`` can rise before the blocks grow. A block's
    events whose ball has at most ``best()`` points are never scanned, and
    scans that can no longer beat it are cut short. Each event is checked
    against ``best()`` as it stands when the caller asks for the next one;
    a scan cut at an older, lower bar cannot beat it.

    The scans compare small integer ranks instead of distances, which reads
    a quarter to half of the bytes: a point lies in an event's ball iff its
    place in the center's sorted row is below the ball size, and ``D[p, q]``
    exceeds a threshold iff its place among the metric's distinct distances
    comes after every distance at or below the threshold.
    """
    n = D.shape[0]
    values = _distinct_distances(D)
    rank = _rank_type(values.size)
    above = np.empty(D.shape, dtype=rank)
    for lo in range(0, n, ROW_BLOCK):
        above[lo : lo + ROW_BLOCK] = np.searchsorted(values, D[lo : lo + ROW_BLOCK])
    place_type = _rank_type(n)
    budget = max(1, SCAN_BLOCK_ELEMENTS // n)
    size = n
    centers = max(1, EVENT_BLOCK_ELEMENTS // n)
    for lo in range(0, n, centers):
        rows = D[lo : lo + centers]
        order = np.argsort(rows, axis=1, kind="stable")
        at, radii, balls = _radius_events(np.take_along_axis(rows, order, axis=1), halves)
        place = np.empty(order.shape, dtype=place_type)
        np.put_along_axis(place, order, np.arange(n, dtype=place_type)[None, :], axis=1)
        del order
        balls = balls.astype(place_type)
        thresholds = threshold(radii)
        level = (np.searchsorted(values, thresholds, side="right") - 1).astype(rank)
        start = 0
        while start < radii.size:
            stop = min(start + min(size, budget), radii.size)
            size *= 2
            beat = best()
            scan = start + (balls[start:stop] > beat).nonzero()[0]
            start = stop
            if scan.size == 0:
                continue
            live = place[at[scan]] < balls[scan, None]
            picks = cover.greedy_scan(above, live, level[scan], beat=beat)
            sizes = (picks >= 0).sum(axis=1)
            for k in (sizes > beat).nonzero()[0]:
                if sizes[k] > best():
                    i = scan[k]
                    yield lo + int(at[i]), float(radii[i]), float(thresholds[i])


def _below_half(r: np.ndarray) -> np.ndarray:
    """The largest float below r / 2 rounded up: ``D > t`` reads ``D >= r / 2``."""
    return np.nextafter(_half_up(r), -np.inf)


def doubling_estimate(m: FiniteMetric, exact_max_n: int = 64) -> DimensionEstimate:
    """Doubling constant of the metric: the worst number of radius-r balls
    needed to cover a ball of radius 2r, maximized over centers and radii.

    For a fixed center the cover minimum can only drop while B(x, 2r) stays
    the same (growing r only grows the covering balls), so it suffices to
    test the radii where B(x, 2r) gains a point: r = d(x, p)/2 for every p.
    The constant is attained at one of those events, and the greedy cover is
    at least the minimum cover there, so the same events suffice in both
    modes.

    The events are visited in (center, ascending radius) order. Batched
    greedy scans across centers size their covers, in blocks of at most
    ``SCAN_BLOCK_ELEMENTS`` (events x points) entries. Only an event whose
    greedy cover beats the best value so far is looked at further: its
    cover is rebuilt on its own and, in exact mode (n <= exact_max_n),
    branch and bound runs on that ball, pruned at the best exact value so
    far. The first event to reach each new maximum therefore supplies the
    witness, as in a one-event-at-a-time sweep. Above the cutoff the greedy
    cover itself is the estimate. Either way ``lambda_upper`` bounds the
    true constant from above.
    """
    n, D = m.n, m.dist
    exact = n <= exact_max_n
    mode = "exact-cover" if exact else "greedy-cover"
    best = 0
    witness: tuple[int, float, tuple[int, ...]] | None = None
    for x, limit, r in _beating_events(D, False, _half_down, lambda: best):
        universe = np.flatnonzero(D[x] <= limit)
        greedy = cover.greedy_ball_cover(D, universe, r)
        if exact:
            # a quick cover within the best so far is what an aborted search
            # would find: the exact minimum cannot beat the best either
            if cover._covers_within(D, universe, r, best):
                continue
            size, centers, aborted = cover.min_ball_cover(D, universe, r, greedy, prune_at=best)
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

    The events are visited in (center, ascending radius) order. Batched
    greedy scans across centers size their packings, in blocks of at most
    ``SCAN_BLOCK_ELEMENTS`` (events x points) entries. An event whose
    packing beats the best so far is packed again on its own, re-verified
    by direct distance checks and becomes the witness, so the first event to
    reach each new maximum wins.
    """
    D = m.dist
    best = 1
    witness: tuple[int, float, tuple[int, ...]] = (0, 0.0, (0,))
    for x, r, _ in _beating_events(D, True, _below_half, lambda: best):
        packed = cover.greedy_packing(D, np.flatnonzero(D[x] <= r), float(_half_up(np.float64(r))))
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
    ``path:line: reason``. A header whose matrix would not fit in memory is a
    :class:`ConfigError`, raised before the matrix is allocated."""
    with open(path, "r", encoding="utf-8") as fh:
        lines = _data_lines(fh)
        at, n = _header(path, lines, "metric")
        _refuse_beyond_memory(n, f"{path}:{at}: metric {n}")
        D = np.zeros((n, n))
        line_of = np.zeros((n, n), dtype=np.int64)  # 0: pair not given yet
        try:
            for at, parts in lines:
                if parts[0] != "d" or len(parts) != 4:
                    raise ValueError(f"bad record {' '.join(parts)!r}")
                i, j, value = int(parts[1]), int(parts[2]), float(parts[3])
                if not (0 <= i < j < n):
                    raise ValueError(f"pair ({i},{j}) out of order or range")
                if line_of[i, j]:
                    raise ValueError(f"a second distance for pair ({i},{j})")
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
    for u, v, w in zip(g.u.tolist(), g.v.tolist(), g.w.tolist()):
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
    try:
        g = WeightedGraph(n, edges)
    except _BadEdge as exc:
        raise ValueError(f"{path}:{edge_lines[exc.index]}: {exc}") from None
    if fault is not None:
        raise ValueError(f"{path}:{at}: {fault}")
    return g, extras, at


def load_graph(path: str) -> WeightedGraph:
    with open(path, "r", encoding="utf-8") as fh:
        g, _, _ = _parse_graph_lines(path, _data_lines(fh))
    return g
