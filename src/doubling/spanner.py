"""Bounded-degree (1+eps)-spanner construction over a net-tree.

Candidate edges connect net points of the same level at distances up to a
fixed multiple of the level radius; each edge is then directed toward the
endpoint that survives longer in the nets, and vertices with too many
in-edge levels donate their oldest excess groups to a nearby earlier
neighbour, re-measuring the moved edges. A path greedy then keeps only the
raw (donated) edges that some pair needs for its (1+eps) stretch.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np
from scipy.sparse.csgraph import dijkstra

from .errors import VerificationError
from .metric import (
    REL_TOL,
    FiniteMetric,
    StretchReport,
    WeightedGraph,
    _data_lines,
    _parse_graph_lines,
    _refuse_beyond_memory,
    _write_graph,
    shortest_path_metric,
    verify_stretch,
)
from .net_tree import NetTree, build_net_tree, check_eps

__all__ = [
    "cover_constant",
    "donation_threshold",
    "SpannerEdge",
    "SpannerRecords",
    "Spanner",
    "build_base_edge_sets",
    "assign_directions",
    "donate_edges",
    "prune_edges",
    "build_spanner",
    "save_spanner",
    "load_spanner",
]


def cover_constant(eps: float) -> float:
    """Edge-selection constant: level-i nets link pairs within (4 + 32/eps) * 2**i."""
    return 4.0 + 32.0 / eps


def _bracket_level(lengths: np.ndarray, scale: float, eps: float) -> tuple[np.ndarray, np.ndarray]:
    """Lengths scaled to net units, and each one's level: the least i >= 1
    with L <= C * 2**i, so C * 2**(i-1) < L <= C * 2**i above C."""
    # C > 4, so the last bounds are inf, and an L past the float range finds one too
    with np.errstate(over="ignore"):
        scaled = lengths * scale
        bounds = np.ldexp(cover_constant(eps), np.arange(1, np.finfo(float).maxexp))
    return scaled, np.searchsorted(bounds, scaled) + 1


def donation_threshold(eps: float) -> int:
    """How many low in-edge level groups a vertex keeps untouched."""
    return math.ceil(7.0 * math.log2(1.0 / eps))


@dataclass(frozen=True)
class SpannerEdge:
    """One spanner edge, kept directed for bookkeeping.

    ``u`` is the tail and ``v`` the head. An untouched in-edge has no donor
    and kind "B"; a donated one (kind "C") records the donor vertex, and its
    originating pair is then (u, donor), which still determines the level
    bracket.
    """

    u: int
    v: int
    length: float
    level: int
    donor: int | None = None

    @property
    def kind_v(self) -> str:
        return "B" if self.donor is None else "C"

    @property
    def pair(self) -> tuple[int, int]:
        return (self.u, self.v) if self.u < self.v else (self.v, self.u)

    @property
    def origin(self) -> tuple[int, int]:
        head = self.v if self.donor is None else self.donor
        return (self.u, head) if self.u < head else (head, self.u)


class SpannerRecords(NamedTuple):
    """The edge records as columns, one entry per record: tail ``u``, head
    ``v``, ``length``, ``level`` and ``donor`` (-1 for none)."""

    u: np.ndarray
    v: np.ndarray
    length: np.ndarray
    level: np.ndarray
    donor: np.ndarray


@dataclass(eq=False)
class Spanner:
    """The spanner graph plus its edge records, kept as columns. Record i
    is the record of graph edge i, so the records follow the graph's sorted
    (u < v) rows; :attr:`edges` builds the ``SpannerEdge`` records on first
    read. Spanners compare by identity, as their graphs do.

    ``raw_max_degree`` and ``raw_n_edges`` describe the donated spanner this
    one was pruned from (a donated spanner's own figures); a loaded spanner
    has None there."""

    graph: WeightedGraph
    records: SpannerRecords
    eps: float
    net_tree: NetTree | None
    max_degree: int
    raw_max_degree: int | None = None
    raw_n_edges: int | None = None
    stretch: StretchReport | None = None

    @functools.cached_property
    def edges(self) -> tuple[SpannerEdge, ...]:
        return tuple(
            SpannerEdge(u, v, w, level, None if donor < 0 else donor)
            for u, v, w, level, donor in zip(*(column.tolist() for column in self.records))
        )


def build_base_edge_sets(m: FiniteMetric, t: NetTree, eps: float) -> list[np.ndarray]:
    """Level-indexed candidate edge sets (index 0 is empty), one ``(k, 2)``
    array of pairs ``a < b`` per level, in ascending pair order.

    A pair sits at the bracket level i of its rescaled length ``m.dist *
    t.scale`` (:func:`_bracket_level`, as in ``lift_edges``) when both ends
    lie in the level-i net: nets are nested, so E_i is every pair of level-i
    labels within C * 2**i not placed lower down. A placed pair at or below
    C, and levels that are not nested sets of labels, raise ``AssertionError``.
    """
    check_eps(eps)
    if t.n_points != m.n:
        raise ValueError("net-tree and metric disagree on the point count")
    for i, net in enumerate(t.nets):
        # nested sets of distinct labels: level i holds the points whose istar reaches i
        if not np.array_equal(np.sort(net), np.flatnonzero(t.istar >= i)):
            raise AssertionError("net-tree levels are not nested sets of distinct labels")
    rows, cols = np.triu_indices(m.n, k=1)
    dist, level = _bracket_level(m.dist[rows, cols], t.scale, eps)
    placed = np.flatnonzero(level <= np.minimum(t.istar[rows], t.istar[cols]))
    short = placed[dist[placed] <= cover_constant(eps)]
    if short.size:
        edge, length = (int(rows[short[0]]), int(cols[short[0]])), float(dist[short[0]])
        raise AssertionError(f"edge {edge} of scaled length {length!r} outside the level-1 bracket")
    pairs, level = np.column_stack((rows[placed], cols[placed])), level[placed]
    return [pairs[level == i] for i in range(t.top_level + 1)]


def assign_directions(edge_sets: Sequence[np.ndarray], t: NetTree) -> np.ndarray:
    """Direct each pair toward the endpoint with larger istar (ties: larger id).

    Returns one ``(m, 3)`` array of (tail, head, level) rows in input order.
    """
    level = np.repeat(np.arange(len(edge_sets)), [len(pairs) for pairs in edge_sets])
    a, b = np.concatenate(edge_sets).T
    # a < b, so on an istar tie the larger id b is the head
    flip = t.istar[a] > t.istar[b]
    return np.column_stack((np.where(flip, b, a), np.where(flip, a, b), level))


def donate_edges(
    directed: np.ndarray,
    m: FiniteMetric,
    eps: float,
    net_tree: NetTree | None = None,
) -> Spanner:
    """Apply the degree-reduction pass to the (tail, head, level) rows of
    ``directed`` and assemble the spanner.

    For each vertex x the in-edges are grouped by level; with the nonempty
    groups ranked ascending, ranks above the donation threshold m0 are moved:
    rank j hands every edge {y, x} to the lowest-id tail u of the rank
    (j - m0) group, re-measured to d(y, u). Groups are taken from the
    original direction assignment only, so donated edges are never
    reprocessed and the per-vertex passes are independent. A pair made more
    than once keeps its first record in (head, level, tail) order; every
    record of a pair has the pair's distance as its length, so that is also
    the shortest.

    Working memory, besides ``directed`` itself: about 81 bytes per
    candidate pair at the peak (the sorted intp columns, one int64 pair key
    and the sort inside ``np.unique``); each temporary is dropped once used.
    The spanner keeps 48 bytes per edge: its graph's rows, intp ids and
    float64 lengths in the records, int32 levels and donors.
    """
    check_eps(eps)
    m0 = donation_threshold(eps)
    tail, head, level = np.asarray(directed, dtype=np.intp).reshape(-1, 3).T
    order = np.lexsort((tail, level, head))
    tail, head, level = tail[order], head[order], level[order]
    del order

    # a group is a run of equal (head, level); its rank counts from the
    # first group of its head, and its lowest tail sits at its start
    head_start = _run_starts(head)
    group_start = _run_starts(level)
    group_start |= head_start
    group = np.cumsum(group_start)
    group -= 1
    rank = np.where(head_start, group, 0)
    del head_start
    np.maximum.accumulate(rank, out=rank)
    np.subtract(group, rank, out=rank)
    moved = np.flatnonzero(rank >= m0)
    del rank
    donor = np.full(head.size, -1, dtype=np.int32)
    donor[moved] = head[moved]
    target = head  # a moved edge's head becomes its target in place
    target[moved] = tail[np.flatnonzero(group_start)[group[moved] - m0]]
    del head, group_start, group, moved

    # the key sorts pairs as graph rows, and np.unique returns the index of
    # each key's first occurrence, so each pair keeps its first record
    key = np.minimum(tail, target)
    key *= m.n
    key += np.maximum(tail, target)
    keep = np.unique(key, return_index=True)[1]
    del key
    tail, target, donor = tail[keep], target[keep], donor[keep]
    level = level[keep].astype(np.int32)
    del keep
    length = m.dist[tail, target]
    records = SpannerRecords(tail, target, length, level, donor)
    lo, hi = np.minimum(tail, target), np.maximum(tail, target)
    graph = WeightedGraph._from_rows(m.n, lo, hi, length)
    max_degree = max(graph.degrees(), default=0)
    return Spanner(graph, records, eps, net_tree, max_degree, max_degree, graph.w.size)


def _run_starts(column: np.ndarray) -> np.ndarray:
    """True at index 0 and wherever ``column`` differs from the entry before."""
    starts = np.empty(column.size, dtype=bool)
    starts[:1] = True
    np.not_equal(column[1:], column[:-1], out=starts[1:])
    return starts


# Sorted pairs the path greedy tests against its distance matrix at once.
_GREEDY_BLOCK = 256


def _add_edge(D: np.ndarray, x: int, y: int, w: float) -> None:
    """Lower the shortest-path matrix ``D`` in place for a new edge (x, y, w).

    Only D[i, j] with ``D[i, x] + w < D[i, y]`` (i reaches y better through
    the edge) and ``D[j, y] + w < D[j, x]`` can improve, to
    ``D[i, x] + w + D[y, j]``; its mirror entry gets the same value, so
    ``D`` stays exactly symmetric and rows can stand for columns."""
    to_x, to_y = D[x], D[y]
    I = np.flatnonzero(to_x + w < to_y)[:, None]
    J = np.flatnonzero(to_y + w < to_x)
    lowered = np.minimum(D[I, J], (to_x[I] + w) + to_y[J])
    D[I, J] = lowered
    D[J[:, None], I[:, 0]] = lowered.T


def prune_edges(raw: Spanner, m: FiniteMetric) -> Spanner:
    """The path greedy over all pairs, restricted to the edges of ``raw``.

    Pairs (a, b) are visited in ascending (d(a, b), a, b) order against the
    shortest-path distances D of the edges kept so far. A pair with
    ``D[a, b] > (1+eps) d(a, b)`` gets its raw edge, or, when it has none,
    the missing edges of its shortest path in ``raw`` (Dijkstra bounded by
    (1+eps) d(a, b), within ``REL_TOL``; no such path raises
    :class:`VerificationError` naming the pair). The kept edges are raw
    edges, so the max degree stays at most the raw one, and every pair ends
    within its (1+eps) stretch. The records are the raw records of the kept
    edges; if every raw edge is kept, ``raw`` itself is returned.

    Working memory, besides ``m`` and ``raw``: a float64 D, n x n; 16 bytes
    per pair for the visiting order (int32 ``a`` and ``b``, float64 limits),
    up to twice that while it is built; the raw graph's 8-byte edge keys,
    which find each block's raw edges in one ``edge_rows`` call; and, once
    a hit needs Dijkstra, its CSR (24 bytes per raw edge, 48 while built).

    The same edges as that per-pair loop, with less work:

    - pairs are tested ``_GREEDY_BLOCK`` at a time against D as it stood
      before the block; D only falls, so a pair that passes then passes
      for good, and only the others (hits) are looked at one by one;
    - a hit with ``min_z d(a, z) + d(z, b) > (1+eps) d(a, b) (1 + REL_TOL)``
      over the other points z is forced: no route through a third point
      can serve it, so it is kept without reading D (it must be a raw
      edge). Its update of D waits until a hit that is not forced needs D;
    - adding an edge rewrites only the entries of D it can lower
      (:func:`_add_edge`).
    """
    n, eps, M = m.n, raw.eps, m.dist
    g = raw.graph
    a, b = (index.astype(np.int32) for index in np.triu_indices(n, k=1))
    # triu pairs come in (a, b) order, so a stable sort by d is (d, a, b) order
    order = np.argsort(M[a, b], kind="stable")
    a, b = a[order], b[order]
    limit = M[a, b]
    limit *= 1.0 + eps
    del order

    D = np.full((n, n), np.inf)
    np.fill_diagonal(D, 0.0)
    kept = np.zeros(g.w.size, dtype=bool)  # one flag per raw edge row
    waiting: list[np.ndarray] = []  # raw rows of kept edges whose D update waits

    def keep(rows: np.ndarray) -> None:
        assert (rows >= 0).all(), "only raw pairs are kept"
        rows = rows[~kept[rows]]
        kept[rows] = True
        waiting.append(rows)

    for lo in range(0, a.size, _GREEDY_BLOCK):
        block = slice(lo, lo + _GREEDY_BLOCK)
        hits = lo + np.flatnonzero(D[a[block], b[block]] > limit[block])
        if not hits.size:
            continue
        x, y = a[hits], b[hits]
        via = M[x] + M[y]
        via[np.arange(hits.size), x] = np.inf
        via[np.arange(hits.size), y] = np.inf
        forced = via.min(axis=1, initial=np.inf) > limit[hits] * (1.0 + REL_TOL)
        rows = g.edge_rows(x, y)  # -1: no raw edge
        lacking = np.flatnonzero(forced & (rows < 0))
        if lacking.size:
            k = lacking[0]
            raise VerificationError(
                f"the raw spanner has no path from {x[k]} to {y[k]}: the pair needs its own edge"
            )
        # the forced hits between two others are kept together
        start = 0
        for at in np.flatnonzero(~forced).tolist():
            keep(rows[start:at])
            start = at + 1
            if waiting:
                pending = np.concatenate(waiting)
                waiting.clear()
                columns = (g.u[pending], g.v[pending], g.w[pending])
                for edge in zip(*(column.tolist() for column in columns)):
                    _add_edge(D, *edge)
            k, xa, yb = int(hits[at]), int(x[at]), int(y[at])
            if not D[xa, yb] > limit[k]:
                continue
            if rows[at] >= 0:
                keep(rows[at : at + 1])
                continue
            bound = float(limit[k] * (1.0 + REL_TOL))
            dist, pred = dijkstra(g.csr, indices=xa, return_predecessors=True, limit=bound)
            if not dist[yb] <= bound:
                raise VerificationError(
                    f"the raw spanner has no path from {xa} to {yb} within {bound!r}"
                )
            walk = [yb]
            while walk[-1] != xa:
                walk.append(int(pred[walk[-1]]))
            keep(g.edge_rows(walk[:-1], walk[1:]))
        keep(rows[start:])

    if kept.all():
        return raw
    records = SpannerRecords(*(column[kept] for column in raw.records))
    graph = WeightedGraph._from_rows(n, g.u[kept], g.v[kept], records.length)
    max_degree = max(graph.degrees(), default=0)
    return Spanner(graph, records, eps, raw.net_tree, max_degree, raw.max_degree, g.w.size)


# The peak of build_spanner in n x n float64 arrays, its input metric
# included, with room to spare: tracemalloc read 1 + 8.2, 7.7 and 6.9 on
# random_euclidean(n, 2, 1) at eps = 1/4 for n = 800, 1600 and 3200, and
# 1 + 8.6 at eps = 1/32 (n = 800), where the raw spanner holds 99% of all
# pairs.
_BUILD_MATRICES = 15


def build_spanner(m: FiniteMetric, eps: float) -> Spanner:
    """Net-tree, candidate edges, directions, donation, pruning — then
    verify stretch. A build whose peak (``_BUILD_MATRICES`` n x n float64
    arrays) exceeds physical memory is refused with :class:`ConfigError`
    before the net-tree."""
    check_eps(eps)
    _refuse_beyond_memory(m.n, f"a spanner on {m.n} points", _BUILD_MATRICES)
    t = build_net_tree(m, eps)
    edge_sets = build_base_edge_sets(m, t, eps)
    directed = assign_directions(edge_sets, t)
    del edge_sets
    raw = donate_edges(directed, m, eps, net_tree=t)
    del directed
    spanner = prune_edges(raw, m)
    del raw
    report = verify_stretch(m, shortest_path_metric(spanner.graph), eps)
    if not report.passed:
        raise VerificationError(
            f"spanner stretch check failed: ratios in [{report.min_ratio!r}, {report.max_ratio!r}] "
            f"for eps={eps!r}, violation={report.violation}"
        )
    spanner.stretch = report
    return spanner


def save_spanner(s: Spanner, path: str) -> None:
    """Graph lines plus one ``meta`` sidecar line per record column row."""
    with open(path, "w", encoding="utf-8") as fh:
        _write_graph(fh, s.graph)
        columns = (s.records.u, s.records.v, s.records.level, s.records.donor)
        for u, v, level, donor in zip(*(column.tolist() for column in columns)):
            kind, donor = ("B", "-") if donor < 0 else ("C", donor)
            fh.write(f"meta {u} {v} level={level} kind={kind} donor={donor}\n")


def load_spanner(path: str, eps: float) -> Spanner:
    """Rebuild a spanner record set saved by :func:`save_spanner`; every
    ``ValueError`` reads ``path:line: reason``.

    Each graph edge needs exactly one ``meta`` record, put on its row: a
    second record for a pair is refused at its line, an edge without one at
    the last line read. The net-tree is not persisted, so the loaded spanner
    carries None there and no stretch report.
    """
    with open(path, "r", encoding="utf-8") as fh:
        graph, extras, last = _parse_graph_lines(path, _data_lines(fh), extra_kinds=("meta",))
    rows: list[tuple | None] = [None] * graph.w.size
    # every record's edge row in one lookup; a record whose ids do not
    # parse, or lie outside the graph, finds none and fails at its own line
    ends = [_meta_ids(parts, graph.n_vertices) for _, parts in extras["meta"]]
    found = graph.edge_rows(*np.array(ends, dtype=np.intp).reshape(-1, 2).T).tolist()
    for (at, parts), row in zip(extras["meta"], found):
        try:
            record = _meta_record(graph.n_vertices, row, parts)
            if rows[row] is not None:
                raise ValueError(f"a second meta record for edge ({record[0]},{record[1]})")
        except ValueError as exc:
            raise ValueError(f"{path}:{at}: {exc}") from None
        rows[row] = record
    if None in rows:
        row = rows.index(None)
        u, v = graph.u[row], graph.v[row]
        raise ValueError(f"{path}:{last}: edge ({u},{v}) has no meta record")
    u, v, level, donor = zip(*rows) if rows else [()] * 4
    columns = SpannerRecords(
        np.array(u, dtype=np.intp),
        np.array(v, dtype=np.intp),
        graph.w,
        np.array(level),  # int64, or object for a level beyond it: each reads back as written
        np.array(donor, dtype=np.intp),
    )
    max_degree = max(graph.degrees(), default=0)
    return Spanner(graph, columns, eps, None, max_degree)


def _meta_ids(parts: list[str], n: int) -> tuple[int, int]:
    """A ``meta`` line's (u, v) when both are ids of the n-vertex graph, else (0, 0)."""
    try:
        u, v = int(parts[0]), int(parts[1])
    except (ValueError, IndexError):
        return 0, 0
    return (u, v) if 0 <= u < n and 0 <= v < n else (0, 0)


def _meta_record(n: int, row: int, parts: list[str]) -> tuple:
    """The (tail, head, level, donor, -1 for none) record of one ``meta <u>
    <v> level=<i> kind=<B|C> donor=<x|->`` line on edge ``row`` (-1: none)."""
    if len(parts) != 5 or not all("=" in item for item in parts[2:]):
        raise ValueError(f"bad meta record {' '.join(parts)!r}")
    u, v = int(parts[0]), int(parts[1])
    if row < 0:
        raise ValueError(f"meta ({u},{v}) names no edge of the graph")
    fields = dict(item.split("=", 1) for item in parts[2:])
    if sorted(fields) != ["donor", "kind", "level"]:
        raise ValueError("a meta record needs level=, kind= and donor=")
    level = int(fields["level"])
    if level < 1:
        raise ValueError(f"level={level} is below 1, where the candidate levels start")
    donor = -1 if fields["donor"] == "-" else int(fields["donor"])
    if fields["donor"] != "-" and not 0 <= donor < n:
        raise ValueError(f"donor={donor} names no vertex of the graph")
    if donor in (u, v):
        raise ValueError(f"donor={donor} is an endpoint of its own edge")
    if fields["kind"] != ("B" if donor < 0 else "C"):
        raise ValueError(f"kind={fields['kind']} disagrees with donor={fields['donor']}")
    return u, v, level, donor
