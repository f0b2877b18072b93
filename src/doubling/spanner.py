"""Bounded-degree (1+eps)-spanner construction over a net-tree.

Candidate edges connect net points of the same level at distances up to a
fixed multiple of the level radius; each edge is then directed toward the
endpoint that survives longer in the nets, and vertices with too many
in-edge levels donate their oldest excess groups to a nearby earlier
neighbour, re-measuring the moved edges.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np

from .errors import VerificationError
from .metric import (
    FiniteMetric,
    StretchReport,
    WeightedGraph,
    _data_lines,
    _parse_graph_lines,
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
    "build_spanner",
    "save_spanner",
    "load_spanner",
]


def cover_constant(eps: float) -> float:
    """Edge-selection constant: level-i nets link pairs within (4 + 32/eps) * 2**i."""
    return 4.0 + 32.0 / eps


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
    """The spanner graph plus its edge records, kept as columns;
    :attr:`edges` builds the ``SpannerEdge`` records on first read.
    Spanners compare by identity, as their graphs do."""

    graph: WeightedGraph
    records: SpannerRecords
    eps: float
    net_tree: NetTree | None
    max_degree: int
    stretch: StretchReport | None = None

    @functools.cached_property
    def edges(self) -> tuple[SpannerEdge, ...]:
        return tuple(
            SpannerEdge(u, v, w, level, None if donor < 0 else donor)
            for u, v, w, level, donor in zip(*(column.tolist() for column in self.records))
        )


def build_base_edge_sets(m: FiniteMetric, t: NetTree, eps: float) -> list[np.ndarray]:
    """Level-indexed candidate edge sets (index 0 is empty), one ``(k, 2)``
    array of pairs ``a < b`` per level.

    E_i holds the pairs of level-i net labels within cover_constant * 2**i
    in the rescaled metric, minus everything that appeared at lower levels,
    in ascending pair order. Every fresh pair is asserted to fall in the
    half-open length bracket (C * 2**(i-1), C * 2**i]: nets are nested, so
    anything shorter was already eligible one level down.
    """
    check_eps(eps)
    if t.n_points != m.n:
        raise ValueError("net-tree and metric disagree on the point count")
    C = cover_constant(eps)
    rows, cols = np.triu_indices(m.n, k=1)
    dist = t.scaled_dist[rows, cols]
    sets = [np.empty((0, 2), dtype=np.intp)]
    for i in range(1, t.top_level + 1):
        member = np.zeros(m.n, dtype=bool)
        member[t.nets[i]] = True
        hit = member[rows] & member[cols] & (dist <= C * NetTree.radius(i))
        short = np.flatnonzero(hit & (dist <= C * NetTree.radius(i - 1)))
        if short.size:
            k = short[0]
            raise AssertionError(
                f"edge {(int(rows[k]), int(cols[k]))} of scaled length {dist[k]!r} "
                f"outside the level-{i} bracket"
            )
        sets.append(np.column_stack((rows[hit], cols[hit])))
        rows, cols, dist = rows[~hit], cols[~hit], dist[~hit]
    return sets


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
    """
    check_eps(eps)
    m0 = donation_threshold(eps)
    tail, head, level = np.asarray(directed, dtype=np.intp).reshape(-1, 3).T
    order = np.lexsort((tail, level, head))
    tail, head, level = tail[order], head[order], level[order]

    # a group is a run of equal (head, level); its rank counts from the
    # first group of its head, and its lowest tail sits at its start
    head_start = np.diff(head, prepend=-1) != 0
    group_start = head_start | (np.diff(level, prepend=-1) != 0)
    group = np.cumsum(group_start) - 1
    first = np.maximum.accumulate(np.where(head_start, group, 0))
    donated = group - first >= m0
    starts = np.flatnonzero(group_start)
    target = np.where(donated, tail[starts[np.maximum(group - m0, 0)]], head)
    donor = np.where(donated, head, -1)
    length = m.dist[tail, target]

    # the stable sort keeps each pair's first record at the front of its run
    lo, hi = np.minimum(tail, target), np.maximum(tail, target)
    keep = np.lexsort((hi, lo))
    keep = keep[(np.diff(lo[keep], prepend=-1) != 0) | (np.diff(hi[keep], prepend=-1) != 0)]
    records = SpannerRecords(tail[keep], target[keep], length[keep], level[keep], donor[keep])
    graph = WeightedGraph(m.n, np.column_stack((lo[keep], hi[keep], records.length)))
    max_degree = max(graph.degrees(), default=0)
    return Spanner(graph, records, eps, net_tree, max_degree)


def build_spanner(m: FiniteMetric, eps: float) -> Spanner:
    """Net-tree, candidate edges, directions, donation — then verify stretch."""
    check_eps(eps)
    t = build_net_tree(m, eps)
    edge_sets = build_base_edge_sets(m, t, eps)
    directed = assign_directions(edge_sets, t)
    spanner = donate_edges(directed, m, eps, net_tree=t)
    report = verify_stretch(m, shortest_path_metric(spanner.graph), eps)
    if not report.passed:
        raise VerificationError(
            f"spanner stretch check failed: ratios in [{report.min_ratio!r}, {report.max_ratio!r}] "
            f"for eps={eps!r}, violation={report.violation}"
        )
    spanner.stretch = report
    return spanner


def save_spanner(s: Spanner, path: str) -> None:
    """Graph lines plus one ``meta`` sidecar line per directed edge record."""
    with open(path, "w", encoding="utf-8") as fh:
        _write_graph(fh, s.graph)
        for rec in s.edges:
            donor = "-" if rec.donor is None else str(rec.donor)
            fh.write(f"meta {rec.u} {rec.v} level={rec.level} kind={rec.kind_v} donor={donor}\n")


def load_spanner(path: str, eps: float) -> Spanner:
    """Rebuild a spanner record set saved by :func:`save_spanner`; every
    ``ValueError`` reads ``path:line: reason``.

    Each graph edge needs exactly one ``meta`` record, as the donation pass
    makes them: a second record for a pair is refused at its line, an edge
    without one at the last line read. The net-tree is not persisted, so the
    loaded spanner carries None there and no stretch report.
    """
    with open(path, "r", encoding="utf-8") as fh:
        graph, extras, last = _parse_graph_lines(path, _data_lines(fh), extra_kinds=("meta",))
    records: list[SpannerEdge] = []
    pairs: set[tuple[int, int]] = set()
    for at, parts in extras["meta"]:
        try:
            rec = _meta_record(graph, parts)
            if rec.pair in pairs:
                raise ValueError(f"a second meta record for edge ({rec.u},{rec.v})")
        except ValueError as exc:
            raise ValueError(f"{path}:{at}: {exc}") from None
        pairs.add(rec.pair)
        records.append(rec)
    if len(records) != graph.u.size:
        u, v = next(e for e in zip(graph.u.tolist(), graph.v.tolist()) if e not in pairs)
        raise ValueError(f"{path}:{last}: edge ({u},{v}) has no meta record")
    columns = SpannerRecords(
        np.array([r.u for r in records], dtype=np.intp),
        np.array([r.v for r in records], dtype=np.intp),
        np.array([r.length for r in records], dtype=np.float64),
        # int64, or object for a level beyond it: each reads back as written
        np.array([r.level for r in records]),
        np.array([-1 if r.donor is None else r.donor for r in records], dtype=np.intp),
    )
    max_degree = max(graph.degrees(), default=0)
    return Spanner(graph, columns, eps, None, max_degree)


def _meta_record(graph: WeightedGraph, parts: list[str]) -> SpannerEdge:
    """The edge record of one ``meta <u> <v> level=<i> kind=<B|C> donor=<x|->`` line."""
    if len(parts) != 5 or not all("=" in item for item in parts[2:]):
        raise ValueError(f"bad meta record {' '.join(parts)!r}")
    u, v = int(parts[0]), int(parts[1])
    if not graph.has_edge(u, v):
        raise ValueError(f"meta ({u},{v}) names no edge of the graph")
    fields = dict(item.split("=", 1) for item in parts[2:])
    if sorted(fields) != ["donor", "kind", "level"]:
        raise ValueError("a meta record needs level=, kind= and donor=")
    donor = None if fields["donor"] == "-" else int(fields["donor"])
    if donor is not None and not 0 <= donor < graph.n_vertices:
        raise ValueError(f"donor={donor} names no vertex of the graph")
    rec = SpannerEdge(u, v, graph.edge_length(u, v), int(fields["level"]), donor)
    if fields["kind"] != rec.kind_v:
        raise ValueError(f"kind={fields['kind']} disagrees with donor={fields['donor']}")
    return rec
