"""Tree completion: exponential tails plus edge lifting.

Every vertex grows a path of exponentially lengthening edges, one per net
level it survives; each original edge is then re-attached between the tail
vertices of its endpoints' net ancestors at the level matching its length.
The result approximates the input metric within (1+eps) both ways while
keeping trees trees, and its closure stays low-dimensional.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import LevelOutOfRange, LevelUnderflow
from .metric import (
    FiniteMetric,
    StretchReport,
    WeightedGraph,
    _data_lines,
    _parse_graph_lines,
    _write_graph,
    distance_rows,
    shortest_path_metric,
    verify_stretch,
)
from .net_tree import NetTree, build_net_tree, check_eps
from .spanner import _bracket_level, cover_constant

__all__ = [
    "Completion",
    "CompletionReport",
    "Lifts",
    "attach_tails",
    "lift_edges",
    "complete_tree",
    "verify_completion",
    "save_completion",
    "load_completion",
]


class Lifts(NamedTuple):
    """Per input edge row ``u < v``: its ``level`` and the output vertices
    ``a``, ``b`` it was re-attached between (``a == b``: dropped as
    degenerate, possible only off trees)."""

    u: np.ndarray
    v: np.ndarray
    level: np.ndarray
    a: np.ndarray
    b: np.ndarray


@dataclass
class Completion:
    """Output graph plus the bookkeeping to trace it back to the input.

    ``tail_start`` has ``n_original + 1`` entries: vertex u's tail positions
    1..k are the output vertices ``tail_start[u]`` .. ``tail_start[u + 1] - 1``,
    and position 0 is u itself. ``lifts`` holds where each input edge went.
    """

    output: WeightedGraph
    tail_start: np.ndarray
    lifts: Lifts
    scale: float
    n_original: int
    input_is_tree: bool


def attach_tails(g: WeightedGraph, t: NetTree) -> tuple[WeightedGraph, np.ndarray]:
    """Hang an exponential path off every vertex, one edge per net level.

    Vertex u receives ``t.istar[u]`` tail edges whose scaled lengths double from
    2^1 up; tail vertex ids continue past the originals in (vertex, position)
    order. Edge lengths are emitted in original units, so the path to the
    j-th tail vertex measures (2^(j+1) - 2) / scale. Returns the input with
    its tails, and ``tail_start`` (see :class:`Completion`).
    """
    if t.n_points != g.n_vertices:
        raise ValueError("net-tree and graph disagree on the vertex count")
    n = g.n_vertices
    tail_start = n + np.concatenate([[0], np.cumsum(t.istar)])
    head = np.arange(n, tail_start[-1])  # every tail vertex, its owner and its position j
    owner = np.repeat(np.arange(n), t.istar)
    j = head - tail_start[owner] + 1
    tail = np.where(j == 1, owner, head - 1)
    tailed = WeightedGraph._shortest_rows(
        int(tail_start[-1]),
        np.concatenate([g.u, tail]),
        np.concatenate([g.v, head]),
        np.concatenate([g.w, np.ldexp(1.0, j) / t.scale]),
    )
    return tailed, tail_start


def lift_edges(
    tailed: WeightedGraph,
    tail_start: np.ndarray,
    g: WeightedGraph,
    t: NetTree,
    eps: float,
) -> Completion:
    """Move every original edge up the tails of its level ancestors.

    An edge of scaled length L belongs to the unique level i with
    C * 2^(i-1) < L <= C * 2^i, as candidate pairs do (``_bracket_level``);
    it is removed and re-created between the i-th tail vertices of its
    endpoints' level-i ancestors, at its original length. Collisions keep
    the shorter edge; degenerate loops vanish. The first edge in row order
    below level 1, or above the top level, raises. Ancestors climb one net
    level at a time for all vertices at once.
    """
    check_eps(eps)
    scaled, level = _bracket_level(g.w, t.scale, eps)
    under = scaled <= cover_constant(eps)
    fault = under | (level > t.top_level)
    if fault.any():
        k = int(np.argmax(fault))
        if under[k]:
            edge = f"edge ({g.u[k]}, {g.v[k]}) of scaled length {float(scaled[k])!r}"
            raise LevelUnderflow(f"{edge} sits below the first level")
        raise LevelOutOfRange(f"level {level[k]} outside [0, {t.top_level}]")

    a, b = np.empty_like(level), np.empty_like(level)
    node = np.arange(g.n_vertices)  # each vertex's ancestor, as a position in its level
    for i in range(1, int(level.max(initial=0)) + 1):
        node = t.parents[i - 1][node]
        at = np.flatnonzero(level == i)
        first = tail_start[t.nets[i][node]] + (i - 1)  # each ancestor's i-th tail vertex
        a[at], b[at] = first[g.u[at]], first[g.v[at]]

    kept = a != b
    tail = tailed.v >= g.n_vertices  # the input's own edges end below its vertex count
    output = WeightedGraph._shortest_rows(
        tailed.n_vertices,
        np.concatenate([tailed.u[tail], np.minimum(a, b)[kept]]),
        np.concatenate([tailed.v[tail], np.maximum(a, b)[kept]]),
        np.concatenate([tailed.w[tail], g.w[kept]]),
    )
    lifts = Lifts(g.u, g.v, level, a, b)
    return Completion(output, tail_start, lifts, t.scale, g.n_vertices, g.is_tree())


def complete_tree(g: WeightedGraph, eps: float) -> Completion:
    """Full pipeline: net tree over the path metric, tails, lifted edges."""
    check_eps(eps)
    m = shortest_path_metric(g)
    t = build_net_tree(m, eps)
    tailed, tail_start = attach_tails(g, t)
    return lift_edges(tailed, tail_start, g, t, eps)


@dataclass(frozen=True)
class CompletionReport:
    stretch: StretchReport
    tree_ok: bool | None

    @property
    def passed(self) -> bool:
        return self.stretch.passed and self.tree_ok is not False


def verify_completion(g: WeightedGraph, c: Completion, eps: float) -> CompletionReport:
    """Stretch on original pairs and tree shape.

    Stretch allows contraction: completed distances may shrink by up to
    1/(1+eps) as well as grow by (1+eps). They come from the Dijkstra rows
    of the ``n_original`` input vertices, symmetrised among themselves,
    which reproduces the all-pairs matrix on those pairs exactly. Tree
    shape is only checked when the input was a tree (None otherwise).
    """
    base = shortest_path_metric(g)
    rows = distance_rows(c.output, np.arange(c.n_original))[:, : c.n_original]
    test = FiniteMetric(np.minimum(rows, rows.T), validate=False)
    stretch = verify_stretch(base, test, eps, allow_contraction=True)
    tree_ok = c.output.is_tree() if c.input_is_tree else None
    return CompletionReport(stretch, tree_ok)


def save_completion(c: Completion, path: str) -> None:
    """Graph lines plus ``scale``, ``meta``, ``tail`` and ``lift`` records."""
    starts = c.tail_start.tolist()
    with open(path, "w", encoding="utf-8") as fh:
        _write_graph(fh, c.output)
        fh.write(f"scale {c.scale!r}\n")
        fh.write(f"meta {c.n_original} {int(c.input_is_tree)}\n")
        for u in range(c.n_original):
            fh.write(f"tail {u} 0 {u}\n")
            for j, new in enumerate(range(starts[u], starts[u + 1]), start=1):
                fh.write(f"tail {u} {j} {new}\n")
        for u, v, level, a, b in zip(*(column.tolist() for column in c.lifts)):
            fh.write(f"lift {u} {v} {level} {a} {b}\n")


def load_completion(path: str) -> Completion:
    """Read a file written by :func:`save_completion`; every ``ValueError``,
    also one for a record :func:`complete_tree` never writes, reads ``path:line: reason``.

    Tails must take the layout :func:`complete_tree` writes; a record that
    breaks it is named in (vertex, position) order. Then a lift at level i
    must join two position-i tail vertices by an edge of the graph (or be
    one such vertex); the first lift that does not is named in file order."""
    with open(path, "r", encoding="utf-8") as fh:
        graph, extras, last = _parse_graph_lines(
            path, _data_lines(fh), extra_kinds=("scale", "meta", "tail", "lift")
        )
    n = graph.n_vertices
    at = last
    rows: dict[str, list[tuple[int, list]]] = {}
    tails: dict[tuple[int, int], tuple[int, int]] = {}  # (u, j) -> (line, new vertex)
    lifts: dict[tuple[int, int], tuple[int, int, int]] = {}
    try:
        for kind in ("scale", "meta"):
            if len(extras[kind]) != 1:
                at = extras[kind][1][0] if extras[kind] else last
                raise ValueError(f"expected exactly one {kind} record")
        for kind, arity in (("scale", 1), ("meta", 2), ("tail", 3), ("lift", 5)):
            rows[kind] = []
            for at, parts in extras[kind]:
                if len(parts) != arity:
                    raise ValueError(f"bad {kind} record {' '.join(parts)!r}")
                rows[kind].append((at, [float(x) if kind == "scale" else int(x) for x in parts]))
        ((at, (scale,)),) = rows["scale"]
        if not 0.0 < scale < np.inf:
            raise ValueError(f"scale {scale!r} is not positive and finite")
        ((at, (n_original, tree_flag)),) = rows["meta"]
        if n_original not in range(1, n + 1) or tree_flag not in (0, 1):
            raise ValueError(f"meta {n_original} {tree_flag} wants 1..{n} inputs, tree flag 0 or 1")
        inputs, vertices = range(n_original), range(n)
        for at, (u, j, new) in rows["tail"]:
            if u not in inputs or new not in vertices:
                raise ValueError(f"tail ({u},{j}) names an id outside the inputs or the graph")
            if (u, j) in tails:
                raise ValueError(f"a second tail record for ({u},{j})")
            if j < 0 or (j == 0 and new != u) or (j > 0 and new in inputs):
                raise ValueError(f"tail ({u},{j}) -> {new}: position 0 is u, others new vertices")
            tails[(u, j)] = (at, new)
        for at, (u, v, level, a, b) in rows["lift"]:
            if not (u in inputs and v in inputs and a in vertices and b in vertices):
                raise ValueError(f"lift ({u},{v}) names an id outside the inputs or the graph")
            if (u, v) in lifts:
                raise ValueError(f"a second lift record for ({u},{v})")
            if level < 1 or u >= v:
                raise ValueError(f"lift ({u},{v}) at level {level}: wants u < v and a level >= 1")
            lifts[(u, v)] = (level, a, b)
        # in (u, j) order: positions 0, 1, ... of every input, the new
        # vertices numbered on from n_original up to the graph's last
        tail_start, prev, next_new = [], (-1, 0), n_original
        for (u, j), (at, new) in sorted(tails.items()):
            want = (u, prev[1] + 1) if u == prev[0] else (prev[0] + 1, 0)
            if (u, j) != want:
                raise ValueError(f"no tail record for ({want[0]},{want[1]}) before tail ({u},{j})")
            if j > 0 and new != next_new:
                raise ValueError(f"tail ({u},{j}) -> {new}: the tail vertices run on from {next_new}")
            if j == 0:
                tail_start.append(next_new)
            next_new, prev = next_new + (j > 0), (u, j)
        at = last
        if prev[0] + 1 < n_original:
            raise ValueError(f"no tail record for ({prev[0] + 1},0)")
        if next_new < n:
            raise ValueError(f"vertices {next_new}..{n - 1} lie past the last tail")
        # a lift joins two tail vertices at its level, by a graph edge unless a == b
        position = {new: j for (_, j), (_, new) in tails.items()}
        ends = np.array([parts[3:] for _, parts in rows["lift"]], dtype=np.intp).reshape(-1, 2)
        for (at, (u, v, level, a, b)), row in zip(rows["lift"], graph.edge_rows(*ends.T).tolist()):
            if not position[a] == position[b] == level:
                raise ValueError(f"lift ({u},{v}) -> ({a},{b}): wants tail vertices at position {level}")
            if a != b and row < 0:
                raise ValueError(f"lift ({u},{v}) -> ({a},{b}): the graph has no such edge")
    except ValueError as exc:
        raise ValueError(f"{path}:{at}: {exc}") from None
    columns = zip(*sorted((u, v, *rest) for (u, v), rest in lifts.items()))
    # int64 columns, with object levels beyond it: each reads back as written
    empty = np.empty(0, dtype=np.intp)
    lifted = Lifts(*(np.array(c) for c in columns)) if lifts else Lifts(*[empty] * 5)
    tail_start = np.array(tail_start + [next_new])
    return Completion(graph, tail_start, lifted, scale, n_original, bool(tree_flag))
