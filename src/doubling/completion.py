"""Tree completion: exponential tails plus edge lifting.

Every vertex grows a path of exponentially lengthening edges, one per net
level it survives; each original edge is then re-attached between the tail
vertices of its endpoints' net ancestors at the level matching its length.
The result approximates the input metric within (1+eps) both ways while
keeping trees trees, and its closure stays low-dimensional.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import LevelUnderflow
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
from .net_tree import NetTree, build_net_tree, check_eps, istar, level_ancestor_label
from .spanner import cover_constant

__all__ = [
    "Completion",
    "CompletionReport",
    "attach_tails",
    "lift_edges",
    "complete_tree",
    "verify_completion",
    "save_completion",
    "load_completion",
]


@dataclass
class Completion:
    """Output graph plus the bookkeeping to trace it back to the input.

    ``tail_index`` maps (original vertex, tail position) to an output vertex;
    position 0 is the vertex itself. ``lifted`` maps each original edge to
    the (new endpoints, level) it was re-attached at; entries whose endpoints
    coincide were dropped as degenerate (possible only off trees).
    """

    output: WeightedGraph
    tail_index: dict[tuple[int, int], int]
    lifted: dict[tuple[int, int], tuple[int, int, int]]
    scale: float
    n_original: int
    input_is_tree: bool


def attach_tails(
    g: WeightedGraph, t: NetTree
) -> tuple[WeightedGraph, dict[tuple[int, int], int]]:
    """Hang an exponential path off every vertex, one edge per net level.

    Vertex u receives istar(u) tail edges whose scaled lengths double from
    2^1 up; tail vertex ids continue past the originals in (vertex, position)
    order. Edge lengths are emitted in original units, so the path to the
    j-th tail vertex measures (2^(j+1) - 2) / scale.
    """
    if t.n_points != g.n_vertices:
        raise ValueError("net-tree and graph disagree on the vertex count")
    tail_index: dict[tuple[int, int], int] = {}
    edges: list[tuple[int, int, float]] = list(g.edges)
    next_id = g.n_vertices
    for u in range(g.n_vertices):
        tail_index[(u, 0)] = u
        prev = u
        for j in range(1, istar(t, u) + 1):
            tail_index[(u, j)] = next_id
            edges.append((prev, next_id, 2.0**j / t.scale))
            prev = next_id
            next_id += 1
    return WeightedGraph(next_id, edges), tail_index


def lift_edges(
    tailed: WeightedGraph,
    tail_index: dict[tuple[int, int], int],
    g: WeightedGraph,
    t: NetTree,
    eps: float,
) -> Completion:
    """Move every original edge up the tails of its level ancestors.

    An edge of scaled length L belongs to the unique level i with
    C * 2^(i-1) < L <= C * 2^i; it is removed and re-created between the
    i-th tail vertices of its endpoints' level-i ancestors, at its original
    length. Collisions keep the shorter edge; degenerate loops vanish.
    """
    check_eps(eps)
    C = cover_constant(eps)
    lifted: dict[tuple[int, int], tuple[int, int, int]] = {}
    new_lengths: dict[tuple[int, int], float] = {}
    for u, v, length in g.edges:
        scaled = length * t.scale
        if scaled <= C:
            raise LevelUnderflow(
                f"edge ({u}, {v}) of scaled length {scaled!r} sits below the first level"
            )
        level = 1
        while scaled > C * NetTree.radius(level):
            level += 1
        a = tail_index[(level_ancestor_label(t, u, level), level)]
        b = tail_index[(level_ancestor_label(t, v, level), level)]
        lifted[(u, v)] = (a, b, level)
        if a == b:
            continue
        key = (a, b) if a < b else (b, a)
        if key not in new_lengths or length < new_lengths[key]:
            new_lengths[key] = length

    original = {(u, v) for u, v, _ in g.edges}
    edges = [
        (u, v, w) for u, v, w in tailed.edges if (u, v) not in original
    ] + [(a, b, w) for (a, b), w in sorted(new_lengths.items())]
    output = WeightedGraph(tailed.n_vertices, edges)
    return Completion(output, tail_index, lifted, t.scale, g.n_vertices, g.is_tree())


def complete_tree(g: WeightedGraph, eps: float) -> Completion:
    """Full pipeline: net tree over the path metric, tails, lifted edges."""
    check_eps(eps)
    m = shortest_path_metric(g)
    t = build_net_tree(m, eps)
    tailed, tail_index = attach_tails(g, t)
    return lift_edges(tailed, tail_index, g, t, eps)


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
    with open(path, "w", encoding="utf-8") as fh:
        _write_graph(fh, c.output)
        fh.write(f"scale {c.scale!r}\n")
        fh.write(f"meta {c.n_original} {int(c.input_is_tree)}\n")
        for (u, j), new in sorted(c.tail_index.items()):
            fh.write(f"tail {u} {j} {new}\n")
        for (u, v), (a, b, level) in sorted(c.lifted.items()):
            fh.write(f"lift {u} {v} {level} {a} {b}\n")


def load_completion(path: str) -> Completion:
    """Read a file written by :func:`save_completion`; every ``ValueError``,
    also one for a record :func:`complete_tree` never writes, reads ``path:line: reason``."""
    with open(path, "r", encoding="utf-8") as fh:
        graph, extras, last = _parse_graph_lines(
            path, _data_lines(fh), extra_kinds=("scale", "meta", "tail", "lift")
        )
    n = graph.n_vertices
    at = last
    rows: dict[str, list[tuple[int, list]]] = {}
    tail_index: dict[tuple[int, int], int] = {}
    lifted: dict[tuple[int, int], tuple[int, int, int]] = {}
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
            if (u, j) in tail_index:
                raise ValueError(f"a second tail record for ({u},{j})")
            if j < 0 or (j == 0 and new != u) or (j > 0 and new in inputs):
                raise ValueError(f"tail ({u},{j}) -> {new}: position 0 is u, others new vertices")
            tail_index[(u, j)] = new
        for at, (u, v, level, a, b) in rows["lift"]:
            if not (u in inputs and v in inputs and a in vertices and b in vertices):
                raise ValueError(f"lift ({u},{v}) names an id outside the inputs or the graph")
            if (u, v) in lifted:
                raise ValueError(f"a second lift record for ({u},{v})")
            if level < 1 or u >= v:
                raise ValueError(f"lift ({u},{v}) at level {level}: wants u < v and a level >= 1")
            lifted[(u, v)] = (a, b, level)
    except ValueError as exc:
        raise ValueError(f"{path}:{at}: {exc}") from None
    return Completion(graph, tail_index, lifted, scale, n_original, bool(tree_flag))
