"""Hierarchical net-trees over finite metrics.

Level i of the tree carries a net of the level below at radius 2**i, after
the metric has been rescaled so that its smallest distance is exactly
2**tau(eps). Leaves sit at level 0, one per point; the top level is the
first singleton net.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import ConfigError, LevelOutOfRange
from .metric import REL_TOL, FiniteMetric, _data_lines, greedy_net

__all__ = [
    "tau_for",
    "check_eps",
    "NetTree",
    "ValidationReport",
    "build_net_tree",
    "validate_net_tree",
    "save_net_tree",
    "load_net_tree",
]


def check_eps(eps: float) -> None:
    if not (0.0 < eps <= 0.25):
        raise ValueError(f"eps must lie in (0, 1/4], got {eps!r}")


def tau_for(eps: float) -> int:
    """Normalization exponent: rescaled minimum distance is 2**tau."""
    check_eps(eps)
    return 6 + math.ceil(math.log2(1.0 / eps))


class NetTree:
    """Per-level nets and parent links plus the scale that took the metric to
    net units; the tree keeps no distances.

    ``nets[i]`` holds the labels of level i in ascending order; level 0 is
    every point 0..n-1. ``parents[i][k]`` is the position in ``nets[i + 1]``
    of the parent of node k of level i, and -1 at the top. ``istar[v]`` is
    the highest level whose net contains v (-1 if none does). The metric
    the nets were built on is ``m.dist * scale``.
    """

    def __init__(self, nets: Sequence[Sequence[int]], parents: Sequence[Sequence[int]], scale: float) -> None:
        self.nets = [np.asarray(net, dtype=np.intp) for net in nets]
        self.parents = [np.asarray(up, dtype=np.intp) for up in parents]
        self.scale = scale
        self.istar = np.full(self.n_points, -1, dtype=np.intp)
        for i, net in enumerate(self.nets):
            self.istar[net] = i

    @property
    def n_points(self) -> int:
        return len(self.nets[0])

    @property
    def top_level(self) -> int:
        return len(self.nets) - 1

    def labels(self, i: int) -> list[int]:
        if not 0 <= i <= self.top_level:
            raise LevelOutOfRange(f"level {i} outside [0, {self.top_level}]")
        return self.nets[i].tolist()

    @staticmethod
    def radius(i: int) -> float:
        return 2.0**i


def build_net_tree(m: FiniteMetric, eps: float) -> NetTree:
    """Build the net-tree of a metric at accuracy eps.

    The metric is rescaled so its minimum distance is exactly 2**tau(eps),
    each level's labels are the greedy net of the level below at radius
    2**i, and every node's parent is the same label when it survives, else
    the lowest-id covering label. Levels stop at the first singleton. A
    level whose radius is below the closest scaled pair keeps every point
    with itself as parent, so it is copied without a greedy scan. A metric
    whose rescaled distances overflow float64 is refused with
    :class:`ConfigError`.
    """
    tau = tau_for(eps)
    n = m.n
    if n == 1:
        return NetTree([[0]], [[-1]], 1.0)
    smallest, largest = m.min_distance(), m.diameter()
    scale = 2.0**tau / smallest
    if not math.isfinite(scale):
        raise ConfigError(f"smallest distance {smallest!r} is too small to rescale to 2**{tau}")
    if not math.isfinite(largest * scale):
        raise ConfigError(
            f"largest distance {largest!r} overflows when the smallest, "
            f"{smallest!r}, is rescaled to 2**{tau}"
        )
    scaled = m.dist * scale
    scaled.setflags(write=False)
    sm = FiniteMetric(scaled, validate=False)

    # the closest scaled pair: the same product as its entry of ``scaled``
    floor = smallest * scale
    nets = [np.arange(n)]
    parents = []
    i = 0
    while nets[-1].size > 1:
        i += 1
        r = NetTree.radius(i)
        if r < floor:
            # every pair is farther apart than r: each point is its own parent
            parents.append(np.arange(n))
            nets.append(np.arange(n))
            continue
        kept = np.asarray(greedy_net(sm, r, points=nets[-1]), dtype=np.intp)
        # Kept labels are more than r apart, so a survivor's only hit is
        # itself; anything else takes the first (lowest-id) kept label in reach.
        hits = scaled[np.ix_(nets[-1], kept)] <= r
        if not hits.any(axis=1).all():  # pragma: no cover - greedy guarantees coverage
            raise AssertionError(f"a label is uncovered at level {i}")
        parents.append(hits.argmax(axis=1))
        nets.append(kept)
    parents.append(np.full(1, -1))
    return NetTree(nets, parents, scale)


@dataclass(frozen=True)
class ValidationReport:
    ok: bool
    clause: str | None = None
    detail: str = ""


def validate_net_tree(t: NetTree, m: FiniteMetric) -> ValidationReport:
    """Re-check every structural invariant, reporting the first violation."""
    n = m.n
    S = m.dist * t.scale

    leaf_labels = sorted(t.nets[0].tolist())
    if leaf_labels != list(range(n)):
        return ValidationReport(False, "leaf bijection", f"leaf labels {leaf_labels} != 0..{n - 1}")

    for i in range(1, t.top_level + 1):
        below, above, up = t.nets[i - 1], t.nets[i], t.parents[i - 1]
        bad = np.flatnonzero((up < 0) | (up >= above.size))
        if bad.size:
            k = bad[0]
            clause = "parent missing" if up[k] == -1 else "parent index"
            return ValidationReport(False, clause, f"level {i - 1} node {below[k]}")
        r = NetTree.radius(i)
        has_own = np.zeros(above.size, dtype=bool)
        has_own[up[below == above[up]]] = True
        if not has_own.all():
            label = above[np.argmin(has_own)]
            return ValidationReport(
                False, "same-label child", f"level {i} node {label} has no child with its label"
            )
        far = np.flatnonzero(S[below, above[up]] > r * (1.0 + REL_TOL))
        if far.size:
            a, b = below[far[0]], above[up[far[0]]]
            return ValidationReport(
                False,
                "parent distance",
                f"level {i - 1} node {a} is {float(S[a, b])!r} from parent {b}, over r={r!r}",
            )

        if not np.isin(above, below).all():
            return ValidationReport(False, "nesting", f"level {i} labels not a subset of level {i - 1}")
        close = np.argwhere(np.triu(S[np.ix_(above, above)] < r * (1.0 - REL_TOL), k=1))
        if close.size:
            a, b = above[close[0]]
            return ValidationReport(
                False, "packing", f"level {i} labels {a},{b} at {float(S[a, b])!r} < r={r!r}"
            )
        rest = np.setdiff1d(below, above)
        uncovered = np.flatnonzero(S[np.ix_(rest, above)].min(axis=1, initial=np.inf) > r * (1.0 + REL_TOL))
        if uncovered.size:
            return ValidationReport(
                False, "covering", f"level {i - 1} label {rest[uncovered[0]]} not within r={r!r} of level {i}"
            )

    if t.nets[-1].size != 1:
        return ValidationReport(False, "root", f"top level has {t.nets[-1].size} nodes")
    return ValidationReport(True)


def save_net_tree(t: NetTree, path: str) -> None:
    """Write a ``nettree`` header plus one line per node."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"nettree {len(t.nets)} {t.scale!r}\n")
        for i, (net, up) in enumerate(zip(t.nets, t.parents)):
            for k, (label, parent) in enumerate(zip(net.tolist(), up.tolist())):
                fh.write(f"node {i} {k} {label} {'-' if parent < 0 else parent}\n")


def load_net_tree(path: str, m: FiniteMetric) -> NetTree:
    """Read a net-tree saved by :func:`save_net_tree` over the metric ``m``;
    every ``ValueError`` reads ``path:line: reason``. Every level holds a
    node, so a header promising more levels than ``node`` records is refused."""
    with open(path, "r", encoding="utf-8") as fh:
        lines = _data_lines(fh)
        try:
            at, head = next(lines, (1, []))
            if len(head) != 3 or head[0] != "nettree" or not head[1].isdecimal() or int(head[1]) < 1:
                raise ValueError("expected 'nettree <levels> <scale>' header with levels >= 1")
            n_levels, scale = int(head[1]), float(head[2])
            if not (scale > 0.0 and math.isfinite(scale)):
                raise ValueError(f"scale {head[2]!r} is not positive and finite")
            records = list(lines)
            n_nodes = sum(parts[0] == "node" for _, parts in records)
            if n_levels > n_nodes:
                raise ValueError(f"the header promises {n_levels} levels over {n_nodes} node records")
            nets: list[list[int]] = [[] for _ in range(n_levels)]
            parents: list[list[int]] = [[] for _ in range(n_levels)]
            for at, parts in records:
                if parts[0] != "node" or len(parts) != 5:
                    raise ValueError(f"bad record {' '.join(parts)!r}")
                level, index, label = int(parts[1]), int(parts[2]), int(parts[3])
                parent = -1 if parts[4] == "-" else int(parts[4])
                if not 0 <= level < n_levels:
                    raise ValueError(f"level {level} out of range")
                if index != len(nets[level]):
                    raise ValueError("node indices must appear in order")
                if not 0 <= label < m.n:
                    raise ValueError(f"label {label} outside the metric's points 0..{m.n - 1}")
                if level == 0 and label != index:
                    raise ValueError(f"level 0 must list the points 0..{m.n - 1} in order")
                nets[level].append(label)
                parents[level].append(parent)
            if len(nets[0]) != m.n:
                raise ValueError(f"level 0 has {len(nets[0])} of the metric's {m.n} points")
        except ValueError as exc:
            raise ValueError(f"{path}:{at}: {exc}") from None
    return NetTree(nets, parents, scale)
