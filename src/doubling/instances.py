"""Instance generators and the two executable lower-bound certificates.

The generators cover the structured families (the exponential star and the
prefix hypercube metric) plus seeded random corpora. The certificates turn
the lower-bound arguments into distance computations on concrete builds:
nothing is assumed from the construction, every claimed separation is
re-measured.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from .closure import ConvPoint, conv_geodesic_point, pairwise_window, point_distances
from .completion import Completion
from .errors import ConfigError, TooFewLeaves, VertexSetMismatch
from .metric import REL_TOL, FiniteMetric, WeightedGraph, _physical_memory, _refuse_beyond_memory
from .net_tree import check_eps

__all__ = [
    "InstanceSpec",
    "exponential_star",
    "lcp_metric",
    "random_euclidean",
    "random_tree",
    "PackingCertificate",
    "star_lb_certificate",
    "CrossingReport",
    "lcp_crossing_check",
    "crossing_midpoint_packing",
]

FAMILIES = ("exponential-star", "lcp-hypercube", "euclidean-random", "random-tree")


def exponential_star(n: int) -> WeightedGraph:
    """Star with center 0 and leaves 1..n; edge to leaf i has length 2**i.
    A leaf length beyond float range is refused before anything is built."""
    if n < 1:
        raise ValueError("need at least one leaf")
    if n >= sys.float_info.max_exp:
        raise ValueError(
            f"exponential-star n = {n}: the edge to leaf {n}, 2**{n}, is beyond float range "
            f"(at most {sys.float_info.max_exp - 1} leaves)"
        )
    return WeightedGraph(n + 1, [(0, i, 2.0**i) for i in range(1, n + 1)])


def lcp_metric(p: int) -> FiniteMetric:
    """All 2**p binary strings, at distance 2**(p - common prefix length).

    Point ids follow lexicographic string order, i.e. the integer value of
    the string. For distinct ids the exponent p − lcp is exactly the bit
    length of their XOR. The result is an ultrametric of exact powers of
    two, so the triangle check is skipped. A dense matrix larger than the
    machine's physical memory is refused before anything is built.
    """
    if p < 1:
        raise ValueError("need strings of positive length")
    _refuse_beyond_memory(1 << p, f"lcp p = {p}")
    ids = np.arange(1 << p)
    # frexp's exponent of a positive integer below 2**53 is its bit length
    D = np.ldexp(1.0, np.frexp(ids[:, None] ^ ids)[1])
    np.fill_diagonal(D, 0.0)
    return FiniteMetric(D, validate=False)


def random_euclidean(n: int, ambient_dim: int, seed: int) -> FiniteMetric:
    """Uniform points in the unit cube; plain Euclidean distances, a metric
    by construction, so the triangle check is skipped. A dense matrix or a
    point array larger than the machine's physical memory is refused before
    anything is built."""
    if n < 1:
        raise ValueError("need at least one point")
    if ambient_dim < 1:
        raise ValueError("ambient dimension must be positive")
    _refuse_beyond_memory(n, f"euclidean-random n = {n}")
    need, have = 8 * n * ambient_dim, _physical_memory()
    if need > have:
        raise ConfigError(
            f"euclidean-random n = {n} needs {n} x {ambient_dim} point coordinates ({need} bytes), "
            f"more than this machine's {have} bytes of memory"
        )
    rng = np.random.default_rng(seed)
    pts = rng.random((n, ambient_dim))
    # squared differences summed one coordinate at a time, in place
    D = np.zeros((n, n))
    step = np.empty((n, n))
    for x in pts.T:
        np.subtract(x[:, None], x, out=step)
        np.multiply(step, step, out=step)
        D += step
    del step
    return FiniteMetric(np.sqrt(D, out=D), validate=False)


def random_tree(n: int, seed: int) -> WeightedGraph:
    """Random recursive tree; lengths spread over ~3 decades of scale."""
    if n < 1:
        raise ValueError("need at least one vertex")
    rng = np.random.default_rng(seed)
    edges = []
    for v in range(1, n):
        parent = int(rng.integers(0, v))
        edges.append((parent, v, float(2.0 ** rng.uniform(0.0, 10.0))))
    return WeightedGraph(n, edges)


@dataclass(frozen=True)
class InstanceSpec:
    """Seeded description of a corpus instance; building it is pure."""

    family: str
    n: int | None = None
    p: int | None = None
    ambient_dim: int = 2
    seed: int = 0

    def __post_init__(self) -> None:
        if self.family not in FAMILIES:
            raise ValueError(f"unknown family {self.family!r}")

    def build(self) -> WeightedGraph | FiniteMetric:
        if self.family == "exponential-star":
            return exponential_star(_required(self.n, "n"))
        if self.family == "lcp-hypercube":
            return lcp_metric(_required(self.p, "p"))
        if self.family == "euclidean-random":
            return random_euclidean(_required(self.n, "n"), self.ambient_dim, self.seed)
        return random_tree(_required(self.n, "n"), self.seed)

    def describe(self) -> dict[str, object]:
        out: dict[str, object] = {"family": self.family}
        if self.n is not None:
            out["n"] = self.n
        if self.p is not None:
            out["p"] = self.p
        if self.family == "euclidean-random":
            out["ambient_dim"] = self.ambient_dim
        if self.family in ("euclidean-random", "random-tree"):
            out["seed"] = self.seed
        return out


def _required(value: int | None, name: str) -> int:
    if value is None:
        raise ValueError(f"instance spec is missing {name!r}")
    return value


@dataclass(frozen=True)
class PackingCertificate:
    """A measured packing: points near a center with a verified separation.

    ``dim_lower`` is half the log of the packing size, valid whenever the
    points fit in a ball of at most twice the minimum pairwise distance;
    ``ok`` records that plus the window checks that were requested.
    """

    center: int
    points: tuple[ConvPoint, ...]
    ball_radius: float
    min_pairwise: float
    max_pairwise: float
    dim_lower: float
    ok: bool

    @property
    def size(self) -> int:
        return len(self.points)


def star_lb_certificate(c: Completion, eps: float) -> PackingCertificate:
    """Unit-distance points toward the smallest leaves of a completed star.

    Walks distance 1 from the center toward leaf i for
    i = 1..floor(log2(1/(2 eps))) and verifies the landed points sit at
    distance 1 from the center with pairwise distances in [1, 2], both up to
    relative tolerance ``REL_TOL``, so they lie inside the radius-2 ball. The
    packing size therefore certifies a dimension lower bound that grows with
    log log(1/eps), however small eps gets.
    """
    check_eps(eps)
    k = math.floor(math.log2(1.0 / (2.0 * eps)))
    leaves = c.n_original - 1
    if leaves < k:
        raise TooFewLeaves(f"certificate needs {k} leaves, the star has {leaves}")
    g = c.output
    center = ConvPoint.at_vertex(0)
    points = tuple(
        conv_geodesic_point(g, center, ConvPoint.at_vertex(i), 1.0)
        for i in range(1, k + 1)
    )
    radial = point_distances(g, [center], points)[0]
    lo, hi = pairwise_window(g, points)
    ok = bool(np.all(np.abs(radial - 1.0) <= REL_TOL)) and (
        len(points) <= 1 or (lo >= 1.0 - REL_TOL and hi <= 2.0 * (1.0 + REL_TOL))
    )
    return PackingCertificate(
        center=0,
        points=points,
        ball_radius=2.0,
        min_pairwise=lo,
        max_pairwise=hi,
        dim_lower=0.5 * math.log2(len(points)) if points else 0.0,
        ok=ok,
    )


@dataclass(frozen=True)
class CrossingReport:
    """Presence census of the edges between the two prefix halves."""

    present: int
    total: int
    missing: tuple[int, int] | None

    @property
    def all_present(self) -> bool:
        return self.missing is None


def _crossing_edges(h: WeightedGraph, p: int) -> tuple[int, np.ndarray, np.ndarray]:
    """``half`` and the edges ``x < half <= y`` between the two prefix halves
    of the ``2**p`` points, in ascending (x, y) order, as the graph keeps them."""
    n = 1 << p
    if h.n_vertices != n:
        raise VertexSetMismatch(
            f"expected exactly the {n} prefix points, graph has {h.n_vertices} vertices"
        )
    half = n // 2
    crossing = (h.u < half) & (h.v >= half)
    return half, h.u[crossing], h.v[crossing]


def lcp_crossing_check(h: WeightedGraph, p: int) -> CrossingReport:
    """Does ``h`` directly connect every 0-string to every 1-string?

    Any graph on exactly these points whose path metric stays within
    (1 + 2**-(p+1)) of the prefix metric must: a two-hop route through
    either half overshoots. The report counts the present pairs and names
    the first missing one, if any, in (0-string, 1-string) order.
    """
    half, x, y = _crossing_edges(h, p)
    present = np.zeros((half, half), dtype=bool)
    present[x, y - half] = True
    gaps = np.argwhere(~present)
    missing = (int(gaps[0, 0]), half + int(gaps[0, 1])) if gaps.size else None
    return CrossingReport(x.size, half * half, missing)


def crossing_midpoint_packing(h: WeightedGraph, p: int) -> PackingCertificate:
    """Midpoints of the crossing edges, measured as a packing in the closure.

    Crossing edges all have length 2**p; their midpoints should sit at
    pairwise distance between 2**p and 1.5 * 2**p, but the realized window
    is measured, not assumed. The half-log dimension bound is claimed only
    when the window supports it (minimum at least 2**p, maximum at most
    twice the minimum).
    """
    _, x, y = _crossing_edges(h, p)
    offset = float(1 << (p - 1))
    pts = tuple(ConvPoint.on_edge(a, b, offset) for a, b in zip(x.tolist(), y.tolist()))
    lo, hi = pairwise_window(h, pts)
    floor = float(1 << p)
    ok = len(pts) > 0 and (
        len(pts) == 1 or (lo >= floor * (1.0 - REL_TOL) and hi <= 2.0 * lo * (1.0 + REL_TOL))
    )
    return PackingCertificate(
        center=0,
        points=pts,
        ball_radius=hi,
        min_pairwise=lo,
        max_pairwise=hi,
        dim_lower=0.5 * math.log2(len(pts)) if ok and pts else 0.0,
        ok=ok,
    )
