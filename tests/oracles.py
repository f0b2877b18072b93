"""Independent brute-force reference implementations for oracle tests.

These deliberately avoid the library's own sweep/search machinery: the
audit oracle evaluates the long-edge count over a dense radius grid, and
the doubling oracle enumerates center subsets outright. Slow but obviously
correct on the small fixtures they run against.

The scalar estimators are the dimension sweeps as one greedy scan per
(center, radius) event, the reference the batched sweeps must reproduce
bit for bit, witnesses included; their exact mode runs the ball-cover
search as two layers (ball masks, then a bitmask solver that rebuilds each
point's candidates bit by bit), the reference the one-function
``min_ball_cover`` must reproduce. The scalar audit is the long-edge census
as one pair of sorts over every edge per vertex, evaluated at every
breakpoint and midpoint, with each vertex's distances from its own
single-source Dijkstra run: the reference the rank-count audit must match.

The scalar closure distance is the four-exit formula one pair at a time, the
reference the blocked ``closure.point_distances`` must reproduce exactly;
the certificate and witness oracles walk their pairs with it in nested loops.
The scalar geodesic point collects its candidate routes as lists of
pieces (exit segment, one piece per walked edge, entry segment) and walks
the pieces of the lex-min route, each found by a depth-first walk over the
symmetrised all-pairs column of its target: the reference for the
stop-by-stop walk of ``closure.conv_geodesic_point``, which reads only the
Dijkstra rows of the exit vertices.
The scalar crossing check walks the half x half grid of prefix strings
through ``has_edge``, the reference for the one-mask ``lcp_crossing_check``.

The scalar graph is the per-edge ``WeightedGraph`` constructor loop with
the degree and adjacency loops, and the scalar APSP runs undirected
Dijkstra on a CSR built from Python lists: the references the array-backed
graph and its one cached CSR must reproduce exactly, error messages and
distance bits included.

The scalar construction layers are the net-tree, candidate edges, directions
and donation as per-node and per-edge Python records: a ``(label, parent)``
pair per node, a ``seen`` set of pairs, and dicts of in-edges per head and of
records per pair. The array-based builders must reproduce them exactly.

The scalar path greedy is the pruning stage as a plain loop over every pair,
the whole shortest-path matrix lowered after each kept edge: the reference
whose kept edges the blocked, lazily updated ``prune_edges`` must match.

The dense completion stretch restricts the completed graph's all-pairs
matrix to the input vertices: the reference for ``verify_completion``,
which reads only the input vertices' Dijkstra rows.
"""

from __future__ import annotations

import itertools
import math
from typing import NamedTuple, Sequence

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import dijkstra

from doubling import (
    REL_TOL,
    DimensionEstimate,
    FiniteMetric,
    StretchReport,
    VerificationError,
    WeightedGraph,
    shortest_path_metric,
    verify_stretch,
)
from doubling.closure import AuditResult, ConvPoint, conv_distance
from doubling.completion import Completion
from doubling.instances import CrossingReport, PackingCertificate
from doubling.metric import greedy_net
from doubling.net_tree import tau_for
from doubling.spanner import Spanner


def brute_audit_max(g: WeightedGraph) -> int:
    """Max long-edge count by direct evaluation over a dense radius grid.

    The grid holds every endpoint-distance and edge-length event, all
    midpoints of consecutive events, and 401 evenly spaced radii on top —
    anything piecewise constant between events is caught redundantly.
    """
    D = shortest_path_metric(g).dist
    lengths = [w for _, _, w in g.edges]
    if not lengths:
        return 0
    values = set(lengths)
    for u in range(g.n_vertices):
        for a, b, _ in g.edges:
            values.add(float(min(D[u, a], D[u, b])))
    grid = sorted(values)
    radii = set(grid)
    for lo, hi in zip(grid, grid[1:]):
        radii.add((lo + hi) / 2.0)
    radii.update(np.linspace(0.0, max(lengths) * 1.05, 401).tolist())
    best = 0
    for u in range(g.n_vertices):
        for r in radii:
            count = sum(
                1
                for a, b, w in g.edges
                if w > r and min(D[u, a], D[u, b]) <= r
            )
            best = max(best, count)
    return best


def scalar_row(g: WeightedGraph, u: int) -> np.ndarray:
    """Distances from ``u`` to every vertex: undirected single-source
    Dijkstra on a CSR built from Python lists, not symmetrised."""
    rows: list[int] = []
    cols: list[int] = []
    data: list[float] = []
    for a, b, w in g.edges:
        rows += [a, b]
        cols += [b, a]
        data += [w, w]
    graph = csr_matrix((data, (rows, cols)), shape=(g.n_vertices, g.n_vertices))
    return dijkstra(graph, directed=False, indices=u)


def scalar_long_edges(g: WeightedGraph, row: np.ndarray, r: float) -> list[tuple[int, int]]:
    """Edges with an endpoint within ``r`` of the vertex whose distance row is
    ``row`` and length above ``r``, one by one."""
    out = []
    for a, b, length in g.edges:
        if min(float(row[a]), float(row[b])) <= r and length > r:
            out.append((a, b))
    return out


def scalar_long_edge_audit(g: WeightedGraph) -> AuditResult:
    """``long_edge_audit`` evaluated per vertex at every breakpoint (an
    endpoint distance or an edge length) and every midpoint between
    consecutive breakpoints, both positive, by two sorts of all edges,
    with each vertex's distances from its own Dijkstra run."""
    if not g.edges:
        return AuditResult(0, (0, 0.0, ()), {u: 0 for u in range(g.n_vertices)})
    shortest_path_metric(g)  # raises DisconnectedGraph
    best_count = 0
    best_vertex = 0
    best_radius = 0.0
    profile: dict[int, int] = {}
    ends_a = np.array([e[0] for e in g.edges], dtype=np.intp)
    ends_b = np.array([e[1] for e in g.edges], dtype=np.intp)
    lengths = np.array([e[2] for e in g.edges], dtype=np.float64)
    for u in range(g.n_vertices):
        row = scalar_row(g, u)
        dmin = np.minimum(row[ends_a], row[ends_b])
        start_sorted = np.sort(dmin)
        stop_sorted = np.sort(np.maximum(dmin, lengths))
        events = np.unique(np.concatenate([dmin, lengths]))
        mids = (events[:-1] + events[1:]) / 2.0
        radii = np.unique(np.concatenate([events[events > 0.0], mids[mids > 0.0]]))
        counts = np.searchsorted(start_sorted, radii, side="right") - np.searchsorted(
            stop_sorted, radii, side="right"
        )
        k = int(np.argmax(counts))
        profile[u] = int(counts[k])
        if profile[u] > best_count:
            best_count = profile[u]
            best_vertex = u
            best_radius = float(radii[k])
    witness_edges = tuple(scalar_long_edges(g, scalar_row(g, best_vertex), best_radius))
    assert len(witness_edges) == best_count
    return AuditResult(best_count, (best_vertex, best_radius, witness_edges), profile)


def exhaustive_doubling_constant(m: FiniteMetric) -> int:
    """Doubling constant by exhaustive minimum-cover search.

    Candidate radii are every pairwise distance and every half distance;
    ball centers range over all points; the minimum cover of each closed
    ball B(x, 2r) by closed radius-r balls is found by trying center
    subsets in increasing size. Only sane for n <= 10 or so.
    """
    D, n = m.dist, m.n
    distances = sorted(
        {float(D[i, j]) for i in range(n) for j in range(i + 1, n) if D[i, j] > 0}
    )
    radii = sorted({d / 2.0 for d in distances} | set(distances))
    lam = 1
    for x in range(n):
        for r in radii:
            universe = [p for p in range(n) if D[x, p] <= 2.0 * r]
            masks = sorted(
                {
                    sum(1 << k for k, p in enumerate(universe) if D[c, p] <= r)
                    for c in range(n)
                }
            )
            full = (1 << len(universe)) - 1
            found = None
            for size in range(1, len(universe) + 1):
                for combo in itertools.combinations(masks, size):
                    acc = 0
                    for s in combo:
                        acc |= s
                    if acc == full:
                        found = size
                        break
                if found is not None:
                    break
            assert found is not None
            lam = max(lam, found)
    return lam


def scalar_greedy_cover(D: np.ndarray, universe: np.ndarray, r: float) -> list[int]:
    """Greedy cover of ``universe``, one ``flatnonzero`` scan per pick."""
    centers: list[int] = []
    uncovered = np.ones(universe.size, dtype=bool)
    while True:
        remaining = np.flatnonzero(uncovered)
        if remaining.size == 0:
            return centers
        p = int(universe[remaining[0]])
        centers.append(p)
        uncovered &= D[p][universe] > r


def scalar_greedy_packing(D: np.ndarray, ball: np.ndarray, separation: float) -> list[int]:
    """Greedy packing of ``ball`` at ``>= separation``, one scan per pick."""
    kept: list[int] = []
    eligible = np.ones(ball.size, dtype=bool)
    while True:
        remaining = np.flatnonzero(eligible)
        if remaining.size == 0:
            return kept
        p = int(ball[remaining[0]])
        kept.append(p)
        eligible &= D[p][ball] >= separation


class _Abort(Exception):
    pass


def scalar_min_cover_bitmask(
    sets: Sequence[int],
    full: int,
    ub_choice: Sequence[int],
    prune_at: int = 0,
) -> tuple[int, list[int], bool]:
    """Exact minimum set cover over bitmask sets via branch and bound.

    ``sets[k]`` is a bitmask of covered universe positions, ``full`` the mask
    of the whole universe, and ``ub_choice`` indices of a known valid cover
    (the starting upper bound). Branches on the uncovered element with the
    fewest candidate sets; at each node candidates are tried in decreasing
    order of fresh coverage.

    If a cover of size <= ``prune_at`` turns up, the search stops early and
    the last flag in the result is True (the exact minimum is then only known
    to be <= ``prune_at``). Otherwise the returned size is the true minimum.
    """
    n_bits = full.bit_count()
    covered_by: list[list[int]] = [[] for _ in range(n_bits)]
    for k, s in enumerate(sets):
        rem = s
        while rem:
            b = (rem & -rem).bit_length() - 1
            covered_by[b].append(k)
            rem &= rem - 1
    if any(not c for c in covered_by):
        raise ValueError("universe element not covered by any candidate set")

    max_set_bits = max(s.bit_count() for s in sets)
    best_size = len(ub_choice)
    best_choice = list(ub_choice)

    def search(covered: int, chosen: list[int]) -> None:
        nonlocal best_size, best_choice
        if covered == full:
            if len(chosen) < best_size:
                best_size = len(chosen)
                best_choice = list(chosen)
                if best_size <= prune_at:
                    raise _Abort
            return
        uncovered = full & ~covered
        bound = len(chosen) + math.ceil(uncovered.bit_count() / max_set_bits)
        if bound >= best_size:
            return
        # branch on the uncovered element with the fewest candidate sets;
        # every set holding an uncovered element still covers something new
        pick_cands: list[int] | None = None
        rem = uncovered
        while rem:
            b = (rem & -rem).bit_length() - 1
            if pick_cands is None or len(covered_by[b]) < len(pick_cands):
                pick_cands = covered_by[b]
                if len(pick_cands) == 1:
                    break
            rem &= rem - 1
        assert pick_cands is not None
        for k in sorted(pick_cands, key=lambda k: (-(sets[k] & uncovered).bit_count(), k)):
            chosen.append(k)
            search(covered | sets[k], chosen)
            chosen.pop()

    aborted = False
    try:
        search(0, [])
    except _Abort:
        aborted = True
    return best_size, best_choice, aborted


def scalar_min_ball_cover(
    D: np.ndarray,
    universe: np.ndarray,
    r: float,
    ub_centers: Sequence[int],
    prune_at: int = 0,
) -> tuple[int, list[int], bool]:
    """Exact minimum number of radius-``r`` balls covering ``universe``.

    Ball centers range over all points of the metric, not just the universe.
    Duplicate and dominated candidate balls are discarded before the search,
    keeping the lowest center id of each surviving mask as its witness.
    ``ub_centers`` and ``prune_at`` are passed through to the bitmask solver.
    All balls are packed into bitmasks in one pass, and the containment test
    runs on all pairs of distinct masks at once.
    """
    full = (1 << universe.size) - 1
    ball = D[:, universe] <= r
    packed = np.packbits(ball, axis=1, bitorder="little").tobytes()
    width = len(packed) // D.shape[0]
    mask_of = [
        int.from_bytes(packed[y * width : (y + 1) * width], "little") for y in range(D.shape[0])
    ]
    mask_owner: dict[int, int] = {}
    for y, mask in enumerate(mask_of):
        if mask and mask not in mask_owner:
            mask_owner[mask] = y
    masks = sorted(mask_owner)
    # drop masks strictly contained in another candidate: entry (s, t) counts
    # the points of ball s outside ball t (exact in float64), zero when s is
    # inside t, and distinct masks never contain each other both ways
    members = ball[[mask_owner[s] for s in masks]].astype(np.float64)
    inside = members @ (1.0 - members).T == 0.0
    np.fill_diagonal(inside, False)
    sets = [s for s, dominated in zip(masks, inside.any(axis=1).tolist()) if not dominated]
    owners = [mask_owner[s] for s in sets]

    ub_idx: list[int] = []
    covered = 0
    for c in ub_centers:
        mask = mask_of[c]
        # map the greedy center onto a surviving candidate containing its ball
        for k, s in enumerate(sets):
            if mask & s == mask:
                if k not in ub_idx:
                    ub_idx.append(k)
                    covered |= s
                break
    if covered != full:  # pragma: no cover - greedy covers by construction
        raise ValueError("upper-bound cover does not cover the universe")
    if len(ub_idx) <= prune_at:
        return len(ub_idx), sorted(owners[k] for k in ub_idx), True

    size, choice, aborted = scalar_min_cover_bitmask(sets, full, ub_idx, prune_at)
    return size, sorted(owners[k] for k in choice), aborted


def scalar_doubling_estimate(m: FiniteMetric, exact_max_n: int = 64) -> DimensionEstimate:
    """``doubling_estimate`` as one scalar greedy cover per (center, radius)
    event, visited in (center, ascending radius) order."""
    n, D = m.n, m.dist
    exact = n <= exact_max_n
    best = 0
    witness = None
    for x in range(n):
        row = D[x]
        for r in np.unique(row[row > 0.0]) / 2.0:
            universe = np.flatnonzero(row <= 2.0 * r)
            if universe.size <= best:
                continue
            greedy = scalar_greedy_cover(D, universe, float(r))
            if len(greedy) <= best:
                continue
            if exact:
                size, centers, aborted = scalar_min_ball_cover(
                    D, universe, float(r), greedy, prune_at=best
                )
                if aborted:
                    continue
                best, witness = size, (x, float(r), tuple(centers))
            else:
                best, witness = len(greedy), (x, float(r), tuple(greedy))
    if best == 0:
        best, witness = 1, (0, 0.0, (0,))
    return DimensionEstimate(
        lambda_upper=best,
        dim_upper=math.log2(best),
        mode="exact-cover" if exact else "greedy-cover",
        upper_witness=witness,
    )


def scalar_packing_lower_bound(m: FiniteMetric) -> DimensionEstimate:
    """``packing_lower_bound`` as one scalar greedy packing per (center,
    radius) event, visited in (center, ascending radius) order."""
    n, D = m.n, m.dist
    best = 1
    witness = (0, 0.0, (0,))
    for x in range(n):
        row = D[x]
        positive = np.unique(row[row > 0.0])
        for r in np.unique(np.concatenate([positive / 2.0, positive])):
            ball = np.flatnonzero(row <= r)
            if ball.size <= best:
                continue
            packed = scalar_greedy_packing(D, ball, float(r) / 2.0)
            if len(packed) > best:
                best, witness = len(packed), (x, float(r), tuple(packed))
    return DimensionEstimate(dim_lower=0.5 * math.log2(best), lower_witness=witness)


def _scalar_exits(g: WeightedGraph, p: ConvPoint) -> list[tuple[int, float]]:
    if p.is_vertex:
        return [(p.vertex, 0.0)]  # type: ignore[list-item]
    u, v = p.edge  # type: ignore[misc]
    return [(u, p.offset), (v, g.edge_length(u, v) - p.offset)]


def scalar_conv_distance(g: WeightedGraph, p: ConvPoint, q: ConvPoint) -> float:
    """Closure distance of one pair: the cheapest ``cost_p + D[a, b] +
    cost_q`` over the exits of both points, or the straight offset
    difference when they share an edge."""
    D = shortest_path_metric(g).dist
    if p.is_vertex and q.is_vertex:
        return float(D[p.vertex, q.vertex])
    best = min(
        cp + float(D[a, b]) + cq
        for a, cp in _scalar_exits(g, p)
        for b, cq in _scalar_exits(g, q)
    )
    if not p.is_vertex and p.edge == q.edge:
        best = min(best, abs(p.offset - q.offset))
    return best


def dense_lex_min_path(g: WeightedGraph, D: np.ndarray, a: int, b: int) -> tuple[int, ...]:
    """Lexicographically smallest shortest vertex path from a to b, with
    every tightness test ``cost + D[w, b]`` against ``D[x, b]`` read from the
    symmetrised all-pairs column of b; the same depth-first walk as
    ``closure._lex_min_path``, which reads b's own Dijkstra row instead."""
    adjacency = g.adjacency()
    path = [a]
    choices = [iter(adjacency[a])]
    on_path = {a}
    dead: set[int] = set()
    while path:
        current = path[-1]
        if current == b:
            return tuple(path)
        left = float(D[current, b])
        tol = REL_TOL * left
        for w, cost in choices[-1]:
            if w not in on_path and w not in dead and abs(cost + float(D[w, b]) - left) <= tol:
                path.append(w)
                choices.append(iter(adjacency[w]))
                on_path.add(w)
                break
        else:
            dead.add(current)
            on_path.discard(path.pop())
            choices.pop()
    raise AssertionError(f"no shortest-path walk from {a} reaches {b}")


def scalar_geodesic_point(g: WeightedGraph, p: ConvPoint, q: ConvPoint, s: float) -> ConvPoint:
    """``conv_geodesic_point`` as route records of (u, v, start, end) pieces,
    each a move along edge {u, v} between offsets measured from u."""
    total = conv_distance(g, p, q)
    if not -REL_TOL * total <= s <= total * (1.0 + REL_TOL):
        raise ValueError(f"arc length {s!r} outside [0, {total!r}]")
    if s <= 0.0:
        return p
    D = shortest_path_metric(g).dist
    tol = REL_TOL * total

    candidates: list[tuple[tuple[int, ...], list[tuple[int, int, float, float]]]] = []
    if not p.is_vertex and p.edge == q.edge and abs(p.offset - q.offset) <= total + tol:
        u, v = p.edge
        candidates.append(((), [(u, v, p.offset, q.offset)]))
    for a, cost_p in _scalar_exits(g, p):
        for b, cost_q in _scalar_exits(g, q):
            if abs(cost_p + float(D[a, b]) + cost_q - total) > tol:
                continue
            walk = dense_lex_min_path(g, D, a, b)
            pieces = []
            if not p.is_vertex:
                u, v = p.edge
                pieces.append((u, v, p.offset, 0.0 if a == u else g.edge_length(u, v)))
            for w1, w2 in zip(walk, walk[1:]):
                cu, cv = (w1, w2) if w1 < w2 else (w2, w1)
                length = g.edge_length(cu, cv)
                pieces.append((cu, cv, 0.0, length) if w1 == cu else (cu, cv, length, 0.0))
            if not q.is_vertex:
                u, v = q.edge
                pieces.append((u, v, 0.0 if b == u else g.edge_length(u, v), q.offset))
            candidates.append((walk, pieces))
    if not candidates:
        raise AssertionError("no route realizes the computed distance")
    _, pieces = min(candidates, key=lambda c: c[0])

    remaining = s
    for cu, cv, start, end in pieces:
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


def scalar_pair_window(g: WeightedGraph, pts) -> tuple[float, float]:
    """(min, max) of ``scalar_conv_distance`` over the pairs i < j; (0, 0)
    for fewer than two points."""
    if len(pts) <= 1:
        return 0.0, 0.0
    lo, hi = math.inf, 0.0
    for i in range(len(pts)):
        for j in range(i + 1, len(pts)):
            d = scalar_conv_distance(g, pts[i], pts[j])
            lo, hi = min(lo, d), max(hi, d)
    return lo, hi


def scalar_lcp_crossing_check(h: WeightedGraph, p: int) -> CrossingReport:
    """``lcp_crossing_check`` walking the half x half grid through ``has_edge``."""
    n, half = 1 << p, (1 << p) // 2
    present, missing = 0, None
    for x in range(half):
        for y in range(half, n):
            if h.has_edge(x, y):
                present += 1
            elif missing is None:
                missing = (x, y)
    return CrossingReport(present, half * half, missing)


def scalar_crossing_midpoint_packing(h: WeightedGraph, p: int) -> PackingCertificate:
    """``crossing_midpoint_packing`` with one scalar distance per pair."""
    n, half = 1 << p, 1 << (p - 1)
    pts = tuple(
        ConvPoint.on_edge(x, y, float(half))
        for x in range(half)
        for y in range(half, n)
        if h.has_edge(x, y)
    )
    lo, hi = scalar_pair_window(h, pts)
    ok = len(pts) > 0 and (
        len(pts) == 1
        or (lo >= float(n) * (1.0 - REL_TOL) and hi <= 2.0 * lo * (1.0 + REL_TOL))
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


def scalar_packing_witness(
    g: WeightedGraph, u: int, r: float, rel_tol: float = REL_TOL
) -> list[ConvPoint]:
    """``long_edge_packing_witness`` with one scalar distance per pair,
    raising the same error at the first point or pair out of bounds."""
    row = scalar_row(g, u)
    points = []
    for a, b in scalar_long_edges(g, row, r):
        da, db = float(row[a]), float(row[b])
        near_is_a = da < db or (da == db and a < b)
        x = r / 2.0 if near_is_a else g.edge_length(a, b) - r / 2.0
        points.append(ConvPoint.on_edge(a, b, x))
    center = ConvPoint.at_vertex(u)
    for pt in points:
        if scalar_conv_distance(g, center, pt) > 2.0 * r * (1.0 + rel_tol):
            raise VerificationError(f"witness point {pt} falls outside the 2r ball")
    for i in range(len(points)):
        for j in range(i + 1, len(points)):
            d = scalar_conv_distance(g, points[i], points[j])
            if d < r * (1.0 - rel_tol):
                raise VerificationError(
                    f"witness points {points[i]} and {points[j]} are only {d!r} apart"
                )
    return points


def bit_length_lcp_matrix(p: int) -> np.ndarray:
    """The prefix metric's matrix, ``2 ** bit_length(i ^ j)`` pair by pair."""
    n = 1 << p
    D = np.zeros((n, n))
    for i in range(n):
        for j in range(i + 1, n):
            D[i, j] = D[j, i] = float(1 << (i ^ j).bit_length())
    return D


def scalar_net_tree(m: FiniteMetric, eps: float) -> tuple[float, list[list[tuple[int, int | None]]]]:
    """(scale, levels) of the net-tree, one ``(label, parent position)`` per
    node in ascending label order; the parent is None at the top. A
    non-survivor's parent is the lowest-id kept label within the radius."""
    if m.n == 1:
        return 1.0, [[(0, None)]]
    scale = 2.0 ** tau_for(eps) / m.min_distance()
    scaled = m.dist * scale
    sm = FiniteMetric(scaled, validate=False)
    levels: list[list[list]] = [[[p, None] for p in range(m.n)]]
    current = list(range(m.n))
    i = 0
    while len(current) > 1:
        i += 1
        r = 2.0**i
        kept = greedy_net(sm, r, points=current)
        index = {label: k for k, label in enumerate(kept)}
        for node in levels[-1]:
            if node[0] in index:
                node[1] = index[node[0]]
            else:
                node[1] = next(index[q] for q in kept if scaled[node[0], q] <= r)
        levels.append([[label, None] for label in kept])
        current = kept
    return scale, [[(label, parent) for label, parent in level] for level in levels]


def scalar_istar(levels) -> dict[int, int]:
    """Highest level whose labels contain each point."""
    out: dict[int, int] = {}
    for i, level in enumerate(levels):
        for label, _ in level:
            out[label] = i
    return out


def scalar_level_ancestor(levels, v: int, i: int) -> int:
    """Label of the level-i ancestor of leaf ``v``, one parent link at a time."""
    idx = [label for label, _ in levels[0]].index(v)
    for level in range(i):
        idx = levels[level][idx][1]
    return levels[i][idx][0]


def scalar_base_edge_sets(S: np.ndarray, levels, C: float) -> list[list[tuple[int, int]]]:
    """Candidate pairs per level: level-i labels within C * 2**i, skipping
    every pair already placed lower down (a ``seen`` set)."""
    seen: set[tuple[int, int]] = set()
    sets: list[list[tuple[int, int]]] = [[]]
    for i in range(1, len(levels)):
        ids = [label for label, _ in levels[i]]
        fresh = []
        for a_pos, a in enumerate(ids):
            for b in ids[a_pos + 1 :]:
                if S[a, b] <= C * 2.0**i and (a, b) not in seen:
                    seen.add((a, b))
                    fresh.append((a, b))
        sets.append(fresh)
    return sets


def scalar_directions(edge_sets, istar_of: dict[int, int]) -> list[tuple[int, int, int]]:
    """(tail, head, level) toward the larger istar, ties toward the larger id."""
    directed = []
    for level, pairs in enumerate(edge_sets):
        for a, b in sorted(pairs):
            directed.append((b, a, level) if istar_of[a] > istar_of[b] else (a, b, level))
    return directed


def scalar_donation(directed, D: np.ndarray, m0: int) -> list[tuple[int, int, float, int, int | None]]:
    """Donation through dicts: in-edges grouped per head and level, ranks
    above ``m0`` moved to the lowest tail of the rank ``j - m0`` group, then
    one record per pair, the shortest and otherwise the first made.
    Returns ``(u, v, length, level, donor)`` sorted by pair."""
    by_head: dict[int, dict[int, list[int]]] = {}
    for tail, head, level in directed:
        by_head.setdefault(head, {}).setdefault(level, []).append(tail)
    out = []
    for x in sorted(by_head):
        groups = sorted(by_head[x])
        for rank, level in enumerate(groups, start=1):
            for y in sorted(by_head[x][level]):
                if rank <= m0:
                    out.append((y, x, float(D[y, x]), level, None))
                else:
                    u = min(by_head[x][groups[rank - 1 - m0]])
                    out.append((y, u, float(D[y, u]), level, x))
    merged: dict[tuple[int, int], tuple] = {}
    for rec in out:
        pair = (min(rec[0], rec[1]), max(rec[0], rec[1]))
        if pair not in merged or rec[2] < merged[pair][2]:
            merged[pair] = rec
    return [merged[pair] for pair in sorted(merged)]


class ScalarGraph(NamedTuple):
    edges: tuple[tuple[int, int, float], ...]
    lengths: dict[tuple[int, int], float]
    degrees: list[int]
    adjacency: list[list[tuple[int, float]]]


def scalar_weighted_graph(n_vertices: int, edges) -> ScalarGraph:
    """The graph one edge at a time: each edge is checked for a self-loop,
    its range, a repeat and its length, in that order, before the next is
    read; the first failure raises its ``ValueError``."""
    if n_vertices < 1:
        raise ValueError("a graph needs at least one vertex")
    canonical: list[tuple[int, int, float]] = []
    seen: set[tuple[int, int]] = set()
    for u, v, length in edges:
        u, v = int(u), int(v)
        if u == v:
            raise ValueError(f"self-loop at vertex {u}")
        if not (0 <= u < n_vertices and 0 <= v < n_vertices):
            raise ValueError(f"edge ({u},{v}) outside vertex range")
        if u > v:
            u, v = v, u
        if (u, v) in seen:
            raise ValueError(f"duplicate edge ({u},{v})")
        length = float(length)
        if not (length > 0.0 and math.isfinite(length)):
            raise ValueError(f"edge ({u},{v}) needs a positive finite length")
        seen.add((u, v))
        canonical.append((u, v, length))
    canonical.sort()
    degrees = [0] * n_vertices
    adjacency: list[list[tuple[int, float]]] = [[] for _ in range(n_vertices)]
    for u, v, w in canonical:
        degrees[u] += 1
        degrees[v] += 1
        adjacency[u].append((v, w))
        adjacency[v].append((u, w))
    for lst in adjacency:
        lst.sort()
    return ScalarGraph(tuple(canonical), {(u, v): w for u, v, w in canonical}, degrees, adjacency)


def scalar_apsp(n_vertices: int, edges) -> np.ndarray:
    """All-pairs shortest paths of a connected graph given as canonical
    ``(u, v, length)`` edges: both directions appended to Python lists,
    undirected Dijkstra, then the elementwise minimum with the transpose."""
    rows: list[int] = []
    cols: list[int] = []
    data: list[float] = []
    for u, v, w in edges:
        rows += [u, v]
        cols += [v, u]
        data += [w, w]
    graph = csr_matrix((data, (rows, cols)), shape=(n_vertices, n_vertices))
    D = dijkstra(graph, directed=False)
    return np.minimum(D, D.T)


def scalar_path_greedy(raw: Spanner, m: FiniteMetric) -> list[tuple[int, int]]:
    """The pairs (a, b) kept by the path greedy over ``raw``, ascending.

    Pairs are visited one at a time in ascending (d, a, b) order. One whose
    current graph distance exceeds (1+eps) d gets its raw edge, or else the
    raw edges its bounded raw shortest path is missing; every kept edge
    lowers the full matrix through both of its directions at once."""
    n, eps = m.n, raw.eps
    length = {(u, v): w for u, v, w in raw.graph.edges}
    D = np.full((n, n), np.inf)
    np.fill_diagonal(D, 0.0)
    kept: set[tuple[int, int]] = set()

    def add(x: int, y: int) -> None:
        kept.add((x, y))
        via = (D[:, x] + length[(x, y)])[:, None] + D[y][None, :]
        np.minimum(D, np.minimum(via, via.T), out=D)

    for d, a, b in sorted((float(m.dist[a, b]), a, b) for a in range(n) for b in range(a + 1, n)):
        t = (1.0 + eps) * d
        if not D[a, b] > t:
            continue
        if (a, b) in length:
            add(a, b)
            continue
        bound = t * (1.0 + REL_TOL)
        dist, pred = dijkstra(raw.graph.csr, indices=a, return_predecessors=True, limit=bound)
        if not dist[b] <= bound:
            raise VerificationError(f"no raw path from {a} to {b}")
        v = b
        while v != a:
            u = int(pred[v])
            if (min(u, v), max(u, v)) not in kept:
                add(min(u, v), max(u, v))
            v = u
    return sorted(kept)


def dense_completion_stretch(g: WeightedGraph, c: Completion, eps: float) -> StretchReport:
    """Stretch of a completion over the input vertices, read from the
    completed graph's full all-pairs matrix."""
    test = shortest_path_metric(c.output).restrict(range(c.n_original))
    return verify_stretch(shortest_path_metric(g), test, eps, allow_contraction=True)
