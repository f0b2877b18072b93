"""Correctness gate: re-measure every output without the code that built it.

Distances come from scipy's Dijkstra over the edge lists and from the
benchmark's own parsers for the text formats; nothing here calls the
package's verifiers (``verify_stretch``, ``long_edge_audit`` and so on).
All checks run outside the timed region.
"""

from __future__ import annotations

import hashlib
import json
import math

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import connected_components, dijkstra

REL = 1e-9


class CheckFailed(Exception):
    """An output disagreed with the benchmark's own measurement."""


def require(cond: bool, message: str) -> None:
    if not cond:
        raise CheckFailed(message)


def digest(lines) -> str:
    h = hashlib.sha256()
    for line in lines:
        h.update(line.encode())
        h.update(b"\n")
    return h.hexdigest()[:16]


def edge_lines(edges) -> list[str]:
    return [f"e {u} {v} {w!r}" for u, v, w in edges]


# ---------------------------------------------------------------------------
# graphs and distances
# ---------------------------------------------------------------------------


def csgraph(n: int, edges) -> csr_matrix:
    e = np.asarray(edges, dtype=np.float64).reshape(-1, 3)
    u = e[:, 0].astype(np.intp)
    v = e[:, 1].astype(np.intp)
    w = e[:, 2]
    return csr_matrix(
        (np.concatenate([w, w]), (np.concatenate([u, v]), np.concatenate([v, u]))),
        shape=(n, n),
    )


def apsp(n: int, edges) -> np.ndarray:
    return dijkstra(csgraph(n, edges), directed=False)


def is_tree(n: int, edges) -> bool:
    if len(edges) != n - 1:
        return False
    k, _ = connected_components(csgraph(n, edges), directed=False)
    return k == 1


def stretch(base: np.ndarray, test: np.ndarray, eps: float, contraction: bool = False) -> tuple[float, float]:
    """Ratio window of ``test`` over ``base`` on all pairs, checked against eps."""
    n = base.shape[0]
    iu = np.triu_indices(n, k=1)
    ratios = test[:n, :n][iu] / base[iu]
    if ratios.size == 0:
        return 1.0, 1.0
    require(bool(np.isfinite(ratios).all()), "output graph is disconnected")
    lo, hi = float(ratios.min()), float(ratios.max())
    lower = 1.0 / (1.0 + eps) if contraction else 1.0
    require(lo >= lower * (1.0 - REL), f"stretch {lo!r} below {lower!r}")
    require(hi <= (1.0 + eps) * (1.0 + REL), f"stretch {hi!r} above {1.0 + eps!r}")
    return lo, hi


def check_spanner(base: np.ndarray, edges, eps: float, max_degree: int) -> dict:
    """Edge lengths equal input distances, stretch within 1+eps, counts agree."""
    n = base.shape[0]
    e = np.asarray(edges, dtype=np.float64).reshape(-1, 3)
    u, v = e[:, 0].astype(np.intp), e[:, 1].astype(np.intp)
    require(bool(((0 <= u) & (u < v) & (v < n)).all()), "edges are not canonical pairs")
    bad = np.flatnonzero(e[:, 2] != base[u, v])
    if bad.size:
        k = bad[0]
        raise CheckFailed(f"edge ({u[k]},{v[k]}) has length {e[k, 2]!r}, input says {float(base[u[k], v[k]])!r}")
    stretch(base, apsp(n, edges), eps)
    deg = int(np.bincount(np.concatenate([u, v]), minlength=n).max(initial=0))
    require(deg == max_degree, f"reported max degree {max_degree}, counted {deg}")
    return {"spanner_edges": len(edges), "spanner_max_degree": deg}


def check_long_edge_witness(n: int, edges, max_count: int, u: int, r: float, witness) -> None:
    """Recount the long edges at the audit's witness (vertex, radius)."""
    D = dijkstra(csgraph(n, edges), directed=False, indices=u)
    counted = sorted(
        (a, b) for a, b, w in edges if min(D[a], D[b]) <= r and w > r
    )
    require(len(counted) == max_count, f"audit claims {max_count} long edges, recount finds {len(counted)}")
    require(sorted(map(tuple, witness)) == counted, "audit witness edges differ from the recount")


# ---------------------------------------------------------------------------
# points of the closure
# ---------------------------------------------------------------------------


def point_to_vertices(D: np.ndarray, lengths: dict, pt) -> np.ndarray:
    """Closure distance from a point (vertex or edge offset) to every vertex."""
    if pt.vertex is not None:
        return D[pt.vertex]
    a, b = pt.edge
    return np.minimum(pt.offset + D[a], lengths[(a, b)] - pt.offset + D[b])


def point_distance(D: np.ndarray, lengths: dict, p, q) -> float:
    to_q = point_to_vertices(D, lengths, q)
    if p.vertex is not None:
        return float(to_q[p.vertex])
    a, b = p.edge
    best = min(p.offset + to_q[a], lengths[(a, b)] - p.offset + to_q[b])
    if q.vertex is None and q.edge == p.edge:
        best = min(best, abs(p.offset - q.offset))
    return float(best)


def check_star_certificate(edges, n_vertices: int, cert, eps: float) -> None:
    """Unit-distance points toward the smallest leaves, pairwise in [1, 2]."""
    k = math.floor(math.log2(1.0 / (2.0 * eps)))
    require(cert.size == k, f"certificate has {cert.size} points, expected {k}")
    require(cert.ok, "certificate reports ok = false")
    D = apsp(n_vertices, edges)
    lengths = {(u, v): w for u, v, w in edges}
    for pt in cert.points:
        d = float(point_to_vertices(D, lengths, pt)[0])
        require(abs(d - 1.0) <= 1e-9, f"point {pt} sits at distance {d!r} from the center")
    pts = cert.points
    for i in range(len(pts)):
        for j in range(i + 1, len(pts)):
            d = point_distance(D, lengths, pts[i], pts[j])
            require(1.0 - 1e-9 <= d <= 2.0 + 1e-9, f"points {i},{j} at distance {d!r}")


def lcp_distances(p: int) -> np.ndarray:
    n = 1 << p
    x = np.arange(n)
    xor = x[:, None] ^ x[None, :]
    bits = np.zeros_like(xor)
    rest = xor.copy()
    while rest.any():
        bits += rest > 0
        rest >>= 1
    D = np.where(xor > 0, 2.0**bits, 0.0)
    return D


def check_lcp(p: int, edges, crossing, packing) -> None:
    """Every crossing pair is an edge; their midpoints pack at >= 2^p."""
    n = 1 << p
    half = n // 2
    present = {(u, v) for u, v, _ in edges}
    crossing_pairs = [(x, y) for x in range(half) for y in range(half, n) if (x, y) in present]
    require(len(crossing_pairs) == half * half, f"{len(crossing_pairs)} of {half * half} crossing edges present")
    require(crossing.present == len(crossing_pairs) and crossing.all_present, "crossing report disagrees")
    D = apsp(n, edges)
    a = np.array([x for x, _ in crossing_pairs])
    b = np.array([y for _, y in crossing_pairs])
    between = np.minimum(
        np.minimum(D[np.ix_(a, a)], D[np.ix_(a, b)]),
        np.minimum(D[np.ix_(b, a)], D[np.ix_(b, b)]),
    )
    mid = float(1 << p) + between  # half an edge out, a path, half an edge in
    iu = np.triu_indices(len(a), k=1)
    lo, hi = float(mid[iu].min()), float(mid[iu].max())
    require(lo >= float(1 << p) - 1e-9 and hi <= 2.0 * lo + 1e-9, f"midpoint window [{lo!r}, {hi!r}]")
    require(packing.ok and packing.size == len(a), "midpoint packing report disagrees")
    require(
        math.isclose(packing.min_pairwise, lo, rel_tol=REL) and math.isclose(packing.max_pairwise, hi, rel_tol=REL),
        f"packing window [{packing.min_pairwise!r}, {packing.max_pairwise!r}] vs measured [{lo!r}, {hi!r}]",
    )


# ---------------------------------------------------------------------------
# files and reports
# ---------------------------------------------------------------------------


def records(path: str):
    with open(path, "r", encoding="utf-8") as fh:
        for raw in fh:
            line = raw.split("#", 1)[0].strip()
            if line:
                yield line.split()


def read_metric(path: str) -> np.ndarray:
    it = records(path)
    head = next(it)
    require(head[0] == "metric", f"{path}: not a metric file")
    n = int(head[1])
    D = np.zeros((n, n))
    for kind, i, j, value in it:
        require(kind == "d", f"{path}: unexpected record {kind!r}")
        D[int(i), int(j)] = D[int(j), int(i)] = float(value)
    return D


def read_graph(path: str) -> tuple[int, list[tuple[int, int, float]]]:
    """Vertex count and ``e`` records; other record kinds are skipped."""
    it = records(path)
    head = next(it)
    require(head[0] == "graph", f"{path}: not a graph file")
    edges = [(int(p[1]), int(p[2]), float(p[3])) for p in it if p[0] == "e"]
    return int(head[1]), edges


def hashable_part(stdout: str) -> str:
    """A rendered report minus its ``[timings]`` section."""
    head, sep, _ = stdout.partition("[timings]\n")
    require(bool(sep), "report has no [timings] section")
    return head


def parse_report(text: str) -> dict[str, dict[str, str]]:
    sections: dict[str, dict[str, str]] = {}
    current: dict[str, str] = {}
    for line in text.splitlines():
        if line.startswith("[") and line.endswith("]"):
            current = sections.setdefault(line[1:-1], {})
        elif " = " in line:
            key, value = line.split(" = ", 1)
            current[key] = value
    return sections


def report_list(text: str, key: str) -> list[str]:
    """Items of a list-valued report entry (``key:`` then ``  - item`` lines)."""
    items: list[str] = []
    lines = iter(text.splitlines())
    for line in lines:
        if line == f"{key}:":
            for item in lines:
                if not item.startswith("  - "):
                    break
                items.append(item[4:])
            break
    return items


def check_report_files(base: str, stdout: str) -> None:
    """The saved .report and .json carry the same reproducible text as stdout."""
    text = hashable_part(stdout)
    with open(base + ".report", "r", encoding="utf-8") as fh:
        require(hashable_part(fh.read()) == text, f"{base}.report differs from the printed report")
    with open(base + ".json", "r", encoding="utf-8") as fh:
        data = json.load(fh)
    sections = parse_report(text)
    for name, values in sections.items():
        if name == "config":
            continue
        for key, value in values.items():
            require(key in data.get(name, {}), f"{base}.json lacks {name}.{key}")


def numeric_rows(json_path: str) -> int:
    """Rows ``emit_plot_data`` should make from one saved report."""
    with open(json_path, "r", encoding="utf-8") as fh:
        data = json.load(fh)
    rows = 0
    for name, values in data.items():
        if name in ("config", "timings"):
            continue
        for value in values.values():
            if isinstance(value, (int, float)) and not isinstance(value, bool):
                rows += 1
    return rows
