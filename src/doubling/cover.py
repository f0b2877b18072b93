"""Ball-cover and packing primitives used by the dimension estimators.

Covers live on small universes (a ball of a finite metric), so the exact
solver works on Python-int bitmasks: one bit per universe point, sets are
candidate balls restricted to the universe.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

__all__ = [
    "greedy_scan",
    "greedy_ball_cover",
    "greedy_packing",
    "min_ball_cover",
]


def _greedy_picks(D: np.ndarray, points: Sequence[int] | np.ndarray, threshold: float) -> list[int]:
    """The greedy scan behind nets, covers and packings, on one point set.

    Scans ``points`` in ascending id (repeats count once): each step picks
    the lowest live id p and keeps live only the points q with
    ``D[p, q] > threshold``. A threshold below 0 would keep p itself live,
    so callers refuse one before the scan.
    """
    live = np.unique(np.asarray(points, dtype=np.intp))
    picks: list[int] = []
    while live.size:
        p = live[0]
        picks.append(int(p))
        live = live[D[p, live] > threshold]
    return picks


def greedy_scan(
    D: np.ndarray, live: np.ndarray, thresholds: np.ndarray, beat: int = 0
) -> np.ndarray:
    """The greedy scan of :func:`_greedy_picks` run on many rows at once, for
    the dimension sweeps.

    ``live[k]`` marks the points scan k may still pick. Each step picks the
    lowest live id p of every nonempty row k and keeps live only the points
    q with ``D[p, q] > thresholds[k]``; a row leaves the scan once it is
    empty. Returns the picks as a (rows, steps) id array: row k holds its
    picks in scan order, then -1 padding. A negative or NaN threshold is
    refused. Only the order of ``D`` and the thresholds matters, so integer
    ranks can stand in for distances.

    With ``beat`` > 0 a row also leaves as soon as its picks so far plus its
    live points cannot exceed ``beat``: rows with more than ``beat`` picks
    are complete scans, the others are cut short at no more than ``beat``.
    """
    live = np.array(live, dtype=bool)  # a copy: the scan clears it in place
    thresholds = np.asarray(thresholds)
    if not (thresholds >= 0).all():
        raise ValueError("greedy scan thresholds must be nonnegative")
    # live counts as byte sums, in the narrowest type that holds a row's count
    count_type = np.uint16 if live.shape[1] < 1 << 16 else np.intp
    rows = np.arange(live.shape[0])
    t = thresholds[:, None]
    steps: list[tuple[np.ndarray, np.ndarray]] = []
    while rows.size:
        counts = np.add.reduce(live.view(np.uint8), axis=1, dtype=count_type)
        keep = (counts > max(0, beat - len(steps))).nonzero()[0]
        if keep.size < rows.size:
            rows, live, t = rows[keep], live[keep], t[keep]
            if rows.size == 0:
                break
        p = live.argmax(axis=1)
        steps.append((rows, p))
        live &= D[p] > t
    picks = np.full((thresholds.size, len(steps)), -1, dtype=np.intp)
    for s, (at, p) in enumerate(steps):
        picks[at, s] = p
    return picks


def greedy_ball_cover(D: np.ndarray, universe: np.ndarray, r: float) -> list[int]:
    """Cover ``universe`` by balls of radius ``r``: repeatedly center a ball
    on the lowest-id point not yet covered.

    Deterministic, and every chosen center lies in the universe, so the
    result is always a valid (if not minimum) cover. A negative or NaN
    radius is refused.
    """
    if not r >= 0.0:
        raise ValueError("cover radius must be nonnegative")
    return _greedy_picks(D, universe, r)


def greedy_packing(D: np.ndarray, ball: np.ndarray, separation: float) -> list[int]:
    """Extract a subset of ``ball`` with pairwise distance >= ``separation``.

    Points are scanned in ascending id; a point joins the packing iff it is
    at least ``separation`` away from everything already kept. The scan's
    strict test runs against the largest float below ``separation``, which
    for floats is exactly ``>= separation``. The separation must be positive.
    """
    if not separation > 0.0:
        raise ValueError("packing separation must be positive")
    return _greedy_picks(D, ball, np.nextafter(separation, -np.inf))


def _covers_within(D: np.ndarray, universe: np.ndarray, r: float, k: int) -> bool:
    """Whether at most ``k`` balls of radius ``r``, centered anywhere, cover
    ``universe`` when each next ball is the one covering the most points
    still uncovered. True proves the minimum cover has at most ``k`` balls;
    False proves nothing."""
    ball = D[:, universe] <= r
    weights = ball.astype(np.float32)  # coverage counts are exact in float32
    uncovered = np.ones(universe.size, dtype=bool)
    for _ in range(k):
        best = int(np.argmax(weights @ uncovered.astype(np.float32)))
        uncovered &= ~ball[best]
        if not uncovered.any():
            return True
    return not uncovered.any()


class _Abort(Exception):
    pass


def min_ball_cover(
    D: np.ndarray,
    universe: np.ndarray,
    r: float,
    ub_centers: Sequence[int],
    prune_at: int = 0,
) -> tuple[int, list[int], bool]:
    """Exact minimum number of radius-``r`` balls covering ``universe``, by
    branch and bound over ball bitmasks.

    Ball centers range over all points of the metric, not just the universe.
    Duplicate and dominated balls are dropped first, keeping the lowest center
    id of each surviving mask as its witness. ``ub_centers`` is a known cover,
    the starting upper bound. The search branches on the uncovered point with
    the fewest candidate balls and tries them by decreasing fresh coverage.

    If a cover of size <= ``prune_at`` turns up, the search stops early and
    the last flag in the result is True (the exact minimum is then only known
    to be <= ``prune_at``). Otherwise the returned size is the true minimum.
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
    kept = ~inside.any(axis=1)
    sets = [s for s, keep in zip(masks, kept.tolist()) if keep]
    owners = [mask_owner[s] for s in sets]

    best: list[int] = []  # the best cover so far, first the greedy one
    covered = 0
    for c in ub_centers:
        mask = mask_of[c]
        # map the greedy center onto a surviving candidate containing its ball
        for k, s in enumerate(sets):
            if mask & s == mask:
                if k not in best:
                    best.append(k)
                    covered |= s
                break
    if covered != full:  # pragma: no cover - greedy covers by construction
        raise ValueError("upper-bound cover does not cover the universe")
    if len(best) <= prune_at:
        return len(best), sorted(owners[k] for k in best), True

    # each point's candidate balls, ascending; never empty, as r >= 0 puts it in its own ball
    point, at = np.nonzero(members[kept].T)
    at, ends = at.tolist(), np.cumsum(np.bincount(point)).tolist()
    covered_by = [at[a:b] for a, b in zip([0, *ends], ends)]
    max_set_bits = max(s.bit_count() for s in sets)

    def search(covered: int, chosen: list[int]) -> None:
        nonlocal best
        if covered == full:
            if len(chosen) < len(best):
                best = list(chosen)
                if len(chosen) <= prune_at:
                    raise _Abort
            return
        uncovered = full & ~covered
        bound = len(chosen) + math.ceil(uncovered.bit_count() / max_set_bits)
        if bound >= len(best):
            return
        # branch on the first uncovered point with the fewest candidate balls;
        # every ball holding an uncovered point still covers something new
        rem = uncovered
        cands = covered_by[(rem & -rem).bit_length() - 1]
        while len(cands) > 1 and rem:
            b = (rem & -rem).bit_length() - 1
            if len(covered_by[b]) < len(cands):
                cands = covered_by[b]
            rem &= rem - 1
        for k in sorted(cands, key=lambda k: (-(sets[k] & uncovered).bit_count(), k)):
            chosen.append(k)
            search(covered | sets[k], chosen)
            chosen.pop()

    aborted = False
    try:
        search(0, [])
    except _Abort:
        aborted = True
    return len(best), sorted(owners[k] for k in best), aborted
