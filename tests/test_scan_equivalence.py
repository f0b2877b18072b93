"""The greedy scans against their scalar references.

``doubling_estimate`` and ``packing_lower_bound`` size the radii of many
centers with one batched greedy scan over rank tables; ``oracles`` keeps the
one-scan-per-event loops. The whole ``DimensionEstimate`` must match, mode and witnesses
included, in exact and greedy mode and at any scan block size. Nets, covers
and packings share one single-row scan, which must pick what the scalar
loops pick over the sorted, repeat-free point set, whatever order and
repeats it is given. The exact ball-cover search must return what the
two-layer search (ball masks, then a bitmask solver) returns, early exits
included.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from doubling import (
    FiniteMetric,
    WeightedGraph,
    doubling_estimate,
    packing_lower_bound,
    random_euclidean,
    random_tree,
    shortest_path_metric,
)
from doubling import cover, metric
from doubling.closure import sample_metric
from oracles import (
    scalar_doubling_estimate,
    scalar_greedy_cover,
    scalar_greedy_packing,
    scalar_min_ball_cover,
    scalar_packing_lower_bound,
)

# one row per block, a few rows per block, the module default
BUDGETS = (1, 40, metric.SCAN_BLOCK_ELEMENTS)


def euclidean(seed: int, n: int) -> FiniteMetric:
    return random_euclidean(n, 1 + seed % 3, seed)


def integer_grid(seed: int, n: int) -> FiniteMetric:
    """Distinct points of a 4x4x4 grid under the L1 norm: many equal distances."""
    rng = np.random.default_rng(seed)
    cells = rng.choice(64, size=n, replace=False)
    pts = np.stack([cells // 16, (cells // 4) % 4, cells % 4], axis=1).astype(float)
    return FiniteMetric(np.abs(pts[:, None, :] - pts[None, :, :]).sum(axis=2))


def tree(seed: int, n: int) -> FiniteMetric:
    return shortest_path_metric(random_tree(n, seed))


def closure_sample(seed: int, n: int) -> FiniteMetric:
    return sample_metric(random_tree(max(2, n // 3), seed), 1 + seed % 2)


FAMILIES = {
    "euclidean": euclidean,
    "integer-grid": integer_grid,
    "tree": tree,
    "closure-sample": closure_sample,
}


def assert_matches_scalar(m: FiniteMetric, exact_max_n: int) -> None:
    for budget in BUDGETS:
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(metric, "SCAN_BLOCK_ELEMENTS", budget)
            upper = doubling_estimate(m, exact_max_n=exact_max_n)
            lower = packing_lower_bound(m)
        assert upper == scalar_doubling_estimate(m, exact_max_n=exact_max_n), budget
        assert lower == scalar_packing_lower_bound(m), budget


@pytest.mark.parametrize("family", sorted(FAMILIES))
@settings(max_examples=12, deadline=None)
@given(seed=st.integers(0, 10_000), n=st.integers(1, 18))
def test_exact_mode_matches_scalar(family, seed, n):
    assert_matches_scalar(FAMILIES[family](seed, n), exact_max_n=64)


@pytest.mark.parametrize("family", sorted(FAMILIES))
@settings(max_examples=12, deadline=None)
@given(seed=st.integers(0, 10_000), n=st.integers(1, 40))
def test_greedy_mode_matches_scalar(family, seed, n):
    assert_matches_scalar(FAMILIES[family](seed, n), exact_max_n=1)


def test_single_row_blocks_on_a_closure_sample(monkeypatch):
    """Every block boundary falls between two radii of the same center."""
    m = sample_metric(random_tree(12, 3), 2)
    monkeypatch.setattr(metric, "SCAN_BLOCK_ELEMENTS", 1)
    assert doubling_estimate(m) == scalar_doubling_estimate(m)
    assert packing_lower_bound(m) == scalar_packing_lower_bound(m)


def test_packing_separation_is_inclusive():
    """Points exactly ``separation`` apart are both kept: the strict scan
    runs against the float just below the separation."""
    g = WeightedGraph(3, [(0, 1, 0.1), (1, 2, 0.2)])
    D = shortest_path_metric(g).dist
    ball = np.arange(3)
    sep = float(D[0, 1])
    assert cover.greedy_packing(D, ball, sep) == [0, 1, 2]
    assert cover.greedy_packing(D, ball, np.nextafter(sep, np.inf)) == [0, 2]


def test_greedy_scan_rows_are_independent_scans():
    m = random_euclidean(30, 2, 5)
    D, row = m.dist, m.dist[7]
    limits = np.sort(row)[[3, 10, 29]]
    live = row[None, :] <= limits[:, None]
    before = live.copy()
    picks = cover.greedy_scan(D, live, limits / 2.0)
    assert np.array_equal(live, before)
    alone = [
        cover.greedy_ball_cover(D, np.flatnonzero(row <= limit), limit / 2.0)
        for limit in limits
    ]
    assert [len(a) for a in alone] == [3, 4, 3]
    for k in range(limits.size):
        assert picks[k][picks[k] >= 0].tolist() == alone[k]
    # a bar of 3 leaves the scan that beats it whole and cuts the others short
    cut = cover.greedy_scan(D, live, limits / 2.0, beat=3)
    assert cut[1].tolist() == alone[1]
    for k in (0, 2):
        got = cut[k][cut[k] >= 0].tolist()
        assert len(got) <= 3 and got == alone[k][: len(got)]


@pytest.mark.parametrize("family", sorted(FAMILIES))
@settings(max_examples=6, deadline=None)
@given(seed=st.integers(0, 10_000), n=st.integers(1, 14))
def test_center_blocks_match_scalar(family, seed, n):
    """The sweeps list their events one or a few centers at a time."""
    m = FAMILIES[family](seed, n)
    for entries in (1, 30):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(metric, "EVENT_BLOCK_ELEMENTS", entries)
            assert_matches_scalar(m, exact_max_n=64)
            assert_matches_scalar(m, exact_max_n=1)


@pytest.mark.parametrize("family", sorted(FAMILIES))
@settings(max_examples=15, deadline=None)
@given(seed=st.integers(0, 10_000), n=st.integers(1, 30), beat=st.integers(0, 6), data=st.data())
def test_greedy_scan_on_ranks_picks_what_it_picks_on_distances(family, seed, n, beat, data):
    """The sweeps scan rank tables: ``D[p, q] > t`` read as "D exceeds more
    of the distinct thresholds than t does"."""
    m = FAMILIES[family](seed, n)
    D = m.dist
    values = np.unique(D).tolist()
    limits = np.array(data.draw(st.lists(st.sampled_from(values), min_size=1, max_size=8)))
    thresholds = np.array([data.draw(st.sampled_from(values)) * f for f in (0.5, 1.0)] * 4)[: limits.size]
    centers = np.array(data.draw(st.lists(st.integers(0, m.n - 1), min_size=limits.size, max_size=limits.size)))
    live = D[centers] <= limits[:, None]
    levels, level = np.unique(thresholds, return_inverse=True)
    ranks = np.searchsorted(levels, D, side="left").astype(np.int16)
    got = cover.greedy_scan(ranks, live, level.astype(np.int16), beat=beat)
    assert np.array_equal(got, cover.greedy_scan(D, live, thresholds, beat=beat))


def test_greedy_scan_of_no_rows_is_an_empty_table():
    """Zero rows used to loop for ever on empty steps."""
    picks = cover.greedy_scan(TINY, np.zeros((0, 3), dtype=bool), np.zeros(0))
    assert picks.shape == (0, 0)


@pytest.mark.parametrize("family", sorted(FAMILIES))
@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 10_000), n=st.integers(1, 24), data=st.data())
def test_a_quick_cover_within_the_bar_bounds_the_exact_minimum(family, seed, n, data):
    """``doubling_estimate`` skips the exact search when the max-coverage
    cover fits in the best so far; that must mean the search would stop early."""
    m = FAMILIES[family](seed, n)
    D = m.dist
    row = D[data.draw(st.integers(0, m.n - 1))]
    r = data.draw(st.sampled_from((np.unique(row) / 2.0).tolist()))
    universe = np.flatnonzero(row <= 2.0 * r)
    greedy = cover.greedy_ball_cover(D, universe, r)
    exact = scalar_min_ball_cover(D, universe, r, greedy, 0)[0]
    assert cover._covers_within(D, universe, r, universe.size)
    for k in range(len(greedy) + 1):
        if cover._covers_within(D, universe, r, k):
            assert exact <= k
            assert cover.min_ball_cover(D, universe, r, greedy, prune_at=k)[2]


@pytest.mark.parametrize("family", sorted(FAMILIES))
@settings(max_examples=15, deadline=None)
@given(seed=st.integers(0, 10_000), n=st.integers(1, 30), data=st.data())
def test_single_row_scans_match_scalar_in_any_order(family, seed, n, data):
    m = FAMILIES[family](seed, n)
    D = m.dist
    points = data.draw(st.lists(st.integers(0, m.n - 1), max_size=2 * m.n))
    ascending = np.unique(np.asarray(points, dtype=np.intp))
    r = data.draw(st.sampled_from(np.unique(D).tolist())) * data.draw(st.sampled_from([0.5, 1.0]))
    universe = np.asarray(points, dtype=np.intp)
    assert cover.greedy_ball_cover(D, universe, r) == scalar_greedy_cover(D, ascending, r)
    if r > 0.0:
        assert cover.greedy_packing(D, universe, r) == scalar_greedy_packing(D, ascending, r)
        listed = np.asarray(sorted(points), dtype=np.intp)
        assert metric.greedy_net(m, r, points) == scalar_greedy_cover(D, listed, r)
        assert metric.greedy_net(m, r) == scalar_greedy_cover(D, np.arange(m.n), r)


@pytest.mark.parametrize("family", sorted(FAMILIES))
@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 10_000), n=st.integers(1, 30), data=st.data())
def test_exact_cover_matches_the_two_layer_search(family, seed, n, data):
    """B(x, 2r) at a drawn event radius r = d(x, p)/2, the greedy cover as
    the upper bound, and every early exit from none to the greedy size."""
    m = FAMILIES[family](seed, n)
    D = m.dist
    row = D[data.draw(st.integers(0, m.n - 1))]
    r = data.draw(st.sampled_from((np.unique(row) / 2.0).tolist()))
    universe = np.flatnonzero(row <= 2.0 * r)
    greedy = cover.greedy_ball_cover(D, universe, r)
    for prune_at in (0, len(greedy) - 2, len(greedy) - 1, len(greedy)):
        got = cover.min_ball_cover(D, universe, r, greedy, prune_at)
        assert got == scalar_min_ball_cover(D, universe, r, greedy, prune_at), prune_at


TINY = random_euclidean(3, 2, 1).dist


@pytest.mark.parametrize(
    "call",
    [
        lambda: cover.greedy_packing(TINY, np.arange(3), 0.0),
        lambda: cover.greedy_packing(TINY, np.arange(3), -1.0),
        lambda: cover.greedy_packing(TINY, np.arange(3), float("nan")),
        lambda: cover.greedy_ball_cover(TINY, np.arange(3), -1.0),
        lambda: cover.greedy_ball_cover(TINY, np.arange(3), float("nan")),
        lambda: cover.greedy_scan(TINY, np.ones((2, 3), dtype=bool), np.array([0.5, -1.0])),
        lambda: cover.greedy_scan(TINY, np.ones((1, 3), dtype=bool), np.array([float("nan")])),
        lambda: metric.greedy_net(FiniteMetric(TINY), 0.0),
    ],
    ids=[
        "packing-zero",
        "packing-negative",
        "packing-nan",
        "cover-negative",
        "cover-nan",
        "scan-negative",
        "scan-nan",
        "net-zero",
    ],
)
def test_a_threshold_that_keeps_its_own_pick_live_is_refused(call):
    """Below 0 a pick stays live and the scan would never end."""
    with pytest.raises(ValueError):
        call()
