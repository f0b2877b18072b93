"""Shared fixtures. Expensive builds are session-scoped so the acceptance
tests and the module tests reuse the same artifacts."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import settings

from doubling import (
    FiniteMetric,
    WeightedGraph,
    build_spanner,
    complete_tree,
    exponential_star,
    lcp_metric,
    random_euclidean,
    shortest_path_metric,
)

# Property tests draw the same examples on every run: the seed comes from
# each test function, no example database is replayed, and slow examples
# are not failed on time.
settings.register_profile("deterministic", derandomize=True, database=None, deadline=None)
settings.load_profile("deterministic")


def small_audit_graphs() -> dict[str, WeightedGraph]:
    """Connected graphs with at most 8 edges, mixed scales and shapes."""
    return {
        "single_edge": WeightedGraph(2, [(0, 1, 2.0)]),
        "path3": WeightedGraph(3, [(0, 1, 1.0), (1, 2, 4.0)]),
        "triangle": WeightedGraph(3, [(0, 1, 1.0), (0, 2, 1.0), (1, 2, 1.0)]),
        "cycle4": WeightedGraph(4, [(0, 1, 1.0), (1, 2, 2.0), (2, 3, 3.0), (0, 3, 2.0)]),
        "star5": exponential_star(5),
        "k4": WeightedGraph(
            4, [(i, j, 1.0 + 0.25 * (i + j)) for i in range(4) for j in range(i + 1, 4)]
        ),
        "star7": exponential_star(7),
    }


def small_metrics() -> dict[str, FiniteMetric]:
    """Metrics with n <= 10 for the exhaustive doubling oracle."""
    uniform4 = FiniteMetric(np.ones((4, 4)) - np.eye(4))
    from doubling import random_tree

    return {
        "uniform4": uniform4,
        "lcp2": lcp_metric(2),
        "lcp3": lcp_metric(3),
        "star5_vertices": shortest_path_metric(exponential_star(5)),
        "euclid8": random_euclidean(8, 2, 3),
        "euclid10": random_euclidean(10, 3, 7),
        "tree9": shortest_path_metric(random_tree(9, 2)),
        "collinear3": shortest_path_metric(WeightedGraph(3, [(0, 1, 1.0), (1, 2, 1.0)])),
    }


@pytest.fixture(scope="session")
def audit_graphs():
    return small_audit_graphs()


@pytest.fixture(scope="session")
def oracle_metrics():
    return small_metrics()


@pytest.fixture(scope="session")
def star16_completion():
    return complete_tree(exponential_star(16), 0.25)


@pytest.fixture(scope="session")
def star32_completion():
    return complete_tree(exponential_star(32), 0.25)


@pytest.fixture(scope="session")
def lcp4_spanner():
    return build_spanner(lcp_metric(4), 1.0 / 32.0)


@pytest.fixture(scope="session")
def planar_spanners():
    """Spanners per (n, seed) on the planar uniform family at eps = 1/4."""
    return {
        (n, seed): build_spanner(random_euclidean(n, 2, seed), 0.25)
        for n in (100, 400)
        for seed in range(1, 6)
    }


@pytest.fixture(scope="session")
def euclidean_max_degrees(planar_spanners):
    """Max spanner degree per (n, seed) on the planar uniform family."""
    return {key: s.max_degree for key, s in planar_spanners.items()}


@pytest.fixture(scope="session")
def euclidean_raw_max_degrees(planar_spanners):
    """Max degree of the donated spanner before pruning, per (n, seed)."""
    return {key: s.raw_max_degree for key, s in planar_spanners.items()}
