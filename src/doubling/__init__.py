"""Doubling-metric toolkit: nets, spanners, completions, certificates.

The package builds (1+eps)-approximating structures over finite metrics —
bounded-degree spanners and tail-completed trees — and ships the measuring
instruments to check them: doubling-dimension estimators, stretch
verification, long-edge audits, and packing certificates on the continuous
closure of a graph.
"""

from .closure import (
    AuditResult,
    ConvPoint,
    conv_distance,
    conv_geodesic_point,
    long_edge_audit,
    long_edge_packing_witness,
    pairwise_window,
    point_distances,
    sample_metric,
    sample_points,
    sampled_conv_dimension,
)
from .completion import (
    Completion,
    CompletionReport,
    attach_tails,
    complete_tree,
    lift_edges,
    load_completion,
    save_completion,
    verify_completion,
)
from .errors import (
    ConfigError,
    DisconnectedGraph,
    DoublingError,
    EmptyLongEdgeSet,
    InvalidPoint,
    LevelOutOfRange,
    LevelUnderflow,
    SizeMismatch,
    TooFewLeaves,
    VertexSetMismatch,
    VerificationError,
)
from .instances import (
    CrossingReport,
    InstanceSpec,
    PackingCertificate,
    crossing_midpoint_packing,
    exponential_star,
    lcp_crossing_check,
    lcp_metric,
    random_euclidean,
    random_tree,
    star_lb_certificate,
)
from .metric import (
    REL_TOL,
    DimensionEstimate,
    FiniteMetric,
    StretchReport,
    WeightedGraph,
    distance_rows,
    doubling_estimate,
    greedy_net,
    load_graph,
    load_metric,
    packing_lower_bound,
    save_graph,
    save_metric,
    shortest_path_metric,
    verify_stretch,
)
from .net_tree import (
    NetTree,
    ValidationReport,
    build_net_tree,
    load_net_tree,
    save_net_tree,
    tau_for,
    validate_net_tree,
)
from .spanner import (
    Spanner,
    SpannerEdge,
    build_spanner,
    cover_constant,
    donation_threshold,
    load_spanner,
    prune_edges,
    save_spanner,
)

__version__ = "0.1.0"
