"""Exception types shared across the package."""

from __future__ import annotations

__all__ = [
    "DoublingError",
    "DisconnectedGraph",
    "SizeMismatch",
    "InvalidPoint",
    "LevelOutOfRange",
    "LevelUnderflow",
    "EmptyLongEdgeSet",
    "TooFewLeaves",
    "VertexSetMismatch",
    "ConfigError",
    "VerificationError",
]


class DoublingError(Exception):
    """Base class for every error raised by this package."""


class DisconnectedGraph(DoublingError):
    """A graph operation needed a connected graph.

    Carries one representative vertex from each of two separate components.
    """

    def __init__(self, rep_a: int, rep_b: int) -> None:
        super().__init__(
            f"graph is disconnected: no path between vertex {rep_a} and vertex {rep_b}"
        )
        self.rep_a = rep_a
        self.rep_b = rep_b


class SizeMismatch(DoublingError):
    """Two metrics that should share a point set have different sizes."""


class InvalidPoint(DoublingError):
    """A continuous point does not lie on the given graph."""


class LevelOutOfRange(DoublingError):
    """A net-tree level outside [0, top] was requested."""


class LevelUnderflow(DoublingError):
    """An edge is too short to receive a lift level (below the level-1 bracket)."""


class EmptyLongEdgeSet(DoublingError):
    """No long edges exist at the requested vertex and radius."""


class TooFewLeaves(DoublingError):
    """The star instance has fewer leaves than the certificate needs."""


class VertexSetMismatch(DoublingError):
    """A graph does not have the vertex set the check expects."""


class ConfigError(DoublingError):
    """A run configuration is invalid."""


class VerificationError(DoublingError):
    """An internal consistency check failed on a constructed object."""
