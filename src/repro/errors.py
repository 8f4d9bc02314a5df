"""Exception hierarchy for the :mod:`repro` library.

All library-specific errors derive from :class:`ReproError` so callers can
catch the whole family with a single ``except`` clause.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by this library."""


class BitstreamError(ReproError):
    """Raised on malformed bit streams (truncation, bad prefix codes)."""


class GraphError(ReproError):
    """Raised for structurally invalid graphs or node/edge lookups."""


class CoverError(GraphError):
    """Raised when some non-neighbour of ``node`` is not at distance 2, so
    no neighbour covers it (the graph is not Lemma 3-like there)."""

    def __init__(self, node: int, count: int) -> None:
        super().__init__(
            f"node {node}: {count} non-neighbours not coverable at "
            f"distance 2 (graph is not Lemma 3-like)"
        )
        self.node = node
        self.count = count


class PortAssignmentError(GraphError):
    """Raised when a port assignment is not a valid local bijection."""


class ModelError(ReproError):
    """Raised when a scheme is built or charged under an incompatible model."""


class SchemeBuildError(ReproError):
    """Raised when a routing-scheme construction cannot be completed.

    The compact constructions of the paper rely on structural properties of
    Kolmogorov random graphs (diameter 2, logarithmic neighbour covers).  On
    graphs lacking those properties the builders raise this error rather than
    silently producing an incorrect scheme.
    """


class RoutingError(ReproError):
    """Raised when routing a message fails (no port, loop, hop limit)."""


class CodecError(ReproError):
    """Raised when an incompressibility codec cannot encode or decode."""


class IntegrityError(ReproError):
    """Raised when a framed routing table fails its integrity check.

    Deliberately *not* a :class:`RoutingError`: a corrupted table is a
    storage fault, not a routing dead end, and the simulators map it to
    ``DropReason.TABLE_CORRUPT`` (quarantine + heal) rather than
    ``NO_ROUTE``.
    """


class AnalysisError(ReproError):
    """Raised for invalid analysis inputs (e.g. empty scaling samples)."""


class StoreError(ReproError):
    """Raised when the durable scheme store cannot complete an operation.

    Covers I/O failures surfaced by the filesystem layer (a rename that
    did not land, an unreadable journal) and logical failures (a missing
    generation, a hot-swap candidate that failed verification).  Corrupt
    *records* do not raise: recovery quarantines them and reports the
    damage in its :class:`~repro.store.recovery.RecoveryReport`."""
