"""Space accounting: the paper's definition of a scheme's size.

"The space requirement of a routing scheme is measured as the sum over all
nodes of the number of bits needed on each node to encode its routing
function", plus — when nodes are not labelled ``1..n`` (model γ) — the bits
of each node's label.  We additionally track *auxiliary* bits a scheme must
carry under models IA/IB where neighbour knowledge is not free (e.g. the
``n - 1``-bit interconnection vector the Theorem 1 scheme stores under IB).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Set

from repro.errors import ModelError
from repro.models.model import RoutingModel

__all__ = ["NodeSpace", "SpaceReport", "minimal_label_bits"]


def minimal_label_bits(n: int) -> int:
    """``⌈log(n + 1)⌉`` — bits to write one label from ``1..n``.

    The paper writes ``log n`` for ``⌈log(n + 1)⌉`` throughout (footnote 6);
    this helper is the exact version.
    """
    return (n).bit_length()


@dataclass(frozen=True)
class NodeSpace:
    """Charged bits at one node."""

    node: int
    routing_bits: int
    """Length of the serialised local routing function."""
    label_bits: int = 0
    """Charged label bits (non-zero only under model γ)."""
    aux_bits: int = 0
    """Auxiliary knowledge the scheme must store (e.g. neighbour vectors)."""
    integrity_bits: int = 0
    """Checksum framing bits protecting the routing function (CRC/parity).

    Charged explicitly — integrity overhead is never smuggled into
    ``routing_bits`` — and zero for unframed schemes."""

    @property
    def total(self) -> int:
        """All bits charged to this node."""
        return (
            self.routing_bits
            + self.label_bits
            + self.aux_bits
            + self.integrity_bits
        )


@dataclass
class SpaceReport:
    """Total space of one scheme on one graph under one model."""

    model: RoutingModel
    scheme_name: str
    n: int
    per_node: List[NodeSpace] = field(default_factory=list)
    notes: Dict[str, float] = field(default_factory=dict)
    _nodes: Set[int] = field(
        default_factory=set, init=False, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        self._nodes.update(entry.node for entry in self.per_node)

    def add(self, entry: NodeSpace) -> None:
        """Record one node's charges (each node exactly once)."""
        if entry.node in self._nodes:
            raise ModelError(f"node {entry.node} already accounted for")
        self._nodes.add(entry.node)
        self.per_node.append(entry)

    @property
    def total_bits(self) -> int:
        """The paper's T(G): sum over all nodes of charged bits."""
        return sum(entry.total for entry in self.per_node)

    @property
    def routing_bits(self) -> int:
        """Total routing-function bits only."""
        return sum(entry.routing_bits for entry in self.per_node)

    @property
    def label_bits(self) -> int:
        """Total charged label bits (model γ)."""
        return sum(entry.label_bits for entry in self.per_node)

    @property
    def aux_bits(self) -> int:
        """Total auxiliary bits (neighbour vectors under IA/IB)."""
        return sum(entry.aux_bits for entry in self.per_node)

    @property
    def integrity_bits(self) -> int:
        """Total integrity-framing bits (0 for unframed schemes)."""
        return sum(entry.integrity_bits for entry in self.per_node)

    @property
    def max_node_bits(self) -> int:
        """Largest per-node charge."""
        return max((entry.total for entry in self.per_node), default=0)

    @property
    def mean_node_bits(self) -> float:
        """Average per-node charge."""
        if not self.per_node:
            return 0.0
        # Deliberate ratio diagnostic, not an accounted bit count.
        return self.total_bits / len(self.per_node)  # repro-lint: disable=R001

    def bits_per_n_squared(self) -> float:
        """``T(G) / n²`` — the constant in an O(n²) claim."""
        # Deliberate ratio diagnostic, not an accounted bit count.
        return self.total_bits / float(self.n * self.n)  # repro-lint: disable=R001

    def bits_per(self, growth: float) -> float:
        """``T(G)`` divided by an arbitrary growth value (for law fitting)."""
        if growth <= 0:
            raise ModelError(f"growth must be positive, got {growth}")
        # Deliberate ratio diagnostic, not an accounted bit count.
        return self.total_bits / growth  # repro-lint: disable=R001

    def summary(self) -> str:
        """One-line human-readable description."""
        return (
            f"{self.scheme_name} on n={self.n} under {self.model}: "
            f"{self.total_bits} bits total "
            f"(routing {self.routing_bits}, labels {self.label_bits}, "
            f"aux {self.aux_bits}, integrity {self.integrity_bits}; "
            f"max/node {self.max_node_bits}, "
            f"mean/node {self.mean_node_bits:.1f}, "
            f"T/n² = {self.bits_per_n_squared():.3f})"
        )
