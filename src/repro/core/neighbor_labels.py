"""Theorem 2 — shortest paths with O(1)-bit functions and rich labels (II ∧ γ).

When nodes may be arbitrarily relabelled (and label bits are charged), the
whole routing table can migrate into the destination's *address*: relabel
every node ``v`` as the pair

    ``(v, f(v))``  where ``f(v)`` = the least covering neighbours of ``v``

(Lemma 3: ``|f(v)| ≤ (c+3) log n`` on random graphs).  Routing from ``u`` to
a destination address ``(v, f(v))`` is then uniform — deliver if ``v`` is a
neighbour, else forward to any neighbour whose original label appears in
``f(v)`` — so the local function itself needs O(1) bits, and the total cost
is the ``(1 + (c+3) log n) log n`` bits of each label:
``O(n log² n)`` overall.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Hashable, Optional, Tuple

from repro.bitio import BitArray, BitReader, BitWriter
from repro.errors import CoverError, RoutingError, SchemeBuildError
from repro.graphs import GraphContext, LabeledGraph, least_cover_prefixes
from repro.models import RoutingModel, minimal_label_bits
from repro.core.scheme import HopDecision, LocalRoutingFunction, RoutingScheme

__all__ = ["NeighborLabelScheme", "NodeAddress", "NeighborLabelFunction"]


@dataclass(frozen=True)
class NodeAddress:
    """The complex label of model γ: original label plus covering neighbours."""

    original: int
    cover: Tuple[int, ...]

    def bit_length(self, n: int) -> int:
        """Charged size: ``(1 + |cover|) ⌈log(n+1)⌉`` bits."""
        return (1 + len(self.cover)) * minimal_label_bits(n)


class NeighborLabelFunction(LocalRoutingFunction):
    """The uniform O(1) routing rule of Theorem 2."""

    def __init__(self, node: int, neighbors: Tuple[int, ...]) -> None:
        super().__init__(node)
        self._neighbor_set = frozenset(neighbors)

    def next_hop(self, destination: Hashable, state: Any = None) -> HopDecision:
        if not isinstance(destination, NodeAddress):
            raise RoutingError(
                f"node {self.node}: Theorem 2 routing needs a NodeAddress, "
                f"got {destination!r}"
            )
        if destination.original in self._neighbor_set:
            return HopDecision(destination.original)
        for candidate in destination.cover:
            if candidate in self._neighbor_set:
                return HopDecision(candidate)
        raise RoutingError(
            f"node {self.node}: no neighbour covers destination "
            f"{destination.original}"
        )


class NeighborLabelScheme(RoutingScheme):
    """The Theorem 2 construction (shortest path, labels carry the tables)."""

    scheme_name = "thm2-neighbor-labels"

    def __init__(
        self,
        graph: LabeledGraph,
        model: RoutingModel,
        ctx: Optional[GraphContext] = None,
    ) -> None:
        super().__init__(graph, model, ctx=ctx)
        model.require(neighbors_known=True, relabeling=True)
        if not model.labels_charged:
            raise SchemeBuildError(
                f"Theorem 2 needs arbitrary (charged) labels: model γ, got {model}"
            )
        try:
            prefixes = least_cover_prefixes(
                self._ctx.distances(), self._ctx.least_hop_ranks()
            ).tolist()
        except CoverError as exc:
            raise SchemeBuildError(
                f"Theorem 2 construction failed at node {exc.node}: {exc}"
            ) from exc
        self._addresses = {
            v: NodeAddress(v, graph.neighbors(v)[:m])
            for v, m in zip(graph.nodes, prefixes)
        }

    # -- addressing -------------------------------------------------------------

    def address_of(self, node: int) -> NodeAddress:
        return self._addresses[node]

    def node_of_address(self, address: Hashable) -> int:
        if isinstance(address, NodeAddress):
            return address.original
        return super().node_of_address(address)

    # -- RoutingScheme interface --------------------------------------------------

    def _build_function(self, u: int) -> NeighborLabelFunction:
        return NeighborLabelFunction(u, self._graph.neighbors(u))

    def encode_function(self, u: int) -> BitArray:
        """One marker bit: the function is uniform across all nodes (O(1))."""
        writer = BitWriter()
        writer.write_bit(1)
        return writer.getvalue()

    def decode_function(self, u: int, bits: BitArray) -> NeighborLabelFunction:
        reader = BitReader(bits)
        if reader.read_bit() != 1:
            raise RoutingError("corrupt Theorem 2 function encoding")
        return NeighborLabelFunction(u, self._graph.neighbors(u))

    def label_bits(self, u: int) -> int:
        """Model γ charges every bit of the complex label."""
        return self._addresses[u].bit_length(self._graph.n)

    def stretch_bound(self) -> float:
        return 1.0
