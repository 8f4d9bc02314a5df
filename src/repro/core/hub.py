"""Theorem 4 — stretch 2 with ``n log log n + 6n`` bits total (model II).

One distinguished *hub* (node 1 in the paper) stores a full Theorem 1
shortest-path function.  Every other node only remembers how to reach the
hub: neighbours of the hub route to it directly (O(1) bits), and nodes at
distance 2 store the index — among their least neighbours, ``log log n``
bits by Lemma 3 — of a neighbour adjacent to the hub.

A message is delivered directly when the target is adjacent; otherwise it
climbs to the hub (≤ 2 hops) and descends a shortest path (2 hops): at most
4 hops against a shortest distance of 2, stretch 2.
"""

from __future__ import annotations

from typing import Any, Dict, Hashable, Optional, Tuple

import numpy as np

from repro.bitio import BitArray, BitReader, BitWriter
from repro.errors import RoutingError, SchemeBuildError
from repro.graphs import GraphContext, LabeledGraph
from repro.models import RoutingModel
from repro.observability import profile_section
from repro.core.scheme import HopDecision, LocalRoutingFunction, RoutingScheme
from repro.core.two_level import TwoLevelScheme

__all__ = ["HubScheme", "TowardHubFunction"]


class TowardHubFunction(LocalRoutingFunction):
    """Non-hub rule: deliver to neighbours, otherwise climb toward the hub."""

    def __init__(
        self,
        node: int,
        neighbors: Tuple[int, ...],
        toward_hub: int,
    ) -> None:
        super().__init__(node)
        self._neighbor_set = frozenset(neighbors)
        if toward_hub not in self._neighbor_set:
            raise RoutingError(
                f"node {node}: hub-ward neighbour {toward_hub} is not adjacent"
            )
        self._toward_hub = toward_hub

    @property
    def toward_hub(self) -> int:
        """The neighbour this node uses to move toward the hub."""
        return self._toward_hub

    def next_hop(self, destination: Hashable, state: Any = None) -> HopDecision:
        dest = int(destination)
        if dest in self._neighbor_set:
            return HopDecision(dest)
        return HopDecision(self._toward_hub)


class HubScheme(RoutingScheme):
    """The Theorem 4 construction (stretch ≤ 2)."""

    scheme_name = "thm4-hub"

    def __init__(
        self,
        graph: LabeledGraph,
        model: RoutingModel,
        hub: int = 1,
        ctx: Optional[GraphContext] = None,
    ) -> None:
        super().__init__(graph, model, ctx=ctx)
        model.require(neighbors_known=True)
        self._hub = hub
        self._inner = TwoLevelScheme(graph, model, ctx=self._ctx)
        self._hub_adjacent = graph.neighbor_set(hub)  # checks 1 <= hub <= n
        with profile_section("build.thm4-hub.hub-index"):
            # A node at distance 2 climbs through its least neighbour that
            # is adjacent to the hub: its least shortest-path neighbour.
            to_hub = self._ctx.distances()[:, hub - 1]
            far = np.flatnonzero((to_hub > 2) | (to_hub < 0))
            if far.size:
                raise SchemeBuildError(
                    f"node {far[0] + 1} is farther than 2 hops from hub {hub}"
                )
            two = np.flatnonzero(to_hub == 2)
            ranks = self._ctx.least_hop_ranks()[two, hub - 1]
            self._hub_index: Dict[int, int] = dict(
                zip((two + 1).tolist(), ranks.tolist())
            )

    @property
    def hub(self) -> int:
        """The node storing the full shortest-path function."""
        return self._hub

    # -- RoutingScheme interface ------------------------------------------------

    def _build_function(self, u: int) -> LocalRoutingFunction:
        if u == self._hub:
            return self._inner.function(u)
        neighbors = self._graph.neighbors(u)
        if u in self._hub_adjacent:
            return TowardHubFunction(u, neighbors, self._hub)
        return TowardHubFunction(
            u, neighbors, neighbors[self._hub_index[u]]
        )

    def encode_function(self, u: int) -> BitArray:
        if u == self._hub:
            return self._inner.encode_function(u)
        writer = BitWriter()
        if u in self._hub_adjacent:
            writer.write_bit(1)  # adjacent: route straight to the hub
        else:
            writer.write_bit(0)
            writer.write_gamma(self._hub_index[u])
        return writer.getvalue()

    def decode_function(self, u: int, bits: BitArray) -> LocalRoutingFunction:
        if u == self._hub:
            return self._inner.decode_function(u, bits)
        reader = BitReader(bits)
        neighbors = self._graph.neighbors(u)
        if reader.read_bit():
            return TowardHubFunction(u, neighbors, self._hub)
        return TowardHubFunction(u, neighbors, neighbors[reader.read_gamma()])

    def stretch_bound(self) -> float:
        return 2.0
