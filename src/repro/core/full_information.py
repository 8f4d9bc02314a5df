"""Full-information shortest path routing (Section 1; Theorem 10).

The routing function at ``u`` must return, for each destination ``v``,
**all** edges incident to ``u`` on shortest paths from ``u`` to ``v`` —
the scheme a network runs when it wants to pick alternative shortest paths
as links go down.  Stored naively this is one ``d(u)``-bit edge bitmap per
destination, ``O(n³)`` bits in total, and Theorem 10 proves ``n³/4 - o(n³)``
bits are necessary on random graphs (see
:mod:`repro.incompressibility.theorem10` for the executable argument).
"""

from __future__ import annotations

from typing import Any, Dict, Hashable, Iterable, List, Optional, Tuple

import numpy as np

from repro.bitio import BitArray
from repro.errors import BitstreamError, RoutingError, SchemeBuildError
from repro.graphs import GraphContext, LabeledGraph
from repro.models import RoutingModel
from repro.core.full_table import shortest_hop_mask
from repro.core.scheme import HopDecision, LocalRoutingFunction, RoutingScheme

__all__ = [
    "FullInformationScheme",
    "FullInformationFunction",
    "decode_full_information_function",
]


class FullInformationFunction(LocalRoutingFunction):
    """Destination → set of shortest-path neighbours, read off the node's
    :func:`~repro.core.full_table.shortest_hop_mask` (or a decoded one)."""

    def __init__(self, node: int, neighbors: Tuple[int, ...], mask: np.ndarray) -> None:
        super().__init__(node)
        self._neighbors = np.array(neighbors, dtype=np.int64)
        self._mask = mask
        # next_hop's O(1) row: the least option per destination, 0 for none.
        first = self._neighbors[mask.argmax(axis=0)] if neighbors else 0
        self._first: List[int] = np.where(mask.any(axis=0), first, 0).tolist()
        # shortest_edges' tuples, all cut from the mask on first use.
        self._edges: Dict[int, Tuple[int, ...]] = {}

    def shortest_edges(self, destination: int) -> Tuple[int, ...]:
        """All neighbours of this node lying on shortest paths to ``destination``."""
        try:
            return self._edges[destination]
        except KeyError:
            if not self._edges:
                self._edges.update(self._index_edges())
                if destination in self._edges:
                    return self._edges[destination]
        raise RoutingError(
            f"node {self.node}: no entry for destination {destination}"
        )

    def _index_edges(self) -> Dict[int, Tuple[int, ...]]:
        """Every destination's options, read off the mask in one pass."""
        degree, n = self._mask.shape
        cells = np.flatnonzero(self._mask.T)
        hops = tuple(self._neighbors[cells % max(degree, 1)].tolist())
        bounds = np.searchsorted(cells, np.arange(n + 1) * degree).tolist()
        node = self.node
        return {
            w: hops[bounds[w - 1] : bounds[w]] for w in range(1, n + 1) if w != node
        }

    def next_hop(self, destination: Hashable, state: Any = None) -> HopDecision:
        w = int(destination)
        if 0 < w <= len(self._first):
            hop = self._first[w - 1]
            if hop:
                return HopDecision(hop)
        return HopDecision(self.shortest_edges(w)[0])

    def next_hop_avoiding(
        self, destination: int, blocked: Iterable[int]
    ) -> HopDecision:
        """Route around failed incident links, still on a shortest path.

        Raises :class:`~repro.errors.RoutingError` when every shortest-path
        edge toward the destination is blocked — the situation where a
        single-path scheme would already have failed on the *first* fault.
        """
        blocked_set = set(blocked)
        for hop in self.shortest_edges(destination):
            if hop not in blocked_set:
                return HopDecision(hop)
        raise RoutingError(
            f"node {self.node}: all shortest-path edges toward "
            f"{destination} have failed"
        )


class FullInformationScheme(RoutingScheme):
    """Stores every shortest-path option: the ``O(n³)`` upper bound."""

    scheme_name = "full-information"

    def __init__(
        self,
        graph: LabeledGraph,
        model: RoutingModel,
        ctx: Optional[GraphContext] = None,
    ) -> None:
        super().__init__(graph, model, ctx=ctx)
        self._dist = self._ctx.distances()
        if (self._dist < 0).any():
            raise SchemeBuildError(
                "full-information scheme requires a connected graph"
            )
        self._masks = [shortest_hop_mask(graph, self._dist, u) for u in graph.nodes]

    # -- RoutingScheme interface ------------------------------------------------

    def _build_function(self, u: int) -> FullInformationFunction:
        return FullInformationFunction(
            u, self._graph.neighbors(u), self._masks[u - 1]
        )

    def encode_function(self, u: int) -> BitArray:
        """Per destination, a ``d(u)``-bit bitmap over the sorted neighbours."""
        bitmaps = np.delete(self._masks[u - 1], u - 1, axis=1).T
        return BitArray._from_packed(np.packbits(bitmaps).tobytes(), bitmaps.size)

    def decode_function(self, u: int, bits: BitArray) -> FullInformationFunction:
        return decode_full_information_function(
            u, self._graph.n, self._graph.neighbors(u), bits
        )

    def stretch_bound(self) -> float:
        return 1.0

    def supports_incremental_repair(self) -> bool:
        """Options read only N(u), row(u) and the neighbour rows.

        Note the scheme still requires the mutated graph to be connected
        (use ``keep_connected`` edge churn); node leave/join repair needs
        the full-table scheme's unreachable tolerance.
        """
        return True


def decode_full_information_function(
    u: int, n: int, neighbors: Tuple[int, ...], bits: BitArray
) -> FullInformationFunction:
    """Rebuild ``F(u)`` from its bitmaps, given ``n`` and ``u``'s sorted
    neighbours: the Theorem 10 codec reads its embedded ``F(u)`` here."""
    shape = (n - 1, len(neighbors))
    if len(bits) < shape[0] * shape[1]:
        raise BitstreamError("read past end of bit stream")
    raw = np.frombuffer(bits.to_bytes(), dtype=np.uint8)
    bitmaps = np.unpackbits(raw, count=shape[0] * shape[1]).reshape(shape)
    mask = np.insert(bitmaps.T.astype(bool), u - 1, False, axis=1)
    return FullInformationFunction(u, neighbors, mask)
