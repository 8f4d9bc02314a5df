"""Theorem 5 — ``O(n)`` bits total at stretch ``O(log n)`` (model II).

Nodes store an O(1)-bit rule and no tables at all.  A message for a
non-adjacent target is *probed*: the origin sends it to its least
neighbours in turn; each probed neighbour either sees the target among its
own neighbours and delivers, or bounces the message back.  By Lemma 3 a
random graph needs at most ``(c+3) log n`` probes, so a distance-2 target
is reached within ``2(c+3) log n`` edge traversals — stretch
``(c+3) log n``.

The probe counter travels in the message header
(:class:`ProbeState`), not in any routing table — the scheme's charged
space stays O(1) per node.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Hashable, Optional, Tuple

from repro.bitio import BitArray, BitReader, BitWriter
from repro.errors import RoutingError, SchemeBuildError
from repro.graphs import GraphContext, LabeledGraph
from repro.models import RoutingModel
from repro.core.scheme import HopDecision, LocalRoutingFunction, RoutingScheme

__all__ = ["ProbeScheme", "ProbeFunction", "ProbeState"]


@dataclass(frozen=True)
class ProbeState:
    """Message-header state for the Theorem 5 probing walk."""

    origin: int
    """The node conducting the probe sequence."""
    index: int
    """Zero-based index of the neighbour currently being probed."""
    returning: bool
    """True while the message is travelling back after a failed probe."""


class ProbeFunction(LocalRoutingFunction):
    """The uniform probe-and-bounce rule."""

    def __init__(self, node: int, neighbors: Tuple[int, ...]) -> None:
        super().__init__(node)
        self._neighbors = neighbors
        self._neighbor_set = frozenset(neighbors)

    def next_hop(self, destination: Hashable, state: Any = None) -> HopDecision:
        dest = int(destination)
        if dest in self._neighbor_set:
            return HopDecision(dest)
        if state is None or (
            isinstance(state, ProbeState) and state.origin != self.node
        ):
            if isinstance(state, ProbeState) and not state.returning:
                # We are the probed neighbour and the target is not adjacent:
                # bounce the message back to the origin.
                return HopDecision(
                    state.origin,
                    ProbeState(state.origin, state.index, returning=True),
                )
            if state is None:
                return self._launch_probe(dest, 0)
            raise RoutingError(
                f"node {self.node}: unexpected probe state {state!r}"
            )
        if not isinstance(state, ProbeState):
            raise RoutingError(
                f"node {self.node}: foreign message state {state!r}"
            )
        if state.returning:
            return self._launch_probe(dest, state.index + 1)
        raise RoutingError(
            f"node {self.node}: probe for {dest} revisited its origin"
        )

    def _launch_probe(self, dest: int, index: int) -> HopDecision:
        if index >= len(self._neighbors):
            raise RoutingError(
                f"node {self.node}: probes exhausted without reaching {dest} "
                f"(graph has diameter > 2)"
            )
        return HopDecision(
            self._neighbors[index],
            ProbeState(self.node, index, returning=False),
        )


class ProbeScheme(RoutingScheme):
    """The Theorem 5 construction (O(1) bits per node)."""

    scheme_name = "thm5-probe"

    def __init__(
        self,
        graph: LabeledGraph,
        model: RoutingModel,
        ctx: Optional[GraphContext] = None,
    ) -> None:
        super().__init__(graph, model, ctx=ctx)
        model.require(neighbors_known=True)
        from repro.observability import profile_section

        with profile_section("build.thm5-probe.distance-check"):
            dist = self._ctx.distances()
            diameter_ok = not ((dist < 0) | (dist > 2)).any()
        if not diameter_ok:
            raise SchemeBuildError(
                "Theorem 5 probing delivers only when every pair is within "
                "distance 2 (the Lemma 2 graph class)"
            )

    def _build_function(self, u: int) -> ProbeFunction:
        return ProbeFunction(u, self._graph.neighbors(u))

    def encode_function(self, u: int) -> BitArray:
        """One marker bit — the rule is uniform (O(1))."""
        writer = BitWriter()
        writer.write_bit(1)
        return writer.getvalue()

    def decode_function(self, u: int, bits: BitArray) -> ProbeFunction:
        reader = BitReader(bits)
        if reader.read_bit() != 1:
            raise RoutingError("corrupt Theorem 5 function encoding")
        return ProbeFunction(u, self._graph.neighbors(u))

    def stretch_bound(self) -> float:
        """Worst-case hop bound over shortest distance on a diameter-2 graph.

        Lemma 3 promises success within ``(c+3) log n`` probes with ``c = 3``
        for the graph class the averages range over; each probe costs two
        traversals.
        """
        import math

        return max(6.0 * math.log2(max(self._graph.n, 2)), 1.0)

    def hop_limit(self) -> int:
        """Probing may traverse up to ``2 d(u) + 1`` edges."""
        return 2 * self._graph.n + 8
