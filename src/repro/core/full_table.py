"""The classical full routing table — the paper's trivial upper bound.

Every node stores, for every destination, the outgoing *port* of a shortest
path: ``(n - 1) ⌈log d(u)⌉ ≈ n log n`` bits per node and ``O(n² log n)``
total.  It works in every one of the nine models (ports are whatever the
network gives us, no neighbour knowledge or relabelling needed), which is
exactly why the paper uses it as the baseline that Theorem 8 shows to be
optimal under ``IA ∧ α``.
"""

from __future__ import annotations

from typing import Any, Dict, Hashable, List, Optional

import numpy as np

from repro.bitio import BitArray, BitReader, BitWriter
from repro.errors import RoutingError, SchemeBuildError
from repro.graphs import GraphContext, LabeledGraph, PortAssignment
from repro.models import RoutingModel
from repro.observability import profile_section
from repro.core.scheme import HopDecision, LocalRoutingFunction, RoutingScheme

__all__ = ["FullTableScheme", "PortTableFunction", "shortest_hop_mask"]


def shortest_hop_mask(graph: LabeledGraph, dist: np.ndarray, u: int) -> np.ndarray:
    """Which neighbours of ``u`` lie on a shortest path to each destination.

    A ``d(u) × n`` boolean array over ``u``'s sorted neighbours: entry
    ``[i, w - 1]`` is True iff neighbour ``i`` is one hop closer to ``w``
    than ``u`` is.  Column ``u`` and the columns of destinations ``u``
    cannot reach (``dist`` is ``-1``) are all False.
    """
    neighbors = np.array(graph.neighbors(u), dtype=np.intp)
    return dist[neighbors - 1, :] == dist[u - 1, :] - 1


class PortTableFunction(LocalRoutingFunction):
    """Destination → port table (``ports[w - 1]``, 0 for no entry); the
    network resolves port → link."""

    def __init__(
        self, node: int, ports: np.ndarray, assignment: PortAssignment
    ) -> None:
        super().__init__(node)
        self._row = ports
        self._ports: List[int] = ports.tolist()
        self._assignment = assignment
        self._neighbors: List[int] = assignment.neighbor_array()[node - 1].tolist()

    def port_for(self, destination: int) -> int:
        """The stored port for a destination (1-based)."""
        if 0 < destination <= len(self._ports):
            port = self._ports[destination - 1]
            if port:
                return port
        raise RoutingError(
            f"node {self.node}: no table entry for destination {destination}"
        )

    def next_hop(self, destination: Hashable, state: Any = None) -> HopDecision:
        port = self.port_for(int(destination))
        if 0 < port < len(self._neighbors) and self._neighbors[port]:
            return HopDecision(self._neighbors[port])
        # A port outside 1..d(u), as corrupted tables decode, raises there.
        return HopDecision(self._assignment.neighbor(self.node, port))

    def fast_next_hop_row(self, graph: LabeledGraph) -> Optional[np.ndarray]:
        """The port row gathered through the assignment's port → neighbour
        array; ``None`` unless the table and the assignment span
        ``graph``'s nodes and every other destination's port is 0 or one
        of this node's ports."""
        u, own = self.node, self._assignment.graph
        if len(self._ports) != graph.n or own.n != graph.n:
            return None
        ports = self._row.astype(np.intp)
        ports[u - 1] = 0
        if ports.min() < 0 or ports.max() > own.degree(u):
            return None
        neighbor_at = self._assignment.neighbor_array()[u - 1]
        row = np.where(ports == 0, -1, neighbor_at[ports])
        if own is not graph:
            # A neighbour under another graph's ports is a next hop only
            # over an edge of ``graph``, as the loop's edge check has it.
            hop = row > 0
            adjacent = graph.adjacency_matrix()[u - 1, row[hop] - 1]
            row[hop] = np.where(adjacent, row[hop], -2)
        row[u - 1] = -2
        return row.astype(np.int32, copy=False)


class FullTableScheme(RoutingScheme):
    """Shortest-path routing with one explicit port entry per destination."""

    scheme_name = "full-table"

    def __init__(
        self,
        graph: LabeledGraph,
        model: RoutingModel,
        ports: Optional[PortAssignment] = None,
        ctx: Optional[GraphContext] = None,
        allow_unreachable: bool = False,
    ) -> None:
        super().__init__(graph, model, ctx=ctx)
        # A model-IB strategy would always normalise its ports first.
        if ports is None or model.ports_reassignable:
            ports = self._ctx.port_table()
        self._ports = ports
        with profile_section("build.full-table.distances"):
            self._dist = self._ctx.distances()
        if not allow_unreachable and (self._dist < 0).any():
            raise SchemeBuildError("full-table scheme requires a connected graph")
        with profile_section("build.full-table.tables"):
            # [u - 1, w - 1]: the port of u's least neighbour on a shortest
            # path to w; 0 (no entry) when w is u or unreachable, possible
            # only under ``allow_unreachable`` (e.g. a churn node-leave):
            # rank -1 reads the port array's last column, always 0.
            self._port_table = np.take_along_axis(
                ports.port_array(), self._ctx.least_hop_ranks(), axis=1
            )

    @property
    def port_assignment(self) -> PortAssignment:
        """The port assignment the tables are expressed against."""
        return self._ports

    def destinations_by_port(self, u: int) -> Dict[int, List[int]]:
        """Every destination ``w ≠ u`` grouped by its port, both ascending;
        raises RoutingError, as ``port_for`` would, on a missing entry."""
        destinations = np.delete(np.arange(1, self._graph.n + 1), u - 1)
        ports = self._port_table[u - 1, destinations - 1]
        if not ports.all():
            raise RoutingError(
                f"node {u}: no table entry for destination "
                f"{destinations[ports == 0][0]}"
            )
        order = np.argsort(ports, kind="stable")
        ports = ports[order]
        members = destinations[order].tolist()
        starts = np.flatnonzero(np.diff(ports, prepend=0)).tolist()
        return {
            int(ports[a]): members[a:b]
            for a, b in zip(starts, starts[1:] + [len(members)])
        }

    # -- RoutingScheme interface ----------------------------------------------

    def _build_function(self, u: int) -> PortTableFunction:
        return PortTableFunction(u, self._port_table[u - 1], self._ports)

    def entry_width(self, u: int) -> int:
        """Fixed width of one port entry at ``u``: ``⌈log₂ d(u)⌉`` bits."""
        return max(self._graph.degree(u) - 1, 0).bit_length()

    def encode_function(self, u: int) -> BitArray:
        """Fixed-width port entries, one per reachable destination, in
        destination order (``n - 1`` of them on a connected graph)."""
        reachable = self._dist[u - 1] > 0
        writer = BitWriter()
        writer.write_uints(
            (self._port_table[u - 1, reachable] - 1).tolist(), self.entry_width(u)
        )
        return writer.getvalue()

    def decode_function(self, u: int, bits: BitArray) -> PortTableFunction:
        """The inverse of :meth:`encode_function`; unreachable destinations
        (from the scheme's own distance knowledge) get no entry."""
        reachable = self._dist[u - 1] > 0
        entries = BitReader(bits).read_uints(
            int(reachable.sum()), self.entry_width(u)
        )
        ports = np.zeros(self._graph.n, dtype=np.int64)
        ports[reachable] = np.array(entries, dtype=np.int64) + 1
        return PortTableFunction(u, ports, self._ports)

    def stretch_bound(self) -> float:
        return 1.0

    # -- repair (live topology churn) -----------------------------------------

    def rebuild(
        self, graph: LabeledGraph, ctx: Optional[GraphContext] = None
    ) -> "FullTableScheme":
        """Rebuild over a mutated successor graph.

        Tolerates unreachable pairs (a left node is isolated until it
        rejoins) and re-derives the identity port table for the new
        adjacency — a custom :class:`PortAssignment` cannot survive a
        topology change.
        """
        return FullTableScheme(
            graph, self._model, ctx=ctx, allow_unreachable=True
        )

    def supports_incremental_repair(self) -> bool:
        """Table entries read only N(u), row(u) and the neighbour rows."""
        return True
