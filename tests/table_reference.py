"""Per-pair reference implementation of the explicit shortest-path tables.

The dict-of-dicts full-table and full-information schemes, their codecs
and the two destination-by-port grouping loops, kept verbatim as an
oracle and rewritten as functions over ``(graph, dist, ports)``: the
array tables in ``repro.core.full_table``, ``repro.core.full_information``,
``repro.core.multi_interval`` and ``repro.lowerbounds.claim23`` must agree
with them on every input (``tests/test_table_reference.py``).  Ports are
read through the dict-of-dicts reference assignment of
``tests/port_reference.py``, not the array one under test.  They are
deliberately slow and must not be optimised.
"""

from __future__ import annotations

from typing import Any, Dict, Hashable, Iterable, List, Tuple

import numpy as np

from repro.bitio import BitArray, BitReader, BitWriter
from repro.core.multi_interval import Interval, cyclic_intervals
from repro.core.scheme import HopDecision, LocalRoutingFunction
from repro.errors import RoutingError, SchemeBuildError
from repro.graphs import LabeledGraph
from tests.port_reference import PortAssignment

__all__ = [
    "PortTableFunction",
    "FullInformationFunction",
    "build_table",
    "destinations",
    "entry_width",
    "encode_table",
    "decode_table",
    "build_options",
    "encode_options",
    "decode_options",
    "multi_interval_groups",
    "port_destination_lists",
]


# -- full table ----------------------------------------------------------------


class PortTableFunction(LocalRoutingFunction):
    """Destination → port table; the network resolves port → link."""

    def __init__(
        self, node: int, ports: Dict[int, int], assignment: PortAssignment
    ) -> None:
        super().__init__(node)
        self._ports = dict(ports)
        self._assignment = assignment

    def port_for(self, destination: int) -> int:
        """The stored port for a destination (1-based)."""
        try:
            return self._ports[destination]
        except KeyError as exc:
            raise RoutingError(
                f"node {self.node}: no table entry for destination {destination}"
            ) from exc

    def next_hop(self, destination: Hashable, state: Any = None) -> HopDecision:
        port = self.port_for(int(destination))
        return HopDecision(self._assignment.neighbor(self.node, port))


def build_table(
    graph: LabeledGraph, dist: np.ndarray, ports: PortAssignment, u: int
) -> Dict[int, int]:
    """Least-neighbour-on-a-shortest-path table for one node."""
    neighbors = graph.neighbors(u)
    own_row = dist[u - 1, :]
    table: Dict[int, int] = {}
    if not neighbors:
        return table
    neighbor_rows = dist[np.array(neighbors) - 1, :]
    for w in graph.nodes:
        if w == u or own_row[w - 1] < 0:
            continue
        on_shortest = neighbor_rows[:, w - 1] == own_row[w - 1] - 1
        index = int(np.argmax(on_shortest))
        if not on_shortest[index]:
            raise SchemeBuildError(
                f"no shortest-path neighbour from {u} to {w}"
            )
        table[w] = ports.port(u, neighbors[index])
    return table


def entry_width(graph: LabeledGraph, u: int) -> int:
    """Fixed width of one port entry at ``u``: ``⌈log₂ d(u)⌉`` bits."""
    return max(graph.degree(u) - 1, 0).bit_length()


def destinations(graph: LabeledGraph, dist: np.ndarray, u: int) -> List[int]:
    """The destinations ``u``'s table holds an entry for, in order."""
    reachable = (dist[u - 1, :] >= 0).tolist()
    return [w for w in graph.nodes if w != u and reachable[w - 1]]


def encode_table(
    graph: LabeledGraph, dist: np.ndarray, table: Dict[int, int], u: int
) -> BitArray:
    """Fixed-width port entries, one per reachable destination."""
    writer = BitWriter()
    writer.write_uints(
        [table[w] - 1 for w in destinations(graph, dist, u)],
        entry_width(graph, u),
    )
    return writer.getvalue()


def decode_table(
    graph: LabeledGraph,
    dist: np.ndarray,
    ports: PortAssignment,
    u: int,
    bits: BitArray,
) -> PortTableFunction:
    dests = destinations(graph, dist, u)
    entries = BitReader(bits).read_uints(len(dests), entry_width(graph, u))
    table = {w: entry + 1 for w, entry in zip(dests, entries)}
    return PortTableFunction(u, table, ports)


# -- full information --------------------------------------------------------------


class FullInformationFunction(LocalRoutingFunction):
    """Destination → set of shortest-path neighbours."""

    def __init__(
        self,
        node: int,
        options: Dict[int, Tuple[int, ...]],
    ) -> None:
        super().__init__(node)
        self._options = {dest: tuple(hops) for dest, hops in options.items()}

    def shortest_edges(self, destination: int) -> Tuple[int, ...]:
        """All neighbours of this node lying on shortest paths to ``destination``."""
        try:
            return self._options[destination]
        except KeyError as exc:
            raise RoutingError(
                f"node {self.node}: no entry for destination {destination}"
            ) from exc

    def next_hop(self, destination: Hashable, state: Any = None) -> HopDecision:
        return HopDecision(self.shortest_edges(int(destination))[0])

    def next_hop_avoiding(
        self, destination: int, blocked: Iterable[int]
    ) -> HopDecision:
        blocked_set = set(blocked)
        for hop in self.shortest_edges(destination):
            if hop not in blocked_set:
                return HopDecision(hop)
        raise RoutingError(
            f"node {self.node}: all shortest-path edges toward "
            f"{destination} have failed"
        )


def build_options(
    graph: LabeledGraph, dist: np.ndarray, u: int
) -> Dict[int, Tuple[int, ...]]:
    neighbors = graph.neighbors(u)
    neighbor_rows = dist[np.array(neighbors) - 1, :]
    own_row = dist[u - 1, :]
    options: Dict[int, Tuple[int, ...]] = {}
    for w in graph.nodes:
        if w == u:
            continue
        mask = neighbor_rows[:, w - 1] == own_row[w - 1] - 1
        hops = tuple(nb for nb, good in zip(neighbors, mask) if good)
        if not hops:
            raise SchemeBuildError(f"no shortest edge from {u} to {w}")
        options[w] = hops
    return options


def encode_options(
    graph: LabeledGraph, options: Dict[int, Tuple[int, ...]], u: int
) -> BitArray:
    """Per destination, a ``d(u)``-bit bitmap over the sorted neighbours."""
    neighbors = graph.neighbors(u)
    writer = BitWriter()
    for w in graph.nodes:
        if w == u:
            continue
        chosen = set(options[w])
        for nb in neighbors:
            writer.write_bit(1 if nb in chosen else 0)
    return writer.getvalue()


def decode_options(
    graph: LabeledGraph, u: int, bits: BitArray
) -> FullInformationFunction:
    neighbors = graph.neighbors(u)
    reader = BitReader(bits)
    options: Dict[int, Tuple[int, ...]] = {}
    for w in graph.nodes:
        if w == u:
            continue
        hops = tuple(
            nb for nb in neighbors if reader.read_bit()
        )
        options[w] = hops
    return FullInformationFunction(u, options)


# -- grouping destinations by port ---------------------------------------------------


def multi_interval_groups(
    graph: LabeledGraph, function: PortTableFunction, u: int
) -> Dict[int, List[Interval]]:
    """``MultiIntervalScheme``'s per-node port → interval-list map."""
    by_port: Dict[int, List[int]] = {}
    for w in graph.nodes:
        if w != u:
            by_port.setdefault(function.port_for(w), []).append(w)
    return {
        port: cyclic_intervals(dests, graph.n)
        for port, dests in by_port.items()
    }


def port_destination_lists(
    graph: LabeledGraph, function: PortTableFunction, u: int
) -> Dict[int, List[int]]:
    """Destinations grouped by the port ``F(u)`` routes them over (Claim 3)."""
    lists: Dict[int, List[int]] = {}
    for w in graph.nodes:
        if w == u:
            continue
        lists.setdefault(function.port_for(w), []).append(w)
    return lists
