"""Multi-interval routing — the compaction studied in related work [1].

Flammini, van Leeuwen and Marchetti-Spaccamela ("The complexity of interval
routing on random graphs", cited as [1]) ask how far classical routing
tables compress when each port stores *cyclic label intervals* instead of
an explicit destination list.  This scheme implements exactly that:

* build the shortest-path next-hop table (least-neighbour tie-break);
* group destinations by outgoing port;
* fuse each group into maximal cyclic intervals over the label ring
  ``1..n`` (an interval may wrap from ``n`` to ``1``);
* store, per port, its interval endpoints — ``2⌈log(n+1)⌉`` bits each.

On topologies whose labels align with the structure (cycles, chains) one
interval per port suffices and the table collapses to ``O(d log n)`` bits;
on Kolmogorov random graphs the groups shatter into ``Θ(n/d)``-ish
fragments per port and interval routing saves nothing — the observation
that motivates [1] and complements this paper's Table 1.
"""

from __future__ import annotations

from typing import Any, Dict, Hashable, List, Optional, Tuple

from repro.bitio import BitArray, BitReader, BitWriter
from repro.errors import RoutingError, SchemeBuildError
from repro.graphs import GraphContext, LabeledGraph, PortAssignment
from repro.models import RoutingModel, minimal_label_bits
from repro.core.full_table import FullTableScheme
from repro.core.scheme import HopDecision, LocalRoutingFunction, RoutingScheme

__all__ = ["MultiIntervalScheme", "MultiIntervalFunction", "cyclic_intervals"]

Interval = Tuple[int, int]


def cyclic_intervals(labels: List[int], n: int) -> List[Interval]:
    """Fuse a label set into maximal cyclic intervals over ``1..n``.

    Returns inclusive ``(lo, hi)`` pairs; ``lo > hi`` denotes a wrap-around
    interval (e.g. ``(n-1, 2)`` covers ``n-1, n, 1, 2``).  The fusion is
    canonical: intervals are pairwise disjoint, non-adjacent on the ring,
    and sorted by their low endpoint.
    """
    if not labels:
        return []
    members = set(labels)
    if len(members) == n:
        return [(1, n)]
    intervals = []
    for label in sorted(members):
        predecessor = label - 1 if label > 1 else n
        if predecessor in members:
            continue  # not the start of a run
        hi = label
        while True:
            successor = hi + 1 if hi < n else 1
            if successor in members:
                hi = successor
            else:
                break
        intervals.append((label, hi))
    return intervals


def _interval_contains(interval: Interval, label: int) -> bool:
    lo, hi = interval
    if lo <= hi:
        return lo <= label <= hi
    return label >= lo or label <= hi


class MultiIntervalFunction(LocalRoutingFunction):
    """Per-port cyclic interval lists."""

    def __init__(
        self,
        node: int,
        port_intervals: Dict[int, List[Interval]],
        assignment: PortAssignment,
    ) -> None:
        super().__init__(node)
        self._port_intervals = {
            port: list(ivs) for port, ivs in port_intervals.items()
        }
        self._assignment = assignment
        self._neighbors: List[int] = assignment.neighbor_array()[node - 1].tolist()

    def intervals_at(self, port: int) -> List[Interval]:
        """This port's interval list (empty when it routes nothing)."""
        return list(self._port_intervals.get(port, []))

    def port_for(self, destination: int) -> int:
        for port in sorted(self._port_intervals):
            for interval in self._port_intervals[port]:
                if _interval_contains(interval, destination):
                    return port
        raise RoutingError(
            f"node {self.node}: no interval covers destination {destination}"
        )

    def next_hop(self, destination: Hashable, state: Any = None) -> HopDecision:
        port = self.port_for(int(destination))
        if 0 < port < len(self._neighbors) and self._neighbors[port]:
            return HopDecision(self._neighbors[port])
        # A port outside 1..d(u), as corrupted tables decode, raises there.
        return HopDecision(self._assignment.neighbor(self.node, port))


class MultiIntervalScheme(RoutingScheme):
    """Shortest-path routing with per-port cyclic intervals."""

    scheme_name = "multi-interval"

    def __init__(
        self,
        graph: LabeledGraph,
        model: RoutingModel,
        ports: Optional[PortAssignment] = None,
        ctx: Optional[GraphContext] = None,
    ) -> None:
        super().__init__(graph, model, ctx=ctx)
        # Reuse the full-table construction for the next-hop decisions.
        self._table = FullTableScheme(graph, model, ports=ports, ctx=self._ctx)
        self._ports = self._table.port_assignment
        self._port_intervals: Dict[int, Dict[int, List[Interval]]] = {}
        for u in graph.nodes:
            by_port = self._table.destinations_by_port(u)
            self._port_intervals[u] = {
                port: cyclic_intervals(destinations, graph.n)
                for port, destinations in by_port.items()
            }
            self._check_partition(u)

    def _check_partition(self, u: int) -> None:
        """Every destination in exactly one interval (build-time invariant)."""
        covered = 0
        for intervals in self._port_intervals[u].values():
            for lo, hi in intervals:
                covered += (hi - lo + 1) if lo <= hi else (
                    self._graph.n - lo + 1 + hi
                )
        if covered != self._graph.n - 1:
            raise SchemeBuildError(
                f"node {u}: intervals cover {covered} labels, "
                f"expected {self._graph.n - 1}"
            )

    @property
    def port_assignment(self) -> PortAssignment:
        """The port assignment the intervals are expressed against."""
        return self._ports

    def interval_count(self, u: int) -> int:
        """Total intervals stored at ``u`` — the compaction measure of [1]."""
        return sum(len(ivs) for ivs in self._port_intervals[u].values())

    def max_intervals_per_port(self) -> int:
        """The worst port anywhere — 1 means classical interval routing."""
        return max(
            (
                len(ivs)
                for per_port in self._port_intervals.values()
                for ivs in per_port.values()
            ),
            default=0,
        )

    # -- RoutingScheme interface ------------------------------------------------

    def _build_function(self, u: int) -> MultiIntervalFunction:
        return MultiIntervalFunction(
            u, self._port_intervals[u], self._ports
        )

    def encode_function(self, u: int) -> BitArray:
        """Per port ``1..d(u)``: γ(interval count), then 2 fixed-width ends."""
        width = minimal_label_bits(self._graph.n)
        writer = BitWriter()
        for port in range(1, self._graph.degree(u) + 1):
            intervals = self._port_intervals[u].get(port, [])
            writer.write_gamma(len(intervals))
            ends = [end for interval in intervals for end in interval]
            writer.write_uints(ends, width)
        return writer.getvalue()

    def decode_function(self, u: int, bits: BitArray) -> MultiIntervalFunction:
        width = minimal_label_bits(self._graph.n)
        reader = BitReader(bits)
        port_intervals: Dict[int, List[Interval]] = {}
        for port in range(1, self._graph.degree(u) + 1):
            count = reader.read_gamma()
            if count:
                ends = reader.read_uints(2 * count, width)
                port_intervals[port] = list(zip(ends[::2], ends[1::2]))
        return MultiIntervalFunction(u, port_intervals, self._ports)

    def stretch_bound(self) -> float:
        return 1.0
