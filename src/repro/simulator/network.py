"""The network's routing state and its one forwarding decision.

:class:`Network` holds everything a forwarding decision depends on: the
installed scheme, failed links and crashed nodes, quarantined nodes, the
live topology after mutations, and one stored-table record per node
whose table is not the installed scheme's pristine one.  A record names
the scheme whose pristine table the node holds (a repaired table
installed during churn convergence, a healed one, or a superseded one)
plus, while the table is corrupted, the mutated bits and their lazily
decoded function.  Corruption mutates the holder's pristine bits, heals
and churn installs decode the holder's memoised pristine bits, and a
node's forwards are judged against the holder's graph.

:meth:`Network._choose_hop` asks a node's stored function for its next
hop: full-information functions route *around* failed incident links
(the exact capability the paper defines them for); detour-wrapped
functions bounce once to a live neighbour; plain single-path functions
answer from their table alone.

Routing itself — the per-hop liveness and adjacency checks, drops, link
latency, node queueing, fault and churn schedules, retries, and every
trace span — is :class:`~repro.simulator.kernel.BatchKernel`, which
drives this state.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import (
    Any,
    Dict,
    FrozenSet,
    Hashable,
    Iterable,
    List,
    Optional,
    Set,
    Tuple,
)

from repro.bitio import BitArray
from repro.core import HopDecision, RoutingScheme
from repro.core.detour import DetourFunction
from repro.core.full_information import FullInformationFunction
from repro.core.scheme import LocalRoutingFunction
from repro.errors import IntegrityError, ReproError, RoutingError
from repro.graphs import LabeledGraph
from repro.observability.registry import get_registry
from repro.simulator.chaos import FaultEvent, FaultKind, TableMutation
from repro.simulator.churn import TopologyMutation, TopologyMutationKind

__all__ = ["Network"]

Link = FrozenSet[int]


def _as_links(edges: Iterable[Tuple[int, int]]) -> Set[Link]:
    return {frozenset(edge) for edge in edges}


@dataclass
class _StoredTable:
    """A node's table storage where it is not the installed scheme's own."""

    scheme: RoutingScheme
    """The holder: the scheme whose pristine table the node stores."""
    bits: Optional[BitArray] = None
    """The mutated copy of the holder's pristine bits while corrupted."""
    function: Optional[LocalRoutingFunction] = None
    """The decoded function (for corrupted bits, on first use)."""


class Network:
    """One network's routing state: its scheme, failures and stored tables."""

    def __init__(
        self,
        scheme: RoutingScheme,
        failed_links: Iterable[Tuple[int, int]] = (),
        failed_nodes: Iterable[int] = (),
    ) -> None:
        self._scheme = scheme
        self._failed: Set[Link] = _as_links(failed_links)
        self._failed_nodes: Set[int] = set(failed_nodes)
        # Every node absent here stores the installed scheme's own table.
        self._tables: Dict[int, _StoredTable] = {}
        self._quarantined: Set[int] = set()
        # The graph as it currently exists (the scheme's graph until the
        # first mutation).
        self._live_graph: LabeledGraph = scheme.graph
        self._churned = False
        self._corruption_stats: Dict[str, int] = {
            "injected": 0,
            "detected": 0,
            "undetected": 0,
            "healed": 0,
        }

    @property
    def scheme(self) -> RoutingScheme:
        """The routing scheme installed on this network."""
        return self._scheme

    @property
    def quiescent(self) -> bool:
        """Whether every forwarding decision is the installed scheme's own.

        True while no link or node is down, no node is quarantined or
        stores a table record (corrupted, or holding another scheme's
        table), and no topology mutation has been applied: the only
        state in which the kernel's quiescent drain may answer hops from
        the next-hop matrix.
        """
        return not (
            self._failed
            or self._failed_nodes
            or self._quarantined
            or self._tables
            or self._churned
        )

    def holder(self, node: int) -> RoutingScheme:
        """The scheme whose pristine table ``node`` stores."""
        table = self._tables.get(node)
        return self._scheme if table is None else table.scheme

    @property
    def failed_links(self) -> Set[Link]:
        """Currently failed links (as frozensets of endpoints)."""
        return set(self._failed)

    def fail_link(self, u: int, v: int) -> None:
        """Mark one link as failed."""
        self._failed.add(frozenset((u, v)))

    def restore_link(self, u: int, v: int) -> None:
        """Bring one link back up."""
        self._failed.discard(frozenset((u, v)))

    def fail_node(self, node: int) -> None:
        """Crash one node: it neither forwards nor receives."""
        self._failed_nodes.add(node)

    def restore_node(self, node: int) -> None:
        """Bring a crashed node back."""
        self._failed_nodes.discard(node)

    def apply_fault(self, event: FaultEvent) -> None:
        """Apply one scheduled fault event to the live failure state."""
        if event.kind is FaultKind.LINK_DOWN:
            self.fail_link(*event.subject)
        elif event.kind is FaultKind.LINK_UP:
            self.restore_link(*event.subject)
        elif event.kind is FaultKind.NODE_DOWN:
            self.fail_node(event.subject[0])
        elif event.kind is FaultKind.NODE_UP:
            self.restore_node(event.subject[0])
        elif event.kind is FaultKind.TABLE_CORRUPT:
            assert event.mutation is not None  # validated by FaultEvent
            self.corrupt_table(event.subject[0], event.mutation)
        else:  # TABLE_REPAIR
            self.heal_table(event.subject[0])

    # -- live topology churn -------------------------------------------------

    @property
    def live_graph(self) -> LabeledGraph:
        """The topology as it currently exists (mutations applied)."""
        return self._live_graph

    def apply_mutation(self, mutation: TopologyMutation) -> None:
        """Apply one live topology mutation.

        The installed scheme keeps describing the *pre-mutation* graph
        until the repair path installs updated tables, so in the interim a
        stale table forwarding over a removed edge drops (``LINK_DOWN``)
        and fault-aware functions route around the removed edge as if it
        had failed.  A node that leaves stops forwarding and receiving
        (like a crash) until it rejoins.
        """
        self._live_graph = mutation.apply(self._live_graph)
        self._churned = True
        if mutation.kind is TopologyMutationKind.NODE_LEAVE:
            self.fail_node(mutation.subject[0])
        elif mutation.kind is TopologyMutationKind.NODE_JOIN:
            self.restore_node(mutation.subject[0])
        else:
            # Edge mutations touch only the live adjacency applied above.
            pass
        get_registry().counter(
            "repro_topology_mutations_total", kind=mutation.kind.name
        ).inc()

    def install_table(self, node: int, scheme: RoutingScheme) -> None:
        """Rewrite ``node``'s storage with ``scheme``'s pristine table.

        The table is the context's memoised pristine bits; any corruption
        or quarantine the node carried is superseded.  Heals and churn
        repair installs both come through here.  The installed scheme's
        own table leaves no record: its pristine bits decode to the
        installed scheme's function, which the node then routes with (as
        after :meth:`install_scheme`), so healing the installed scheme's
        corrupted tables returns the network to :attr:`quiescent`.
        Another scheme's table is decoded from those bits and stored.
        """
        bits = scheme.ctx.pristine_bits(scheme, node)
        if scheme is self._scheme:
            self._tables.pop(node, None)
        else:
            function = scheme.decode_function(node, bits)
            self._tables[node] = _StoredTable(scheme, function=function)
        self._quarantined.discard(node)

    def install_scheme(self, scheme: RoutingScheme) -> None:
        """Swap in the converged scheme built over the live graph.

        Nodes that store the converged scheme's own table drop their
        records; a corrupted node keeps its damage, and a node holding
        an older scheme's table keeps it (repair left it clean, so its
        bits equal the converged scheme's).
        """
        if scheme.graph is not self._live_graph:
            raise RoutingError(
                "converged scheme must be built over the live graph"
            )
        self._scheme = scheme
        self._tables = {
            node: table
            for node, table in self._tables.items()
            if table.scheme is not scheme or table.bits is not None
        }

    # -- table corruption ----------------------------------------------------

    @property
    def corrupted_nodes(self) -> Set[int]:
        """Nodes whose stored function bits are currently mutated."""
        return {
            node
            for node, table in self._tables.items()
            if table.bits is not None
        }

    @property
    def quarantined_nodes(self) -> Set[int]:
        """Nodes whose corruption was detected: they no longer forward."""
        return set(self._quarantined)

    def corruption_summary(self) -> Dict[str, int]:
        """Lifecycle counts: injected / detected / undetected / healed."""
        return dict(self._corruption_stats)

    def corrupt_table(self, node: int, mutation: TableMutation) -> None:
        """Overwrite ``node``'s stored bits with a mutated copy.

        The mutation applies to the holder's memoised pristine bits; the
        scheme objects stay pristine, modelling the node's *storage*
        going bad while the network's graph+model knowledge (the shared
        context, the healer's source) survives.
        """
        holder = self.holder(node)
        pristine = holder.ctx.pristine_bits(holder, node)
        self._tables[node] = _StoredTable(holder, mutation.apply(pristine))
        # Fresh damage supersedes any earlier detection verdict.
        self._quarantined.discard(node)
        self._corruption_stats["injected"] += 1
        get_registry().counter(
            "repro_table_corruptions_total", kind=mutation.kind.name
        ).inc()

    def heal_table(self, node: int) -> bool:
        """Re-install ``node``'s holder's pristine table.

        An explicit re-install through :meth:`install_table`: a heal of
        the installed scheme's own table returns the node to that
        scheme's function, and any other holder's table is decoded afresh
        from its pristine bits.  Returns whether there was anything to
        heal (only a corrupted table is ever quarantined, so clearing the
        corruption clears the quarantine).
        """
        table = self._tables.get(node)
        if table is None or table.bits is None:
            return False
        self.install_table(node, table.scheme)
        self._corruption_stats["healed"] += 1
        get_registry().counter("repro_table_heals_total").inc()
        return True

    def _detected(self, node: int, why: str) -> IntegrityError:
        """Quarantine ``node`` after a detection; returns the error to raise."""
        if node not in self._quarantined:
            self._quarantined.add(node)
            self._corruption_stats["detected"] += 1
            get_registry().counter(
                "repro_table_corruption_detected_total"
            ).inc()
        return IntegrityError(f"node {node}: {why}")

    def _function_for(self, node: int) -> LocalRoutingFunction:
        """The function ``node`` stores — decoded from corrupted bits.

        Decoding the mutated bits is the detection point: framed schemes
        raise :class:`IntegrityError` on the checksum, and even unframed
        schemes detect *structurally* invalid encodings (prefix-code
        truncation, out-of-range ports).  A mutation that still decodes is
        an **undetected** corruption — the garbage function is installed
        and silently misroutes, exactly the failure mode integrity framing
        exists to close.
        """
        table = self._tables.get(node)
        if table is None:
            return self._scheme.function(node)
        function = table.function
        if function is None:
            assert table.bits is not None  # only corrupted bits decode late
            try:
                function = table.scheme.decode_function(node, table.bits)
            except IntegrityError as exc:
                raise self._detected(node, str(exc)) from exc
            except (ReproError, KeyError, IndexError, TypeError,
                    ValueError) as exc:
                raise self._detected(
                    node,
                    f"corrupted table failed to decode "
                    f"({type(exc).__name__}: {exc})",
                ) from exc
            table.function = function
            self._corruption_stats["undetected"] += 1
            get_registry().counter(
                "repro_table_corruption_undetected_total"
            ).inc()
        return function

    def _valid_forward(self, node: int, next_node: object) -> bool:
        """Whether a forwarding decision names the node itself or a
        neighbour in the stored table's own graph — the runtime port
        check a real router performs."""
        if not isinstance(next_node, int) or isinstance(next_node, bool):
            return False
        if next_node == node:
            return True
        graph = self.holder(node).graph
        return 1 <= next_node <= graph.n and graph.has_edge(node, next_node)

    def _blocked_neighbors(
        self, node: int, destination: Optional[int] = None
    ) -> List[int]:
        # Quarantined nodes refuse to forward but can still *receive*:
        # the destination itself is never routed around.  Under churn an
        # edge of the stored table's graph that the live graph lacks is
        # as unusable as a failed one.
        return [
            nb
            for nb in self.holder(node).graph.neighbor_set(node)
            if frozenset((node, nb)) in self._failed
            or nb in self._failed_nodes
            or (nb in self._quarantined and nb != destination)
            or (self._churned and not self._live_graph.has_edge(node, nb))
        ]

    def _choose_hop(
        self, node: int, address: Hashable, state: Any, destination: int
    ) -> HopDecision:
        """One forwarding decision, honouring failures where possible.

        Fault-aware functions — full-information (all shortest-path edges
        stored) and detour wrappers (bounce once to a live neighbour) — are
        told which incident links are unusable; plain single-path functions
        answer from their table alone and may well pick a dead link.

        On a node with a corrupted table, *any* failure of the decoded
        function — an exception or an invalid port — is runtime detection
        and raises :class:`IntegrityError` (quarantining the node) instead
        of surfacing a garbage answer.
        """
        function = self._function_for(node)
        table = self._tables.get(node)
        corrupted = table is not None and table.bits is not None
        degraded = bool(
            self._failed
            or self._failed_nodes
            or self._quarantined
            or self._churned
        )
        try:
            # Only fault-aware functions read the blocked set; a plain
            # table answers the same either way, so it never pays for it.
            if degraded and isinstance(function, FullInformationFunction):
                decision = function.next_hop_avoiding(
                    int(address),
                    self._blocked_neighbors(node, destination),
                )
            elif degraded and isinstance(function, DetourFunction):
                decision = function.next_hop_avoiding(
                    address, self._blocked_neighbors(node, destination), state
                )
            else:
                decision = function.next_hop(address, state)
        except RoutingError:
            if corrupted:
                raise self._detected(
                    node, "corrupted table produced a routing failure"
                ) from None
            raise
        except (ReproError, KeyError, IndexError, TypeError,
                ValueError) as exc:
            if corrupted:
                raise self._detected(
                    node,
                    f"corrupted table raised "
                    f"{type(exc).__name__} while routing",
                ) from exc
            raise
        if corrupted and not self._valid_forward(node, decision.next_node):
            raise self._detected(
                node,
                f"corrupted table named invalid next hop "
                f"{decision.next_node!r}",
            )
        return decision
