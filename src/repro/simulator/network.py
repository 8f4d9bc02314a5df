"""The network's routing state and its one forwarding decision.

:class:`Network` holds everything a forwarding decision depends on: the
installed scheme, failed links and crashed nodes, the table-corruption
overlay (corrupted, quarantined and healed tables), repaired tables
installed during churn convergence, and the live topology after
mutations.  :meth:`Network._choose_hop` asks a node's live function for
its next hop: full-information functions route *around* failed incident
links (the exact capability the paper defines them for); detour-wrapped
functions bounce once to a live neighbour; plain single-path functions
answer from their table alone.

Routing itself — the per-hop liveness and adjacency checks, drops, link
latency, node queueing, fault and churn schedules, retries, and every
trace span — is :class:`~repro.simulator.kernel.BatchKernel`, which
drives this state.
"""

from __future__ import annotations

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


class Network:
    """One network's routing state: its scheme, failures and overlays."""

    def __init__(
        self,
        scheme: RoutingScheme,
        failed_links: Iterable[Tuple[int, int]] = (),
        failed_nodes: Iterable[int] = (),
    ) -> None:
        self._scheme = scheme
        self._failed: Set[Link] = _as_links(failed_links)
        self._failed_nodes: Set[int] = set(failed_nodes)
        # The graph's shared context is the healer's knowledge source: it
        # memoises each node's pristine serialised function, so repeat
        # corruptions and heals of one node encode it exactly once.
        self._ctx = scheme.ctx
        # Table-corruption overlay: the scheme object itself stays pristine.
        self._corrupt_tables: Dict[int, BitArray] = {}
        self._corrupt_functions: Dict[int, LocalRoutingFunction] = {}
        self._healed_functions: Dict[int, LocalRoutingFunction] = {}
        self._quarantined: Set[int] = set()
        # Live-topology churn: the graph as it currently exists (the
        # scheme's graph until the first mutation) plus repaired-table
        # overlays installed before the converged scheme swap.
        self._live_graph: LabeledGraph = scheme.graph
        self._churned = False
        self._updated_functions: Dict[int, LocalRoutingFunction] = {}
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

        True while no link or node is down, no table is corrupted,
        quarantined, healed or repaired in place, and no topology
        mutation has been applied: the only state in which the kernel's
        quiescent drain may answer hops from the next-hop matrix.
        """
        return not (
            self._failed
            or self._failed_nodes
            or self._quarantined
            or self._corrupt_tables
            or self._healed_functions
            or self._updated_functions
            or self._churned
        )

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

    @property
    def failed_nodes(self) -> Set[int]:
        """Currently crashed nodes."""
        return set(self._failed_nodes)

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

    @property
    def churned(self) -> bool:
        """Whether any topology mutation has been applied."""
        return self._churned

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

    def install_table(self, node: int, function: LocalRoutingFunction) -> None:
        """Install one repaired routing function ahead of convergence.

        The node's storage was just rewritten, so any corruption, heal or
        quarantine state it carried is superseded by the fresh table.
        """
        self._corrupt_tables.pop(node, None)
        self._corrupt_functions.pop(node, None)
        self._healed_functions.pop(node, None)
        self._quarantined.discard(node)
        self._updated_functions[node] = function

    def install_scheme(self, scheme: RoutingScheme) -> None:
        """Swap in the converged scheme built over the live graph.

        Per-node overlays installed during the repair window collapse into
        the scheme itself; corruption overlays on *clean* nodes survive
        (their storage is still bad, and their encodings are bit-identical
        across the swap).
        """
        if scheme.graph is not self._live_graph:
            raise RoutingError(
                "converged scheme must be built over the live graph"
            )
        self._scheme = scheme
        self._ctx = scheme.ctx
        self._updated_functions.clear()

    # -- table corruption ----------------------------------------------------

    @property
    def corrupted_nodes(self) -> Set[int]:
        """Nodes whose packed function bits are currently mutated."""
        return set(self._corrupt_tables)

    @property
    def quarantined_nodes(self) -> Set[int]:
        """Nodes whose corruption was detected: they no longer forward."""
        return set(self._quarantined)

    def corruption_summary(self) -> Dict[str, int]:
        """Lifecycle counts: injected / detected / undetected / healed."""
        return dict(self._corruption_stats)

    def corrupt_table(self, node: int, mutation: TableMutation) -> None:
        """Overwrite ``node``'s packed function bits with a mutated copy.

        The damage lives in an overlay; the scheme object itself stays
        pristine, modelling the node's *storage* going bad while the
        network's graph+model knowledge (the shared context, the healer's
        source) survives.
        """
        pristine = self._ctx.pristine_bits(self._scheme, node)
        self._corrupt_tables[node] = mutation.apply(pristine)
        self._corrupt_functions.pop(node, None)
        self._healed_functions.pop(node, None)
        # Fresh damage supersedes any earlier detection verdict.
        self._quarantined.discard(node)
        self._corruption_stats["injected"] += 1
        get_registry().counter(
            "repro_table_corruptions_total", kind=mutation.kind.name
        ).inc()

    def heal_table(self, node: int) -> bool:
        """Rebuild ``node``'s function pristine from graph+model knowledge.

        The replacement function is decoded from the context's memoised
        pristine bits — the same serialised knowledge the corruption step
        snapshotted — so healing is an explicit re-install, not a silent
        fallback onto the scheme's in-memory cache.  Returns whether there
        was anything to heal (corruption or quarantine state cleared).
        """
        was_broken = (
            node in self._corrupt_tables or node in self._quarantined
        )
        if not was_broken:
            return False
        self._corrupt_tables.pop(node, None)
        self._corrupt_functions.pop(node, None)
        self._quarantined.discard(node)
        self._healed_functions[node] = self._scheme.decode_function(
            node, self._ctx.pristine_bits(self._scheme, node)
        )
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
        """The live function at ``node`` — the corrupted overlay wins.

        Decoding the mutated bits is the detection point: framed schemes
        raise :class:`IntegrityError` on the checksum, and even unframed
        schemes detect *structurally* invalid encodings (prefix-code
        truncation, out-of-range ports).  A mutation that still decodes is
        an **undetected** corruption — the garbage function is installed
        and silently misroutes, exactly the failure mode integrity framing
        exists to close.
        """
        if node in self._corrupt_tables:
            overlay = self._corrupt_functions.get(node)
            if overlay is None:
                try:
                    overlay = self._scheme.decode_function(
                        node, self._corrupt_tables[node]
                    )
                except IntegrityError as exc:
                    raise self._detected(node, str(exc)) from exc
                except (ReproError, KeyError, IndexError, TypeError,
                        ValueError) as exc:
                    raise self._detected(
                        node,
                        f"corrupted table failed to decode "
                        f"({type(exc).__name__}: {exc})",
                    ) from exc
                self._corrupt_functions[node] = overlay
                self._corruption_stats["undetected"] += 1
                get_registry().counter(
                    "repro_table_corruption_undetected_total"
                ).inc()
            return overlay
        updated = self._updated_functions.get(node)
        if updated is not None:
            return updated
        healed = self._healed_functions.get(node)
        if healed is not None:
            return healed
        return self._scheme.function(node)

    def _valid_forward(self, node: int, next_node: object) -> bool:
        """Whether a forwarding decision names the node itself or a
        neighbour — the runtime port check a real router performs."""
        if not isinstance(next_node, int) or isinstance(next_node, bool):
            return False
        if next_node == node:
            return True
        if not 1 <= next_node <= self._scheme.graph.n:
            return False
        # Under churn a repaired table may legitimately name a neighbour
        # that exists only in the live graph (an added edge).
        return self._scheme.graph.has_edge(node, next_node) or (
            self._churned and self._live_graph.has_edge(node, next_node)
        )

    def _blocked_neighbors(
        self, node: int, destination: Optional[int] = None
    ) -> List[int]:
        # Quarantined nodes refuse to forward but can still *receive*:
        # the destination itself is never routed around.  Under churn an
        # edge absent from the live graph is as unusable as a failed one,
        # and repaired tables may know neighbours the scheme graph lacks.
        neighbors = self._scheme.graph.neighbor_set(node)
        if self._churned:
            neighbors = neighbors | self._live_graph.neighbor_set(node)
        return [
            nb
            for nb in neighbors
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
        corrupted = node in self._corrupt_tables
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
