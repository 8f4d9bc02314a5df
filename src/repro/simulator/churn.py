"""Live topology churn: time-stamped mutation schedules for running networks.

A :class:`~repro.simulator.chaos.FaultSchedule` perturbs the *availability*
of links and nodes — every fault can be undone and the graph underneath
never changes.  A :class:`ChurnSchedule` instead mutates the topology
itself while a :class:`~repro.simulator.kernel.BatchKernel` is
running: links appear and disappear permanently, nodes leave and rejoin.
After a mutation the installed routing tables are *stale* — they describe
a graph that no longer exists — and the simulator's convergence layer
repairs them incrementally (see :mod:`repro.core.repair`), measuring how
long the network routes on stale state and what that staleness costs.

This is the regime of "Compact Routing on Internet-Like Graphs"
(Krioukov/Fall/Yang): statically optimal compact tables meeting an
evolving topology.  All generators here are seeded and fully
deterministic, like the chaos generators they sit beside.

The node set is fixed ``1..n`` throughout (the paper's labelling models
need it): a *leave* isolates a node rather than deleting its label, and a
*join* re-attaches a currently isolated node.
"""

from __future__ import annotations

import enum
import random
from dataclasses import dataclass
from typing import List, Optional, Sequence, Set, Tuple

from repro.errors import GraphError
from repro.graphs import LabeledGraph
from repro.simulator.chaos import TimedSchedule

__all__ = [
    "TopologyMutationKind",
    "TopologyMutation",
    "ChurnSchedule",
    "random_churn",
]


class TopologyMutationKind(str, enum.Enum):
    """What a single scheduled topology mutation does to the graph."""

    EDGE_ADD = "edge add"
    EDGE_REMOVE = "edge remove"
    NODE_LEAVE = "node leave"
    """Every edge incident to the node is removed; the label stays (the
    node set is fixed ``1..n``) and the node stops forwarding."""
    NODE_JOIN = "node join"
    """A currently isolated node attaches to the listed live nodes."""

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.value


_EDGE_MUTATIONS = frozenset(
    {TopologyMutationKind.EDGE_ADD, TopologyMutationKind.EDGE_REMOVE}
)


@dataclass(frozen=True)
class TopologyMutation:
    """One time-stamped, permanent change to the live topology.

    Unlike a :class:`~repro.simulator.chaos.FaultEvent` — which the
    network can undo when the matching recovery event fires — a mutation
    has no inverse event: the graph itself changes, and the routing
    scheme must be *repaired* to match it.
    """

    time: float
    kind: TopologyMutationKind
    subject: Tuple[int, ...]
    """``(u, v)`` for edge mutations, ``(node,)`` for a leave,
    ``(node, a, b, ...)`` for a join (the node plus its attachment
    points)."""

    def __post_init__(self) -> None:
        if self.time < 0:
            raise GraphError(
                f"mutation time must be >= 0, got {self.time}"
            )
        if self.kind in _EDGE_MUTATIONS:
            if len(self.subject) != 2:
                raise GraphError(
                    f"{self.kind.value} needs exactly two subject nodes, "
                    f"got {self.subject!r}"
                )
            u, v = self.subject
            if u == v:
                raise GraphError(f"self-loop mutation at node {u}")
        elif self.kind is TopologyMutationKind.NODE_LEAVE:
            if len(self.subject) != 1:
                raise GraphError(
                    f"node leave needs exactly one subject node, "
                    f"got {self.subject!r}"
                )
        else:  # NODE_JOIN
            if len(self.subject) < 2:
                raise GraphError(
                    "node join needs the node plus at least one "
                    f"attachment point, got {self.subject!r}"
                )
            node, attachments = self.subject[0], self.subject[1:]
            if node in attachments:
                raise GraphError(f"node {node} cannot attach to itself")
            if len(set(attachments)) != len(attachments):
                raise GraphError(
                    f"duplicate attachment points in {self.subject!r}"
                )

    # -- convenience constructors ------------------------------------------

    @classmethod
    def edge_add(cls, time: float, u: int, v: int) -> "TopologyMutation":
        """A new link ``u–v`` appears at ``time``."""
        return cls(time, TopologyMutationKind.EDGE_ADD, (u, v))

    @classmethod
    def edge_remove(cls, time: float, u: int, v: int) -> "TopologyMutation":
        """The link ``u–v`` disappears permanently at ``time``."""
        return cls(time, TopologyMutationKind.EDGE_REMOVE, (u, v))

    @classmethod
    def node_leave(cls, time: float, node: int) -> "TopologyMutation":
        """``node`` leaves the network (all incident edges removed)."""
        return cls(time, TopologyMutationKind.NODE_LEAVE, (node,))

    @classmethod
    def node_join(
        cls, time: float, node: int, attachments: Sequence[int]
    ) -> "TopologyMutation":
        """``node`` rejoins, attaching to each node in ``attachments``."""
        return cls(
            time, TopologyMutationKind.NODE_JOIN, (node, *attachments)
        )

    # -- application ---------------------------------------------------------

    def apply(self, graph: LabeledGraph) -> LabeledGraph:
        """The successor graph after this mutation (validates applicability).

        Raises :class:`~repro.errors.GraphError` when the mutation does
        not apply (removing a non-edge, adding an existing edge, a leave
        of an already isolated node, a join of a still-connected node) —
        a schedule replayed from the wrong base graph fails loudly
        instead of silently diverging.
        """
        if self.kind is TopologyMutationKind.EDGE_ADD:
            return graph.with_edge(*self.subject)
        elif self.kind is TopologyMutationKind.EDGE_REMOVE:
            return graph.without_edge(*self.subject)
        elif self.kind is TopologyMutationKind.NODE_LEAVE:
            node = self.subject[0]
            if graph.degree(node) == 0:
                raise GraphError(
                    f"node {node} is already isolated; leave is a no-op"
                )
            return graph.without_node_edges(node)
        else:  # NODE_JOIN
            node = self.subject[0]
            if graph.degree(node) != 0:
                raise GraphError(
                    f"node {node} cannot join: it still has edges"
                )
            joined = graph
            for attachment in self.subject[1:]:
                joined = joined.with_edge(node, attachment)
            return joined

    def describe(self) -> str:
        """Human-readable form for trace details."""
        if self.kind in _EDGE_MUTATIONS:
            u, v = self.subject
            verb = (
                "add" if self.kind is TopologyMutationKind.EDGE_ADD
                else "remove"
            )
            return f"{verb} edge {u}-{v}"
        elif self.kind is TopologyMutationKind.NODE_LEAVE:
            return f"node {self.subject[0]} leaves"
        else:  # NODE_JOIN
            attachments = ",".join(str(a) for a in self.subject[1:])
            return f"node {self.subject[0]} joins via {attachments}"


class ChurnSchedule(TimedSchedule[TopologyMutation]):
    """An immutable, time-ordered sequence of :class:`TopologyMutation` s.

    Shares its container with
    :class:`~repro.simulator.chaos.FaultSchedule` so the two can ride
    through the same timed kernel side by side; additionally offers
    *replay* — reconstructing the live graph at any point in time — which
    is what makes schedules checkable before a run starts.
    """

    _noun = "mutations"

    @property
    def mutations(self) -> Tuple[TopologyMutation, ...]:
        """The mutations in time order."""
        return self._items

    # -- validation and replay ---------------------------------------------

    def validate(self, graph: LabeledGraph) -> None:
        """Replay the whole schedule from ``graph``; raise on any misfit.

        Because mutations are permanent, validity is *path-dependent*: an
        edge removal is only legal if no earlier mutation already removed
        that edge.  A full replay is therefore the only honest check.
        """
        current = graph
        for mutation in self._items:
            try:
                current = mutation.apply(current)
            except GraphError as exc:
                raise GraphError(
                    f"churn schedule invalid at t={mutation.time:.2f} "
                    f"({mutation.describe()}): {exc}"
                ) from exc

    def graph_at(self, graph: LabeledGraph, time: float) -> LabeledGraph:
        """The live graph at ``time``, replayed from base graph ``graph``.

        Mutations stamped exactly ``time`` count as applied, matching the
        kernel's mutation-before-message tie-break.
        """
        current = graph
        for mutation in self._items:
            if mutation.time > time:
                break
            current = mutation.apply(current)
        return current

    def final_graph(self, graph: LabeledGraph) -> LabeledGraph:
        """The live graph after every scheduled mutation."""
        return self.graph_at(graph, self.horizon)


# ---------------------------------------------------------------------------
# Schedule generators
# ---------------------------------------------------------------------------


_SAMPLE_TRIES = 24
"""Rejection-sampling budget per mutation before a kind is given up on."""


def random_churn(
    graph: LabeledGraph,
    events: int,
    horizon: float = 100.0,
    seed: int = 0,
    kinds: Sequence[TopologyMutationKind] = (
        TopologyMutationKind.EDGE_ADD,
        TopologyMutationKind.EDGE_REMOVE,
    ),
    keep_connected: bool = True,
    max_attachments: int = 3,
) -> ChurnSchedule:
    """Up to ``events`` random valid mutations, uniform over ``[0, horizon)``.

    The generator replays its own output as it goes, so every emitted
    mutation is valid against the evolving graph — removals pick live
    edges, additions pick absent pairs, leaves pick attached nodes and
    joins re-attach previously left ones.  With ``keep_connected`` (the
    default) removals and leaves that would disconnect the live node set
    are rejected, so a routable topology stays routable and convergence
    is always achievable.

    Best-effort: a time slot where no requested kind has a valid move
    (e.g. a complete graph cannot gain an edge) is skipped, so the result
    may hold fewer than ``events`` mutations.  Seeded and fully
    deterministic.
    """
    if events < 0:
        raise GraphError(f"event count must be >= 0, got {events}")
    if horizon <= 0:
        raise GraphError(f"horizon must be positive, got {horizon}")
    if not kinds:
        raise GraphError("random churn needs at least one mutation kind")
    if max_attachments < 1:
        raise GraphError(
            f"max_attachments must be >= 1, got {max_attachments}"
        )
    rng = random.Random(seed)
    times = sorted(rng.uniform(0.0, horizon) for _ in range(events))
    current = graph
    left: Set[int] = {u for u in graph.nodes if graph.degree(u) == 0}
    mutations: List[TopologyMutation] = []
    for time in times:
        mutation = _draw_mutation(
            current, left, rng, list(kinds), time, keep_connected,
            max_attachments,
        )
        if mutation is None:
            continue
        current = mutation.apply(current)
        if mutation.kind is TopologyMutationKind.NODE_LEAVE:
            left.add(mutation.subject[0])
        elif mutation.kind is TopologyMutationKind.NODE_JOIN:
            left.discard(mutation.subject[0])
        else:
            # Edge mutations do not change the left set.
            pass
        mutations.append(mutation)
    return ChurnSchedule(mutations)


def _draw_mutation(
    graph: LabeledGraph,
    left: Set[int],
    rng: random.Random,
    kinds: List[TopologyMutationKind],
    time: float,
    keep_connected: bool,
    max_attachments: int,
) -> Optional[TopologyMutation]:
    """One valid mutation at ``time``, or None when no kind has a move."""
    for kind in rng.sample(kinds, len(kinds)):
        if kind is TopologyMutationKind.EDGE_REMOVE:
            edges = list(graph.edges())
            rng.shuffle(edges)
            for u, v in edges[:_SAMPLE_TRIES]:
                if keep_connected and not graph.without_edge(u, v).is_connected(left):
                    continue
                return TopologyMutation.edge_remove(time, u, v)
        elif kind is TopologyMutationKind.EDGE_ADD:
            live = [u for u in graph.nodes if u not in left]
            for _ in range(_SAMPLE_TRIES):
                if len(live) < 2:
                    break
                u, v = rng.sample(live, 2)
                if not graph.has_edge(u, v):
                    return TopologyMutation.edge_add(time, u, v)
        elif kind is TopologyMutationKind.NODE_LEAVE:
            live = [u for u in graph.nodes if u not in left]
            rng.shuffle(live)
            for node in live[:_SAMPLE_TRIES]:
                if len(live) <= 2 or graph.degree(node) == 0:
                    continue
                if keep_connected:
                    remaining = graph.without_node_edges(node)
                    if not remaining.is_connected(left | {node}):
                        continue
                return TopologyMutation.node_leave(time, node)
        else:  # NODE_JOIN
            if not left:
                continue
            node = rng.choice(sorted(left))
            live = [u for u in graph.nodes if u not in left]
            if not live:
                continue
            count = rng.randint(1, min(max_attachments, len(live)))
            attachments = sorted(rng.sample(live, count))
            return TopologyMutation.node_join(time, node, attachments)
    return None
