"""Bounce-once detour recovery around single-path routing functions.

The paper's full-information schemes survive link failures by storing
*every* shortest-path edge per destination — an ``O(n³)``-bit luxury.  The
compact single-path schemes (Theorems 1–5, interval routing) store one
choice and drop a message the moment that choice is a dead link.

:class:`DetourWrapper` retrofits a minimal, paper-faithful recovery onto
any single-path scheme: when the stored next hop is down, forward to some
*live* neighbour instead and let routing resume normally from there.  The
decision uses only information the node already holds under model II —
its own routing entry plus the liveness of its incident links — so the
wrapper adds **zero** table bits (its serialised functions are the inner
scheme's, bit for bit).  A bounce budget carried in the message header
(default 1: "bounce once") keeps the worst case bounded: each bounce costs
at most one wasted hop plus a fresh route from an adjacent node, after
which an unlucky message is dropped rather than wandering.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Hashable, Iterable, Optional, Sequence, Tuple

from repro.bitio import BitArray
from repro.errors import RoutingError, SchemeBuildError
from repro.core.full_information import FullInformationFunction
from repro.core.scheme import (
    HopDecision, LocalRoutingFunction, RoutingScheme, SchemeWrapper,
)
from repro.graphs import GraphContext, LabeledGraph

__all__ = ["DetourState", "DetourFunction", "DetourWrapper"]


@dataclass(frozen=True)
class DetourState:
    """Header state of a detoured message: inner state + bounce count."""

    inner: Any = None
    bounces: int = 0


def _split_state(state: Any) -> Tuple[Any, int]:
    if isinstance(state, DetourState):
        return state.inner, state.bounces
    return state, 0


class DetourFunction(LocalRoutingFunction):
    """Wraps one node's routing function with live-neighbour fallback."""

    def __init__(
        self,
        node: int,
        inner: LocalRoutingFunction,
        neighbors: Sequence[int],
        max_bounces: int = 1,
    ) -> None:
        super().__init__(node)
        self._inner = inner
        self._neighbors = tuple(neighbors)
        self._max_bounces = max_bounces

    @property
    def inner(self) -> LocalRoutingFunction:
        """The wrapped single-path function."""
        return self._inner

    def next_hop(self, destination: Hashable, state: Any = None) -> HopDecision:
        inner_state, bounces = _split_state(state)
        decision = self._inner.next_hop(destination, inner_state)
        return HopDecision(
            decision.next_node, DetourState(decision.state, bounces)
        )

    def next_hop_row(
        self, addresses: Sequence[Hashable], graph: LabeledGraph
    ) -> None:
        """Never derivable: every decision carries a :class:`DetourState`."""
        return None

    def next_hop_avoiding(
        self,
        destination: Hashable,
        blocked: Iterable[int],
        state: Any = None,
    ) -> HopDecision:
        """Prefer the stored hop; bounce to a live neighbour if it is dead.

        A fault-aware inner function (full-information) is asked for a live
        shortest-path edge first, so the bounce comes only once it has none
        left.  Raises :class:`~repro.errors.RoutingError` when the bounce
        budget is spent or no live neighbour remains.
        """
        blocked_set = set(blocked)
        inner_state, bounces = _split_state(state)
        primary: Optional[int] = None
        decision: Optional[HopDecision] = None
        try:
            if isinstance(self._inner, FullInformationFunction):
                decision = self._inner.next_hop_avoiding(
                    int(destination), blocked_set
                )
            else:
                decision = self._inner.next_hop(destination, inner_state)
            primary = decision.next_node
        except RoutingError:
            pass  # fall through to a detour attempt
        if (
            decision is not None
            and primary not in blocked_set
        ):
            return HopDecision(primary, DetourState(decision.state, bounces))
        if bounces >= self._max_bounces:
            raise RoutingError(
                f"node {self.node}: stored hop toward {destination!r} is "
                f"down and the bounce budget ({self._max_bounces}) is spent"
            )
        alive = [
            nb
            for nb in self._neighbors
            if nb not in blocked_set and nb != primary
        ]
        if not alive:
            raise RoutingError(
                f"node {self.node}: every incident link is down; "
                f"cannot detour toward {destination!r}"
            )
        # Deterministic pick; the message resumes normal routing at the
        # detour neighbour as if from a fresh source, its header
        # remembering only the spent bounce.
        return HopDecision(alive[0], DetourState(None, bounces + 1))


class DetourWrapper(SchemeWrapper):
    """A :class:`SchemeWrapper` adding bounce-once recovery.

    Transparent for space accounting (tables, labels and aux bits are the
    inner scheme's) and for fault-free routing; only when the stored next
    hop is down does behaviour diverge from the wrapped scheme.
    """

    def __init__(self, inner: RoutingScheme, max_bounces: int = 1) -> None:
        if max_bounces < 1:
            raise SchemeBuildError(
                f"max_bounces must be >= 1, got {max_bounces}"
            )
        super().__init__(inner)
        self._max_bounces = max_bounces
        self.scheme_name = f"detour({inner.scheme_name})"

    @property
    def max_bounces(self) -> int:
        """Per-message detour budget carried in the header."""
        return self._max_bounces

    # -- repair: rebuild the inner scheme, keep the bounce budget -------------

    def rebuild(
        self, graph: LabeledGraph, ctx: Optional[GraphContext] = None
    ) -> "DetourWrapper":
        return DetourWrapper(
            self._inner.rebuild(graph, ctx=ctx), self._max_bounces
        )

    # -- routing and decoding: wrap the inner function; tables cost no bits --

    def _build_function(self, u: int) -> DetourFunction:
        return DetourFunction(
            u,
            self._inner.function(u),
            self._graph.neighbors(u),
            self._max_bounces,
        )

    def decode_function(self, u: int, bits: BitArray) -> DetourFunction:
        return DetourFunction(
            u,
            self._inner.decode_function(u, bits),
            self._graph.neighbors(u),
            self._max_bounces,
        )

    # -- guarantees ----------------------------------------------------------

    def stretch_bound(self) -> float:
        """Fault-free stretch is the inner scheme's; each bounce adds at
        most one hop plus a fresh route from a node one hop away."""
        inner = self._inner.stretch_bound()
        return (inner + 2.0) * (1 + self._max_bounces)
