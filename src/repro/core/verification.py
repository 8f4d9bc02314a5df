"""End-to-end verification of routing schemes.

A scheme is *correct* when every ordered pair of nodes is connected by the
route its local functions produce, and the ratio of route length to graph
distance never exceeds the advertised stretch.  The verifier walks real
messages through the local functions — the same code path the simulator
uses — so a scheme cannot pass by construction accident.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass, field
from typing import Iterable, List, Optional, Tuple

from repro.errors import RoutingError
from repro.core.scheme import RoutingScheme

__all__ = [
    "RouteTrace",
    "VerificationReport",
    "route_message",
    "verify_full_information_resilience",
    "verify_scheme",
]


@dataclass(frozen=True)
class RouteTrace:
    """The walk one message took through the network."""

    source: int
    destination: int
    path: Tuple[int, ...]
    delivered: bool

    @property
    def hops(self) -> int:
        """Number of edges traversed."""
        return len(self.path) - 1


@dataclass
class VerificationReport:
    """Aggregate results of routing every checked pair."""

    pairs_checked: int = 0
    delivered: int = 0
    max_stretch: float = 0.0
    total_stretch: float = 0.0
    worst_pair: Optional[Tuple[int, int]] = None
    violations: List[Tuple[int, int, float]] = field(default_factory=list)
    failures: List[Tuple[int, int, str]] = field(default_factory=list)

    @property
    def all_delivered(self) -> bool:
        """True when every message reached its destination."""
        return self.delivered == self.pairs_checked and not self.failures

    @property
    def mean_stretch(self) -> float:
        """Average stretch over delivered pairs."""
        if self.delivered == 0:
            return 0.0
        return self.total_stretch / self.delivered

    def ok(self) -> bool:
        """Delivered everywhere with no stretch violations."""
        return self.all_delivered and not self.violations


def route_message(
    scheme: RoutingScheme, source: int, destination: int
) -> RouteTrace:
    """Walk one message hop by hop through the scheme's local functions."""
    graph = scheme.graph
    address = scheme.address_of(destination)
    current = source
    state = None
    path = [source]
    limit = scheme.hop_limit()
    while current != destination:
        if len(path) - 1 >= limit:
            raise RoutingError(
                f"hop limit {limit} exceeded routing {source} → {destination}; "
                f"path so far {path[:12]}..."
            )
        decision = scheme.function(current).next_hop(address, state)
        next_node = decision.next_node
        if next_node != current and not graph.has_edge(current, next_node):
            raise RoutingError(
                f"node {current} forwarded to non-adjacent node {next_node}"
            )
        current = next_node
        state = decision.state
        path.append(current)
    return RouteTrace(source, destination, tuple(path), delivered=True)


def verify_full_information_resilience(
    scheme: RoutingScheme,
    sample_nodes: Optional[int] = None,
    seed: int = 0,
) -> Tuple[int, int]:
    """Verify the defining property of full-information schemes.

    "The routing function in u must, for each destination v, return *all*
    edges incident to u on shortest paths from u to v.  These schemes allow
    alternative, shortest, paths to be taken whenever an outgoing link is
    down."  Concretely, for every source and destination and every single
    failed first-hop option: either another stored option exists (and it
    lies on a shortest path), or the failed option was the *only* shortest
    edge — in which case no shortest-path scheme could do better.

    Returns ``(pairs_checked, reroutes_available)``.
    """
    from repro.core.full_information import FullInformationFunction
    from repro.errors import RoutingError as _RoutingError

    graph = scheme.graph
    dist = scheme.ctx.distances()
    nodes = list(graph.nodes)
    if sample_nodes is not None and sample_nodes < len(nodes):
        rng = random.Random(seed)
        nodes = rng.sample(nodes, sample_nodes)
    pairs_checked = 0
    reroutes = 0
    for u in nodes:
        function = scheme.function(u)
        if not isinstance(function, FullInformationFunction):
            raise _RoutingError(
                f"node {u}: not a full-information function"
            )
        for w in graph.nodes:
            if w == u:
                continue
            options = function.shortest_edges(w)
            pairs_checked += 1
            for blocked in options:
                try:
                    decision = function.next_hop_avoiding(w, [blocked])
                except _RoutingError:
                    # Only acceptable when no alternative shortest edge exists.
                    assert len(options) == 1
                    continue
                reroutes += 1
                assert decision.next_node != blocked
                assert (
                    dist[decision.next_node - 1, w - 1]
                    == dist[u - 1, w - 1] - 1
                )
    return pairs_checked, reroutes


def verify_scheme(
    scheme: RoutingScheme,
    sample_pairs: Optional[int] = None,
    seed: int = 0,
    stretch_tolerance: float = 1e-9,
) -> VerificationReport:
    """Route every ordered pair (or a random sample) and check the stretch.

    ``sample_pairs`` bounds the work on large graphs; ``None`` checks all
    ``n(n-1)`` ordered pairs.
    """
    graph = scheme.graph
    dist = scheme.ctx.distances()
    bound = scheme.stretch_bound()
    nodes = list(graph.nodes)
    total = len(nodes) * (len(nodes) - 1)
    pairs: Iterable[Tuple[int, int]] = itertools.permutations(nodes, 2)
    if sample_pairs is not None and sample_pairs < total:
        # ``random.sample`` picks indices from the population's length
        # alone, so sampling indices into the ``permutations`` order
        # draws the same pairs, in the same order, as sampling the list.
        sampled = []
        for index in random.Random(seed).sample(range(total), sample_pairs):
            s, t = divmod(index, len(nodes) - 1)
            sampled.append((nodes[s], nodes[t + (t >= s)]))
        pairs = sampled
    report = VerificationReport()
    for source, destination in pairs:
        report.pairs_checked += 1
        try:
            trace = route_message(scheme, source, destination)
        except RoutingError as exc:
            report.failures.append((source, destination, str(exc)))
            continue
        report.delivered += 1
        shortest = int(dist[source - 1, destination - 1])
        stretch = trace.hops / shortest if shortest > 0 else 1.0
        report.total_stretch += stretch
        if stretch > report.max_stretch:
            report.max_stretch = stretch
            report.worst_pair = (source, destination)
        if stretch > bound + stretch_tolerance:
            report.violations.append((source, destination, stretch))
    return report
