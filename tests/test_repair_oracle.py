"""Churn repair converges onto the shortest paths of a distance-vector oracle.

The oracle is a Bellman–Ford distance-vector protocol: every router keeps,
per destination, a cost and a next hop, and relaxes them over the costs
its neighbours advertise until no table changes.  It reads nothing but
the mutated graph's adjacency; it shares no code with the repair layer
(``repro.core.repair``), the derived-computation context
(``repro.graphs.context``) or the distance helpers
(``repro.graphs.properties``).

Random churn schedules of all four kinds run on G(n, 1/2) and on sparse
connected graphs (n <= 40), repairing after every mutation.  After each
``plan_repair`` of the full-table scheme, for every ordered pair:

* a pair the oracle reaches routes to the least neighbour ``v`` with
  ``cost(v, w) = cost(u, w) - 1``, which is also the oracle's next hop;
* a pair the oracle cannot reach raises ``RoutingError``;
* the tables the kernel installs (``decode_function`` of the pristine
  bits, adopted or re-encoded) answer the same.

Under ``keep_connected`` edge churn the full-information scheme's options
are exactly the oracle's set of shortest-path neighbours.
"""

from __future__ import annotations

import math
import random
from typing import Any, List, Optional

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.core import RoutingScheme, build_scheme, plan_repair
from repro.errors import RoutingError
from repro.graphs import LabeledGraph, gnp_random_graph
from repro.models import Knowledge, Labeling, RoutingModel
from repro.simulator import TopologyMutationKind, random_churn

IA_ALPHA = RoutingModel(Knowledge.IA, Labeling.ALPHA)
II_ALPHA = RoutingModel(Knowledge.II, Labeling.ALPHA)
ALL_KINDS = tuple(TopologyMutationKind)


class RouterTable:
    """One router's distance vector: per destination a cost and a next hop."""

    def __init__(self, router: int, n: int) -> None:
        self.router = router
        self.cost = [math.inf] * (n + 1)
        self.hop: List[Optional[int]] = [None] * (n + 1)
        self.cost[router] = 0

    def relax(self, via: int, advertised: List[float]) -> bool:
        """Adopt any route through neighbour ``via`` that is shorter, or as
        short through a lesser neighbour; True if the table changed."""
        changed = False
        for to in range(1, len(self.cost)):
            if to == self.router:
                continue
            cost = advertised[to] + 1
            if cost < self.cost[to] or (
                cost == self.cost[to] != math.inf and via < self.hop[to]
            ):
                self.cost[to] = cost
                self.hop[to] = via
                changed = True
        return changed


def converge(graph: LabeledGraph) -> List[RouterTable]:
    """Every router's converged table, indexed by label (index 0 unused)."""
    tables = [RouterTable(u, graph.n) for u in range(graph.n + 1)]
    changed = True
    while changed:
        changed = False
        for u in graph.nodes:
            for v in graph.neighbors(u):
                changed |= tables[u].relax(v, tables[v].cost)
    return tables


def shortest_neighbors(
    graph: LabeledGraph, tables: List[RouterTable], u: int, w: int
) -> List[int]:
    """The neighbours of ``u`` one hop closer to ``w``, least first."""
    return [
        v for v in graph.neighbors(u)
        if tables[v].cost[w] == tables[u].cost[w] - 1
    ]


def installed(scheme: RoutingScheme, u: int) -> Any:
    """The function the kernel installs at ``u``: its pristine bits, decoded."""
    return scheme.decode_function(u, scheme.ctx.pristine_bits(scheme, u))


def sparse_connected(n: int, seed: int) -> LabeledGraph:
    """A random spanning tree plus about n/4 extra edges."""
    rng = random.Random(seed)
    edges = {(rng.randint(1, v - 1), v) for v in range(2, n + 1)}
    for _ in range(n // 4):
        a, b = sorted(rng.sample(range(1, n + 1), 2))
        edges.add((a, b))
    return LabeledGraph(n, sorted(edges))


@st.composite
def connected_graphs(draw: Any) -> LabeledGraph:
    """G(n, 1/2) or a sparse connected graph, 4 <= n <= 40."""
    n = draw(st.sampled_from(range(4, 41)))
    seed = draw(st.integers(0, 2**16))
    if draw(st.booleans()):
        return sparse_connected(n, seed)
    graph = gnp_random_graph(n, seed=seed)
    assume(graph.is_connected())
    return graph


@settings(max_examples=30)
@given(
    connected_graphs(),
    st.integers(0, 2**16),
    st.sampled_from(range(1, 7)),
)
def test_full_table_repair_routes_like_the_oracle(graph, churn_seed, events):
    scheme = build_scheme("full-table", graph, IA_ALPHA)
    schedule = random_churn(
        graph, events, horizon=10.0, seed=churn_seed, kinds=ALL_KINDS
    )
    for mutation in schedule:
        graph = mutation.apply(graph)
        scheme = plan_repair(scheme, graph).new_scheme
        tables = converge(graph)
        for u in graph.nodes:
            functions = (scheme.function(u), installed(scheme, u))
            for w in graph.nodes:
                if w == u:
                    continue
                if tables[u].cost[w] == math.inf:
                    for function in functions:
                        with pytest.raises(RoutingError):
                            function.next_hop(w)
                    continue
                least = shortest_neighbors(graph, tables, u, w)[0]
                assert least == tables[u].hop[w]
                for function in functions:
                    assert function.next_hop(w).next_node == least, (u, w)


@settings(max_examples=20)
@given(
    connected_graphs(),
    st.integers(0, 2**16),
    st.sampled_from(range(1, 7)),
)
def test_full_information_repair_keeps_every_shortest_edge(
    graph, churn_seed, events
):
    scheme = build_scheme("full-information", graph, II_ALPHA)
    schedule = random_churn(graph, events, horizon=10.0, seed=churn_seed)
    for mutation in schedule:
        graph = mutation.apply(graph)
        scheme = plan_repair(scheme, graph).new_scheme
        tables = converge(graph)
        for u in graph.nodes:
            functions = (scheme.function(u), installed(scheme, u))
            for w in graph.nodes:
                if w == u:
                    continue
                expected = tuple(shortest_neighbors(graph, tables, u, w))
                for function in functions:
                    assert function.shortest_edges(w) == expected, (u, w)
