"""Dict-of-sets reference implementation of labelled graphs.

``repro.graphs.graph.LabeledGraph`` turns its edges into one sorted
integer array and reads its neighbour tuples, neighbour sets and adjacency
matrix off it; this is the per-edge constructor it replaced, kept verbatim
as an oracle: one Python set per node, filled edge by edge with the range
and self-loop checks made in input order.  Beside it are the list
comprehension ``gnp_random_graph`` used to hand that constructor, and a
per-source breadth-first search over neighbour sets for
``repro.graphs.properties.distance_matrix``.  ``tests/test_graph_reference.py``
requires the array graph to agree with them.  They are deliberately slow
and must not be optimised.
"""

from __future__ import annotations

from typing import Dict, Iterable, Iterator, Tuple

import numpy as np

from repro.errors import GraphError

__all__ = ["LabeledGraph", "gnp_random_graph", "bfs_distances"]


class LabeledGraph:
    """An immutable simple undirected graph on nodes ``1..n``."""

    __slots__ = ("_n", "_adj_sets", "_adj_sorted", "_edge_count", "_matrix")

    def __init__(self, n: int, edges: Iterable[Tuple[int, int]] = ()) -> None:
        if n < 1:
            raise GraphError(f"graph needs at least one node, got n={n}")
        self._n = n
        adj: list[set[int]] = [set() for _ in range(n + 1)]
        count = 0
        for u, v in edges:
            if not (1 <= u <= n and 1 <= v <= n):
                raise GraphError(f"edge ({u}, {v}) outside node range 1..{n}")
            if u == v:
                raise GraphError(f"self-loop at node {u} is not allowed")
            if v not in adj[u]:
                adj[u].add(v)
                adj[v].add(u)
                count += 1
        self._adj_sets = tuple(frozenset(s) for s in adj)
        self._adj_sorted = tuple(tuple(sorted(s)) for s in adj)
        self._edge_count = count
        self._matrix: np.ndarray | None = None

    @property
    def n(self) -> int:
        """Number of nodes."""
        return self._n

    @property
    def edge_count(self) -> int:
        """Number of edges."""
        return self._edge_count

    @property
    def nodes(self) -> range:
        """The node labels ``1..n``."""
        return range(1, self._n + 1)

    def edges(self) -> Iterator[Tuple[int, int]]:
        """All edges ``(u, v)`` with ``u < v`` in lexicographic order."""
        for u in self.nodes:
            for v in self._adj_sorted[u]:
                if u < v:
                    yield (u, v)

    def neighbors(self, u: int) -> Tuple[int, ...]:
        """Neighbours of ``u`` in increasing label order."""
        self._check_node(u)
        return self._adj_sorted[u]

    def neighbor_set(self, u: int) -> frozenset[int]:
        """Neighbours of ``u`` as a set for O(1) membership tests."""
        self._check_node(u)
        return self._adj_sets[u]

    def has_edge(self, u: int, v: int) -> bool:
        """True when ``{u, v}`` is an edge."""
        self._check_node(u)
        self._check_node(v)
        return v in self._adj_sets[u]

    def _check_node(self, u: int) -> None:
        if not 1 <= u <= self._n:
            raise GraphError(f"node {u} outside range 1..{self._n}")

    def adjacency_matrix(self) -> np.ndarray:
        """Boolean adjacency matrix indexed ``[0..n-1]`` (node ``u`` ↦ row ``u-1``)."""
        if self._matrix is None:
            matrix = np.zeros((self._n, self._n), dtype=bool)
            for u, v in self.edges():
                matrix[u - 1, v - 1] = True
                matrix[v - 1, u - 1] = True
            self._matrix = matrix
        return self._matrix

    def relabel(self, mapping: Dict[int, int]) -> "LabeledGraph":
        """Return a copy with nodes renamed by a bijection ``old ↦ new``."""
        if sorted(mapping) != list(self.nodes) or sorted(
            mapping.values()
        ) != list(self.nodes):
            raise GraphError("mapping must be a permutation of the node set")
        return LabeledGraph(
            self._n, ((mapping[u], mapping[v]) for u, v in self.edges())
        )

    def without_edge(self, u: int, v: int) -> "LabeledGraph":
        """Return a copy with one edge removed."""
        if not self.has_edge(u, v):
            raise GraphError(f"({u}, {v}) is not an edge")
        drop = frozenset((u, v))
        return LabeledGraph(
            self._n,
            (e for e in self.edges() if frozenset(e) != drop),
        )

    def with_edge(self, u: int, v: int) -> "LabeledGraph":
        """Return a copy with one edge added."""
        self._check_node(u)
        self._check_node(v)
        if u == v:
            raise GraphError(f"self-loop at node {u} is not allowed")
        if self.has_edge(u, v):
            raise GraphError(f"({u}, {v}) is already an edge")
        return LabeledGraph(self._n, list(self.edges()) + [(u, v)])

    def without_node_edges(self, u: int) -> "LabeledGraph":
        """Return a copy with every edge incident to ``u`` removed."""
        self._check_node(u)
        return LabeledGraph(
            self._n, (e for e in self.edges() if u not in e)
        )

    def complement(self) -> "LabeledGraph":
        """The complement graph — every bit of ``E(G)`` flipped."""
        return LabeledGraph(
            self._n,
            (
                (u, v)
                for u in self.nodes
                for v in range(u + 1, self._n + 1)
                if v not in self._adj_sets[u]
            ),
        )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, LabeledGraph):
            return NotImplemented
        return self._n == other._n and self._adj_sets == other._adj_sets

    def __hash__(self) -> int:
        return hash((self._n, self._adj_sets))


def gnp_random_graph(n: int, p: float = 0.5, seed: int | None = None) -> LabeledGraph:
    """Sample ``G(n, p)`` with a seeded generator."""
    if not 0.0 <= p <= 1.0:
        raise GraphError(f"edge probability must be in [0, 1], got {p}")
    rng = np.random.default_rng(seed)
    upper = rng.random((n, n)) < p
    rows, cols = np.triu_indices(n, k=1)
    present = upper[rows, cols]
    edges = [
        (int(u) + 1, int(v) + 1)
        for u, v, keep in zip(rows, cols, present)
        if keep
    ]
    return LabeledGraph(n, edges)


def bfs_distances(graph, max_distance: int | None = None) -> np.ndarray:
    """All-pairs hop distances by one breadth-first search per source.

    Entry ``[u - 1, w - 1]`` is the hop distance from ``u`` to ``w``, and
    ``-1`` where ``w`` is unreachable or farther than ``max_distance``.
    ``graph`` is any graph with ``n`` and ``neighbor_set``.
    """
    n = graph.n
    dist = np.full((n, n), -1, dtype=np.int32)
    for source in range(1, n + 1):
        seen = {source: 0}
        frontier = [source]
        depth = 0
        while frontier and (max_distance is None or depth < max_distance):
            depth += 1
            reached = []
            for x in frontier:
                for y in graph.neighbor_set(x):
                    if y not in seen:
                        seen[y] = depth
                        reached.append(y)
            frontier = reached
        for w, hops in seen.items():
            dist[source - 1, w - 1] = hops
    return dist
