"""Labelled undirected graphs with nodes ``{1, ..., n}``.

The paper's networks are simple undirected graphs whose nodes carry the
minimal label set ``1..n`` (model assumptions α/β) unless a scheme buys
larger labels and is charged for them (model γ).  :class:`LabeledGraph` is
immutable after construction: the routing schemes, codecs and simulator all
treat the topology as static, matching the paper's static-network setting.

A graph holds its edges as one sorted integer array, built once at
construction: the sorted neighbour tuples, the neighbour sets and the
adjacency matrix are all read off it, and the transformations below hand
the constructor an array derived from it.
"""

from __future__ import annotations

from typing import AbstractSet, Dict, Iterable, Iterator, Tuple

import numpy as np

from repro.errors import GraphError

__all__ = ["LabeledGraph"]


class LabeledGraph:
    """An immutable simple undirected graph on nodes ``1..n``."""

    __slots__ = ("_n", "_adj_edges", "_adj_sets", "_adj_sorted", "_matrix")

    def __init__(
        self, n: int, edges: Iterable[Tuple[int, int]] | np.ndarray = ()
    ) -> None:
        """``edges`` is any iterable of ``(u, v)`` pairs or an ``(m, 2)``
        integer array; duplicates and both orientations of an edge collapse
        into one edge."""
        if n < 1:
            raise GraphError(f"graph needs at least one node, got n={n}")
        self._n = n
        pairs = np.asarray(edges if isinstance(edges, np.ndarray) else list(edges))
        if pairs.shape == (0,):
            pairs = pairs.reshape(0, 2).astype(np.int64)
        if pairs.ndim != 2:
            raise TypeError("edges must be (u, v) pairs of integer labels")
        if pairs.shape[1] != 2:
            raise ValueError(
                f"edges must be (u, v) pairs, got {pairs.shape[1]} labels per edge"
            )
        if pairs.dtype.kind not in "biu":
            raise TypeError(f"edge labels must be integers, got {pairs.dtype}")
        outside = ((pairs < 1) | (pairs > n)).any(axis=1)
        bad = outside | (pairs[:, 0] == pairs[:, 1])
        if bad.any():
            first = int(bad.argmax())
            u, v = pairs[first].tolist()
            if outside[first]:
                raise GraphError(f"edge ({u}, {v}) outside node range 1..{n}")
            raise GraphError(f"self-loop at node {u} is not allowed")
        # Both orientations keyed row-major, (u-1)·n + (v-1): one sort puts
        # every node's neighbours in a contiguous increasing run and the
        # duplicates next to each other.
        a, b = (pairs.astype(np.int64) - 1).T
        keys = np.sort(np.concatenate((a * n + b, b * n + a)))
        keys = keys[np.diff(keys, prepend=-1) != 0]
        src, dst = np.divmod(keys, n)
        upper = src < dst
        self._adj_edges = np.stack((src[upper], dst[upper]), axis=1) + 1
        self._adj_edges.setflags(write=False)
        starts = np.searchsorted(src, np.arange(n + 1)).tolist()
        labels = (dst + 1).tolist()
        self._adj_sorted: Tuple[Tuple[int, ...], ...] = ((),) + tuple(
            tuple(labels[lo:hi]) for lo, hi in zip(starts, starts[1:])
        )
        self._adj_sets = tuple(frozenset(s) for s in self._adj_sorted)
        self._matrix: np.ndarray | None = None

    # -- basic accessors ---------------------------------------------------

    @property
    def n(self) -> int:
        """Number of nodes."""
        return self._n

    @property
    def edge_count(self) -> int:
        """Number of edges."""
        return len(self._adj_edges)

    @property
    def nodes(self) -> range:
        """The node labels ``1..n``."""
        return range(1, self._n + 1)

    def edges(self) -> Iterator[Tuple[int, int]]:
        """All edges ``(u, v)`` with ``u < v`` in lexicographic order."""
        return zip(self._adj_edges[:, 0].tolist(), self._adj_edges[:, 1].tolist())

    def degree(self, u: int) -> int:
        """Degree of node ``u``."""
        self._check_node(u)
        return len(self._adj_sets[u])

    def neighbors(self, u: int) -> Tuple[int, ...]:
        """Neighbours of ``u`` in increasing label order.

        The paper's constructions repeatedly refer to the "least" adjacent
        nodes; this sorted tuple is that order.
        """
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

    def non_neighbors(self, u: int) -> Tuple[int, ...]:
        """Nodes other than ``u`` not adjacent to ``u``, in increasing order.

        This is the set ``A₀`` of Theorem 1.
        """
        adjacent = self._adj_sets[u]
        return tuple(
            w for w in self.nodes if w != u and w not in adjacent
        )

    def _check_node(self, u: int) -> None:
        if not 1 <= u <= self._n:
            raise GraphError(f"node {u} outside range 1..{self._n}")

    # -- dense representation ----------------------------------------------

    def adjacency_matrix(self) -> np.ndarray:
        """Boolean adjacency matrix indexed ``[0..n-1]`` (node ``u`` ↦ row ``u-1``).

        Cached; used by the fast diameter/distance routines.
        """
        if self._matrix is None:
            matrix = np.zeros((self._n, self._n), dtype=bool)
            u, v = (self._adj_edges - 1).T
            matrix[u, v] = True
            matrix[v, u] = True
            self._matrix = matrix
        return self._matrix

    # -- transformations -----------------------------------------------------

    def relabel(self, mapping: Dict[int, int]) -> "LabeledGraph":
        """Return a copy with nodes renamed by a bijection ``old ↦ new``.

        The mapping must be a permutation of ``1..n`` (model β's label
        permutations and Theorem 9's outer relabellings are both of this
        form).
        """
        if sorted(mapping) != list(self.nodes) or sorted(
            mapping.values()
        ) != list(self.nodes):
            raise GraphError("mapping must be a permutation of the node set")
        renamed = np.zeros(self._n + 1, dtype=np.int64)
        renamed[list(mapping)] = list(mapping.values())
        return LabeledGraph(self._n, renamed[self._adj_edges])

    def without_edge(self, u: int, v: int) -> "LabeledGraph":
        """Return a copy with one edge removed (used for failure injection)."""
        if not self.has_edge(u, v):
            raise GraphError(f"({u}, {v}) is not an edge")
        keep = (self._adj_edges != sorted((u, v))).any(axis=1)
        return LabeledGraph(self._n, self._adj_edges[keep])

    def with_edge(self, u: int, v: int) -> "LabeledGraph":
        """Return a copy with one edge added (used for live topology churn).

        The inverse of :meth:`without_edge`: the graph stays immutable and
        a mutated *successor* graph is returned, so every derivation keyed
        on the old structure stays valid for the old object.
        """
        self._check_node(u)
        self._check_node(v)
        if u == v:
            raise GraphError(f"self-loop at node {u} is not allowed")
        if self.has_edge(u, v):
            raise GraphError(f"({u}, {v}) is already an edge")
        return LabeledGraph(self._n, np.vstack((self._adj_edges, [(u, v)])))

    def without_node_edges(self, u: int) -> "LabeledGraph":
        """Return a copy with every edge incident to ``u`` removed.

        Models a node *leaving* the network under churn: the label stays
        (the node set is fixed ``1..n``) but the node becomes isolated.
        """
        self._check_node(u)
        keep = (self._adj_edges != u).all(axis=1)
        return LabeledGraph(self._n, self._adj_edges[keep])

    def complement(self) -> "LabeledGraph":
        """The complement graph — every bit of ``E(G)`` flipped.

        ``G(n, 1/2)`` is closed under complement, and so is the Lemma 1
        degree band; handy for symmetry checks in tests and experiments.
        """
        missing = np.triu(~self.adjacency_matrix(), k=1)
        return LabeledGraph(self._n, np.argwhere(missing) + 1)

    # -- connectivity --------------------------------------------------------

    def is_connected(self, removed: AbstractSet[int] = frozenset()) -> bool:
        """True when the nodes outside ``removed`` induce a connected graph.

        One surviving node counts as connected (so does n = 1); none does
        not.
        """
        survivors = [u for u in range(1, self._n + 1) if u not in removed]
        if not survivors:
            return False
        seen = {survivors[0]}
        stack = [survivors[0]]
        while stack:
            u = stack.pop()
            for v in self._adj_sets[u]:
                if v not in seen and v not in removed:
                    seen.add(v)
                    stack.append(v)
        return len(seen) == len(survivors)

    # -- dunder --------------------------------------------------------------

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, LabeledGraph):
            return NotImplemented
        return self._n == other._n and self._adj_sets == other._adj_sets

    def __hash__(self) -> int:
        return hash((self._n, self._adj_sets))

    def __repr__(self) -> str:
        return f"LabeledGraph(n={self._n}, edges={self.edge_count})"
