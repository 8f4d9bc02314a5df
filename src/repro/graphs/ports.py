"""Port assignments — the paper's local edge labels.

Edges incident to a node ``v`` of degree ``d(v)`` are connected to ports
labelled ``1..d(v)``.  Whether this assignment is an adversarial given
(model IA), freely re-assignable (model IB), or irrelevant because
neighbours are known (model II) is what separates the knowledge models.

Theorem 8's adversary exploits exactly this object: a random port
assignment is a random permutation of each node's neighbours, and any
shortest-path routing function must reproduce it.  That permutation is
what is stored (:meth:`PortAssignment.port_array`).
"""

from __future__ import annotations

import random
from bisect import bisect_left
from operator import index
from typing import List, Mapping, Sequence, Union

import numpy as np

from repro.errors import PortAssignmentError
from repro.graphs.graph import LabeledGraph

__all__ = ["PortAssignment"]


class PortAssignment:
    """A per-node bijection from neighbours to ports ``1..d(v)``, stored as
    each node's permutation of its sorted neighbours."""

    __slots__ = ("_graph", "_ports", "_neighbor_at")

    def __init__(
        self, graph: LabeledGraph, port_of: Mapping[int, Mapping[int, int]]
    ) -> None:
        ports: List[int] = []
        for u in graph.nodes:
            local = port_of.get(u, {})
            neighbors = graph.neighbors(u)
            if local.keys() != set(neighbors):
                raise PortAssignmentError(
                    f"node {u}: ports must be assigned to exactly the "
                    f"neighbours {neighbors}"
                )
            ports.extend(index(local[nb]) for nb in neighbors)
        self._store(graph, ports)

    def _store(
        self, graph: LabeledGraph, ports: Union[Sequence[int], np.ndarray]
    ) -> None:
        """Check and hold ``ports``, every node's in sorted-neighbour order,
        node after node, as the port array; derive the neighbour array."""
        adjacency = graph.adjacency_matrix()
        degrees = np.count_nonzero(adjacency, axis=1)
        width = int(degrees.max(initial=0)) + 1
        held = np.arange(width) < degrees[:, None]
        array = np.zeros(held.shape, dtype=np.int64)
        array[held] = ports
        # Sorted, with free entries read as the width, a bijection onto
        # 1..d(u) reads 1, 2, …, d(u) and then the width.
        sorted_rows = np.sort(np.where(held, array, width), axis=1)
        expected = np.where(held, np.arange(1, width + 1), width)
        broken = (sorted_rows != expected).any(axis=1)
        if broken.any():
            u = int(broken.argmax()) + 1
            raise PortAssignmentError(
                f"node {u}: ports must be a bijection onto 1..{degrees[u - 1]}"
            )
        self._graph = graph
        self._ports = array.astype(np.int32)
        # Row-major, the held entries and the adjacency matrix's True
        # entries both list every node's neighbours in sorted order.
        self._neighbor_at = np.zeros(held.shape, dtype=np.int32)
        self._neighbor_at[np.flatnonzero(held) // width, self._ports[held]] = (
            np.flatnonzero(adjacency) % graph.n + 1
        )
        self._ports.setflags(write=False)
        self._neighbor_at.setflags(write=False)

    # -- constructors --------------------------------------------------------

    @classmethod
    def identity(cls, graph: LabeledGraph) -> "PortAssignment":
        """The canonical assignment: the i-th least neighbour sits on port i.

        This is the assignment a model-IB scheme chooses for itself — with it
        the port map is derivable from the neighbour set alone, so knowing
        the interconnection vector (``n - 1`` bits) suffices to route to any
        neighbour.
        """
        adjacency = graph.adjacency_matrix()
        assignment = cls.__new__(cls)
        assignment._store(
            graph, np.cumsum(adjacency, axis=1, dtype=np.int32)[adjacency]
        )
        return assignment

    @classmethod
    def shuffled(cls, graph: LabeledGraph, rng: random.Random) -> "PortAssignment":
        """A uniformly random assignment (the Theorem 8 adversary)."""
        ports: List[int] = []
        for u in graph.nodes:
            local = list(range(1, graph.degree(u) + 1))
            rng.shuffle(local)
            ports.extend(local)
        assignment = cls.__new__(cls)
        assignment._store(graph, ports)
        return assignment

    # -- accessors -------------------------------------------------------------

    @property
    def graph(self) -> LabeledGraph:
        """The underlying topology."""
        return self._graph

    def port(self, u: int, neighbor: int) -> int:
        """Port at ``u`` leading to ``neighbor``."""
        if 0 < u <= self._graph.n:
            neighbors = self._graph.neighbors(u)
            rank = bisect_left(neighbors, neighbor)
            if rank < len(neighbors) and neighbors[rank] == neighbor:
                return int(self._ports[u - 1, rank])
        raise PortAssignmentError(f"{neighbor} is not a neighbour of {u}")

    def neighbor(self, u: int, port: int) -> int:
        """Neighbour of ``u`` reached through ``port``."""
        if 0 < u <= self._graph.n and 0 < port < self._neighbor_at.shape[1]:
            neighbor = int(self._neighbor_at[u - 1, port])
            if neighbor:
                return neighbor
        raise PortAssignmentError(f"node {u} has no port {port}")

    def port_array(self) -> np.ndarray:
        """Every node's ports as one read-only ``int32`` array.

        Entry ``[u - 1, i]`` is the port of ``u``'s ``i``-th least neighbour
        and 0 past ``d(u)``, up to one column past the maximum degree, so a
        rank of ``-1`` reads port 0.
        """
        return self._ports

    def neighbor_array(self) -> np.ndarray:
        """Every port's neighbour as one read-only ``int32`` array.

        Entry ``[u - 1, p]`` is :meth:`neighbor` ``(u, p)`` for each port
        ``p`` in ``1..d(u)`` and 0 elsewhere (column 0, and the ports past
        ``d(u)`` up to the maximum degree), so a row of ports maps to its
        row of next nodes in one gather.
        """
        return self._neighbor_at

    def permutation_at(self, u: int) -> tuple[int, ...]:
        """Ports as a permutation relative to the sorted neighbour order.

        Entry ``i`` is ``port(u, i-th least neighbour) - 1``, a permutation
        of ``0..d(u)-1``.  Its Lehmer rank is the minimal description of the
        assignment, which is the quantity Theorem 8 charges for.
        """
        return tuple((self._ports[u - 1, : self._graph.degree(u)] - 1).tolist())

    def is_identity(self) -> bool:
        """True when every node's i-th least neighbour sits on port i."""
        columns = np.arange(1, self._ports.shape[1] + 1)
        return bool(((self._ports == 0) | (self._ports == columns)).all())
