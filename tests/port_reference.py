"""Dict-of-dicts reference implementation of port assignments.

``repro.graphs.ports.PortAssignment`` stores each node's permutation of
its sorted neighbours as one array; this is the per-node map it replaced,
kept verbatim as an oracle: two dicts per node, the bijection checked node
by node in Python.  ``tests/test_graphs_ports.py`` requires the array
assignment to agree with it on every lookup and every rejected mapping,
and ``tests/table_reference.py`` routes its reference tables through it.
It is deliberately slow and must not be optimised.
"""

from __future__ import annotations

import random
from typing import Dict, Mapping, Optional

import numpy as np

from repro.errors import PortAssignmentError
from repro.graphs.graph import LabeledGraph

__all__ = ["PortAssignment"]


class PortAssignment:
    """A per-node bijection from neighbours to ports ``1..d(v)``."""

    __slots__ = ("_graph", "_port_of", "_neighbor_at", "_neighbor_array")

    def __init__(
        self, graph: LabeledGraph, port_of: Mapping[int, Mapping[int, int]]
    ) -> None:
        self._graph = graph
        frozen_ports: Dict[int, Dict[int, int]] = {}
        frozen_neighbors: Dict[int, Dict[int, int]] = {}
        for u in graph.nodes:
            local = dict(port_of.get(u, {}))
            neighbors = graph.neighbors(u)
            if sorted(local) != sorted(neighbors):
                raise PortAssignmentError(
                    f"node {u}: ports must be assigned to exactly the "
                    f"neighbours {neighbors}"
                )
            if sorted(local.values()) != list(range(1, len(neighbors) + 1)):
                raise PortAssignmentError(
                    f"node {u}: ports must be a bijection onto 1..{len(neighbors)}"
                )
            frozen_ports[u] = local
            frozen_neighbors[u] = {port: nb for nb, port in local.items()}
        self._port_of = frozen_ports
        self._neighbor_at = frozen_neighbors
        self._neighbor_array: Optional[np.ndarray] = None

    # -- constructors --------------------------------------------------------

    @classmethod
    def identity(cls, graph: LabeledGraph) -> "PortAssignment":
        """The canonical assignment: the i-th least neighbour sits on port i.

        This is the assignment a model-IB scheme chooses for itself — with it
        the port map is derivable from the neighbour set alone, so knowing
        the interconnection vector (``n - 1`` bits) suffices to route to any
        neighbour.
        """
        return cls(
            graph,
            {
                u: {nb: i + 1 for i, nb in enumerate(graph.neighbors(u))}
                for u in graph.nodes
            },
        )

    @classmethod
    def shuffled(cls, graph: LabeledGraph, rng: random.Random) -> "PortAssignment":
        """A uniformly random assignment (the Theorem 8 adversary)."""
        port_of = {}
        for u in graph.nodes:
            ports = list(range(1, graph.degree(u) + 1))
            rng.shuffle(ports)
            port_of[u] = dict(zip(graph.neighbors(u), ports))
        return cls(graph, port_of)

    # -- accessors -------------------------------------------------------------

    @property
    def graph(self) -> LabeledGraph:
        """The underlying topology."""
        return self._graph

    def port(self, u: int, neighbor: int) -> int:
        """Port at ``u`` leading to ``neighbor``."""
        try:
            return self._port_of[u][neighbor]
        except KeyError as exc:
            raise PortAssignmentError(
                f"{neighbor} is not a neighbour of {u}"
            ) from exc

    def neighbor(self, u: int, port: int) -> int:
        """Neighbour of ``u`` reached through ``port``."""
        try:
            return self._neighbor_at[u][port]
        except KeyError as exc:
            raise PortAssignmentError(
                f"node {u} has no port {port}"
            ) from exc

    def neighbor_array(self) -> np.ndarray:
        """Every port's neighbour as one read-only ``int32`` array (memoised).

        Entry ``[u - 1, p]`` is :meth:`neighbor` ``(u, p)`` for each port
        ``p`` in ``1..d(u)`` and 0 elsewhere (column 0, and the ports past
        ``d(u)`` up to the maximum degree), so a row of ports maps to its
        row of next nodes in one gather.
        """
        if self._neighbor_array is None:
            width = max((len(m) for m in self._neighbor_at.values()), default=0)
            array = np.zeros((self._graph.n, width + 1), dtype=np.int32)
            for u, by_port in self._neighbor_at.items():
                array[u - 1, list(by_port)] = list(by_port.values())
            array.setflags(write=False)
            self._neighbor_array = array
        return self._neighbor_array

    def permutation_at(self, u: int) -> tuple[int, ...]:
        """Ports as a permutation relative to the sorted neighbour order.

        Entry ``i`` is ``port(u, i-th least neighbour) - 1``, a permutation
        of ``0..d(u)-1``.  Its Lehmer rank is the minimal description of the
        assignment, which is the quantity Theorem 8 charges for.
        """
        return tuple(
            self._port_of[u][nb] - 1 for nb in self._graph.neighbors(u)
        )

    def is_identity(self) -> bool:
        """True when every node's i-th least neighbour sits on port i."""
        return all(
            self.permutation_at(u) == tuple(range(self._graph.degree(u)))
            for u in self._graph.nodes
        )
