"""Theorem 6 as a codec: a routing function reveals ~n/2 edges of the graph.

The proof (model II ∧ α): describe ``G`` by node ``u``, its interconnection
row, a self-delimiting copy of the local routing function ``F(u)``, and
``E(G)`` with two groups of bits deleted —

* the ``n - 1`` bits incident to ``u`` (already in the row), and
* for every non-neighbour ``w``, the bit of edge ``{v, w}`` where ``v`` is
  the intermediary ``F(u)`` routes ``w`` through: on a diameter-2 graph
  that edge *must* exist, so it is reconstructible from ``F(u)``.

The description length is ``n(n-1)/2 + |F(u)| + O(log n) - (n/2 - o(n))``,
so randomness of ``G`` forces ``|F(u)| ≥ n/2 - o(n)`` — model II ∧ α needs
``Ω(n²)`` bits in total.  :meth:`Theorem6Codec.implied_function_bound`
computes the per-instance version of that inequality from measured sizes.
"""

from __future__ import annotations

from typing import Iterable

import numpy as np

from repro.bitio import BitArray, BitReader, BitWriter
from repro.errors import CodecError
from repro.graphs import LabeledGraph
from repro.graphs.encoding import read_pairs, write_pairs
from repro.models import minimal_label_bits
from repro.core.two_level import (
    TwoLevelFunction,
    TwoLevelScheme,
    decode_two_level_function,
)
from repro.incompressibility.framework import GraphCodec, pairs_between, rest_pairs

__all__ = ["Theorem6Codec"]


def _implied_edges(
    function: TwoLevelFunction, non_neighbors: Iterable[int]
) -> np.ndarray:
    """``(intermediary, w)`` for every non-neighbour ``w`` of ``F(u)``'s
    node: on a diameter-2 graph each is an edge, so its bit is deleted
    (the deleted pairs are these edges' adjacency matrix)."""
    edges = [(function.intermediate_for(w), w) for w in non_neighbors]
    return np.array(edges, dtype=np.int64).reshape(-1, 2)


class Theorem6Codec(GraphCodec):
    """Encode a graph using one node's Theorem 1 routing function."""

    name = "theorem6-routing-function"

    def __init__(self, scheme: TwoLevelScheme, node: int) -> None:
        self._scheme = scheme
        self._node = node

    def _deleted_edges(self, graph: LabeledGraph) -> np.ndarray:
        """The edges F(u) implies, checked against the graph."""
        u = self._node
        edges = _implied_edges(self._scheme.function(u), graph.non_neighbors(u))
        absent = ~graph.adjacency_matrix()[edges[:, 0] - 1, edges[:, 1] - 1]
        if absent.any():
            v, w = edges[absent.argmax()].tolist()
            raise CodecError(
                f"scheme routes {u} → {w} via non-adjacent intermediary {v}"
            )
        return edges

    def encode(self, graph: LabeledGraph) -> BitArray:
        if graph is not self._scheme.graph and graph != self._scheme.graph:
            raise CodecError("codec must encode the scheme's own graph")
        n = graph.n
        u = self._node
        width = minimal_label_bits(n)
        function_bits = self._scheme.encode_function(u)
        deleted = LabeledGraph(n, self._deleted_edges(graph)).adjacency_matrix()
        writer = BitWriter()
        writer.write_uint(u - 1, width)
        write_pairs(writer, graph, pairs_between(n, [u]))
        writer.write_prime(function_bits)
        write_pairs(writer, graph, rest_pairs(n, [u], deleted))
        return writer.getvalue()

    def decode(self, bits: BitArray, n: int) -> LabeledGraph:
        reader = BitReader(bits)
        width = minimal_label_bits(n)
        u = reader.read_uint(width) + 1
        row = read_pairs(reader, pairs_between(n, [u]))
        neighbors = tuple(row[row != u].tolist())
        function = decode_two_level_function(u, n, neighbors, reader.read_prime())
        non_neighbors = np.setdiff1d(np.arange(1, n + 1), (u, *neighbors)).tolist()
        implied = _implied_edges(function, non_neighbors)
        deleted = LabeledGraph(n, implied).adjacency_matrix()
        rest = read_pairs(reader, rest_pairs(n, [u], deleted))
        return LabeledGraph(n, np.vstack((row, implied, rest)))

    # -- the inequality the theorem extracts ---------------------------------

    def accounting(self, graph: LabeledGraph) -> dict[str, int]:
        """The proof's ledger, measured on this instance.

        Returns the deleted-bit count, header overhead, embedded function
        size, and the implied lower bound on ``|F(u)|`` given a randomness
        deficiency budget of zero (add ``δ(n)`` for the general statement).
        """
        n = graph.n
        u = self._node
        function_bits = len(self._scheme.encode_function(u))
        deleted = len(self._deleted_edges(graph))
        encoded = len(self.encode(graph))
        baseline = n * (n - 1) // 2
        # encoded = baseline - deleted - (n-1) + header(u)+row+prime wrapper
        overhead = encoded - baseline + deleted - function_bits
        return {
            "function_bits": function_bits,
            "deleted_bits": deleted,
            "overhead_bits": overhead,
            "implied_function_bound": deleted - overhead,
        }

    def implied_function_bound(self, graph: LabeledGraph, deficiency: int = 0) -> int:
        """``|F(u)| ≥ deleted - overhead - δ`` for a ``δ``-random graph."""
        ledger = self.accounting(graph)
        return ledger["implied_function_bound"] - deficiency
