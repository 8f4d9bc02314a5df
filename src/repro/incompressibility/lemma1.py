"""Lemma 1 as a codec: degree deviations are compressible.

The proof describes ``G`` by naming a node ``u``, its degree ``d``, the
*index* of its interconnection pattern among all patterns of that weight,
and the rest of ``E(G)`` verbatim.  A pattern of weight ``d`` costs
``log C(n-1, d)`` bits — strictly less than the ``n - 1`` literal bits
whenever ``d`` deviates from ``(n-1)/2``, by the Chernoff bound Eq. (2).
Hence a ``δ``-random graph can afford at most
``|d - (n-1)/2| = O(√((δ(n) + log n) n))``.

Running this codec on a graph with a skewed degree *actually compresses
it*; on a certified random graph the savings stay below ``δ(n)``.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.bitio import (
    BitArray,
    BitReader,
    BitWriter,
    rank_subset,
    subset_code_width,
    unrank_subset,
)
from repro.errors import CodecError
from repro.graphs import LabeledGraph
from repro.graphs.encoding import read_pairs, write_pairs
from repro.models import minimal_label_bits
from repro.incompressibility.framework import GraphCodec, rest_pairs

__all__ = ["Lemma1Codec"]


class Lemma1Codec(GraphCodec):
    """Encode a graph through one node's enumeratively-coded pattern."""

    name = "lemma1-degree"

    def __init__(self, node: Optional[int] = None) -> None:
        self._node = node

    def _pick_node(self, graph: LabeledGraph) -> int:
        if self._node is not None:
            return self._node
        center = (graph.n - 1) / 2.0
        return max(graph.nodes, key=lambda u: (abs(graph.degree(u) - center), -u))

    def encode(self, graph: LabeledGraph) -> BitArray:
        n = graph.n
        if n < 2:
            raise CodecError("Lemma 1 codec needs at least two nodes")
        u = self._pick_node(graph)
        width = minimal_label_bits(n)
        positions = np.flatnonzero(np.delete(graph.adjacency_matrix()[u - 1], u - 1))
        d = len(positions)
        writer = BitWriter()
        writer.write_uint(u - 1, width)
        writer.write_uint(d, width)
        writer.write_uint(
            rank_subset(positions.tolist(), n - 1), subset_code_width(n - 1, d)
        )
        write_pairs(writer, graph, rest_pairs(n, [u]))
        return writer.getvalue()

    def decode(self, bits: BitArray, n: int) -> LabeledGraph:
        reader = BitReader(bits)
        width = minimal_label_bits(n)
        u = reader.read_uint(width) + 1
        d = reader.read_uint(width)
        rank = reader.read_uint(subset_code_width(n - 1, d))
        others = np.delete(np.arange(1, n + 1), u - 1)
        pattern = others[list(unrank_subset(rank, n - 1, d))]
        row = np.column_stack((np.full(d, u), pattern))
        rest = read_pairs(reader, rest_pairs(n, [u]))
        return LabeledGraph(n, np.vstack((row, rest)))

    def overhead_bits(self, n: int) -> int:
        """Header cost: node identity plus degree, ``2 ⌈log(n+1)⌉`` bits."""
        return 2 * minimal_label_bits(n)
