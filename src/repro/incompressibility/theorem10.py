"""Theorem 10 as a codec: full-information routing contains a quarter of E(G).

On a diameter-2 graph, the full-information function at ``u`` lists, for
each non-neighbour ``w``, *all* intermediaries on shortest ``u → w`` paths
— which is precisely the adjacency between ``N(u)`` and ``w``.  So every
bit of ``E(G)`` between a neighbour and a non-neighbour of ``u`` — about
``(n/2)² = n²/4`` of them — is reconstructible from ``F(u)``:

    ``vw ∈ E  ⟺  v`` is among the shortest-path edges from ``u`` to ``w``.

Randomness of ``G`` then forces ``|F(u)| ≥ n²/4 - o(n²)`` per node and
``n³/4 - o(n³)`` in total, matching the trivial ``O(n³)`` upper bound of
:class:`~repro.core.full_information.FullInformationScheme`.
"""

from __future__ import annotations

import numpy as np

from repro.bitio import BitArray, BitReader, BitWriter
from repro.errors import CodecError
from repro.graphs import LabeledGraph
from repro.graphs.encoding import read_pairs, write_pairs
from repro.models import minimal_label_bits
from repro.core.full_information import (
    FullInformationScheme,
    decode_full_information_function,
)
from repro.incompressibility.framework import GraphCodec, pairs_between, rest_pairs

__all__ = ["Theorem10Codec"]


class Theorem10Codec(GraphCodec):
    """Encode a graph using one node's full-information routing function."""

    name = "theorem10-full-information"

    def __init__(self, scheme: FullInformationScheme, node: int) -> None:
        self._scheme = scheme
        self._node = node

    def encode(self, graph: LabeledGraph) -> BitArray:
        if graph != self._scheme.graph:
            raise CodecError("codec must encode the scheme's own graph")
        n = graph.n
        u = self._node
        # The reconstruction identity needs distance(u, w) == 2.
        far = np.flatnonzero(self._scheme.ctx.distances()[u - 1] > 2)
        if far.size:
            raise CodecError(
                f"full-information entry for {far[0] + 1} is not distance-2-clean"
            )
        width = minimal_label_bits(n)
        writer = BitWriter()
        writer.write_uint(u - 1, width)
        write_pairs(writer, graph, pairs_between(n, [u]))
        writer.write_prime(self._scheme.encode_function(u))
        # E(G) minus bits incident to u and minus every neighbour/non-neighbour
        # pair (those live inside F(u)).
        crossing = pairs_between(n, graph.neighbors(u), graph.non_neighbors(u))
        write_pairs(writer, graph, rest_pairs(n, [u], crossing))
        return writer.getvalue()

    def decode(self, bits: BitArray, n: int) -> LabeledGraph:
        reader = BitReader(bits)
        width = minimal_label_bits(n)
        u = reader.read_uint(width) + 1
        row = read_pairs(reader, pairs_between(n, [u]))
        neighbors = tuple(row[row != u].tolist())
        non_neighbors = np.setdiff1d(np.arange(1, n + 1), (u, *neighbors)).tolist()
        function = decode_full_information_function(
            u, n, neighbors, reader.read_prime()
        )
        # Every neighbour/non-neighbour edge: vw ∈ E iff F(u) lists v for w.
        crossing = [(v, w) for w in non_neighbors for v in function.shortest_edges(w)]
        deleted = pairs_between(n, neighbors, non_neighbors)
        rest = read_pairs(reader, rest_pairs(n, [u], deleted))
        implied = np.array(crossing, dtype=np.int64).reshape(-1, 2)
        return LabeledGraph(n, np.vstack((row, implied, rest)))

    # -- accounting -------------------------------------------------------------

    def accounting(self, graph: LabeledGraph) -> dict[str, int]:
        """Measured ledger: deleted bits, overhead, and the |F(u)| bound."""
        n = graph.n
        u = self._node
        d = graph.degree(u)
        deleted = d * (n - 1 - d)
        function_bits = len(self._scheme.encode_function(u))
        encoded = len(self.encode(graph))
        baseline = n * (n - 1) // 2
        overhead = encoded - baseline + deleted - function_bits
        return {
            "function_bits": function_bits,
            "deleted_bits": deleted,
            "overhead_bits": overhead,
            "implied_function_bound": deleted - overhead,
        }
