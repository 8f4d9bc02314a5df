"""Lemma 2 as a codec: a distant pair makes a graph compressible.

If nodes ``u < v`` are at distance greater than 2, then for every
neighbour ``w`` of ``u`` the edge ``{w, v}`` is *guaranteed absent* — so
all those bits of ``E(G)`` can be deleted and reconstructed as zeros.
The description is ``u, v``, ``u``'s row (so the decoder knows ``N(u)``
before it meets a deleted bit), then the rest of ``E(G)`` less those bits.
The saving is ``d(u) ≈ n/2`` bits against a ``2 log n`` header, which a
``o(n)``-random graph cannot afford: hence random graphs have diameter 2.

The codec refuses (raises :class:`~repro.errors.CodecError`) on diameter-2
graphs — that refusal, observed across certified random instances, is the
lemma.  On a deliberately stretched graph (e.g. a path) it compresses.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from repro.bitio import BitArray, BitReader, BitWriter
from repro.errors import CodecError
from repro.graphs import LabeledGraph, get_context
from repro.graphs.encoding import read_pairs, write_pairs
from repro.models import minimal_label_bits
from repro.incompressibility.framework import GraphCodec, pairs_between, rest_pairs

__all__ = ["Lemma2Codec", "find_distant_pair"]


def find_distant_pair(graph: LabeledGraph) -> Optional[Tuple[int, int]]:
    """The least pair ``u < v`` at distance > 2 (or unreachable), if any."""
    dist = get_context(graph).distances()
    far = np.argwhere(np.triu((dist < 0) | (dist > 2), k=1))
    if not far.size:
        return None
    u, v = far[0].tolist()
    return (u + 1, v + 1)


class Lemma2Codec(GraphCodec):
    """Encode a graph by deleting the provably-absent edges at a distant pair."""

    name = "lemma2-diameter"

    def __init__(self, pair: Optional[Tuple[int, int]] = None) -> None:
        self._pair = pair

    def encode(self, graph: LabeledGraph) -> BitArray:
        n = graph.n
        pair = self._pair or find_distant_pair(graph)
        if pair is None:
            raise CodecError(
                "Lemma 2 codec inapplicable: every pair is within distance 2 "
                "(the graph behaves Kolmogorov random)"
            )
        u, v = pair
        if u > v:
            u, v = v, u
        if graph.has_edge(u, v) or (
            graph.neighbor_set(u) & graph.neighbor_set(v)
        ):
            raise CodecError(
                f"pair ({u}, {v}) is within distance 2 — Lemma 2 needs a "
                f"distant pair"
            )
        width = minimal_label_bits(n)
        writer = BitWriter()
        writer.write_uint(u - 1, width)
        writer.write_uint(v - 1, width)
        # u's row first, then the rest of E(G) less every {w, v} with
        # w ∈ N(u): no such edge exists, since w would be a common
        # neighbour of u and v.
        write_pairs(writer, graph, pairs_between(n, [u]))
        deleted = pairs_between(n, graph.neighbors(u), [v])
        write_pairs(writer, graph, rest_pairs(n, [u], deleted))
        return writer.getvalue()

    def decode(self, bits: BitArray, n: int) -> LabeledGraph:
        reader = BitReader(bits)
        width = minimal_label_bits(n)
        u = reader.read_uint(width) + 1
        v = reader.read_uint(width) + 1
        row = read_pairs(reader, pairs_between(n, [u]))
        deleted = pairs_between(n, row[row != u], [v])
        rest = read_pairs(reader, rest_pairs(n, [u], deleted))
        return LabeledGraph(n, np.vstack((row, rest)))

    def overhead_bits(self, n: int) -> int:
        """Header cost: the two node identities."""
        return 2 * minimal_label_bits(n)
