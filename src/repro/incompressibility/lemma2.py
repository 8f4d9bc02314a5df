"""Lemma 2 as a codec: a distant pair makes a graph compressible.

If nodes ``u < v`` are at distance greater than 2, then for every
neighbour ``w`` of ``u`` the edge ``{w, v}`` is *guaranteed absent* — so
all those bits of ``E(G)`` can be deleted and reconstructed as zeros.
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
from repro.models import minimal_label_bits
from repro.incompressibility.framework import GraphCodec

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
        # Stream E(G) in canonical order, dropping every bit {w, v} with
        # w ∈ N(u).  Because u < v, the bit for {w, u} always precedes the
        # bit for {w, v}, so the decoder knows N(u) membership in time.
        neighbors_of_u = graph.neighbor_set(u)
        for a in graph.nodes:
            for b in range(a + 1, n + 1):
                skip = (b == v and a in neighbors_of_u) or (
                    a == v and b in neighbors_of_u
                )
                if skip:
                    if graph.has_edge(a, b):
                        raise CodecError(
                            f"pair ({u}, {v}) is not distant: {a}-{b} exists"
                        )
                    continue
                writer.write_bit(1 if graph.has_edge(a, b) else 0)
        return writer.getvalue()

    def decode(self, bits: BitArray, n: int) -> LabeledGraph:
        reader = BitReader(bits)
        width = minimal_label_bits(n)
        u = reader.read_uint(width) + 1
        v = reader.read_uint(width) + 1
        neighbors_of_u: set[int] = set()
        edges = []
        for a in range(1, n + 1):
            for b in range(a + 1, n + 1):
                skip = (b == v and a in neighbors_of_u) or (
                    a == v and b in neighbors_of_u
                )
                if skip:
                    continue  # a provably-absent edge: bit is 0
                if reader.read_bit():
                    edges.append((a, b))
                    if a == u:
                        neighbors_of_u.add(b)
                    elif b == u:
                        neighbors_of_u.add(a)
        return LabeledGraph(n, edges)

    def overhead_bits(self, n: int) -> int:
        """Header cost: the two node identities."""
        return 2 * minimal_label_bits(n)
