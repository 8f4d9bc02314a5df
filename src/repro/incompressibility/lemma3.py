"""Lemma 3 as a codec: an uncovered node makes a graph compressible.

Fix ``u`` and let ``A`` be its least ``(c+3) log n`` neighbours.  If some
node ``w`` is adjacent to neither ``u`` nor any member of ``A``, then the
``|A| + 1`` bits recording edges from ``w`` into ``A ∪ {u}`` are provably
zero and can be deleted after writing ``u``'s full interconnection row and
``w``'s identity.  The net saving is ``|A| - 2 log n ≈ (c+1) log n`` bits,
which a ``c log n``-random graph cannot afford — hence on such graphs every
node is covered through the least ``(c+3) log n`` neighbours.

The codec refuses on covered (random-like) graphs and compresses
constructed counterexamples.
"""

from __future__ import annotations

import math
from typing import Optional, Tuple

import numpy as np

from repro.bitio import BitArray, BitReader, BitWriter
from repro.errors import CodecError
from repro.graphs import LabeledGraph, get_context
from repro.graphs.encoding import read_pairs, write_pairs
from repro.models import minimal_label_bits
from repro.incompressibility.framework import GraphCodec, pairs_between, rest_pairs

__all__ = ["Lemma3Codec", "cover_prefix_size", "find_uncovered_witness"]


def cover_prefix_size(n: int, c: float = 3.0) -> int:
    """``⌊(c+3) log n⌋`` — the size of the prefix ``A`` of least neighbours."""
    return int((c + 3.0) * math.log2(max(n, 2)))


def find_uncovered_witness(
    graph: LabeledGraph, c: float = 3.0
) -> Optional[Tuple[int, int]]:
    """The least pair ``(u, w)`` violating the Lemma 3 cover, if one exists.

    ``w`` is adjacent to neither ``u`` nor any of the least
    ``(c+3) log n`` neighbours of ``u``: it is unreachable or farther than
    two hops, or two hops away with a least-hop rank past the prefix.
    """
    ctx = get_context(graph)
    dist, ranks = ctx.distances(), ctx.least_hop_ranks()
    past_prefix = ranks >= cover_prefix_size(graph.n, c)
    uncovered = np.argwhere((dist < 0) | (dist > 2) | ((dist == 2) & past_prefix))
    if not uncovered.size:
        return None
    u, w = uncovered[0].tolist()
    return (u + 1, w + 1)


class Lemma3Codec(GraphCodec):
    """Encode a graph through an uncovered witness pair."""

    name = "lemma3-cover"

    def __init__(
        self, witness: Optional[Tuple[int, int]] = None, c: float = 3.0
    ) -> None:
        self._witness = witness
        self._c = c

    def encode(self, graph: LabeledGraph) -> BitArray:
        n = graph.n
        witness = self._witness or find_uncovered_witness(graph, self._c)
        if witness is None:
            raise CodecError(
                "Lemma 3 codec inapplicable: every node is covered through "
                "its least (c+3) log n neighbours"
            )
        u, w = witness
        if u == w:
            raise CodecError("witness nodes must differ")
        width = minimal_label_bits(n)
        known_absent = graph.neighbors(u)[: cover_prefix_size(n, self._c)] + (u,)
        if graph.adjacency_matrix()[w - 1, np.array(known_absent) - 1].any():
            raise CodecError(f"({u}, {w}) is not an uncovered witness")
        writer = BitWriter()
        writer.write_uint(u - 1, width)
        writer.write_uint(w - 1, width)
        write_pairs(writer, graph, pairs_between(n, [u]))
        # w's row, less the provably absent pairs into A ∪ {u}.
        write_pairs(writer, graph, pairs_between(n, [w]) & rest_pairs(n, known_absent))
        write_pairs(writer, graph, rest_pairs(n, [u, w]))
        return writer.getvalue()

    def decode(self, bits: BitArray, n: int) -> LabeledGraph:
        reader = BitReader(bits)
        width = minimal_label_bits(n)
        u = reader.read_uint(width) + 1
        w = reader.read_uint(width) + 1
        row = read_pairs(reader, pairs_between(n, [u]))
        known_absent = [*row[row != u][: cover_prefix_size(n, self._c)], u]
        w_row = read_pairs(reader, pairs_between(n, [w]) & rest_pairs(n, known_absent))
        rest = read_pairs(reader, rest_pairs(n, [u, w]))
        return LabeledGraph(n, np.vstack((row, w_row, rest)))

    def overhead_bits(self, n: int) -> int:
        """Header cost: the two node identities."""
        return 2 * minimal_label_bits(n)

    def expected_savings(self, n: int, degree: int | None = None) -> int:
        """``min(|A|, d(u)) - 2 log n`` — the compression a witness yields.

        (The provably-absent ``{u, w}`` bit saves nothing extra: it is
        already carried once inside ``u``'s literal row.)
        """
        prefix = cover_prefix_size(n, self._c)
        if degree is not None:
            prefix = min(prefix, degree)
        return prefix - self.overhead_bits(n)
