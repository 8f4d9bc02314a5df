"""Claim 1 as a codec: skewed covering steps are compressible.

Claim 1 (inside Theorem 1) says that on a random graph the ``t``-th least
neighbour ``v_t`` of ``u`` covers close to half of the still-uncovered
non-neighbours: if ``|A_t|`` deviated from ``m_{t-1}/2`` by more than
``m_{t-1}/6``, the characteristic sequence of ``A_t`` inside the remainder
could be enumeratively coded below ``m_{t-1}`` bits (Chernoff/Eq. 2),
compressing ``E(G)``.

The codec encodes exactly that description:

``u, t | rows of u, v₁..v_{t-1} | enumerative code of A_t | rest of E(G)``

and reconstructs the graph.  Its measured saving is
``m_{t-1} - (code width of A_t) - overhead`` — positive precisely when the
coverage step is skewed, which on certified random graphs it never is.
"""

from __future__ import annotations

from typing import Tuple

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
from repro.graphs import LabeledGraph, get_context
from repro.graphs.encoding import read_pairs, write_pairs
from repro.models import minimal_label_bits
from repro.incompressibility.framework import GraphCodec, pairs_between, rest_pairs

__all__ = ["Claim1Codec", "coverage_deviation"]


def _coverage_sets(
    graph: LabeledGraph, u: int, t: int
) -> Tuple[np.ndarray, np.ndarray, int]:
    """The remainder ``S = A₀ − ∪_{s<t} A_s``, the new block ``A_t ⊆ S``
    (both as increasing label arrays), and ``v_t`` (the t-th least
    neighbour of ``u``).

    Both sets are read off ``u``'s rows of the distances and the least-hop
    ranks: a node two hops away with rank ``r`` is first covered by
    ``v_{r+1}``, a farther or unreachable one never.
    """
    neighbors = graph.neighbors(u)
    if t < 1 or t > len(neighbors):
        raise CodecError(f"node {u} has no covering step t={t}")
    ctx = get_context(graph)
    dist, ranks = ctx.distances()[u - 1], ctx.least_hop_ranks()[u - 1]
    remainder = np.where(dist == 2, ranks >= t - 1, (dist < 0) | (dist > 2))
    block = (dist == 2) & (ranks == t - 1)
    return np.flatnonzero(remainder) + 1, np.flatnonzero(block) + 1, neighbors[t - 1]


def coverage_deviation(graph: LabeledGraph, u: int, t: int) -> float:
    """``||A_t| - m_{t-1}/2| / m_{t-1}`` — Claim 1 bounds this by ~1/6."""
    remainder, block, _ = _coverage_sets(graph, u, t)
    if not remainder.size:
        return 0.0
    return abs(len(block) - len(remainder) / 2.0) / len(remainder)


class Claim1Codec(GraphCodec):
    """Encode a graph through one covering step's enumerative code."""

    name = "claim1-coverage"

    def __init__(self, node: int, step: int) -> None:
        self._node = node
        self._step = step

    def encode(self, graph: LabeledGraph) -> BitArray:
        n = graph.n
        u = self._node
        t = self._step
        remainder, block, v_t = _coverage_sets(graph, u, t)
        width = minimal_label_bits(n)
        writer = BitWriter()
        writer.write_uint(u - 1, width)
        writer.write_gamma(t)
        # Rows of u and v₁..v_{t-1}, each less the pairs already written.
        described = [u, *graph.neighbors(u)[: t - 1]]
        for i, a in enumerate(described):
            row = pairs_between(n, [a]) & rest_pairs(n, described[:i])
            write_pairs(writer, graph, row)
        # A_t inside the remainder, enumeratively.
        positions = np.searchsorted(remainder, block).tolist()
        writer.write_gamma(len(block))
        writer.write_uint(
            rank_subset(positions, len(remainder)),
            subset_code_width(len(remainder), len(block)),
        )
        # The rest of E(G), less every {v_t, w} for w in the remainder.
        deleted = pairs_between(n, [v_t], remainder)
        write_pairs(writer, graph, rest_pairs(n, described, deleted))
        return writer.getvalue()

    def decode(self, bits: BitArray, n: int) -> LabeledGraph:
        reader = BitReader(bits)
        width = minimal_label_bits(n)
        u = reader.read_uint(width) + 1
        t = reader.read_gamma()
        # u's row first; the least neighbours v₁.. are then derivable.
        rows = [read_pairs(reader, pairs_between(n, [u]))]
        neighbors = rows[0][rows[0] != u]
        described = [u, *neighbors[: t - 1].tolist()]
        for i, a in enumerate(described[1:], start=1):
            row = pairs_between(n, [a]) & rest_pairs(n, described[:i])
            rows.append(read_pairs(reader, row))
        # Every edge read so far joins u or some v_s to a neighbour, so
        # the nodes they name are u, N(u) and the N(v_s) (u has a
        # neighbour, since t ≥ 1): the remainder is every other node.
        remainder = np.setdiff1d(np.arange(1, n + 1), np.vstack(rows))
        v_t = int(neighbors[t - 1])
        k = reader.read_gamma()
        rank = reader.read_uint(subset_code_width(len(remainder), k))
        block = remainder[list(unrank_subset(rank, len(remainder), k))]
        deleted = pairs_between(n, [v_t], remainder)
        rest = read_pairs(reader, rest_pairs(n, described, deleted))
        block_edges = np.column_stack((np.full(k, v_t), block))
        return LabeledGraph(n, np.vstack((*rows, block_edges, rest)))

    def expected_code_width(self, graph: LabeledGraph) -> int:
        """Enumerative width of the A_t block (vs ``m_{t-1}`` literal bits)."""
        remainder, block, _ = _coverage_sets(graph, self._node, self._step)
        return subset_code_width(len(remainder), len(block))
