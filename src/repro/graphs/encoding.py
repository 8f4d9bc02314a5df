"""The canonical graph encoding ``E(G)`` of Definition 2.

A graph on ``n`` nodes is identified with the binary string of length
``n(n-1)/2`` whose i-th bit records the presence of the i-th possible edge
in standard lexicographic order ``(1,2), (1,3), ..., (1,n), (2,3), ...``.
Every incompressibility argument in the paper writes this string with some
provably known bits deleted, so the bit layout lives here alone:
:func:`write_pairs` writes the bits of the pairs an ``(n, n)`` bool mask
selects, in ``E(G)`` order, and :func:`read_pairs` reads them back as the
selected edges.  ``E(G)`` itself selects every pair; each phase of a codec
in :mod:`repro.incompressibility` selects its own.
"""

from __future__ import annotations

import numpy as np

from repro.bitio import BitArray, BitReader, BitWriter
from repro.errors import GraphError
from repro.graphs.graph import LabeledGraph

__all__ = [
    "edge_code_length",
    "edge_index",
    "index_to_edge",
    "encode_graph",
    "decode_graph",
    "read_pairs",
    "write_pairs",
]


def edge_code_length(n: int) -> int:
    """Length ``n(n-1)/2`` of ``E(G)`` for a graph on ``n`` nodes."""
    return n * (n - 1) // 2


def edge_index(u: int, v: int, n: int) -> int:
    """Position of edge ``{u, v}`` in the lexicographic enumeration.

    Positions are 0-based: edge ``(1, 2)`` has index 0 and edge
    ``(n-1, n)`` has index ``n(n-1)/2 - 1``.
    """
    if u == v:
        raise GraphError(f"no self-loop position for node {u}")
    if u > v:
        u, v = v, u
    if not (1 <= u and v <= n):
        raise GraphError(f"edge ({u}, {v}) outside node range 1..{n}")
    # Edges starting at nodes < u come first: sum_{i<u} (n - i).
    before = (u - 1) * n - u * (u - 1) // 2
    return before + (v - u - 1)


def index_to_edge(index: int, n: int) -> tuple[int, int]:
    """Inverse of :func:`edge_index`."""
    total = edge_code_length(n)
    if not 0 <= index < total:
        raise GraphError(f"edge index {index} out of range [0, {total})")
    u = 1
    remaining = index
    while remaining >= n - u:
        remaining -= n - u
        u += 1
    return (u, u + 1 + remaining)


def write_pairs(writer: BitWriter, graph: LabeledGraph, pairs: np.ndarray) -> None:
    """Append the ``E(G)`` bits of the pairs ``pairs`` selects, in ``E(G)`` order.

    ``pairs`` is an ``(n, n)`` bool array read on its upper triangle:
    entry ``[a - 1, b - 1]`` with ``a < b`` selects the bit of ``{a, b}``.
    """
    bits = graph.adjacency_matrix()[np.triu(pairs, k=1)]
    writer.write_bits(BitArray._from_packed(np.packbits(bits).tobytes(), bits.size))


def read_pairs(reader: BitReader, pairs: np.ndarray) -> np.ndarray:
    """Read what :func:`write_pairs` wrote over ``pairs``: one bit per
    selected pair, returning the pairs read as edges, an ``(m, 2)`` array
    of labels ``a < b`` in ``E(G)`` order."""
    selected = np.argwhere(np.triu(pairs, k=1))
    raw = np.frombuffer(reader.read_bits(len(selected)).to_bytes(), dtype=np.uint8)
    return selected[np.unpackbits(raw, count=len(selected)).astype(bool)] + 1


def encode_graph(graph: LabeledGraph) -> BitArray:
    """Produce ``E(G)``: the ``n(n-1)/2``-bit edge-presence string."""
    writer = BitWriter()
    write_pairs(writer, graph, np.ones((graph.n, graph.n), dtype=bool))
    return writer.getvalue()


def decode_graph(bits: BitArray, n: int) -> LabeledGraph:
    """Reconstruct a graph from its ``E(G)`` string."""
    expected = edge_code_length(n)
    if len(bits) != expected:
        raise GraphError(
            f"E(G) for n={n} must be {expected} bits, got {len(bits)}"
        )
    return LabeledGraph(n, read_pairs(BitReader(bits), np.ones((n, n), dtype=bool)))
