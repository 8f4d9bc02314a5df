"""The canonical graph encoding ``E(G)`` of Definition 2.

A graph on ``n`` nodes is identified with the binary string of length
``n(n-1)/2`` whose i-th bit records the presence of the i-th possible edge
in standard lexicographic order ``(1,2), (1,3), ..., (1,n), (2,3), ...``.
Every incompressibility argument in the paper manipulates exactly this
string, so the codecs in :mod:`repro.incompressibility` are built on the
positional helpers exposed here.
"""

from __future__ import annotations

from repro.bitio import BitArray, BitWriter
from repro.errors import GraphError
from repro.graphs.graph import LabeledGraph

__all__ = [
    "edge_code_length",
    "edge_index",
    "index_to_edge",
    "encode_graph",
    "decode_graph",
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


def encode_graph(graph: LabeledGraph) -> BitArray:
    """Produce ``E(G)``: the ``n(n-1)/2``-bit edge-presence string."""
    n = graph.n
    writer = BitWriter()
    for u in range(1, n + 1):
        # Row u holds the bits of (u, u+1) .. (u, n); v sits at n - v.
        row = 0
        for v in graph.neighbor_set(u):
            if v > u:
                row |= 1 << (n - v)
        writer.write_uint(row, n - u)
    return writer.getvalue()


def decode_graph(bits: BitArray, n: int) -> LabeledGraph:
    """Reconstruct a graph from its ``E(G)`` string."""
    expected = edge_code_length(n)
    if len(bits) != expected:
        raise GraphError(
            f"E(G) for n={n} must be {expected} bits, got {len(bits)}"
        )
    edges = []
    position = 0
    for u in range(1, n + 1):
        for v in range(u + 1, n + 1):
            if bits[position]:
                edges.append((u, v))
            position += 1
    return LabeledGraph(n, edges)
