"""Per-bit reference encoders for the incompressibility codecs.

Each function writes ``E(G)``, or one codec's description of ``G``, one
``write_bit`` per pair in the loop order the paper's proofs state, and
:func:`find_uncovered_witness` and :func:`coverage_sets` recompute Lemma 3's
cover and Claim 1's coverage step with set unions.  They are the oracle of
``tests/test_codec_reference.py``: the array codecs in
:mod:`repro.incompressibility`, which write every phase through
:func:`repro.graphs.encoding.write_pairs`, must reproduce these bits, and
the witness and coverage sets these sets.

Lemma 2 is the exception: its codec writes ``u``'s row first, so
:func:`lemma2_encode` pins only the length its description must keep.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from repro.bitio import BitArray, BitWriter, rank_subset, subset_code_width
from repro.core.full_information import FullInformationScheme
from repro.core.two_level import TwoLevelScheme
from repro.graphs import LabeledGraph
from repro.incompressibility import cover_prefix_size
from repro.models import minimal_label_bits


def encode_graph(graph: LabeledGraph) -> BitArray:
    """``E(G)``: one bit per pair ``u < v``, lexicographically."""
    writer = BitWriter()
    for u in graph.nodes:
        for v in range(u + 1, graph.n + 1):
            writer.write_bit(1 if graph.has_edge(u, v) else 0)
    return writer.getvalue()


def _write_row(writer: BitWriter, graph: LabeledGraph, u: int, skip=()) -> None:
    for x in graph.nodes:
        if x != u and x not in skip:
            writer.write_bit(1 if graph.has_edge(u, x) else 0)


def _write_rest(writer: BitWriter, graph: LabeledGraph, described, deleted=()) -> None:
    for a in graph.nodes:
        if a in described:
            continue
        for b in range(a + 1, graph.n + 1):
            if b in described or frozenset((a, b)) in deleted:
                continue
            writer.write_bit(1 if graph.has_edge(a, b) else 0)


def lemma1_encode(graph: LabeledGraph, u: int) -> BitArray:
    """``u, d``, the rank of ``u``'s pattern, then ``E(G)`` without ``u``."""
    n = graph.n
    width = minimal_label_bits(n)
    others = [v for v in graph.nodes if v != u]
    positions = [i for i, v in enumerate(others) if graph.has_edge(u, v)]
    writer = BitWriter()
    writer.write_uint(u - 1, width)
    writer.write_uint(len(positions), width)
    writer.write_uint(
        rank_subset(positions, n - 1), subset_code_width(n - 1, len(positions))
    )
    _write_rest(writer, graph, {u})
    return writer.getvalue()


def lemma2_encode(graph: LabeledGraph, u: int, v: int) -> BitArray:
    """``u, v``, then ``E(G)`` in canonical order less every ``{w, v}``
    with ``w ∈ N(u)``."""
    width = minimal_label_bits(graph.n)
    writer = BitWriter()
    writer.write_uint(u - 1, width)
    writer.write_uint(v - 1, width)
    deleted = {frozenset((w, v)) for w in graph.neighbor_set(u)}
    _write_rest(writer, graph, set(), deleted)
    return writer.getvalue()


def lemma3_encode(graph: LabeledGraph, u: int, w: int, c: float = 3.0) -> BitArray:
    """``u, w``, ``u``'s row, ``w``'s row less ``A ∪ {u}``, the rest."""
    width = minimal_label_bits(graph.n)
    prefix = graph.neighbors(u)[: cover_prefix_size(graph.n, c)]
    writer = BitWriter()
    writer.write_uint(u - 1, width)
    writer.write_uint(w - 1, width)
    _write_row(writer, graph, u)
    _write_row(writer, graph, w, set(prefix) | {u})
    _write_rest(writer, graph, {u, w})
    return writer.getvalue()


def claim1_encode(graph: LabeledGraph, u: int, t: int) -> BitArray:
    """``u, t``, the rows of ``u, v₁..v_{t-1}``, ``A_t`` enumeratively, the
    rest less every ``{v_t, w}`` for ``w`` in the remainder."""
    remainder, block, v_t = coverage_sets(graph, u, t)
    writer = BitWriter()
    writer.write_uint(u - 1, minimal_label_bits(graph.n))
    writer.write_gamma(t)
    described = [u] + list(graph.neighbors(u)[: t - 1])
    for i, a in enumerate(described):
        _write_row(writer, graph, a, described[:i])
    positions = [remainder.index(w) for w in block]
    writer.write_gamma(len(block))
    writer.write_uint(
        rank_subset(positions, len(remainder)),
        subset_code_width(len(remainder), len(block)),
    )
    deleted = {frozenset((v_t, w)) for w in remainder}
    _write_rest(writer, graph, set(described), deleted)
    return writer.getvalue()


def theorem6_encode(scheme: TwoLevelScheme, u: int) -> BitArray:
    """``u``, ``u``'s row, ``F(u)'``, the rest less every
    ``{intermediary(w), w}``."""
    graph = scheme.graph
    function = scheme.function(u)
    deleted = {
        frozenset((function.intermediate_for(w), w)) for w in graph.non_neighbors(u)
    }
    writer = BitWriter()
    writer.write_uint(u - 1, minimal_label_bits(graph.n))
    _write_row(writer, graph, u)
    writer.write_prime(scheme.encode_function(u))
    _write_rest(writer, graph, {u}, deleted)
    return writer.getvalue()


def theorem10_encode(scheme: FullInformationScheme, u: int) -> BitArray:
    """``u``, ``u``'s row, ``F(u)'``, the rest less every
    neighbour/non-neighbour pair."""
    graph = scheme.graph
    deleted = {
        frozenset((v, w))
        for v in graph.neighbors(u)
        for w in graph.non_neighbors(u)
    }
    writer = BitWriter()
    writer.write_uint(u - 1, minimal_label_bits(graph.n))
    _write_row(writer, graph, u)
    writer.write_prime(scheme.encode_function(u))
    _write_rest(writer, graph, {u}, deleted)
    return writer.getvalue()


def find_uncovered_witness(
    graph: LabeledGraph, c: float = 3.0
) -> Optional[Tuple[int, int]]:
    """The least ``(u, w)`` with ``w`` adjacent to neither ``u`` nor any of
    ``u``'s least ``(c+3) log n`` neighbours."""
    prefix_size = cover_prefix_size(graph.n, c)
    for u in graph.nodes:
        neighbors = graph.neighbor_set(u)
        prefix = graph.neighbors(u)[:prefix_size]
        covered = set(prefix)
        for v in prefix:
            covered |= graph.neighbor_set(v)
        for w in graph.nodes:
            if w != u and w not in neighbors and w not in covered:
                return (u, w)
    return None


def coverage_sets(
    graph: LabeledGraph, u: int, t: int
) -> Tuple[List[int], List[int], int]:
    """The remainder ``A₀ − ∪_{s<t} N(v_s)``, the block ``A_t`` (the
    remainder's nodes adjacent to ``v_t``) and ``v_t``."""
    neighbors = graph.neighbors(u)
    remainder = set(graph.non_neighbors(u))
    for v in neighbors[: t - 1]:
        remainder -= graph.neighbor_set(v)
    v_t = neighbors[t - 1]
    return sorted(remainder), sorted(remainder & graph.neighbor_set(v_t)), v_t
