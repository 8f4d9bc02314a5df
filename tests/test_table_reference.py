"""The array tables agree with the per-pair reference on every input.

``tests/table_reference.py`` keeps the dict-of-dicts full-table and
full-information builders, their codecs and the two destination-by-port
grouping loops.  These properties build both on G(n, p) graphs from empty
to complete (n = 1..60) and on paths, cycles and stars, with identity
ports and with shuffled ports under IA, and with ``allow_unreachable`` on
disconnected graphs; the reference reads the same ports through the
dict-of-dicts assignment of ``tests/port_reference.py``.  They require
the same port for every (node, destination) pair, the same option tuples,
the same encodings, the same destinations-by-port groups and the same
decoded lookups.  On bit-flipped,
burst-flipped or truncated bits, and on destinations 0, -1 and n+1, both
must return the same answer or raise the same exception class with the
same message.
"""

from __future__ import annotations

import random
from typing import Any, Callable, Dict, List, Tuple

from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.bitio import BitArray
from repro.core import FullInformationScheme, FullTableScheme
from repro.core.multi_interval import MultiIntervalScheme
from repro.graphs import (
    LabeledGraph,
    PortAssignment,
    cycle_graph,
    path_graph,
    star_graph,
)
from repro.lowerbounds import port_destination_lists
from repro.models import Knowledge, Labeling, RoutingModel, all_models
from tests import port_reference
from tests import table_reference as ref

IA_ALPHA = RoutingModel(Knowledge.IA, Labeling.ALPHA)
DENSITIES = (0.0, 0.02, 0.05, 0.1, 0.2, 0.5, 0.8, 1.0)
"""Edge probabilities from (almost surely) disconnected to complete."""
CORRUPTED_NODES = 4
"""Nodes per example whose encodings are also corrupted and decoded."""


def outcome(call: Callable[[], Any]) -> Tuple[Any, ...]:
    """``("ok", value)`` or ``("raise", class name, message)``."""
    try:
        return ("ok", call())
    except Exception as exc:
        return ("raise", type(exc).__name__, str(exc))


@st.composite
def graphs(draw: Any) -> LabeledGraph:
    """G(n, p) for n in 1..60, or a path, cycle or star."""
    kind = draw(st.sampled_from(("gnp", "gnp", "gnp", "path", "cycle", "star")))
    if kind == "path":
        return path_graph(draw(st.integers(1, 60)))
    if kind == "cycle":
        return cycle_graph(draw(st.integers(3, 60)))
    if kind == "star":
        return star_graph(draw(st.integers(2, 60)))
    n = draw(st.integers(1, 60))
    p = draw(st.sampled_from(DENSITIES))
    rng = random.Random(draw(st.integers(0, 2**32)))
    edges = [
        (u, v)
        for u in range(1, n + 1)
        for v in range(u + 1, n + 1)
        if rng.random() < p
    ]
    return LabeledGraph(n, edges)


@st.composite
def configurations(draw: Any) -> Tuple[LabeledGraph, RoutingModel, Any, Any]:
    """A graph, a model, a port argument (identity, as None, or shuffled
    ports under IA) and the same ports as the reference assignment."""
    graph = draw(graphs())
    if draw(st.booleans()):
        seed = draw(st.integers(0, 2**32))
        return (
            graph,
            IA_ALPHA,
            PortAssignment.shuffled(graph, random.Random(seed)),
            port_reference.PortAssignment.shuffled(graph, random.Random(seed)),
        )
    return (
        graph,
        draw(st.sampled_from(list(all_models()))),
        None,
        port_reference.PortAssignment.identity(graph),
    )


@st.composite
def corruptions(draw: Any) -> Tuple[str, int, int]:
    """(kind, position, extent) of one damage to an encoding."""
    kind = draw(st.sampled_from(("flip", "burst", "truncate")))
    return kind, draw(st.integers(0, 2**16)), draw(st.integers(1, 16))


damage_lists = st.lists(
    corruptions(), min_size=CORRUPTED_NODES, max_size=CORRUPTED_NODES
)


def corrupt(bits: BitArray, damage: Tuple[str, int, int]) -> BitArray:
    """Flip one bit, flip a burst of bits, or cut the tail off."""
    kind, position, extent = damage
    text = bits.to01()
    if not text:
        return bits
    start = position % len(text)
    if kind == "truncate":
        return BitArray.from01(text[:start])
    stop = start + 1 if kind == "flip" else min(len(text), start + extent)
    flipped = "".join("1" if ch == "0" else "0" for ch in text[start:stop])
    return BitArray.from01(text[:start] + flipped + text[stop:])


def probes(graph: LabeledGraph) -> List[int]:
    """Every destination label plus the invalid ones: 0, -1 and n+1."""
    return [-1, 0, *graph.nodes, graph.n + 1]


def port_lookups(function: Any, graph: LabeledGraph) -> Dict[int, Any]:
    """Per probe, the outcome of ``port_for`` and of ``next_hop``."""
    return {
        w: (
            outcome(lambda: function.port_for(w)),
            outcome(lambda: function.next_hop(w).next_node),
        )
        for w in probes(graph)
    }


def option_lookups(function: Any, graph: LabeledGraph) -> Dict[int, Any]:
    """Per probe, the outcome of ``shortest_edges``, ``next_hop`` and
    ``next_hop_avoiding`` with one and with every incident link blocked."""
    neighbors = graph.neighbors(function.node)
    blocked_sets = (neighbors[:1], neighbors)
    return {
        w: (
            outcome(lambda: function.shortest_edges(w)),
            outcome(lambda: function.next_hop(w).next_node),
            *[
                outcome(lambda: function.next_hop_avoiding(w, b).next_node)
                for b in blocked_sets
            ],
        )
        for w in probes(graph)
    }


def payloads(bits: BitArray, u: int, damages: List[Any]) -> List[BitArray]:
    """The pristine encoding, plus a damaged copy for the first nodes."""
    if u > CORRUPTED_NODES:
        return [bits]
    return [bits, corrupt(bits, damages[u - 1])]


def assert_decodes_agree(
    decode: Callable[[BitArray], Any],
    reference: Callable[[BitArray], Any],
    lookups: Callable[[Any, LabeledGraph], Dict[int, Any]],
    graph: LabeledGraph,
    encodings: List[BitArray],
) -> None:
    """Both decoders give functions with the same lookups, or both raise
    the same exception class with the same message."""
    for bits in encodings:
        fresh = outcome(lambda: decode(bits))
        oracle = outcome(lambda: reference(bits))
        assert fresh[0] == oracle[0], (fresh, oracle)
        if fresh[0] == "ok":
            assert lookups(fresh[1], graph) == lookups(oracle[1], graph)
        else:
            assert fresh == oracle


@settings(max_examples=60)
@given(configurations(), damage_lists)
def test_full_table_matches_reference(config, damages):
    graph, model, ports, assignment = config
    scheme = FullTableScheme(
        graph, model, ports=ports, allow_unreachable=not graph.is_connected()
    )
    dist = scheme.ctx.distances()
    for u in graph.nodes:
        table = ref.build_table(graph, dist, assignment, u)
        expected = ref.PortTableFunction(u, table, assignment)
        assert port_lookups(scheme.function(u), graph) == port_lookups(
            expected, graph
        )
        bits = scheme.encode_function(u)
        assert bits == ref.encode_table(graph, dist, table, u)
        assert outcome(lambda: port_destination_lists(scheme, u)) == outcome(
            lambda: ref.port_destination_lists(graph, expected, u)
        )
        assert_decodes_agree(
            lambda bits: scheme.decode_function(u, bits),
            lambda bits: ref.decode_table(graph, dist, assignment, u, bits),
            port_lookups,
            graph,
            payloads(bits, u, damages),
        )


@settings(max_examples=60)
@given(graphs(), damage_lists)
def test_full_information_matches_reference(graph, damages):
    # The reference cannot build a one-node graph: its empty neighbour
    # gather indexes the distances with a float array.
    assume(graph.n > 1 and graph.is_connected())
    scheme = FullInformationScheme(graph, IA_ALPHA)
    dist = scheme.ctx.distances()
    for u in graph.nodes:
        options = ref.build_options(graph, dist, u)
        expected = ref.FullInformationFunction(u, options)
        assert option_lookups(scheme.function(u), graph) == option_lookups(
            expected, graph
        )
        bits = scheme.encode_function(u)
        assert bits == ref.encode_options(graph, options, u)
        assert_decodes_agree(
            lambda bits: scheme.decode_function(u, bits),
            lambda bits: ref.decode_options(graph, u, bits),
            option_lookups,
            graph,
            payloads(bits, u, damages),
        )


@settings(max_examples=40)
@given(configurations())
def test_multi_interval_groups_match_reference(config):
    graph, model, ports, assignment = config
    assume(graph.is_connected())
    scheme = MultiIntervalScheme(graph, model, ports=ports)
    dist = scheme.ctx.distances()
    for u in graph.nodes:
        table = ref.build_table(graph, dist, assignment, u)
        expected = ref.multi_interval_groups(
            graph, ref.PortTableFunction(u, table, assignment), u
        )
        function = scheme.function(u)
        fresh = {
            port: function.intervals_at(port)
            for port in range(1, graph.degree(u) + 1)
            if function.intervals_at(port)
        }
        assert fresh == expected
