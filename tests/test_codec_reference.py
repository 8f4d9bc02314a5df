"""The pair-mask codecs against the per-bit references in
``tests/codec_reference.py``.

Every codec phase is one :func:`~repro.graphs.encoding.write_pairs` call
over a pair mask.  On a fixed family of graphs (G(n, p) at five densities,
disconnected samples among them, plus path, cycle, star and grid) the
codecs must write the references' bits exactly, Lemma 2 excepted (its
row moved to the front: same length, round trip and savings), and the
Lemma 3 witness and Claim 1's coverage sets, read off the context's
distances and least-hop ranks, must equal the set-union loops.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.bitio import BitReader, BitWriter
from repro.core import FullInformationScheme, TwoLevelScheme
from repro.errors import CodecError, SchemeBuildError
from repro.graphs import (
    cycle_graph,
    encode_graph,
    get_context,
    gnp_random_graph,
    grid_graph,
    path_graph,
    star_graph,
)
from repro.graphs.encoding import read_pairs, write_pairs
from repro.incompressibility import (
    Claim1Codec,
    Lemma1Codec,
    Lemma2Codec,
    Lemma3Codec,
    Theorem6Codec,
    Theorem10Codec,
    evaluate_codec,
    find_distant_pair,
    find_uncovered_witness,
)
from repro.incompressibility.claim1 import _coverage_sets
from repro.models import Knowledge, Labeling, RoutingModel
from tests import codec_reference as ref

MODEL = RoutingModel(Knowledge.II, Labeling.ALPHA)


def _family():
    graphs = {
        f"gnp{n}-p{p}": gnp_random_graph(n, p, seed=n)
        for n in (16, 40, 64, 128)
        for p in (0.05, 0.1, 0.2, 0.5, 0.8)
    }
    graphs.update(
        path=path_graph(24), cycle=cycle_graph(30), star=star_graph(20),
        grid=grid_graph(5, 6),
    )
    return graphs


FAMILY = _family()
CASES = sorted(FAMILY)


def _ends(graph):
    return sorted({1, graph.n // 2, graph.n})


def test_family_covers_disconnected_and_far_pairs():
    disconnected = [
        name for name, g in FAMILY.items() if (get_context(g).distances() < 0).any()
    ]
    far = [name for name, g in FAMILY.items() if find_distant_pair(g) is not None]
    assert disconnected and len(far) > len(disconnected)


@pytest.mark.parametrize("name", CASES)
def test_encode_graph_matches_the_per_pair_loop(name):
    assert encode_graph(FAMILY[name]) == ref.encode_graph(FAMILY[name])


@pytest.mark.parametrize("name", CASES)
def test_lemma1_bits(name):
    graph = FAMILY[name]
    for u in _ends(graph):
        codec = Lemma1Codec(node=u)
        assert codec.encode(graph) == ref.lemma1_encode(graph, u)
        assert evaluate_codec(codec, graph).round_trip_ok


@pytest.mark.parametrize("name", CASES)
def test_lemma2_length_round_trip_and_savings(name):
    graph = FAMILY[name]
    pair = find_distant_pair(graph)
    if pair is None:
        with pytest.raises(CodecError):
            Lemma2Codec().encode(graph)
        return
    codec = Lemma2Codec()
    report = evaluate_codec(codec, graph)
    assert report.encoded_bits == len(ref.lemma2_encode(graph, *pair))
    assert report.savings == graph.degree(pair[0]) - codec.overhead_bits(graph.n)


@pytest.mark.parametrize("name", CASES)
# c = -2.5 leaves a prefix of half log n, so dense graphs have witnesses
# two hops away whose least-hop rank is past the prefix.
@pytest.mark.parametrize("c", [0.1, 0.5, 3.0, -2.5])
def test_lemma3_witness_and_bits(name, c):
    graph = FAMILY[name]
    witness = find_uncovered_witness(graph, c)
    assert witness == ref.find_uncovered_witness(graph, c)
    if witness is None:
        return
    codec = Lemma3Codec(c=c)
    assert codec.encode(graph) == ref.lemma3_encode(graph, *witness, c=c)
    assert evaluate_codec(codec, graph).round_trip_ok


@pytest.mark.parametrize("name", CASES)
def test_claim1_coverage_sets_and_bits(name):
    graph = FAMILY[name]
    for u in _ends(graph):
        for t in range(1, min(graph.degree(u), 6) + 1):
            remainder, block, v_t = _coverage_sets(graph, u, t)
            assert (remainder.tolist(), block.tolist(), v_t) == ref.coverage_sets(
                graph, u, t
            )
            codec = Claim1Codec(u, t)
            assert codec.encode(graph) == ref.claim1_encode(graph, u, t)
            assert evaluate_codec(codec, graph).round_trip_ok


def _build(scheme_class, graph):
    try:
        return scheme_class(graph, MODEL)
    except SchemeBuildError:
        return None


@pytest.mark.parametrize("name", CASES)
def test_theorem6_and_theorem10_bits(name):
    graph = FAMILY[name]
    dist = get_context(graph).distances()
    two_level = _build(TwoLevelScheme, graph)
    full_info = _build(FullInformationScheme, graph)
    for u in _ends(graph):
        if two_level is not None:
            codec = Theorem6Codec(two_level, u)
            assert codec.encode(graph) == ref.theorem6_encode(two_level, u)
            assert evaluate_codec(codec, graph).round_trip_ok
        if full_info is None:
            continue
        codec10 = Theorem10Codec(full_info, u)
        if (dist[u - 1] > 2).any():
            with pytest.raises(CodecError):
                codec10.encode(graph)
            continue
        assert codec10.encode(graph) == ref.theorem10_encode(full_info, u)
        assert evaluate_codec(codec10, graph).round_trip_ok


def test_theorem6_and_theorem10_cases_exist():
    for scheme_class in (TwoLevelScheme, FullInformationScheme):
        built = [g for g in FAMILY.values() if _build(scheme_class, g) is not None]
        assert len(built) >= 8


@given(
    st.integers(min_value=1, max_value=24),
    st.integers(min_value=0, max_value=2**31 - 1),
    st.integers(min_value=0, max_value=7),
    st.data(),
)
def test_write_pairs_is_the_per_pair_loop(n, seed, lead, data):
    graph = gnp_random_graph(n, seed=seed)
    cells = data.draw(st.lists(st.booleans(), min_size=n * n, max_size=n * n))
    upper = np.triu(np.array(cells, dtype=bool).reshape(n, n), k=1)
    pairs = upper | upper.T
    selected = [
        (a, b) for a in graph.nodes for b in range(a + 1, n + 1) if pairs[a - 1, b - 1]
    ]
    expected = BitWriter()
    expected.write_uint(0, lead)
    for a, b in selected:
        expected.write_bit(1 if graph.has_edge(a, b) else 0)
    expected.write_uint(5, 3)
    writer = BitWriter()
    writer.write_uint(0, lead)
    write_pairs(writer, graph, pairs)
    writer.write_uint(5, 3)
    assert writer.getvalue() == expected.getvalue()

    reader = BitReader(writer.getvalue())
    reader.read_uint(lead)
    edges = read_pairs(reader, pairs)
    assert reader.position == lead + len(selected)
    assert reader.read_uint(3) == 5
    assert edges.shape == (len(edges), 2)
    assert [tuple(e) for e in edges.tolist()] == [
        pair for pair in selected if graph.has_edge(*pair)
    ]
