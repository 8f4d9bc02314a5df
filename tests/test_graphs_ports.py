"""Tests for port assignments (the IA/IB substrate).

Beside the unit tests, two Hypothesis properties hold the array
assignment to the dict-of-dicts reference in ``tests/port_reference.py``
on the table reference's graphs (G(n, p) from empty to complete, paths,
cycles and stars): identity, shuffled and mapping-built assignments
answer every ``port``, ``neighbor``, ``permutation_at`` and
``is_identity`` lookup alike and have equal ``neighbor_array``s, and a
mapping with a missing or extra neighbour, a duplicate port, port 0 or a
port above ``d(u)`` raises ``PortAssignmentError`` in both.
"""

from __future__ import annotations

import random

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.errors import PortAssignmentError
from repro.graphs import LabeledGraph, PortAssignment, gnp_random_graph, path_graph
from tests import port_reference as reference
from tests.test_table_reference import graphs, outcome


class TestValidation:
    def test_rejects_missing_neighbor(self):
        graph = LabeledGraph(3, [(1, 2), (1, 3)])
        with pytest.raises(PortAssignmentError):
            PortAssignment(graph, {1: {2: 1}, 2: {1: 1}, 3: {1: 1}})

    def test_rejects_non_bijection(self):
        graph = LabeledGraph(3, [(1, 2), (1, 3)])
        with pytest.raises(PortAssignmentError):
            PortAssignment(
                graph, {1: {2: 1, 3: 1}, 2: {1: 1}, 3: {1: 1}}
            )

    def test_rejects_port_out_of_range(self):
        graph = LabeledGraph(2, [(1, 2)])
        with pytest.raises(PortAssignmentError):
            PortAssignment(graph, {1: {2: 2}, 2: {1: 1}})

    def test_rejects_stranger(self):
        graph = LabeledGraph(3, [(1, 2)])
        with pytest.raises(PortAssignmentError):
            PortAssignment(graph, {1: {2: 1, 3: 2}, 2: {1: 1}, 3: {}})


class TestIdentity:
    def test_identity_port_order(self):
        graph = LabeledGraph(4, [(2, 1), (2, 3), (2, 4)])
        ports = PortAssignment.identity(graph)
        assert ports.port(2, 1) == 1
        assert ports.port(2, 3) == 2
        assert ports.port(2, 4) == 3

    def test_identity_is_identity(self):
        graph = gnp_random_graph(12, seed=5)
        assert PortAssignment.identity(graph).is_identity()

    def test_identity_permutations_trivial(self):
        graph = path_graph(5)
        ports = PortAssignment.identity(graph)
        for u in graph.nodes:
            assert ports.permutation_at(u) == tuple(range(graph.degree(u)))


class TestShuffled:
    def test_shuffled_is_valid_and_deterministic(self):
        graph = gnp_random_graph(10, seed=3)
        a = PortAssignment.shuffled(graph, random.Random(7))
        b = PortAssignment.shuffled(graph, random.Random(7))
        for u in graph.nodes:
            assert a.permutation_at(u) == b.permutation_at(u)

    def test_shuffled_usually_not_identity(self):
        graph = gnp_random_graph(16, seed=3)
        ports = PortAssignment.shuffled(graph, random.Random(0))
        assert not ports.is_identity()

    @given(st.integers(min_value=0, max_value=1000))
    def test_port_neighbor_inverse(self, seed):
        graph = gnp_random_graph(9, seed=11)
        ports = PortAssignment.shuffled(graph, random.Random(seed))
        for u in graph.nodes:
            for nb in graph.neighbors(u):
                assert ports.neighbor(u, ports.port(u, nb)) == nb


class TestLookups:
    def test_port_rejects_non_neighbor(self):
        graph = LabeledGraph(3, [(1, 2)])
        ports = PortAssignment.identity(graph)
        with pytest.raises(PortAssignmentError):
            ports.port(1, 3)

    def test_neighbor_rejects_bad_port(self):
        graph = LabeledGraph(3, [(1, 2)])
        ports = PortAssignment.identity(graph)
        with pytest.raises(PortAssignmentError):
            ports.neighbor(1, 2)

    def test_graph_property(self):
        graph = path_graph(3)
        assert PortAssignment.identity(graph).graph is graph


# -- the array assignment against the dict-of-dicts reference ---------------------


def random_mapping(graph, seed):
    """A valid neighbour → port map per node, drawn independently of
    ``shuffled``'s stream."""
    rng = random.Random(seed)
    mapping = {}
    for u in graph.nodes:
        ports = list(range(1, graph.degree(u) + 1))
        rng.shuffle(ports)
        mapping[u] = dict(zip(reversed(graph.neighbors(u)), ports))
    return mapping


def lookups(ports, graph):
    """Every lookup the assignment answers, valid or not."""
    probes = range(-1, graph.n + 3)
    return {
        "port": [outcome(lambda: ports.port(u, v)) for u in probes for v in probes],
        "neighbor": [
            outcome(lambda: ports.neighbor(u, p)) for u in probes for p in probes
        ],
        "permutation_at": [ports.permutation_at(u) for u in graph.nodes],
        "is_identity": ports.is_identity(),
    }


def assert_agree(fresh, oracle, graph):
    assert lookups(fresh, graph) == lookups(oracle, graph)
    array, expected = fresh.neighbor_array(), oracle.neighbor_array()
    assert array.dtype == expected.dtype and array.shape == expected.shape
    assert (array == expected).all()
    assert not array.flags.writeable


@settings(max_examples=60)
@given(graphs(), st.integers(0, 2**32))
def test_assignments_match_reference(graph, seed):
    assert_agree(
        PortAssignment.identity(graph), reference.PortAssignment.identity(graph), graph
    )
    assert_agree(
        PortAssignment.shuffled(graph, random.Random(seed)),
        reference.PortAssignment.shuffled(graph, random.Random(seed)),
        graph,
    )
    mapping = random_mapping(graph, seed)
    assert_agree(
        PortAssignment(graph, mapping),
        reference.PortAssignment(graph, mapping),
        graph,
    )


MISTAKES = ("missing", "no-map", "extra", "duplicate", "zero", "above")


@settings(max_examples=80)
@given(graphs(), st.integers(0, 2**32), st.data())
def test_invalid_mappings_raise_like_the_reference(graph, seed, data):
    """One mistake at one node: both raise PortAssignmentError with the
    same message; mistakes at several nodes: both raise."""
    mapping = random_mapping(graph, seed)
    nodes = data.draw(
        st.lists(st.sampled_from(list(graph.nodes)), min_size=1, max_size=3, unique=True)
    )
    made = 0
    for u in nodes:
        local = mapping[u]
        neighbors = graph.neighbors(u)
        strangers = [w for w in range(0, graph.n + 2) if w not in local]
        mistake = data.draw(st.sampled_from(MISTAKES))
        if mistake in ("missing", "no-map") and neighbors:
            if mistake == "missing":
                del local[data.draw(st.sampled_from(neighbors))]
            else:
                del mapping[u]
        elif mistake == "extra":
            local[data.draw(st.sampled_from(strangers))] = len(local) + 1
        elif mistake == "duplicate" and len(neighbors) >= 2:
            a, b = data.draw(st.permutations(neighbors))[:2]
            local[a] = local[b]
        elif mistake in ("zero", "above") and neighbors:
            nb = data.draw(st.sampled_from(neighbors))
            local[nb] = 0 if mistake == "zero" else len(neighbors) + data.draw(
                st.integers(1, 2**40)
            )
        else:
            continue
        made += 1
    assume(made)
    fresh = outcome(lambda: PortAssignment(graph, mapping))
    oracle = outcome(lambda: reference.PortAssignment(graph, mapping))
    assert fresh[:2] == oracle[:2] == ("raise", "PortAssignmentError")
    if made == 1:
        assert fresh == oracle
