"""Tests for the Theorem 5 probe scheme (O(n) bits, stretch O(log n))."""

from __future__ import annotations

import math

import pytest

from repro.core import ProbeScheme, ProbeState, route_message, verify_scheme
from repro.errors import RoutingError, SchemeBuildError
from repro.graphs import LabeledGraph, gnp_random_graph, path_graph, star_graph
from repro.models import Knowledge, Labeling, RoutingModel


class TestCorrectness:
    def test_all_pairs_delivered(self, model_ii_alpha):
        graph = gnp_random_graph(40, seed=25)
        scheme = ProbeScheme(graph, model_ii_alpha)
        report = verify_scheme(scheme)
        assert report.all_delivered

    def test_neighbors_one_hop(self, random_graph_32, model_ii_alpha):
        scheme = ProbeScheme(random_graph_32, model_ii_alpha)
        for w in random_graph_32.neighbors(1):
            assert route_message(scheme, 1, w).hops == 1

    def test_hop_bound_logarithmic(self, model_ii_alpha):
        """Theorem 5: ≤ 2(c+3) log n traversals on certified random graphs."""
        n = 128
        graph = gnp_random_graph(n, seed=62)
        scheme = ProbeScheme(graph, model_ii_alpha)
        report = verify_scheme(scheme)
        assert report.ok()
        assert report.max_stretch <= 6 * math.log2(n)

    def test_probe_walk_shape(self, model_ii_alpha):
        """A probe path alternates origin → vᵢ → origin → ... → target."""
        graph = gnp_random_graph(32, seed=71)
        scheme = ProbeScheme(graph, model_ii_alpha)
        source = 1
        target = graph.non_neighbors(source)[0]
        trace = route_message(scheme, source, target)
        assert trace.path[0] == source
        assert trace.path[-1] == target
        # Every even position is back at the origin.
        for i in range(0, len(trace.path) - 1, 2):
            assert trace.path[i] == source
        assert trace.hops % 2 == 0  # probes come in pairs, final hop delivers

    def test_star_center_probe(self, model_ii_alpha):
        """On a star every leaf pair routes via one probe of the centre."""
        graph = star_graph(12)
        scheme = ProbeScheme(graph, model_ii_alpha)
        trace = route_message(scheme, 2, 9)
        assert trace.path == (2, 1, 9)

    @pytest.mark.parametrize(
        "graph",
        [path_graph(4), LabeledGraph(3, [(1, 2)])],
        ids=["diameter-3", "disconnected"],
    )
    def test_refuses_a_pair_beyond_two_hops(self, graph, model_ii_alpha):
        with pytest.raises(SchemeBuildError, match="within distance 2"):
            ProbeScheme(graph, model_ii_alpha)


class TestState:
    def test_probe_state_travels_in_header(self, model_ii_alpha):
        graph = gnp_random_graph(24, seed=13)
        scheme = ProbeScheme(graph, model_ii_alpha)
        u = 1
        target = graph.non_neighbors(u)[0]
        decision = scheme.function(u).next_hop(target, None)
        assert isinstance(decision.state, ProbeState)
        assert decision.state.origin == u
        assert decision.state.index == 0
        assert not decision.state.returning

    def test_bounce_returns_to_origin(self, model_ii_alpha):
        graph = gnp_random_graph(24, seed=13)
        scheme = ProbeScheme(graph, model_ii_alpha)
        u = 1
        target = graph.non_neighbors(u)[0]
        first = scheme.function(u).next_hop(target, None)
        probed = first.next_node
        if target not in graph.neighbor_set(probed):
            bounce = scheme.function(probed).next_hop(target, first.state)
            assert bounce.next_node == u
            assert bounce.state.returning

    def test_exhausted_probes_raise(self, model_ii_alpha):
        graph = gnp_random_graph(24, seed=13)
        scheme = ProbeScheme(graph, model_ii_alpha)
        u = 1
        target = graph.non_neighbors(u)[0]
        state = ProbeState(origin=u, index=graph.degree(u) - 1, returning=True)
        with pytest.raises(RoutingError):
            scheme.function(u).next_hop(target, state)


class TestAccounting:
    def test_one_bit_per_node(self, model_ii_alpha):
        graph = gnp_random_graph(64, seed=4)
        scheme = ProbeScheme(graph, model_ii_alpha)
        report = scheme.space_report()
        assert report.total_bits == 64
        assert report.max_node_bits == 1

    def test_linear_total_by_construction(self, model_ii_alpha):
        """Theorem 5's O(n): the total is exactly n marker bits."""
        for n in (32, 128):
            graph = gnp_random_graph(n, seed=n)
            assert ProbeScheme(graph, model_ii_alpha).space_report().total_bits == n

    def test_decode_round_trip(self, model_ii_alpha):
        graph = gnp_random_graph(24, seed=13)
        scheme = ProbeScheme(graph, model_ii_alpha)
        decoded = scheme.decode_function(2, scheme.encode_function(2))
        target = graph.neighbors(2)[0]
        assert decoded.next_hop(target).next_node == target

    def test_requires_model_ii(self, model_ib_alpha):
        with pytest.raises(Exception):
            ProbeScheme(gnp_random_graph(16, seed=0), model_ib_alpha)
