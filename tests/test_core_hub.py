"""Tests for the Theorem 4 hub scheme (stretch 2)."""

from __future__ import annotations

import math

import pytest

from repro.core import HubScheme, route_message, verify_scheme
from repro.core.hub import TowardHubFunction
from repro.errors import GraphError, RoutingError, SchemeBuildError
from repro.graphs import gnp_random_graph, path_graph
from repro.models import Knowledge, Labeling, RoutingModel


class TestStructure:
    def test_default_hub_is_node_one(self, random_graph_32, model_ii_alpha):
        assert HubScheme(random_graph_32, model_ii_alpha).hub == 1

    def test_custom_hub(self, random_graph_32, model_ii_alpha):
        assert HubScheme(random_graph_32, model_ii_alpha, hub=5).hub == 5

    def test_toward_hub_validates_adjacency(self):
        with pytest.raises(RoutingError):
            TowardHubFunction(1, (2, 3), toward_hub=7)

    def test_far_hub_rejected(self, model_ii_alpha):
        with pytest.raises(SchemeBuildError):
            HubScheme(path_graph(8), model_ii_alpha)

    @pytest.mark.parametrize("hub", [0, -1, 33])
    def test_hub_outside_node_range_rejected(
        self, random_graph_32, model_ii_alpha, hub
    ):
        with pytest.raises(GraphError, match=f"node {hub} outside range 1..32"):
            HubScheme(random_graph_32, model_ii_alpha, hub=hub)


class TestCorrectness:
    def test_stretch_at_most_two(self, model_ii_alpha):
        graph = gnp_random_graph(48, seed=19)
        scheme = HubScheme(graph, model_ii_alpha)
        report = verify_scheme(scheme)
        assert report.ok()
        assert report.max_stretch <= 2.0

    def test_neighbors_direct(self, random_graph_32, model_ii_alpha):
        scheme = HubScheme(random_graph_32, model_ii_alpha)
        for u in (3, 30):
            for w in random_graph_32.neighbors(u):
                assert route_message(scheme, u, w).hops == 1

    def test_worst_case_four_hops(self, model_ii_alpha):
        graph = gnp_random_graph(40, seed=8)
        scheme = HubScheme(graph, model_ii_alpha)
        worst = max(
            route_message(scheme, u, w).hops
            for u in graph.nodes
            for w in graph.nodes
            if u != w
        )
        assert worst <= 4

    def test_hub_routes_shortest(self, random_graph_32, model_ii_alpha):
        scheme = HubScheme(random_graph_32, model_ii_alpha)
        hub = scheme.hub
        for w in random_graph_32.nodes:
            if w != hub:
                assert route_message(scheme, hub, w).hops <= 2

    def test_messages_to_hub_delivered(self, random_graph_32, model_ii_alpha):
        scheme = HubScheme(random_graph_32, model_ii_alpha)
        for u in random_graph_32.nodes:
            if u != scheme.hub:
                assert route_message(scheme, u, scheme.hub).hops <= 2


class TestEncoding:
    def test_non_hub_nodes_tiny(self, model_ii_alpha):
        """Theorem 4: log log n + O(1) bits at every non-hub node."""
        n = 128
        graph = gnp_random_graph(n, seed=51)
        scheme = HubScheme(graph, model_ii_alpha)
        budget = 2 * math.log2(math.log2(n)) + 8
        for u in graph.nodes:
            if u != scheme.hub:
                assert len(scheme.encode_function(u)) <= budget

    def test_hub_six_n_bits(self, model_ii_alpha):
        n = 128
        graph = gnp_random_graph(n, seed=51)
        scheme = HubScheme(graph, model_ii_alpha)
        assert len(scheme.encode_function(scheme.hub)) <= 6 * n

    def test_total_matches_theorem4(self, model_ii_alpha):
        """Total ≤ n log log n + 6n bits."""
        for n in (64, 128):
            graph = gnp_random_graph(n, seed=n + 9)
            total = HubScheme(graph, model_ii_alpha).space_report().total_bits
            assert total <= n * 2 * math.log2(math.log2(n)) + 6 * n + n

    def test_round_trip_all_roles(self, random_graph_32, model_ii_alpha):
        scheme = HubScheme(random_graph_32, model_ii_alpha)
        hub_neighbor = random_graph_32.neighbors(scheme.hub)[0]
        distant = next(
            u
            for u in random_graph_32.nodes
            if u != scheme.hub
            and u not in random_graph_32.neighbor_set(scheme.hub)
        )
        for u in (scheme.hub, hub_neighbor, distant):
            decoded = scheme.decode_function(u, scheme.encode_function(u))
            for w in random_graph_32.nodes:
                if w != u:
                    assert (
                        decoded.next_hop(w).next_node
                        == scheme.function(u).next_hop(w).next_node
                    )
