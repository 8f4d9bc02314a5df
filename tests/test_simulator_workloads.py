"""Tests for the traffic-pattern generators."""

from __future__ import annotations

import pytest

from repro.errors import GraphError
from repro.graphs import gnp_random_graph, path_graph
from repro.simulator import (
    all_to_one,
    hotspot_pairs,
    one_to_all,
    permutation_traffic,
    uniform_pairs,
)


@pytest.fixture(scope="module")
def graph():
    return gnp_random_graph(20, seed=4)


class TestUniform:
    def test_count_and_validity(self, graph):
        pairs = uniform_pairs(graph, 100, seed=1)
        assert len(pairs) == 100
        for source, destination in pairs:
            assert 1 <= source <= 20
            assert 1 <= destination <= 20
            assert source != destination

    def test_deterministic(self, graph):
        assert uniform_pairs(graph, 50, seed=2) == uniform_pairs(graph, 50, seed=2)

    def test_seed_changes_output(self, graph):
        assert uniform_pairs(graph, 50, seed=2) != uniform_pairs(graph, 50, seed=3)

    def test_rejects_single_node(self):
        from repro.graphs import LabeledGraph

        with pytest.raises(GraphError):
            uniform_pairs(LabeledGraph(1), 5)

    def test_covers_node_range(self, graph):
        pairs = uniform_pairs(graph, 500, seed=0)
        sources = {s for s, _ in pairs}
        assert len(sources) > 15  # nearly all nodes appear


class TestHotspot:
    def test_few_destinations(self, graph):
        pairs = hotspot_pairs(graph, 200, hotspots=3, seed=5)
        destinations = {t for _, t in pairs}
        assert len(destinations) <= 3
        assert all(s != t for s, t in pairs)

    def test_rejects_bad_hotspot_count(self, graph):
        with pytest.raises(GraphError):
            hotspot_pairs(graph, 10, hotspots=0)
        with pytest.raises(GraphError):
            hotspot_pairs(graph, 10, hotspots=20)


class TestGatherScatter:
    def test_all_to_one(self, graph):
        pairs = all_to_one(graph, destination=7)
        assert len(pairs) == 19
        assert all(t == 7 and s != 7 for s, t in pairs)

    def test_one_to_all(self, graph):
        pairs = one_to_all(graph, source=3)
        assert len(pairs) == 19
        assert all(s == 3 and t != 3 for s, t in pairs)

    def test_range_checks(self, graph):
        with pytest.raises(GraphError):
            all_to_one(graph, destination=0)
        with pytest.raises(GraphError):
            one_to_all(graph, source=21)


class TestPermutation:
    def test_is_derangement(self, graph):
        pairs = permutation_traffic(graph, seed=6)
        assert len(pairs) == 20
        sources = [s for s, _ in pairs]
        targets = [t for _, t in pairs]
        assert sorted(sources) == list(graph.nodes)
        assert sorted(targets) == list(graph.nodes)
        assert all(s != t for s, t in pairs)

    def test_deterministic(self, graph):
        assert permutation_traffic(graph, seed=1) == permutation_traffic(
            graph, seed=1
        )

    def test_two_nodes(self):
        pairs = permutation_traffic(path_graph(2), seed=0)
        assert sorted(pairs) == [(1, 2), (2, 1)]


class TestEndToEnd:
    def test_workloads_route_cleanly(self, graph, model_ii_alpha):
        from repro.core import build_scheme
        from repro.simulator import BatchKernel, summarize

        kernel = BatchKernel(build_scheme("full-table", graph, model_ii_alpha))
        for pairs in (
            uniform_pairs(graph, 50, seed=1),
            hotspot_pairs(graph, 50, seed=1),
            all_to_one(graph),
            permutation_traffic(graph, seed=1),
        ):
            for s, t in pairs:
                kernel.inject(s, t)
            metrics = summarize(kernel.run(), graph)
            assert metrics.delivered_fraction == 1.0
