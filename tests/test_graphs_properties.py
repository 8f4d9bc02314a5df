"""Tests for structural properties (Lemmas 1–3, Claim 1)."""

from __future__ import annotations

import math

import pytest

from repro.errors import GraphError
from repro.graphs import (
    LabeledGraph,
    claim1_remainders,
    complete_graph,
    cover_prefix_length,
    covering_sequence,
    cycle_graph,
    degree_statistics,
    diameter,
    distance_matrix,
    eccentricity,
    gnp_random_graph,
    is_diameter_two,
    lemma3_bound,
    path_graph,
    star_graph,
)


class TestDistances:
    def test_path_distances(self):
        dist = distance_matrix(path_graph(5))
        assert dist[0, 4] == 4
        assert dist[1, 3] == 2
        assert dist[2, 2] == 0

    def test_disconnected_marked(self):
        dist = distance_matrix(LabeledGraph(3, [(1, 2)]))
        assert dist[0, 2] == -1

    def test_matches_networkx(self):
        networkx = pytest.importorskip("networkx")
        from repro.graphs.nxadapter import to_networkx

        graph = gnp_random_graph(24, p=0.2, seed=12)
        dist = distance_matrix(graph)
        nx_lengths = dict(networkx.all_pairs_shortest_path_length(to_networkx(graph)))
        for u in graph.nodes:
            for v in graph.nodes:
                expected = nx_lengths[u].get(v, -1)
                assert dist[u - 1, v - 1] == expected


class TestDiameter:
    def test_path(self):
        assert diameter(path_graph(7)) == 6

    def test_cycle(self):
        assert diameter(cycle_graph(8)) == 4

    def test_complete(self):
        assert diameter(complete_graph(5)) == 1

    def test_star(self):
        assert diameter(star_graph(6)) == 2

    def test_disconnected_raises(self):
        with pytest.raises(GraphError):
            diameter(LabeledGraph(3, [(1, 2)]))

    def test_random_graph_diameter_two(self):
        """Lemma 2 on sampled graphs (holds with overwhelming probability)."""
        for seed in range(5):
            graph = gnp_random_graph(48, seed=seed)
            assert diameter(graph) == 2

    def test_is_diameter_two_agrees(self):
        for graph in (star_graph(6), cycle_graph(5), gnp_random_graph(30, seed=1)):
            assert is_diameter_two(graph) == (diameter(graph) == 2)

    def test_complete_is_not_diameter_two(self):
        assert not is_diameter_two(complete_graph(5))


class TestEccentricity:
    def test_path_ends(self):
        graph = path_graph(5)
        assert eccentricity(graph, 1) == 4
        assert eccentricity(graph, 3) == 2

    def test_disconnected_raises(self):
        with pytest.raises(GraphError):
            eccentricity(LabeledGraph(3, [(1, 2)]), 1)


class TestDegreeStatistics:
    def test_lemma1_band_on_random_graph(self):
        graph = gnp_random_graph(100, seed=6)
        stats = degree_statistics(graph)
        assert stats.within_band
        assert stats.max_deviation <= 3 * math.sqrt(
            (3 * math.log2(100) + math.log2(100)) * 100
        )

    def test_mean_degree_near_half(self):
        graph = gnp_random_graph(80, seed=2)
        stats = degree_statistics(graph)
        assert abs(stats.mean_degree - 79 / 2) < 6

    def test_star_is_out_of_band(self):
        stats = degree_statistics(star_graph(200))
        assert not stats.within_band

    def test_explicit_deficiency(self):
        graph = gnp_random_graph(40, seed=1)
        stats = degree_statistics(graph, deficiency=10.0)
        assert stats.lemma1_bound == pytest.approx(
            math.sqrt((10.0 + math.log2(40)) * 40)
        )


class TestCoveringSequence:
    def test_least_sequence_is_sorted_prefix(self):
        graph = gnp_random_graph(40, seed=3)
        sequence, _ = covering_sequence(graph, 1, "least")
        assert tuple(sequence) == graph.neighbors(1)[: len(sequence)]

    def test_cover_is_complete(self):
        graph = gnp_random_graph(40, seed=3)
        for u in (1, 17, 40):
            sequence, newly = covering_sequence(graph, u)
            covered = set().union(*[set(block) for block in newly]) if newly else set()
            assert covered == set(graph.non_neighbors(u))

    def test_greedy_no_longer_than_least(self):
        graph = gnp_random_graph(50, seed=4)
        for u in (2, 25):
            least, _ = covering_sequence(graph, u, "least")
            greedy, _ = covering_sequence(graph, u, "greedy")
            assert len(greedy) <= len(least)

    def test_greedy_blocks_nonempty(self):
        graph = gnp_random_graph(50, seed=4)
        _, newly = covering_sequence(graph, 5, "greedy")
        assert all(newly)

    def test_uncoverable_raises(self):
        with pytest.raises(GraphError):
            covering_sequence(path_graph(6), 1)

    def test_unknown_strategy(self):
        with pytest.raises(GraphError):
            covering_sequence(gnp_random_graph(10, seed=1), 1, "magic")

    def test_complete_graph_trivial_cover(self):
        sequence, newly = covering_sequence(complete_graph(5), 1)
        assert sequence == []
        assert newly == []

    def test_lemma3_prefix_logarithmic(self):
        """Lemma 3: cover prefix stays within O(log n) on random graphs."""
        for n in (32, 64, 128):
            graph = gnp_random_graph(n, seed=n)
            worst = max(cover_prefix_length(graph, u) for u in graph.nodes)
            assert worst <= 3 * lemma3_bound(n)


class TestClaim1:
    def test_remainders_decreasing_to_zero(self):
        graph = gnp_random_graph(40, seed=9)
        remainders = claim1_remainders(graph, 3)
        assert remainders[0] == len(graph.non_neighbors(3))
        assert remainders[-1] == 0
        assert all(a >= b for a, b in zip(remainders, remainders[1:]))

    def test_geometric_decay_while_large(self):
        """Claim 1: each step removes ≥ 1/3 of the remainder while it is big."""
        n = 128
        graph = gnp_random_graph(n, seed=5)
        threshold = n / math.log2(math.log2(n))
        for u in (1, 50, 100):
            remainders = claim1_remainders(graph, u)
            for before, after in zip(remainders, remainders[1:]):
                if before > threshold:
                    assert after <= before - before / 3.0 + 1e-9
