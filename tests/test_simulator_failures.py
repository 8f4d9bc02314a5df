"""Edge-case tests for static failure sampling (`failures.py`)."""

from __future__ import annotations

import random
from typing import FrozenSet, Set

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import GraphError
from repro.graphs import (
    LabeledGraph,
    complete_graph,
    cycle_graph,
    gnp_random_graph,
    path_graph,
    star_graph,
)
from repro.simulator import (
    sample_incident_failures,
    sample_link_failures,
    sample_node_failures,
)


class TestSampleIncidentFailures:
    def test_spare_link_survives(self):
        graph = star_graph(6)  # centre 1, leaves 2..6
        failed = sample_incident_failures(graph, 1, 4, seed=3, spare=(1, 4))
        assert len(failed) == 4
        assert frozenset((1, 4)) not in failed
        assert all(1 in link for link in failed)

    def test_spare_reversed_orientation_still_protected(self):
        graph = star_graph(6)
        failed = sample_incident_failures(graph, 1, 4, seed=3, spare=(4, 1))
        assert frozenset((1, 4)) not in failed

    def test_deterministic_per_seed(self):
        graph = gnp_random_graph(20, seed=5)
        a = sample_incident_failures(graph, 3, 5, seed=11)
        assert a == sample_incident_failures(graph, 3, 5, seed=11)
        differing = [
            seed
            for seed in range(10)
            if sample_incident_failures(graph, 3, 5, seed=seed) != a
        ]
        assert differing  # different seeds explore different sets

    def test_spare_shrinks_the_budget(self):
        graph = star_graph(5)  # centre has 4 incident links
        with pytest.raises(GraphError):
            sample_incident_failures(graph, 1, 4, seed=0, spare=(1, 2))
        # Without the spare all four can fail.
        assert len(sample_incident_failures(graph, 1, 4, seed=0)) == 4

    def test_too_many_rejected(self):
        with pytest.raises(GraphError):
            sample_incident_failures(path_graph(3), 2, 3)


class TestSampleNodeFailuresInteractions:
    def test_protect_everything_leaves_nothing_to_fail(self):
        graph = path_graph(4)
        with pytest.raises(GraphError):
            sample_node_failures(graph, 1, protect=set(graph.nodes))

    def test_protect_with_keep_connected_can_be_unsatisfiable(self):
        """On a path, protecting the endpoints forces failures among the
        interior, each of which would disconnect the protected pair."""
        graph = path_graph(5)
        with pytest.raises(GraphError):
            sample_node_failures(
                graph, 1, seed=0, protect={1, 5}, keep_connected=True
            )

    def test_protect_without_keep_connected_is_satisfiable(self):
        graph = path_graph(5)
        failed = sample_node_failures(
            graph, 1, seed=0, protect={1, 5}, keep_connected=False
        )
        assert len(failed) == 1
        assert failed.isdisjoint({1, 5})

    def test_failing_every_node_raises(self):
        # No survivors is not a connected survivor set.
        graph = complete_graph(5)
        with pytest.raises(GraphError):
            sample_node_failures(graph, graph.n)
        # One survivor is.
        assert len(sample_node_failures(graph, graph.n - 1)) == graph.n - 1

    def test_keep_connected_skips_cut_vertices(self):
        graph = star_graph(6)
        for seed in range(5):
            failed = sample_node_failures(graph, 2, seed=seed)
            assert 1 not in failed  # the centre is the only cut vertex

    def test_protected_hub_with_connectivity(self):
        graph = gnp_random_graph(24, seed=5)
        failed = sample_node_failures(
            graph, 6, seed=2, protect={1, 2, 3}, keep_connected=True
        )
        assert len(failed) == 6
        assert failed.isdisjoint({1, 2, 3})
        survivors = [u for u in graph.nodes if u not in failed]
        seen = {survivors[0]}
        stack = [survivors[0]]
        while stack:
            u = stack.pop()
            for v in graph.neighbor_set(u):
                if v not in failed and v not in seen:
                    seen.add(v)
                    stack.append(v)
        assert len(seen) == len(survivors)


class TestSampleLinkFailures:
    def test_keep_connected_false_allows_bridges(self):
        graph = path_graph(4)  # every edge is a bridge
        failed = sample_link_failures(graph, 2, seed=1, keep_connected=False)
        assert len(failed) == 2

    def test_keep_connected_true_rejects_bridges(self):
        with pytest.raises(GraphError):
            sample_link_failures(path_graph(4), 1, seed=1)


def reference_link_failures(
    graph: LabeledGraph,
    count: int,
    seed: int = 0,
    keep_connected: bool = True,
) -> Set[FrozenSet[int]]:
    """The original sampler, which rebuilds the graph for every candidate;
    kept verbatim as the oracle of ``sample_link_failures``."""
    edges = list(graph.edges())
    if count > len(edges):
        raise GraphError(
            f"cannot fail {count} of {len(edges)} links"
        )
    rng = random.Random(seed)
    rng.shuffle(edges)
    failed: Set[FrozenSet[int]] = set()
    current = graph
    for u, v in edges:
        if len(failed) == count:
            break
        if keep_connected:
            candidate = current.without_edge(u, v)
            if not candidate.is_connected():
                continue
            current = candidate
        failed.add(frozenset((u, v)))
    if len(failed) < count:
        raise GraphError(
            f"only {len(failed)} of {count} links can fail without "
            f"disconnecting the graph"
        )
    return failed


def _outcome(sampler, graph, count, seed, keep_connected):
    try:
        return ("ok", sampler(graph, count, seed=seed, keep_connected=keep_connected))
    except GraphError as exc:
        return ("raise", str(exc))


@st.composite
def failure_graphs(draw):
    """Sparse G(n, p) (many bridges), paths, cycles, stars, and a
    disconnected union of two G(n, p) samples."""
    kind = draw(st.sampled_from(("gnp", "gnp", "path", "cycle", "star", "union")))
    if kind == "path":
        return path_graph(draw(st.integers(1, 30)))
    if kind == "cycle":
        return cycle_graph(draw(st.integers(3, 30)))
    if kind == "star":
        return star_graph(draw(st.integers(2, 30)))
    p = draw(st.sampled_from((0.05, 0.1, 0.2, 0.4, 0.8)))
    seed = draw(st.integers(0, 10_000))
    first = gnp_random_graph(draw(st.integers(1, 30)), p=p, seed=seed)
    if kind == "gnp":
        return first
    second = gnp_random_graph(draw(st.integers(1, 20)), p=p, seed=seed + 1)
    shifted = [(u + first.n, v + first.n) for u, v in second.edges()]
    return LabeledGraph(first.n + second.n, list(first.edges()) + shifted)


class TestLinkFailuresMatchReference:
    @given(failure_graphs(), st.data())
    @settings(max_examples=150, deadline=None)
    def test_same_set_or_same_error(self, graph, data):
        count = data.draw(st.integers(0, graph.edge_count + 2), label="count")
        seed = data.draw(st.integers(0, 50), label="seed")
        keep_connected = data.draw(st.booleans(), label="keep_connected")
        assert _outcome(
            sample_link_failures, graph, count, seed, keep_connected
        ) == _outcome(reference_link_failures, graph, count, seed, keep_connected)

    def test_dense_graph_matches_reference(self):
        graph = gnp_random_graph(64, seed=0)
        assert sample_link_failures(graph, 120, seed=0) == reference_link_failures(
            graph, 120, seed=0
        )

    def test_disconnected_graph_rejects_every_candidate(self):
        graph = LabeledGraph(6, [(1, 2), (2, 3), (3, 1), (4, 5), (5, 6), (6, 4)])
        assert sample_link_failures(graph, 0) == set()
        with pytest.raises(GraphError, match="only 0 of 1 links"):
            sample_link_failures(graph, 1)
