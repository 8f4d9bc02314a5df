"""Tests for multi-interval routing (the related-work-[1] scheme)."""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import (
    FullTableScheme,
    MultiIntervalScheme,
    cyclic_intervals,
    verify_scheme,
)
from repro.core.multi_interval import MultiIntervalFunction, _interval_contains
from repro.errors import PortAssignmentError, RoutingError
from repro.graphs import (
    PortAssignment,
    cycle_graph,
    gnp_random_graph,
    grid_graph,
    path_graph,
    star_graph,
)
from repro.models import Knowledge, Labeling, RoutingModel


class TestCyclicIntervals:
    def test_empty(self):
        assert cyclic_intervals([], 8) == []

    def test_single_label(self):
        assert cyclic_intervals([5], 8) == [(5, 5)]

    def test_contiguous_run(self):
        assert cyclic_intervals([2, 3, 4], 8) == [(2, 4)]

    def test_wrapping_run(self):
        assert cyclic_intervals([7, 8, 1, 2], 8) == [(7, 2)]

    def test_everything_is_one_interval(self):
        assert cyclic_intervals(list(range(1, 9)), 8) == [(1, 8)]

    def test_fragmented_set(self):
        assert cyclic_intervals([1, 3, 5, 7], 8) == [
            (1, 1), (3, 3), (5, 5), (7, 7)
        ]

    @given(
        st.integers(min_value=2, max_value=40),
        st.data(),
    )
    @settings(max_examples=60)
    def test_intervals_cover_exactly(self, n, data):
        labels = data.draw(
            st.lists(
                st.integers(min_value=1, max_value=n), unique=True, max_size=n
            )
        )
        intervals = cyclic_intervals(labels, n)
        member = set(labels)
        for label in range(1, n + 1):
            covered = any(
                _interval_contains(interval, label) for interval in intervals
            )
            assert covered == (label in member)

    @given(st.integers(min_value=3, max_value=30), st.data())
    @settings(max_examples=40)
    def test_intervals_are_maximal(self, n, data):
        labels = data.draw(
            st.lists(
                st.integers(min_value=1, max_value=n),
                unique=True, min_size=1, max_size=n - 1,
            )
        )
        intervals = cyclic_intervals(labels, n)
        member = set(labels)
        for lo, hi in intervals:
            before = lo - 1 if lo > 1 else n
            after = hi + 1 if hi < n else 1
            assert before not in member
            assert after not in member


class TestScheme:
    def test_cycle_is_classical_interval_routing(self, model_ia_alpha):
        scheme = MultiIntervalScheme(cycle_graph(16), model_ia_alpha)
        assert scheme.max_intervals_per_port() == 1
        assert verify_scheme(scheme).ok()

    def test_path_is_classical(self, model_ia_alpha):
        scheme = MultiIntervalScheme(path_graph(10), model_ia_alpha)
        assert scheme.max_intervals_per_port() == 1

    def test_grid_labels_fragment_mildly(self, model_ia_alpha):
        scheme = MultiIntervalScheme(grid_graph(4, 5), model_ia_alpha)
        assert verify_scheme(scheme).ok()
        assert scheme.max_intervals_per_port() >= 2

    def test_random_graph_fragments_heavily(self, model_ia_alpha):
        """[1]'s observation: random graphs defeat interval compaction."""
        graph = gnp_random_graph(32, seed=4)
        scheme = MultiIntervalScheme(graph, model_ia_alpha)
        assert verify_scheme(scheme).ok()
        assert scheme.max_intervals_per_port() >= 5
        total_intervals = sum(scheme.interval_count(u) for u in graph.nodes)
        assert total_intervals > graph.n * 10

    def test_agrees_with_full_table(self, model_ia_alpha):
        graph = gnp_random_graph(24, seed=9)
        interval_scheme = MultiIntervalScheme(graph, model_ia_alpha)
        table_scheme = FullTableScheme(graph, model_ia_alpha)
        for u in (1, 12, 24):
            for w in graph.nodes:
                if w != u:
                    assert (
                        interval_scheme.function(u).port_for(w)
                        == table_scheme.function(u).port_for(w)
                    )

    def test_respects_adversarial_ports(self, model_ia_alpha):
        graph = gnp_random_graph(20, seed=2)
        ports = PortAssignment.shuffled(graph, random.Random(1))
        scheme = MultiIntervalScheme(graph, model_ia_alpha, ports=ports)
        assert scheme.port_assignment is ports
        assert verify_scheme(scheme).ok()

    def test_missing_destination_raises(self, model_ia_alpha):
        scheme = MultiIntervalScheme(path_graph(4), model_ia_alpha)
        with pytest.raises(RoutingError):
            scheme.function(2).port_for(2)

    @pytest.mark.parametrize("port", [0, 2, 5, 6])
    def test_port_outside_the_node_raises(self, port):
        """A leaf of star(6) has port 1 only; ports up to the hub's degree
        (5) and past it name no neighbour."""
        ports = PortAssignment.identity(star_graph(6))
        function = MultiIntervalFunction(2, {port: [(1, 6)]}, ports)
        with pytest.raises(PortAssignmentError, match="^node 2 has no port"):
            function.next_hop(4)

    def test_encode_decode_round_trip(self, model_ia_alpha):
        graph = gnp_random_graph(24, seed=9)
        scheme = MultiIntervalScheme(graph, model_ia_alpha)
        for u in graph.nodes:
            decoded = scheme.decode_function(u, scheme.encode_function(u))
            for w in graph.nodes:
                if w != u:
                    assert decoded.port_for(w) == scheme.function(u).port_for(w)

    def test_structured_graphs_compress_vs_full_table(self, model_ia_alpha):
        graph = cycle_graph(64)
        interval_bits = MultiIntervalScheme(
            graph, model_ia_alpha
        ).space_report().total_bits
        table_bits = FullTableScheme(
            graph, model_ia_alpha
        ).space_report().total_bits
        # Cycle ports are 1-bit entries already, yet O(1) intervals per
        # port still roughly halve the table (n-1 entries → 2 intervals).
        assert interval_bits < 0.6 * table_bits

    def test_registered(self, model_ia_alpha):
        from repro.core import build_scheme

        scheme = build_scheme("multi-interval", cycle_graph(8), model_ia_alpha)
        assert scheme.scheme_name == "multi-interval"
