"""Tests for queueing behaviour and node failures in the simulator."""

from __future__ import annotations

import pytest

from repro.core import build_scheme
from repro.errors import GraphError, RoutingError
from repro.graphs import gnp_random_graph, path_graph, star_graph
from repro.simulator import (
    BatchKernel,
    DropReason,
    sample_node_failures,
    summarize,
)
from tests.routing import route_one


class TestQueueing:
    def test_zero_service_time_is_pure_latency(self, model_ia_alpha):
        scheme = build_scheme("full-table", path_graph(4), model_ia_alpha)
        sim = BatchKernel(scheme, link_latency=1.0)
        sim.inject(1, 4)
        (record,) = sim.run()
        assert record.latency == pytest.approx(3.0)

    def test_service_time_adds_per_hop(self, model_ia_alpha):
        scheme = build_scheme("full-table", path_graph(4), model_ia_alpha)
        sim = BatchKernel(scheme, link_latency=1.0, node_service_time=0.5)
        sim.inject(1, 4)
        (record,) = sim.run()
        # Three forwarding nodes each add 0.5.
        assert record.latency == pytest.approx(3.0 + 3 * 0.5)

    def test_contention_serialises(self, model_ia_alpha):
        """Two messages through the same relay: the second waits."""
        scheme = build_scheme("full-table", star_graph(5), model_ia_alpha)
        sim = BatchKernel(scheme, link_latency=1.0, node_service_time=1.0)
        sim.inject(2, 3, at_time=0.0)
        sim.inject(4, 5, at_time=0.0)
        records = sorted(sim.run(), key=lambda r: r.latency)
        # Both go leaf → centre → leaf; the centre serialises them.
        assert records[0].latency < records[1].latency
        assert records[1].latency >= records[0].latency + 1.0

    def test_forward_counts_expose_hotspots(self, model_ii_alpha):
        graph = gnp_random_graph(24, seed=3)
        scheme = build_scheme("thm4-hub", graph, model_ii_alpha)
        sim = BatchKernel(scheme, node_service_time=0.1)
        for i in range(40):
            sim.inject(1 + i % 24, 1 + (i * 7 + 3) % 24)
        sim.run()
        counts = sim.forward_counts
        hub = scheme.hub
        assert counts.get(hub, 0) >= max(
            count for node, count in counts.items() if node != hub
        ) / 2

    def test_queue_overflow_drops(self, model_ia_alpha):
        scheme = build_scheme("full-table", star_graph(8), model_ia_alpha)
        sim = BatchKernel(
            scheme, link_latency=0.1, node_service_time=5.0, queue_capacity=1
        )
        for leaf in range(2, 8):
            sim.inject(leaf, leaf + 1 if leaf < 7 else 2, at_time=0.0)
        records = sim.run()
        dropped = [r for r in records if not r.delivered]
        assert dropped
        assert all("queue overflow" in r.drop_reason for r in dropped)

    def test_rejects_bad_parameters(self, model_ia_alpha):
        scheme = build_scheme("full-table", path_graph(3), model_ia_alpha)
        with pytest.raises(RoutingError):
            BatchKernel(scheme, node_service_time=-1.0)
        with pytest.raises(RoutingError):
            BatchKernel(scheme, queue_capacity=0)


class TestNodeFailures:
    def test_sampling_respects_protection(self):
        graph = gnp_random_graph(24, seed=5)
        failed = sample_node_failures(graph, 5, seed=1, protect={1, 2})
        assert len(failed) == 5
        assert not failed & {1, 2}

    def test_sampling_keeps_survivors_connected(self):
        graph = gnp_random_graph(24, seed=5)
        failed = sample_node_failures(graph, 8, seed=2)
        survivors = [u for u in graph.nodes if u not in failed]
        seen = {survivors[0]}
        stack = [survivors[0]]
        while stack:
            u = stack.pop()
            for v in graph.neighbor_set(u):
                if v in seen or v in failed:
                    continue
                seen.add(v)
                stack.append(v)
        assert len(seen) == len(survivors)

    def test_too_many_failures_rejected(self):
        with pytest.raises(GraphError):
            sample_node_failures(path_graph(4), 4)

    def test_deterministic(self):
        graph = gnp_random_graph(24, seed=5)
        assert sample_node_failures(graph, 4, seed=9) == sample_node_failures(
            graph, 4, seed=9
        )

    def test_single_path_drops_through_dead_node(self, model_ia_alpha):
        kernel = BatchKernel(
            build_scheme("full-table", path_graph(5), model_ia_alpha),
            failed_nodes=[3],
        )
        record = route_one(kernel, 1, 5)
        assert not record.delivered
        assert "down" in record.drop_reason

    def test_endpoint_failure_reported(self, model_ia_alpha):
        kernel = BatchKernel(
            build_scheme("full-table", path_graph(4), model_ia_alpha)
        )
        kernel.network.fail_node(1)
        record = route_one(kernel, 1, 4)
        assert not record.delivered
        assert "endpoint" in record.drop_reason
        kernel.network.restore_node(1)
        # A crashed destination is routed toward and refused on the way.
        kernel.network.fail_node(4)
        record = route_one(kernel, 1, 4)
        assert record.drop_reason is DropReason.NODE_DOWN
        assert record.path == (1, 2, 3)
        kernel.network.restore_node(4)
        assert route_one(kernel, 1, 4).delivered

    def test_full_information_routes_around_dead_nodes(self, model_ii_alpha):
        graph = gnp_random_graph(32, seed=12)
        scheme = build_scheme("full-information", graph, model_ii_alpha)
        failed = sample_node_failures(graph, 6, seed=3, protect={1, 2, 31, 32})
        pairs = [(1, 31), (1, 32), (2, 31), (2, 32)]
        full_info = BatchKernel(scheme, failed_nodes=failed)
        records = [route_one(full_info, u, w) for u, w in pairs]
        single = BatchKernel(
            build_scheme("thm1-two-level", graph, model_ii_alpha),
            failed_nodes=failed,
        )
        single_records = [route_one(single, u, w) for u, w in pairs]
        assert sum(r.delivered for r in records) >= sum(
            r.delivered for r in single_records
        )


class TestEventEngineFailures:
    def test_single_path_drops_on_failed_link(self, model_ia_alpha):
        """The timed kernel drops a single-path message at a failed link."""
        scheme = build_scheme("full-table", path_graph(4), model_ia_alpha)
        sim = BatchKernel(scheme, failed_links=[(2, 3)])
        sim.inject(1, 4)
        (record,) = sim.run()
        assert not record.delivered
        assert "down" in record.drop_reason

    def test_full_information_reroutes_in_event_engine(self, model_ii_alpha):
        from repro.graphs import cycle_graph

        scheme = build_scheme("full-information", cycle_graph(4), model_ii_alpha)
        sim = BatchKernel(scheme, failed_links=[(1, 2)])
        sim.inject(1, 3)
        (record,) = sim.run()
        assert record.delivered
        assert record.path == (1, 4, 3)
