"""Tests for metrics-layer observability: cache counters, timestamps.

Covers the shared :class:`~repro.graphs.context.GraphContext` distance
cache as the metrics layer sees it (store-level eviction and its
counters), the registry counters fed by ``summarize``, the
``simulator.drain`` and ``simulator.summarize`` phases, and the
``mean_time_to_delivery`` computed from record timestamps instead of the
``mean_latency`` alias.
"""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro.graphs import (
    clear_context_cache,
    get_context,
    gnp_random_graph,
    path_graph,
)
from repro.graphs.context import CTX_COUNTER, context_cache_size
from repro.models import Knowledge, Labeling, RoutingModel
from repro.core import build_scheme
from repro.observability import MetricsRegistry, phase_breakdown, set_registry
from repro.simulator import (
    BatchKernel,
    DeliveryRecord,
    RetryPolicy,
    flapping_links,
    summarize,
)


@pytest.fixture
def registry():
    fresh = MetricsRegistry()
    previous = set_registry(fresh)
    yield fresh
    set_registry(previous)


@pytest.fixture
def clear_cache():
    clear_context_cache()
    yield
    clear_context_cache()


def _cache_count(registry, op):
    return registry.counter(
        CTX_COUNTER, kind="distances", op=op
    ).value


class TestDistanceCacheCounters:
    def test_store_eviction_recomputes_afresh(self, registry, clear_cache):
        """Evicted graphs recompute the same values, never a stale hit."""
        size = context_cache_size()
        # Hold strong references so no id is ever reused across graphs.
        graphs = [gnp_random_graph(10, seed=s) for s in range(size + 2)]
        matrices = [get_context(g).distances() for g in graphs]
        evictions = registry.counter(
            "repro_graph_ctx_store_total", op="eviction"
        ).value
        assert evictions == 2
        # The newest graph still hits its live context.
        hits_before = _cache_count(registry, "hit")
        assert get_context(graphs[-1]).distances() is matrices[-1]
        assert _cache_count(registry, "hit") == hits_before + 1
        # Re-querying an evicted graph recomputes the same values afresh.
        recomputed = get_context(graphs[0]).distances()
        assert recomputed is not matrices[0]
        np.testing.assert_array_equal(recomputed, matrices[0])
        assert _cache_count(registry, "miss") == size + 3


class TestSummarizeCounters:
    def test_registry_totals(self, registry, clear_cache):
        graph = path_graph(6)
        scheme = build_scheme(
            "full-table", graph, RoutingModel(Knowledge.II, Labeling.ALPHA)
        )
        kernel = BatchKernel(scheme, failed_links=[(3, 4)])
        kernel.inject(1, 6)
        kernel.inject(1, 2)
        summarize(kernel.run(), graph)
        assert registry.counter("repro_messages_routed_total").value == 2
        assert registry.counter("repro_messages_delivered_total").value == 1
        assert (
            registry.counter("repro_drops_total", reason="LINK_DOWN").value
            == 1
        )


class TestSimulatorPhases:
    def test_one_run_and_one_summarize_time_one_call_each(self, registry):
        graph = path_graph(6)
        scheme = build_scheme(
            "full-table", graph, RoutingModel(Knowledge.II, Labeling.ALPHA)
        )
        kernel = BatchKernel(scheme)
        for destination in range(2, 7):
            kernel.inject(1, destination)
        summarize(kernel.run(), graph)
        phases = phase_breakdown(registry)
        assert phases["simulator.drain"]["calls"] == 1
        assert phases["simulator.summarize"]["calls"] == 1


def _record(delivered, latency, injected_at=math.nan, completed_at=math.nan,
            retries=0):
    return DeliveryRecord(
        msg_id=0,
        source=1,
        destination=3,
        delivered=delivered,
        hops=2,
        path=(1, 2, 3),
        latency=latency,
        retries=retries,
        injected_at=injected_at,
        completed_at=completed_at,
    )


class TestMeanTimeToDelivery:
    def test_computed_from_timestamps(self, registry, clear_cache):
        graph = path_graph(4)
        records = [
            _record(True, latency=5.0, injected_at=10.0, completed_at=15.0,
                    retries=1),
            _record(True, latency=3.0, injected_at=0.0, completed_at=3.0),
        ]
        metrics = summarize(records, graph)
        assert metrics.mean_time_to_delivery == pytest.approx(4.0)
        assert metrics.mean_time_to_delivery == pytest.approx(
            metrics.mean_latency
        )

    def test_walker_records_fall_back_to_latency_alias(
        self, registry, clear_cache
    ):
        graph = path_graph(4)
        records = [_record(True, latency=0.0)]  # a record without timestamps
        metrics = summarize(records, graph)
        assert metrics.mean_time_to_delivery == metrics.mean_latency == 0.0

    def test_includes_retry_backoff_in_event_runs(self, registry, clear_cache):
        """End to end: with retries the delivered time spans the backoff."""
        graph = gnp_random_graph(24, seed=2)
        scheme = build_scheme(
            "interval", graph, RoutingModel(Knowledge.II, Labeling.BETA)
        )
        schedule = flapping_links(
            graph, 30, period=8.0, duty=0.5, horizon=60.0, seed=5
        )
        sim = BatchKernel(
            scheme,
            fault_schedule=schedule,
            retry_policy=RetryPolicy(max_attempts=4, base_delay=2.0),
        )
        import random

        clock = random.Random(11)
        for _ in range(60):
            s, t = clock.sample(sorted(graph.nodes), 2)
            sim.inject(s, t, clock.uniform(0.0, 40.0))
        records = sim.run()
        retried = [r for r in records if r.delivered and r.retries > 0]
        assert retried, "expected at least one retried delivery"
        for record in retried:
            assert record.time_to_delivery == pytest.approx(record.latency)
            # a retried delivery must have waited through >= 1 backoff
            assert record.time_to_delivery > float(record.hops)
        metrics = summarize(records, graph)
        assert not math.isnan(metrics.mean_time_to_delivery)

    def test_record_time_to_delivery_property(self):
        record = _record(True, latency=7.0, injected_at=1.0, completed_at=8.0)
        assert record.time_to_delivery == pytest.approx(7.0)
        assert math.isnan(_record(True, latency=0.0).time_to_delivery)
