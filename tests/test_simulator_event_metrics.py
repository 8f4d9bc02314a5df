"""Tests for the timed kernel, failure sampling and metrics."""

from __future__ import annotations

import math

import pytest

from repro.core import build_scheme
from repro.errors import GraphError, RoutingError
from repro.graphs import gnp_random_graph, path_graph, star_graph
from repro.models import Knowledge, Labeling, RoutingModel
from repro.simulator import (
    BatchKernel,
    sample_incident_failures,
    sample_link_failures,
    summarize,
)


class TestTimedKernel:
    def test_latency_counts_hops(self, model_ia_alpha):
        scheme = build_scheme("full-table", path_graph(5), model_ia_alpha)
        sim = BatchKernel(scheme, link_latency=2.0)
        sim.inject(1, 5, at_time=0.0)
        (record,) = sim.run()
        assert record.delivered
        assert record.hops == 4
        assert record.latency == pytest.approx(8.0)

    def test_injection_time_offsets(self, model_ia_alpha):
        scheme = build_scheme("full-table", path_graph(3), model_ia_alpha)
        sim = BatchKernel(scheme)
        sim.inject(1, 3, at_time=10.0)
        (record,) = sim.run()
        assert record.latency == pytest.approx(2.0)

    def test_many_messages_all_delivered(self, model_ii_alpha):
        graph = gnp_random_graph(24, seed=3)
        sim = BatchKernel(build_scheme("thm4-hub", graph, model_ii_alpha))
        pairs = [(u, 24 - u) for u in range(1, 12)]
        for i, (u, w) in enumerate(pairs):
            sim.inject(u, w, at_time=float(i))
        records = sim.run()
        assert len(records) == len(pairs)
        assert all(r.delivered for r in records)

    def test_rejects_nonpositive_latency(self, model_ia_alpha):
        scheme = build_scheme("full-table", path_graph(3), model_ia_alpha)
        with pytest.raises(RoutingError):
            BatchKernel(scheme, link_latency=0.0)

    def test_stateful_probe_messages(self, model_ii_alpha):
        graph = gnp_random_graph(24, seed=32)
        sim = BatchKernel(build_scheme("thm5-probe", graph, model_ii_alpha))
        target = graph.non_neighbors(1)[0]
        sim.inject(1, target)
        (record,) = sim.run()
        assert record.delivered
        assert record.latency == pytest.approx(float(record.hops))

    def test_run_drains_queue(self, model_ia_alpha):
        scheme = build_scheme("full-table", path_graph(3), model_ia_alpha)
        sim = BatchKernel(scheme)
        sim.inject(1, 3)
        assert len(sim.run()) == 1
        assert sim.run() == []


class TestFailureSampling:
    def test_requested_count(self):
        graph = gnp_random_graph(20, seed=2)
        failures = sample_link_failures(graph, 12, seed=1)
        assert len(failures) == 12
        assert all(graph.has_edge(*tuple(link)) for link in failures)

    def test_deterministic(self):
        graph = gnp_random_graph(20, seed=2)
        assert sample_link_failures(graph, 5, seed=4) == sample_link_failures(
            graph, 5, seed=4
        )

    def test_keeps_connectivity(self):
        graph = gnp_random_graph(20, seed=2)
        failures = sample_link_failures(graph, 30, seed=3)
        survivor = graph
        for link in failures:
            survivor = survivor.without_edge(*tuple(link))
        assert survivor.is_connected()

    def test_star_cannot_lose_links(self):
        with pytest.raises(GraphError):
            sample_link_failures(star_graph(6), 2, seed=0)

    def test_too_many_failures_rejected(self):
        with pytest.raises(GraphError):
            sample_link_failures(path_graph(4), 5, seed=0)

    def test_incident_failures(self):
        graph = gnp_random_graph(20, seed=2)
        failures = sample_incident_failures(graph, node=1, count=3, seed=5)
        assert len(failures) == 3
        assert all(1 in link for link in failures)

    def test_incident_spares_named_link(self):
        graph = gnp_random_graph(20, seed=2)
        nb = graph.neighbors(1)[0]
        failures = sample_incident_failures(
            graph, node=1, count=graph.degree(1) - 1, seed=5, spare=(1, nb)
        )
        assert frozenset((1, nb)) not in failures


class TestMetrics:
    def test_summary_of_perfect_run(self, model_ii_alpha):
        graph = gnp_random_graph(24, seed=3)
        kernel = BatchKernel(build_scheme("thm1-two-level", graph, model_ii_alpha))
        for w in range(2, 25):
            kernel.inject(1, w)
        metrics = summarize(kernel.run(), graph)
        assert metrics.delivered_fraction == 1.0
        assert metrics.max_stretch == 1.0
        assert metrics.mean_hops <= 2.0
        assert not metrics.drop_reasons

    def test_summary_with_drops(self, model_ia_alpha):
        kernel = BatchKernel(
            build_scheme("full-table", path_graph(4), model_ia_alpha),
            failed_links=[(2, 3)],
        )
        kernel.inject(1, 4)
        kernel.inject(1, 2)
        metrics = summarize(kernel.run(), path_graph(4))
        assert metrics.messages == 2
        assert metrics.delivered == 1
        assert metrics.delivered_fraction == 0.5
        assert sum(metrics.drop_reasons.values()) == 1

    def test_empty_batch(self):
        metrics = summarize([], path_graph(3))
        assert metrics.messages == 0
        assert metrics.delivered_fraction == 0.0
        assert math.isnan(metrics.mean_stretch)

    def test_p95_between_mean_and_max(self, model_ii_alpha):
        graph = gnp_random_graph(32, seed=8)
        kernel = BatchKernel(build_scheme("thm4-hub", graph, model_ii_alpha))
        for u in range(1, 9):
            for w in range(9, 33):
                kernel.inject(u, w)
        metrics = summarize(kernel.run(), graph)
        assert metrics.mean_stretch <= metrics.p95_stretch <= metrics.max_stretch
