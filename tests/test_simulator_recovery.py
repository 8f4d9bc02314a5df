"""Tests for retry/backoff recovery and the bounce-once detour wrapper."""

from __future__ import annotations

import random

import pytest

from repro.core import DetourState, DetourWrapper, build_scheme
from repro.errors import ReproError, RoutingError, SchemeBuildError
from repro.graphs import LabeledGraph, cycle_graph, gnp_random_graph, path_graph
from repro.simulator import (
    BatchKernel,
    DropReason,
    FaultEvent,
    FaultSchedule,
    RetryPolicy,
    flapping_links,
    sample_link_failures,
    summarize,
    uniform_pairs,
)
from tests.routing import route_one


class TestRetryPolicy:
    def test_defaults_are_valid(self):
        policy = RetryPolicy()
        assert policy.max_retries == policy.max_attempts - 1

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"max_attempts": 0},
            {"base_delay": 0.0},
            {"multiplier": 0.5},
            {"max_delay": 0.5, "base_delay": 1.0},
            {"jitter": 1.0},
        ],
    )
    def test_rejects_bad_parameters(self, kwargs):
        with pytest.raises(ReproError):
            RetryPolicy(**kwargs)

    def test_backoff_grows_exponentially_without_jitter(self):
        policy = RetryPolicy(
            max_attempts=5, base_delay=1.0, multiplier=2.0, jitter=0.0
        )
        rng = random.Random(0)
        assert [policy.delay(k, rng) for k in range(4)] == [1, 2, 4, 8]

    def test_backoff_caps_at_max_delay(self):
        policy = RetryPolicy(
            max_attempts=10, base_delay=1.0, multiplier=10.0,
            max_delay=50.0, jitter=0.0,
        )
        assert policy.delay(5, random.Random(0)) == 50.0

    def test_jitter_stays_in_band_and_is_seeded(self):
        policy = RetryPolicy(base_delay=10.0, multiplier=1.0, jitter=0.2)
        values = [policy.delay(0, random.Random(s)) for s in range(50)]
        assert all(8.0 <= v <= 12.0 for v in values)
        assert values == [policy.delay(0, random.Random(s)) for s in range(50)]


class TestRetryInEventEngine:
    def test_retry_delivers_after_link_recovers(self, model_ia_alpha):
        scheme = build_scheme("full-table", path_graph(4), model_ia_alpha)
        schedule = FaultSchedule(
            [
                FaultEvent.link_down(0.0, 2, 3),
                FaultEvent.link_up(5.0, 2, 3),
            ]
        )
        sim = BatchKernel(
            scheme,
            fault_schedule=schedule,
            retry_policy=RetryPolicy(
                max_attempts=5, base_delay=2.0, jitter=0.0
            ),
        )
        sim.inject(1, 4, at_time=0.0)
        (record,) = sim.run()
        assert record.delivered
        assert record.retries >= 1
        # Latency spans the whole recovery, not just the final walk.
        assert record.latency > 5.0

    def test_budget_exhaustion_reports_final_reason(self, model_ia_alpha):
        scheme = build_scheme("full-table", path_graph(4), model_ia_alpha)
        sim = BatchKernel(
            scheme,
            failed_links=[(2, 3)],
            retry_policy=RetryPolicy(
                max_attempts=3, base_delay=1.0, jitter=0.0
            ),
        )
        sim.inject(1, 4)
        (record,) = sim.run()
        assert not record.delivered
        assert record.retries == 2  # max_attempts - 1 re-transmissions
        assert record.drop_reason is DropReason.LINK_DOWN

    def test_retry_improves_delivery_under_churn(
        self, model_ii_alpha, random_graph_32
    ):
        graph = random_graph_32
        schedule = flapping_links(
            graph, 130, period=8.0, duty=0.5, horizon=40.0, seed=5
        )
        pairs = uniform_pairs(graph, 120, seed=3)

        def run(retry):
            scheme = build_scheme("thm1-two-level", graph, model_ii_alpha)
            sim = BatchKernel(
                scheme, fault_schedule=schedule, retry_policy=retry
            )
            for i, (s, t) in enumerate(pairs):
                sim.inject(s, t, at_time=(i * 37) % 30)
            return summarize(sim.run(), graph)

        plain = run(None)
        retried = run(RetryPolicy(max_attempts=4, base_delay=1.0))
        assert retried.delivered_fraction > plain.delivered_fraction
        assert retried.total_retries > 0
        assert retried.mean_retries == pytest.approx(
            retried.total_retries / retried.messages
        )


class TestDetourWrapper:
    def test_transparent_without_failures(self, model_ii_alpha, random_graph_32):
        inner = build_scheme("thm1-two-level", random_graph_32, model_ii_alpha)
        wrapped = DetourWrapper(inner)
        for source, dest in [(1, 5), (7, 20), (32, 2)]:
            assert (
                route_one(BatchKernel(wrapped), source, dest).path
                == route_one(BatchKernel(inner), source, dest).path
            )

    def test_costs_no_extra_bits(self, model_ii_alpha, random_graph_32):
        inner = build_scheme("thm4-hub", random_graph_32, model_ii_alpha)
        wrapped = DetourWrapper(inner)
        assert (
            wrapped.space_report().total_bits
            == inner.space_report().total_bits
        )
        u = 3
        assert wrapped.encode_function(u) == inner.encode_function(u)
        rebuilt = wrapped.decode_function(u, wrapped.encode_function(u))
        assert rebuilt.next_hop(wrapped.address_of(9)).next_node == (
            inner.function(u).next_hop(inner.address_of(9)).next_node
        )

    def test_bounces_around_a_dead_link(self, model_ia_alpha):
        """On a triangle the detour reaches the destination the long way."""
        inner = build_scheme("full-table", cycle_graph(3), model_ia_alpha)
        failed = [(1, 2)]
        assert not route_one(BatchKernel(inner, failed_links=failed), 1, 2).delivered
        record = route_one(
            BatchKernel(DetourWrapper(inner), failed_links=failed), 1, 2
        )
        assert record.delivered
        assert record.path == (1, 3, 2)

    def test_full_information_takes_its_live_alternative(self, model_ia_alpha):
        """With the least shortest-path edge down, a detoured
        full-information function forwards over its other shortest-path
        edge, spending no bounce, rather than to the least live neighbour
        (3, a leaf off every shortest path)."""
        graph = LabeledGraph(5, [(1, 2), (1, 3), (1, 4), (2, 5), (4, 5)])
        wrapped = DetourWrapper(
            build_scheme("full-information", graph, model_ia_alpha)
        )
        decision = wrapped.function(1).next_hop_avoiding(5, [2])
        assert decision.next_node == 4
        assert decision.state == DetourState(None, 0)

    def test_bounce_budget_is_enforced(self, model_ia_alpha):
        """A path graph has no alternative route: the bounce cannot save
        the message, and the budget stops it from wandering forever."""
        inner = build_scheme("full-table", path_graph(4), model_ia_alpha)
        kernel = BatchKernel(DetourWrapper(inner), failed_links=[(2, 3)])
        record = route_one(kernel, 1, 4)
        assert not record.delivered
        assert record.drop_reason in (
            DropReason.NO_ROUTE,
            DropReason.HOP_LIMIT,
        )

    def test_bounce_restarts_a_stateful_inner_scheme(self, model_ii_alpha):
        """A bounce must not carry the probe's header to the detour
        neighbour: there it would act as the probed node and "return" to
        an origin it is not adjacent to (4 -> 19 on this graph)."""
        graph = gnp_random_graph(48, seed=4)
        inner = build_scheme("thm5-probe", graph, model_ii_alpha)
        failures = sample_link_failures(graph, 60, seed=61)
        kernel = BatchKernel(DetourWrapper(inner), failed_links=failures)
        for source in graph.nodes:
            for dest in graph.nodes:
                if source != dest:
                    kernel.inject(source, dest)
        for record in kernel.run():
            assert record.drop_reason is not DropReason.INVALID_FORWARD
            for u, v in zip(record.path, record.path[1:]):
                assert graph.has_edge(u, v), (record.source, record.path)

    def test_rejects_zero_bounce_budget(self, model_ia_alpha):
        inner = build_scheme("full-table", path_graph(3), model_ia_alpha)
        with pytest.raises(SchemeBuildError):
            DetourWrapper(inner, max_bounces=0)

    def test_all_links_dead_raises_no_route(self, model_ia_alpha):
        inner = build_scheme("full-table", path_graph(3), model_ia_alpha)
        kernel = BatchKernel(DetourWrapper(inner), failed_links=[(1, 2)])
        record = route_one(kernel, 1, 3)
        assert not record.delivered
        assert record.drop_reason is DropReason.NO_ROUTE

    def test_strictly_improves_single_path_under_churn(self, model_ii_beta):
        """Tier-1 acceptance: detour > plain single-path on one schedule,
        at a bounded stretch cost."""
        graph = gnp_random_graph(24, seed=9)
        inner = build_scheme("interval", graph, model_ii_beta)
        wrapped = DetourWrapper(inner)
        schedule = flapping_links(
            graph, 80, period=8.0, duty=0.5, horizon=40.0, seed=5
        )
        pairs = uniform_pairs(graph, 120, seed=3)
        outcomes = {}
        for name, scheme in (("plain", inner), ("detour", wrapped)):
            sim = BatchKernel(scheme, fault_schedule=schedule)
            for i, (s, t) in enumerate(pairs):
                sim.inject(s, t, at_time=(i * 37) % 30)
            outcomes[name] = summarize(sim.run(), graph)
        assert (
            outcomes["detour"].delivered_fraction
            > outcomes["plain"].delivered_fraction
        )
        assert outcomes["detour"].max_stretch <= wrapped.stretch_bound()

    def test_stretch_bound_and_repr_expose_inner(
        self, model_ii_alpha, random_graph_32
    ):
        inner = build_scheme("thm4-hub", random_graph_32, model_ii_alpha)
        wrapped = DetourWrapper(inner, max_bounces=2)
        assert wrapped.max_bounces == 2
        assert wrapped.inner is inner
        assert wrapped.scheme_name == "detour(thm4-hub)"
        assert wrapped.stretch_bound() >= inner.stretch_bound()
        assert wrapped.hop_limit() == inner.hop_limit()
