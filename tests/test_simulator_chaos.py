"""Tests for the dynamic fault schedule engine and the drop taxonomy."""

from __future__ import annotations

import pytest

from repro.core import build_scheme
from repro.errors import GraphError
from repro.graphs import cycle_graph, gnp_random_graph, path_graph
from repro.simulator import (
    BatchKernel,
    DropReason,
    FaultEvent,
    FaultKind,
    FaultSchedule,
    flapping_links,
    regional_failures,
    renewal_faults,
    summarize,
    uniform_pairs,
)


class TestFaultEvents:
    def test_constructors_and_accessors(self):
        down = FaultEvent.link_down(3.0, 1, 2)
        assert down.kind is FaultKind.LINK_DOWN
        assert down.link == frozenset((1, 2))
        assert down.node is None
        crash = FaultEvent.node_down(1.0, 7)
        assert crash.node == 7
        assert crash.link is None

    def test_rejects_negative_time(self):
        with pytest.raises(GraphError):
            FaultEvent.link_up(-1.0, 1, 2)

    def test_rejects_wrong_subject_arity(self):
        with pytest.raises(GraphError):
            FaultEvent(0.0, FaultKind.LINK_DOWN, (1,))
        with pytest.raises(GraphError):
            FaultEvent(0.0, FaultKind.NODE_UP, (1, 2))


class TestFaultSchedule:
    def test_events_sorted_by_time(self):
        schedule = FaultSchedule(
            [
                FaultEvent.link_down(5.0, 1, 2),
                FaultEvent.node_down(1.0, 3),
                FaultEvent.link_up(3.0, 1, 2),
            ]
        )
        assert [e.time for e in schedule] == [1.0, 3.0, 5.0]
        assert schedule.horizon == 5.0
        assert len(schedule) == 3

    def test_merge_and_shift(self):
        a = FaultSchedule([FaultEvent.link_down(1.0, 1, 2)])
        b = FaultSchedule([FaultEvent.link_up(0.5, 1, 2)])
        merged = a + b
        assert [e.time for e in merged] == [0.5, 1.0]
        shifted = merged.shifted(10.0)
        assert [e.time for e in shifted] == [10.5, 11.0]

    def test_state_replay(self):
        schedule = FaultSchedule(
            [
                FaultEvent.link_down(1.0, 1, 2),
                FaultEvent.node_down(2.0, 4),
                FaultEvent.link_up(3.0, 1, 2),
                FaultEvent.node_up(4.0, 4),
            ]
        )
        links, nodes = schedule.state_at(2.5)
        assert links == {frozenset((1, 2))}
        assert nodes == {4}
        links, nodes = schedule.state_at(10.0)
        assert not links and not nodes

    def test_validate_against_graph(self):
        graph = path_graph(4)
        FaultSchedule([FaultEvent.link_down(0.0, 1, 2)]).validate(graph)
        with pytest.raises(GraphError):
            FaultSchedule([FaultEvent.link_down(0.0, 1, 4)]).validate(graph)
        with pytest.raises(GraphError):
            FaultSchedule([FaultEvent.node_down(0.0, 9)]).validate(graph)


class TestGenerators:
    def test_flapping_is_deterministic_and_paired(self):
        graph = gnp_random_graph(16, seed=2)
        a = flapping_links(graph, 10, period=5.0, horizon=30.0, seed=7)
        b = flapping_links(graph, 10, period=5.0, horizon=30.0, seed=7)
        assert a.events == b.events
        a.validate(graph)
        downs = sum(1 for e in a if e.kind is FaultKind.LINK_DOWN)
        ups = sum(1 for e in a if e.kind is FaultKind.LINK_UP)
        assert downs == ups > 0
        # At the horizon every flapped link has recovered.
        links, nodes = a.state_at(30.0)
        assert not links and not nodes

    def test_flapping_rejects_bad_parameters(self):
        graph = path_graph(4)
        with pytest.raises(GraphError):
            flapping_links(graph, 99)
        with pytest.raises(GraphError):
            flapping_links(graph, 1, period=0.0)
        with pytest.raises(GraphError):
            flapping_links(graph, 1, duty=1.0)

    def test_renewal_process(self):
        graph = gnp_random_graph(16, seed=2)
        schedule = renewal_faults(
            graph, horizon=50.0, seed=3, link_count=6, node_count=2
        )
        schedule.validate(graph)
        assert schedule
        assert all(e.time <= 50.0 for e in schedule)
        # Same seed, same process.
        again = renewal_faults(
            graph, horizon=50.0, seed=3, link_count=6, node_count=2
        )
        assert again.events == schedule.events

    def test_regional_failures_cover_a_ball(self):
        graph = cycle_graph(10)
        schedule = regional_failures(
            graph, regions=1, radius=1, duration=5.0, horizon=20.0, seed=1
        )
        crashed = {
            e.node for e in schedule if e.kind is FaultKind.NODE_DOWN
        }
        # A radius-1 ball in a cycle is exactly 3 nodes.
        assert len(crashed) == 3
        # Every crash has a matching recovery.
        recovered = {
            e.node for e in schedule if e.kind is FaultKind.NODE_UP
        }
        assert crashed == recovered

    def test_regional_respects_protection(self):
        graph = cycle_graph(6)
        schedule = regional_failures(
            graph, regions=3, radius=2, duration=5.0, horizon=20.0, seed=4,
            protect=[1],
        )
        assert all(e.node != 1 for e in schedule)


class TestChaosRuns:
    def test_link_flap_drops_then_heals(self, model_ia_alpha):
        """A message sent during the outage drops; after recovery it lands."""
        scheme = build_scheme("full-table", path_graph(4), model_ia_alpha)
        schedule = FaultSchedule(
            [
                FaultEvent.link_down(0.0, 2, 3),
                FaultEvent.link_up(10.0, 2, 3),
            ]
        )
        sim = BatchKernel(scheme, fault_schedule=schedule)
        sim.inject(1, 4, at_time=0.0)
        sim.inject(1, 4, at_time=11.0)
        early, late = sorted(sim.run(), key=lambda r: r.msg_id)
        assert not early.delivered
        assert early.drop_reason is DropReason.LINK_DOWN
        assert late.delivered

    def test_fault_applies_before_message_at_same_time(self, model_ia_alpha):
        scheme = build_scheme("full-table", path_graph(3), model_ia_alpha)
        schedule = FaultSchedule([FaultEvent.link_down(1.0, 2, 3)])
        sim = BatchKernel(scheme, fault_schedule=schedule)
        # The message reaches node 2 at exactly t=1.0, as the link dies.
        sim.inject(1, 3, at_time=0.0)
        (record,) = sim.run()
        assert not record.delivered
        assert record.drop_reason is DropReason.LINK_DOWN

    def test_node_crash_kills_held_messages(self, model_ia_alpha):
        scheme = build_scheme("full-table", path_graph(4), model_ia_alpha)
        schedule = FaultSchedule([FaultEvent.node_down(1.5, 3)])
        sim = BatchKernel(scheme, fault_schedule=schedule)
        sim.inject(1, 4, at_time=0.0)
        (record,) = sim.run()
        assert not record.delivered
        assert record.drop_reason in (
            DropReason.NODE_DOWN,
            DropReason.ENDPOINT_DOWN,
        )

    def test_crashed_source_reports_endpoint_down(self, model_ia_alpha):
        scheme = build_scheme("full-table", path_graph(3), model_ia_alpha)
        schedule = FaultSchedule([FaultEvent.node_down(0.0, 1)])
        sim = BatchKernel(scheme, fault_schedule=schedule)
        sim.inject(1, 3, at_time=1.0)
        (record,) = sim.run()
        assert not record.delivered
        assert record.drop_reason is DropReason.ENDPOINT_DOWN

    def test_full_information_rides_through_churn(
        self, model_ii_alpha, random_graph_32
    ):
        """Full-info delivery >= single-path delivery on one schedule."""
        graph = random_graph_32
        schedule = flapping_links(
            graph, 120, period=8.0, duty=0.5, horizon=40.0, seed=5
        )
        pairs = uniform_pairs(graph, 120, seed=3)
        outcomes = {}
        for name in ("full-information", "thm1-two-level"):
            scheme = build_scheme(name, graph, model_ii_alpha)
            sim = BatchKernel(scheme, fault_schedule=schedule)
            for i, (s, t) in enumerate(pairs):
                sim.inject(s, t, at_time=(i * 37) % 30)
            outcomes[name] = summarize(sim.run(), graph)
        full, single = outcomes["full-information"], outcomes["thm1-two-level"]
        assert full.delivered_fraction >= single.delivered_fraction
        assert full.delivered_fraction > 0.5
        if full.delivered:
            assert full.max_stretch == 1.0

    def test_taxonomy_keys_are_drop_reasons(
        self, model_ii_alpha, random_graph_32
    ):
        graph = random_graph_32
        schedule = flapping_links(graph, 150, period=6.0, horizon=30.0, seed=2)
        scheme = build_scheme("thm1-two-level", graph, model_ii_alpha)
        sim = BatchKernel(scheme, fault_schedule=schedule)
        for i, (s, t) in enumerate(uniform_pairs(graph, 80, seed=6)):
            sim.inject(s, t, at_time=(i * 13) % 25)
        metrics = summarize(sim.run(), graph)
        assert metrics.drop_reasons  # this much churn certainly drops some
        assert all(
            isinstance(reason, DropReason) for reason in metrics.drop_reasons
        )
        # The str mixin keeps legacy substring checks working.
        assert "down" in DropReason.LINK_DOWN

    def test_run_without_messages_is_empty(self, model_ia_alpha):
        scheme = build_scheme("full-table", path_graph(3), model_ia_alpha)
        schedule = FaultSchedule([FaultEvent.link_down(1.0, 1, 2)])
        sim = BatchKernel(scheme, fault_schedule=schedule)
        assert sim.run() == []
