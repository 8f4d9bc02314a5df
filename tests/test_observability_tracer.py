"""Tests for hop-level tracing: span ordering, sinks, no-op overhead path."""

from __future__ import annotations

import json

import pytest

from repro.graphs import gnp_random_graph
from repro.models import Knowledge, Labeling, RoutingModel
from repro.core import build_scheme
from repro.observability import (
    NULL_TRACER,
    JsonlTracer,
    NullTracer,
    RecordingTracer,
    TraceEvent,
    load_events,
    read_trace,
)
from repro.simulator import (
    BatchKernel,
    RetryPolicy,
    flapping_links,
)

TERMINAL = ("deliver", "drop")


@pytest.fixture(scope="module")
def scheme():
    graph = gnp_random_graph(24, seed=0)
    return build_scheme(
        "interval", graph, RoutingModel(Knowledge.II, Labeling.BETA)
    )


def _chaos_sim(scheme, tracer, retries=2):
    schedule = flapping_links(
        scheme.graph, 30, period=8.0, duty=0.5, horizon=60.0, seed=3
    )
    sim = BatchKernel(
        scheme,
        fault_schedule=schedule,
        retry_policy=RetryPolicy(max_attempts=retries + 1),
        tracer=tracer,
    )
    import random

    clock = random.Random(7)
    for _ in range(80):
        source, destination = clock.sample(sorted(scheme.graph.nodes), 2)
        sim.inject(source, destination, clock.uniform(0.0, 45.0))
    return sim


class TestSpanOrdering:
    def test_network_walk_emits_ordered_span(self, scheme):
        tracer = RecordingTracer()
        kernel = BatchKernel(scheme, tracer=tracer)
        kernel.inject(1, 9)
        (record,) = kernel.run()
        assert record.delivered
        events = tracer.events_for(0)
        kinds = [event.event for event in events]
        assert kinds[0] == "inject"
        assert kinds[-1] == "deliver"
        assert kinds[1:-1] == ["hop"] * record.hops
        # hop ordinals count up, sequence numbers strictly increase
        assert [e.hop for e in events[1:-1]] == list(range(record.hops))
        seqs = [event.seq for event in events]
        assert seqs == sorted(seqs)
        # the walked path is reconstructible from the hop spans
        path = [events[1].node] + [e.next_node for e in events[1:-1]]
        assert tuple(path) == record.path

    def test_event_sim_spans_are_well_formed(self, scheme):
        tracer = RecordingTracer()
        records = _chaos_sim(scheme, tracer).run()
        by_msg = {}
        for event in tracer.events:
            if event.msg_id is not None:
                by_msg.setdefault(event.msg_id, []).append(event)
        assert len(by_msg) == len(records)
        for events in by_msg.values():
            assert events[0].event == "inject"
            # exactly one terminal outcome, nothing after it
            terminals = [e for e in events if e.event in TERMINAL]
            assert len(terminals) == 1
            assert events[-1].event in TERMINAL
            # times never go backwards along the span
            times = [e.time for e in events]
            assert times == sorted(times)

    def test_every_drop_record_has_annotated_drop_span(self, scheme):
        """Acceptance round-trip: drop_breakdown ↔ traced drop spans."""
        from repro.simulator import drop_breakdown

        tracer = RecordingTracer()
        records = _chaos_sim(scheme, tracer).run()
        breakdown = drop_breakdown(records)
        drop_events = [e for e in tracer.events if e.event == "drop"]
        by_reason = {}
        for event in drop_events:
            assert event.reason is not None
            by_reason[event.reason] = by_reason.get(event.reason, 0) + 1
        assert by_reason == {
            reason.name: count for reason, count in breakdown.items()
        }


class TestDisabledPath:
    def test_null_tracer_is_normalised_away(self, scheme):
        assert BatchKernel(scheme, tracer=NULL_TRACER)._tracer is None
        assert BatchKernel(scheme, tracer=NullTracer())._tracer is None
        assert BatchKernel(scheme, tracer=None)._tracer is None
        sim = BatchKernel(scheme, tracer=NULL_TRACER)
        assert sim._tracer is None

    def test_traced_and_untraced_runs_agree(self, scheme):
        traced = _chaos_sim(scheme, RecordingTracer()).run()
        untraced = _chaos_sim(scheme, None).run()
        assert traced == untraced


class TestSinks:
    def test_jsonl_round_trip(self, scheme, tmp_path):
        path = tmp_path / "trace.jsonl"
        tracer = JsonlTracer(path)
        _chaos_sim(scheme, tracer).run()
        tracer.close()
        reloaded = read_trace(path)
        assert len(reloaded) == tracer.written > 0
        assert all(isinstance(event, TraceEvent) for event in reloaded)
        # every line is valid standalone JSON with no None values
        for line in path.read_text().splitlines():
            row = json.loads(line)
            assert None not in row.values()

    def test_event_dict_round_trip(self):
        event = TraceEvent(
            event="drop",
            seq=3,
            time=1.5,
            msg_id=9,
            node=2,
            reason="LINK_DOWN",
            subject=("link", "2", "4"),
        )
        assert TraceEvent.from_dict(event.to_dict()) == event

    def test_load_events_skips_blank_lines(self):
        rows = ['{"event": "inject", "msg_id": 1}', "", "  "]
        events = load_events(rows)
        assert len(events) == 1
        assert events[0].msg_id == 1

    def test_context_manager_closes_file(self, tmp_path):
        path = tmp_path / "t.jsonl"
        with JsonlTracer(path) as tracer:
            tracer.inject(0, 1, 2)
        assert len(read_trace(path)) == 1
