"""Tests for the trace-report summariser, on a golden JSONL fixture and on
live traced chaos runs (the drop-attribution acceptance round trip)."""

from __future__ import annotations

import math
import pathlib

import pytest

from repro.graphs import gnp_random_graph
from repro.models import Knowledge, Labeling, RoutingModel
from repro.core import build_scheme
from repro.observability import (
    RecordingTracer,
    format_trace_report,
    load_events,
    read_trace,
    summarize_trace,
)
from repro.simulator import (
    BatchKernel,
    RetryPolicy,
    drop_breakdown,
    flapping_links,
    renewal_faults,
)

GOLDEN = pathlib.Path(__file__).parent / "data" / "golden_trace.jsonl"


class TestPercentile:
    def test_unsorted_input(self):
        from repro.observability.report import _percentile

        samples = [9.0, 1.0, 5.0, 3.0, 7.0]
        assert _percentile(samples, 50) == 5.0
        assert _percentile(samples, 100) == 9.0
        assert _percentile(samples, 0) == 1.0
        # The helper must not have mutated the caller's list either.
        assert samples == [9.0, 1.0, 5.0, 3.0, 7.0]

    def test_empty_is_nan(self):
        from repro.observability.report import _percentile

        assert math.isnan(_percentile([], 50))


class TestGoldenTrace:
    @pytest.fixture(scope="class")
    def summary(self):
        return summarize_trace(read_trace(GOLDEN))

    def test_event_and_message_counts(self, summary):
        assert summary.events == 10
        assert summary.messages == 2
        assert summary.injections == 2
        assert summary.delivered == 1
        assert summary.dropped == 1
        assert summary.retries == 1
        assert summary.faults == 2
        assert summary.hops == 3

    def test_hot_nodes(self, summary):
        assert summary.hot_nodes[0] == (2, 2)
        assert (1, 1) in summary.hot_nodes

    def test_hop_latency_percentiles(self, summary):
        p = summary.hop_latency_percentiles
        assert p["p50"] == pytest.approx(1.0)
        assert p["max"] == pytest.approx(2.0)

    def test_drop_attribution(self, summary):
        # The one drop happened on link 2-4 while its fault window
        # (down at t=0.5, up at t=9.0) was open.
        assert summary.drops_by_reason == {"LINK_DOWN": 1}
        assert summary.drops_attributed == 1
        assert summary.drops_unattributed == 0
        assert summary.drops_by_fault_subject == [("link 2-4", 1)]

    def test_no_span_violations(self, summary):
        assert summary.span_violations == 0

    def test_text_report_mentions_everything(self, summary):
        text = format_trace_report(summary)
        assert "2 messages" in text
        assert "hot nodes" in text
        assert "LINK_DOWN: 1" in text
        assert "link 2-4 (1 drops)" in text
        assert "WARNING" not in text

    def test_json_view_is_round_trippable(self, summary):
        import json

        payload = json.loads(json.dumps(summary.to_dict()))
        assert payload["drops_attributed"] == 1
        assert payload["hot_nodes"][0] == [2, 2]


class TestDropAfterFaultWindowCloses:
    def test_unattributed_when_window_closed(self):
        rows = [
            '{"event":"fault","seq":0,"time":0.0,"reason":"link down",'
            '"subject":["link","1","2"]}',
            '{"event":"fault","seq":1,"time":1.0,"reason":"link up",'
            '"subject":["link","1","2"]}',
            '{"event":"inject","seq":2,"time":2.0,"msg_id":0,"source":1,'
            '"destination":2}',
            '{"event":"drop","seq":3,"time":3.0,"msg_id":0,"node":1,'
            '"reason":"HOP_LIMIT"}',
        ]
        summary = summarize_trace(load_events(rows))
        assert summary.drops_attributed == 0
        assert summary.drops_unattributed == 1

    def test_malformed_span_is_counted(self):
        rows = [
            # a hop with no preceding inject for that message
            '{"event":"hop","seq":0,"time":0.0,"msg_id":7,"node":1,'
            '"next_node":2,"hop":0}',
        ]
        summary = summarize_trace(load_events(rows))
        assert summary.span_violations == 1


class TestLiveRoundTrip:
    """Acceptance: every drop in drop_breakdown is attributable to a traced
    drop span carrying a fault subject or DropReason annotation."""

    @pytest.mark.parametrize("schedule_kind", ["flapping", "renewal"])
    def test_all_drops_annotated_and_fault_drops_attributed(
        self, schedule_kind
    ):
        graph = gnp_random_graph(24, seed=1)
        scheme = build_scheme(
            "interval", graph, RoutingModel(Knowledge.II, Labeling.BETA)
        )
        if schedule_kind == "flapping":
            schedule = flapping_links(
                graph, 40, period=8.0, duty=0.6, horizon=60.0, seed=2
            )
        else:
            schedule = renewal_faults(
                graph, horizon=60.0, seed=2, link_count=30,
                link_mtbf=10.0, link_mttr=6.0, node_count=3,
            )
        tracer = RecordingTracer()
        sim = BatchKernel(
            scheme,
            fault_schedule=schedule,
            retry_policy=RetryPolicy(max_attempts=2),
            tracer=tracer,
        )
        import random

        clock = random.Random(4)
        for _ in range(120):
            s, t = clock.sample(sorted(graph.nodes), 2)
            sim.inject(s, t, clock.uniform(0.0, 45.0))
        records = sim.run()
        breakdown = drop_breakdown(records)
        summary = summarize_trace(tracer.events)
        # one annotated drop span per undelivered record
        assert summary.dropped == sum(breakdown.values())
        assert summary.drops_by_reason == {
            reason.name: count for reason, count in breakdown.items()
        }
        # fault-caused drops land inside traced fault windows
        fault_caused = sum(
            count
            for reason, count in summary.drops_by_reason.items()
            if reason in ("LINK_DOWN", "NODE_DOWN", "ENDPOINT_DOWN")
        )
        assert summary.drops_attributed <= fault_caused
        if fault_caused:
            assert summary.drops_attributed > 0
        assert summary.span_violations == 0
