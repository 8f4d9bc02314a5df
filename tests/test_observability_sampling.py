"""Tests for sampled tracing: determinism, anomaly retention, ring buffer."""

from __future__ import annotations

import pytest

from repro.observability import (
    RecordingTracer,
    RingBufferTracer,
    SamplingTracer,
)


def _drive_clean(tracer, msg_id, hops=3):
    """One clean message through the standalone (non-engine) interface."""
    tracer.inject(msg_id, 0, 9, time=0.0)
    for h in range(hops):
        tracer.hop(msg_id, h, h + 1, h, time=float(h))
    tracer.deliver(msg_id, 9, time=float(hops), hop=hops)


class TestDeterminism:
    def test_same_seed_same_keeps(self):
        keeps = []
        for _ in range(2):
            sampler = SamplingTracer(RecordingTracer(), rate=0.2, seed=13)
            for mid in range(200):
                _drive_clean(sampler, mid)
            keeps.append(
                {e.msg_id for e in sampler._sink.events if e.event == "inject"}
            )
        assert keeps[0] == keeps[1]
        assert 0 < len(keeps[0]) < 200

    def test_different_seeds_differ(self):
        keeps = []
        for seed in (1, 2):
            sampler = SamplingTracer(RecordingTracer(), rate=0.2, seed=seed)
            for mid in range(200):
                _drive_clean(sampler, mid)
            keeps.append(
                {e.msg_id for e in sampler._sink.events if e.event == "inject"}
            )
        assert keeps[0] != keeps[1]

    def test_rate_bounds_validated(self):
        with pytest.raises(ValueError):
            SamplingTracer(RecordingTracer(), rate=1.5)
        with pytest.raises(ValueError):
            SamplingTracer(RecordingTracer(), rate=-0.1)

    def test_rate_one_keeps_everything(self):
        sampler = SamplingTracer(RecordingTracer(), rate=1.0, seed=0)
        for mid in range(50):
            _drive_clean(sampler, mid)
        assert sampler.kept_sampled == 50
        assert sampler.suppressed_events == 0

    def test_rate_zero_suppresses_clean_traffic(self):
        sampler = SamplingTracer(RecordingTracer(), rate=0.0, seed=0)
        for mid in range(50):
            _drive_clean(sampler, mid)
        assert sampler.kept_sampled == 0
        assert sampler._sink.events == []


class TestAnomalyRetention:
    def _suppressed_id(self, sampler):
        mid = 0
        while sampler._keep(mid):
            mid += 1
        return mid

    def test_drop_promotes_with_synthetic_inject(self):
        sampler = SamplingTracer(RecordingTracer(), rate=0.0, seed=3)
        mid = self._suppressed_id(sampler)
        sampler.inject(mid, 4, 8, time=1.5)
        sampler.hop(mid, 4, 5, 0, time=2.0)
        sampler.drop(mid, 5, "LINK_DOWN", time=3.0)
        events = sampler._sink.events
        assert [e.event for e in events] == ["inject", "drop"]
        # The synthetic inject replays the breadcrumb facts.
        assert events[0].source == 4
        assert events[0].destination == 8
        assert events[0].time == 1.5
        # And the drop chains to it.
        assert events[1].parent == events[0].seq
        assert sampler.promoted == 1
        assert sampler.summary()["slo_breaches"] == 0

    def test_retry_promotes_then_streams(self):
        sampler = SamplingTracer(RecordingTracer(), rate=0.0, seed=3)
        mid = self._suppressed_id(sampler)
        sampler.inject(mid, 1, 7, time=0.0)
        sampler.retry(mid, 1, attempt=1, time=2.0, reason="LINK_DOWN")
        sampler.hop(mid, 1, 2, 0, time=3.0, attempt=1)
        sampler.deliver(mid, 7, time=4.0, attempt=1)
        assert [e.event for e in sampler._sink.events] == [
            "inject", "retry", "hop", "deliver",
        ]

    def test_stale_delivery_promotes(self):
        sampler = SamplingTracer(RecordingTracer(), rate=0.0, seed=3)
        mid = self._suppressed_id(sampler)
        sampler.inject(mid, 2, 6, time=0.0)
        sampler.hop(mid, 2, 6, 0, time=1.0)
        sampler.deliver(mid, 6, time=2.0, detail="stale")
        events = sampler._sink.events
        assert [e.event for e in events] == ["inject", "deliver"]
        assert events[-1].detail == "stale"
        assert sampler.promoted == 1

    def test_clean_delivery_stays_suppressed(self):
        sampler = SamplingTracer(RecordingTracer(), rate=0.0, seed=3)
        mid = self._suppressed_id(sampler)
        _drive_clean(sampler, mid)
        assert sampler._sink.events == []
        assert sampler.promoted == 0

    def test_anomaly_without_inject_flags_slo(self):
        sampler = SamplingTracer(RecordingTracer(), rate=0.0, seed=3)
        mid = self._suppressed_id(sampler)
        sampler.drop(mid, 5, "NODE_DOWN", time=1.0)
        events = [e.event for e in sampler._sink.events]
        assert "slo" in events
        assert sampler.summary()["slo_breaches"] == 1

    def test_control_plane_always_passes(self):
        sampler = SamplingTracer(RecordingTracer(), rate=0.0, seed=3)
        sampler.fault(kind="link_down", subject=("link", "1", "2"), time=0.5)
        sampler.corrupt(3, time=1.0, detail="BIT_FLIP")
        assert [e.event for e in sampler._sink.events] == ["fault", "corrupt"]


class TestEngineProtocol:
    def test_wants_is_memoised_and_tallied(self):
        sampler = SamplingTracer(RecordingTracer(), rate=0.5, seed=11)
        first = [sampler.wants(mid) for mid in range(100)]
        again = [sampler.wants(mid) for mid in range(100)]
        assert first == again
        assert sampler.messages == 100  # re-queries don't recount
        assert sampler.kept_sampled == sum(first)

    def test_promote_emits_synthetic_inject_once(self):
        sampler = SamplingTracer(RecordingTracer(), rate=0.0, seed=3)
        assert not sampler.wants(7)
        sampler.promote(7, 1, 9, inject_time=0.25)
        sampler.promote(7, 1, 9, inject_time=0.25)  # idempotent
        events = sampler._sink.events
        assert [e.event for e in events] == ["inject"]
        assert events[0].time == 0.25
        assert sampler.promoted == 1
        # Later spans now stream.
        sampler.hop(7, 1, 2, 0, time=0.5)
        assert sampler._sink.events[-1].event == "hop"

    def test_base_tracer_wants_everything(self):
        tracer = RecordingTracer()
        assert tracer.wants(42)
        tracer.promote(42, 0, 1)  # no-op, must not emit
        assert tracer.events == []

    def test_kernel_streams_promoted_messages_to_the_end(self):
        """After its first retry a promoted message's spans are all kept."""
        from repro.core import build_scheme
        from repro.graphs import gnp_random_graph
        from repro.models import Knowledge, Labeling, RoutingModel
        from repro.simulator import BatchKernel, RetryPolicy, flapping_links

        graph = gnp_random_graph(20, seed=5)
        scheme = build_scheme(
            "full-table", graph, RoutingModel(Knowledge.II, Labeling.ALPHA)
        )
        schedule = flapping_links(
            graph, 30, period=4.0, duty=0.5, horizon=30.0, seed=2
        )
        tail = {}
        for name, tracer in (
            ("full", RecordingTracer()),
            ("sampled", SamplingTracer(RecordingTracer(), rate=0.0, seed=3)),
        ):
            kernel = BatchKernel(
                scheme,
                fault_schedule=schedule,
                retry_policy=RetryPolicy(max_attempts=3, base_delay=0.5),
                retry_seed=9,
                tracer=tracer,
            )
            for mid in range(120):
                kernel.inject(1 + mid % 20, 1 + (mid * 7 + 3) % 20, mid / 4)
            kernel.run()
            sink = tracer._sink if name == "sampled" else tracer
            spans = {}
            for event in sink.events:
                if event.msg_id is not None:
                    spans.setdefault(event.msg_id, []).append(event)
            tail[name] = {
                mid: [
                    (e.event, e.node, e.next_node, e.hop, e.attempt, e.time)
                    for e in events[
                        [e.event for e in events].index("retry"):
                    ]
                ]
                for mid, events in spans.items()
                if any(e.event == "retry" for e in events)
            }
        assert tail["sampled"]
        assert tail["sampled"] == tail["full"]
        for events in tail["sampled"].values():
            assert events[-1][0] in ("deliver", "drop")


class TestClose:
    def test_close_emits_sample_summary(self):
        sampler = SamplingTracer(RecordingTracer(), rate=0.0, seed=3)
        for mid in range(10):
            _drive_clean(sampler, mid)
        sampler.close(time=9.0)
        last = sampler._sink.events[-1]
        assert last.event == "sample"
        assert "messages=10" in last.detail
        assert "rate=0.0" in last.detail

    def test_close_is_idempotent(self):
        sampler = SamplingTracer(RecordingTracer(), rate=0.0, seed=3)
        sampler.close()
        sampler.close()
        assert [e.event for e in sampler._sink.events] == ["sample"]

    def test_close_reports_slo_breaches(self):
        sampler = SamplingTracer(RecordingTracer(), rate=0.0, seed=3)
        sampler.drop(5, 1, "NODE_DOWN", time=1.0)  # no breadcrumb
        sampler.close()
        assert [e.event for e in sampler._sink.events].count("slo") == 2


class TestRingBuffer:
    def test_bounded_retention(self):
        ring = RingBufferTracer(capacity=5)
        for mid in range(12):
            ring.inject(mid, 0, 1)
        assert ring.seen == 12
        assert len(ring.events) == 5
        assert [e.msg_id for e in ring.events] == list(range(7, 12))

    def test_events_for_filters_by_message(self):
        ring = RingBufferTracer(capacity=10)
        _drive_clean(ring, 1, hops=2)
        _drive_clean(ring, 2, hops=1)
        assert all(e.msg_id == 1 for e in ring.events_for(1))
        assert len(ring.events_for(2)) == 3

    def test_capacity_validated(self):
        with pytest.raises(ValueError):
            RingBufferTracer(capacity=0)

    def test_as_sampler_sink(self):
        sampler = SamplingTracer(RingBufferTracer(capacity=8), rate=1.0)
        for mid in range(4):
            _drive_clean(sampler, mid, hops=1)
        assert sampler._sink.seen == 12
        assert len(sampler._sink.events) == 8
