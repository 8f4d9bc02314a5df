"""Tests for sampled tracing, driven through its one emitter, the kernel.

The oracle: run a kernel workload once under a full
:class:`RecordingTracer` and once under a :class:`SamplingTracer`.  A
message the seeded coin keeps shows its full trace; a message that turns
anomalous (retry, drop, stale delivery) shows a synthetic inject and
then its full trace from the first anomaly on; any other message shows
nothing.
"""

from __future__ import annotations

import functools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import build_scheme
from repro.graphs import gnp_random_graph
from repro.models import Knowledge, Labeling, RoutingModel
from repro.observability import RecordingTracer, SamplingTracer
from repro.simulator import BatchKernel, RetryPolicy, flapping_links
from repro.simulator.sweep import SweepTask, build_run

II_ALPHA = RoutingModel(Knowledge.II, Labeling.ALPHA)

# Renewal link and node faults, CRC-8-framed table corruption with
# self-heal, churn of every kind (stale deliveries) and source retries.
_WORKLOAD = dict(
    scheme="full-table", n=20, messages=160, horizon=40.0,
    schedule="renewal", chaos_nodes=2,
    corrupt_nodes=3, framing="crc8", repair_delay=6.0,
    events=3, kinds="all", retries=2,
)
_BURST = 40
"""Rows injected together at t=2.5: one many-row cohort."""


def _run(tracer, seed=0, **overrides):
    """Drain the oracle workload (plus its burst) under ``tracer``."""
    run = build_run(SweepTask(seed=seed, **{**_WORKLOAD, **overrides}), tracer)
    for k in range(_BURST):
        run.kernel.inject(1 + k % 20, 1 + (7 * k + 3) % 20, 2.5)
    return run.kernel.run()


def _clean_kernel(tracer, messages=50):
    """A fault-free kernel: every message is delivered, none anomalous."""
    graph = gnp_random_graph(16, seed=4)
    kernel = BatchKernel(build_scheme("full-table", graph, II_ALPHA), tracer=tracer)
    for k in range(messages):
        kernel.inject(1 + k % 16, 1 + (5 * k + 2) % 16, k / 8)
    return kernel


def _sampled(rate=0.0, **overrides):
    """The oracle workload sampled at ``rate``: the sampler, its sink's
    spans, and those spans grouped per message."""
    sink = RecordingTracer()
    sampler = SamplingTracer(sink, rate=rate, seed=3)
    _run(sampler, **overrides)
    return sampler, sink.events, _by_message(sink.events)


def _span(event):
    return (
        event.event, event.source, event.destination, event.node,
        event.next_node, event.hop, event.attempt, event.time,
        event.reason, event.detail,
    )


def _by_message(events):
    spans = {}
    for event in events:
        if event.msg_id is not None:
            spans.setdefault(event.msg_id, []).append(_span(event))
    return spans


def _control_plane(events):
    return [
        (event.event, event.node, event.reason, event.detail,
         event.subject, event.time)
        for event in events
        if event.msg_id is None and event.event != "sample"
    ]


def _first_anomaly(spans):
    """Index of a message's first retry, drop or stale delivery, or None."""
    for index, span in enumerate(spans):
        if span[0] in ("retry", "drop") or (
            span[0] == "deliver" and span[-1] == "stale"
        ):
            return index
    return None


@functools.lru_cache(maxsize=None)
def _full_trace(seed, retries=_WORKLOAD["retries"]):
    tracer = RecordingTracer()
    records = _run(tracer, seed, retries=retries)
    return records, tuple(tracer.events)


def _check_oracle(seed, rate, sampler_seed, retries=_WORKLOAD["retries"]):
    """Compare one sampled run with the full trace; return the tallies."""
    full_records, full_events = _full_trace(seed, retries)
    sink = RecordingTracer()
    sampler = SamplingTracer(sink, rate=rate, seed=sampler_seed)
    assert _run(sampler, seed, retries=retries) == full_records
    full = _by_message(full_events)
    sampled = _by_message(sink.events)
    coin = SamplingTracer(RecordingTracer(), rate=rate, seed=sampler_seed)
    outcome = {"kept": 0, "promoted": 0, "silent": 0}
    for msg_id, spans in full.items():
        anomaly = _first_anomaly(spans)
        if coin.wants(msg_id):
            assert sampled[msg_id] == spans
            outcome["kept"] += 1
        elif anomaly is not None:
            assert sampled[msg_id] == [spans[0]] + spans[anomaly:]
            outcome["promoted"] += 1
        else:
            assert msg_id not in sampled
            outcome["silent"] += 1
    assert set(sampled) <= set(full)
    assert _control_plane(sink.events) == _control_plane(full_events)
    assert sampler.messages == len(full)
    assert sampler.kept_sampled == outcome["kept"]
    assert sampler.promoted == outcome["promoted"]
    return outcome


class TestOracle:
    @pytest.mark.parametrize("retries", [0, 2])
    @pytest.mark.parametrize("rate", [0.0, 0.05, 0.3, 1.0])
    def test_sampled_trace_is_the_full_trace_filtered(self, rate, retries):
        outcome = _check_oracle(0, rate, 3, retries)
        if rate == 0.0:
            assert outcome["kept"] == 0
        if rate == 1.0:
            assert outcome["kept"] == _WORKLOAD["messages"] + _BURST
        else:
            assert outcome["promoted"] > 0 and outcome["silent"] > 0

    def test_the_workload_has_every_anomaly(self):
        firsts = set()
        for retries in (0, 2):
            _, events = _full_trace(0, retries)
            firsts.update(
                spans[_first_anomaly(spans)][0]
                for spans in _by_message(events).values()
                if _first_anomaly(spans) is not None
            )
        assert firsts == {"retry", "drop", "deliver"}
        planes = {span[0] for span in _control_plane(events)}
        assert {"fault", "corrupt", "quarantine", "heal", "mutate",
                "repair", "converged"} <= planes

    @given(
        seed=st.integers(0, 3),
        rate=st.sampled_from((0.0, 0.01, 0.1, 0.5, 1.0)),
        sampler_seed=st.integers(0, 2**16),
        retries=st.sampled_from((0, 2)),
    )
    @settings(max_examples=12)
    def test_oracle_property(self, seed, rate, sampler_seed, retries):
        _check_oracle(seed, rate, sampler_seed, retries)


class TestDeterminism:
    def test_same_seed_same_keeps(self):
        streams = []
        for _ in range(2):
            sink = RecordingTracer()
            sampler = SamplingTracer(sink, rate=0.2, seed=13)
            _run(sampler)
            streams.append([_span(e) for e in sink.events])
            assert 0 < sampler.kept_sampled < sampler.messages
        assert streams[0] == streams[1]

    def test_different_seeds_differ(self):
        first = [SamplingTracer(RecordingTracer(), 0.2, 1).wants(m)
                 for m in range(200)]
        second = [SamplingTracer(RecordingTracer(), 0.2, 2).wants(m)
                  for m in range(200)]
        assert first != second

    def test_rate_bounds_validated(self):
        with pytest.raises(ValueError):
            SamplingTracer(RecordingTracer(), rate=1.5)
        with pytest.raises(ValueError):
            SamplingTracer(RecordingTracer(), rate=-0.1)

    def test_rate_one_keeps_everything(self):
        sink = RecordingTracer()
        sampler = SamplingTracer(sink, rate=1.0, seed=0)
        _run(sampler)
        full = _full_trace(0)[1]
        assert sampler.kept_sampled == sampler.messages == 160 + _BURST
        assert sampler.summary()["suppressed"] == 0
        assert [_span(e) for e in sink.events] == [_span(e) for e in full]

    def test_rate_zero_suppresses_clean_traffic(self):
        sink = RecordingTracer()
        sampler = SamplingTracer(sink, rate=0.0, seed=0)
        _clean_kernel(sampler).run()
        assert sampler.kept_sampled == 0
        assert sampler.messages == 50
        assert sink.events == []


class TestAnomalyRetention:
    def test_drop_promotes_with_synthetic_inject(self):
        sampler, events, spans = _sampled(retries=0)
        dropped = [m for m, s in spans.items() if s[-1][0] == "drop"]
        assert dropped
        full = _by_message(_full_trace(0, retries=0)[1])
        for msg_id in dropped:
            chain = [e for e in events if e.msg_id == msg_id]
            assert [e.event for e in chain] == ["inject", "drop"]
            # The synthetic inject carries the message's inject facts.
            assert _span(chain[0]) == full[msg_id][0]
            # And the drop chains to it.
            assert chain[1].parent == chain[0].seq
        assert sampler.promoted == len(spans)

    def test_retry_promotes_then_streams(self):
        _, _, spans = _sampled()
        retried = [s for s in spans.values() if s[1][0] == "retry"]
        assert retried
        for chain in retried:
            assert chain[0][0] == "inject"
            assert chain[-1][0] in ("deliver", "drop")
            assert all(span[6] >= 1 for span in chain[1:])

    def test_stale_delivery_promotes(self):
        _, _, spans = _sampled()
        stale = [s for s in spans.values() if s[-1][-1] == "stale"]
        assert stale
        assert any([span[0] for span in s] == ["inject", "deliver"]
                   for s in stale)

    def test_clean_delivery_stays_suppressed(self):
        _, _, spans = _sampled()
        full = _by_message(_full_trace(0)[1])
        clean = [m for m, s in full.items() if _first_anomaly(s) is None]
        assert clean
        assert not set(clean) & set(spans)

    def test_control_plane_always_passes(self):
        _, events, _ = _sampled()
        planes = _control_plane(events)
        assert {"fault", "corrupt", "heal", "mutate"} <= {p[0] for p in planes}
        assert planes == _control_plane(_full_trace(0)[1])


class TestEngineProtocol:
    def test_wants_is_seeded_and_tallied(self):
        first = SamplingTracer(RecordingTracer(), rate=0.5, seed=11)
        again = SamplingTracer(RecordingTracer(), rate=0.5, seed=11)
        verdicts = [first.wants(mid) for mid in range(100)]
        assert verdicts == [again.wants(mid) for mid in range(100)]
        assert first.messages == 100
        assert first.kept_sampled == sum(verdicts)
        assert first.summary()["suppressed"] == 100 - sum(verdicts)

    def test_promote_emits_synthetic_inject_once(self):
        sampler, events, spans = _sampled(rate=0.1)
        injects = [e.msg_id for e in events if e.event == "inject"]
        assert len(injects) == len(set(injects)) == len(spans)
        assert sampler.promoted == len(spans) - sampler.kept_sampled > 0

    def test_base_tracer_wants_everything(self):
        tracer = RecordingTracer()
        assert tracer.wants(42)
        tracer.promote(42, 0, 1)  # no-op, must not emit
        assert tracer.events == []

    def test_kernel_streams_promoted_messages_to_the_end(self):
        """After its first retry a promoted message's spans are all kept."""
        graph = gnp_random_graph(20, seed=5)
        scheme = build_scheme("full-table", graph, II_ALPHA)
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
        sink = RecordingTracer()
        sampler = SamplingTracer(sink, rate=0.0, seed=3)
        _clean_kernel(sampler, messages=10).run()
        sampler.close(time=9.0)
        last = sink.events[-1]
        assert last.event == "sample"
        assert "messages=10" in last.detail
        assert "rate=0.0" in last.detail

    def test_close_is_idempotent(self):
        sampler = SamplingTracer(RecordingTracer(), rate=0.0, seed=3)
        sampler.close()
        sampler.close()
        assert [e.event for e in sampler._sink.events] == ["sample"]

    def test_summary_counts_suppressed_messages(self):
        """The kernel never emits a span of a suppressed message, so the
        suppressed tally is the coin's, not a count of span calls."""
        sink = RecordingTracer()
        sampler = SamplingTracer(sink, rate=0.05, seed=3)
        _run(sampler)
        sampler.close()
        summary = sampler.summary()
        suppressed = summary["messages"] - summary["kept_sampled"]
        assert suppressed > summary["promoted"] > 0
        assert summary["suppressed"] == suppressed
        assert f"suppressed={suppressed}" in sink.events[-1].detail
