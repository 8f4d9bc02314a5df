"""Trace I/O round-trips: unicode, causal links, manifests, torn writes."""

from __future__ import annotations

import json

import pytest

from repro.observability import (
    JsonlTracer,
    RecordingTracer,
    RunManifest,
    TraceDecodeError,
    TraceEvent,
    iter_trace,
    load_events,
    read_trace,
    read_trace_manifest,
)


def _write_trace(path, manifest=None):
    tracer = JsonlTracer(path, manifest=manifest)
    inject = tracer.inject(1, 0, 5, time=0.0)
    hop = tracer.hop(1, 0, 3, 0, time=0.5)
    tracer.deliver(1, 5, time=1.0, hop=1)
    tracer.close()
    return inject, hop


class TestRoundTrip:
    def test_events_and_links_survive(self, tmp_path):
        path = tmp_path / "t.jsonl"
        inject_seq, hop_seq = _write_trace(path)
        events = read_trace(path)
        assert [e.event for e in events] == ["inject", "hop", "deliver"]
        assert events[1].parent == inject_seq
        assert events[2].parent == hop_seq

    def test_unicode_payloads(self, tmp_path):
        path = tmp_path / "t.jsonl"
        tracer = JsonlTracer(path)
        tracer.drop(
            1, 3, "LINK_DOWN", time=1.0,
            detail="связь → ∅ (café “quote”)",
            subject=("link", "1", "3"),
        )
        tracer.close()
        events = read_trace(path)
        assert events[0].detail == "связь → ∅ (café “quote”)"
        assert events[0].subject == ("link", "1", "3")

    def test_cause_links_survive(self, tmp_path):
        path = tmp_path / "t.jsonl"
        tracer = JsonlTracer(path)
        corrupt = tracer.corrupt(4, time=1.0, detail="BIT_FLIP")
        tracer.quarantine(4, time=2.0, cause=corrupt)
        tracer.close()
        events = read_trace(path)
        assert events[1].cause == corrupt

    def test_iter_trace_streams_same_events(self, tmp_path):
        path = tmp_path / "t.jsonl"
        _write_trace(path, manifest=RunManifest.capture("build"))
        assert list(iter_trace(path)) == read_trace(path)

    def test_none_fields_elided_in_rows(self, tmp_path):
        path = tmp_path / "t.jsonl"
        _write_trace(path)
        first = json.loads(path.read_text().splitlines()[0])
        assert "reason" not in first
        assert "cause" not in first


class TestManifestRow:
    def test_manifest_written_first_and_recoverable(self, tmp_path):
        path = tmp_path / "t.jsonl"
        manifest = RunManifest.capture("simulate", seed=9)
        _write_trace(path, manifest=manifest)
        first = json.loads(path.read_text().splitlines()[0])
        assert set(first) == {"manifest"}
        assert read_trace_manifest(path) == manifest

    def test_readers_skip_the_manifest_row(self, tmp_path):
        path = tmp_path / "t.jsonl"
        _write_trace(path, manifest=RunManifest.capture("simulate"))
        assert [e.event for e in read_trace(path)] == [
            "inject", "hop", "deliver",
        ]

    def test_manifest_row_not_counted_as_written(self, tmp_path):
        path = tmp_path / "t.jsonl"
        tracer = JsonlTracer(path, manifest=RunManifest.capture("build"))
        tracer.close()
        assert tracer.written == 0

    def test_manifest_less_trace_reads_fine(self, tmp_path):
        path = tmp_path / "t.jsonl"
        _write_trace(path)
        assert read_trace_manifest(path) is None
        assert len(read_trace(path)) == 3


class TestTornWrites:
    def test_truncated_final_line_names_the_location(self, tmp_path):
        path = tmp_path / "t.jsonl"
        _write_trace(path)
        whole = path.read_text()
        path.write_text(whole[:-20])  # tear the last row mid-object
        with pytest.raises(TraceDecodeError) as err:
            read_trace(path)
        assert err.value.line == 3
        assert err.value.source.endswith("t.jsonl")
        assert "not valid JSON" in err.value.problem

    def test_iter_trace_raises_on_torn_row_too(self, tmp_path):
        path = tmp_path / "t.jsonl"
        _write_trace(path)
        path.write_text(path.read_text()[:-20])
        with pytest.raises(TraceDecodeError):
            list(iter_trace(path))

    def test_non_object_row_rejected(self):
        with pytest.raises(TraceDecodeError, match="expected an object"):
            load_events(['[1, 2, 3]'])

    def test_unknown_shape_rejected(self):
        with pytest.raises(TraceDecodeError, match="neither"):
            load_events(['{"foo": 1}'])

    def test_unknown_event_key_rejected(self):
        row = json.dumps({"event": "hop", "seq": 1, "warp": 9})
        with pytest.raises(TraceDecodeError, match="bad trace event"):
            load_events([row])

    def test_blank_lines_skipped(self):
        rows = ["", json.dumps(TraceEvent("inject", seq=0).to_dict()), "  "]
        assert len(load_events(rows)) == 1


class TestRecordingParentChain:
    def test_retry_chain_reuses_message_parent(self):
        tracer = RecordingTracer()
        inject = tracer.inject(7, 0, 3, time=0.0)
        retry = tracer.retry(7, 0, attempt=1, time=1.0, reason="LINK_DOWN")
        hop = tracer.hop(7, 0, 1, 0, time=1.5, attempt=1)
        deliver = tracer.deliver(7, 3, time=2.0, attempt=1)
        by_seq = {e.seq: e for e in tracer.events}
        assert by_seq[retry].parent == inject
        assert by_seq[hop].parent == retry
        assert by_seq[deliver].parent == hop

    def test_terminal_event_closes_the_chain(self):
        tracer = RecordingTracer()
        tracer.inject(1, 0, 2)
        tracer.deliver(1, 2)
        fresh = tracer.inject(1, 0, 2)  # msg_id reuse starts a new tree
        assert tracer.events[-1].parent is None
        assert tracer.events[-1].seq == fresh
