"""Summarise a hop-level JSONL trace: the ``repro trace-report`` backend.

Answers the questions the aggregate :class:`RoutingMetrics` cannot:

* **hot nodes** — which nodes forwarded the most traffic;
* **hop latency percentiles** — distribution of per-hop end-to-end cost
  (queue wait + service + wire) from the timed kernel's hop durations;
* **fault-window attribution** — for every drop, whether a traced fault
  window (link/node down interval) was active on the failed subject at
  drop time, and which fault subjects caused the most drops.

The attribution invariant backing the acceptance criterion: every ``drop``
event carries a ``DropReason`` name, and drops whose subject was inside an
active fault window are attributed to it; the remainder are reported as
unattributed (hop-limit loops, scheme bugs, pre-existing static failures).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Sequence, Tuple

from repro.observability.tracer import TraceEvent

__all__ = ["TraceSummary", "summarize_trace", "format_trace_report"]

_DOWN_KINDS = frozenset({"link down", "node down"})
_UP_KINDS = frozenset({"link up", "node up"})


def _percentile(samples: Sequence[float], q: float) -> float:
    """Nearest-rank percentile; sorts internally (input order is free)."""
    if not samples:
        return math.nan
    ordered = sorted(samples)
    rank = max(int(math.ceil(q / 100.0 * len(ordered))) - 1, 0)
    return ordered[min(rank, len(ordered) - 1)]


@dataclass
class TraceSummary:
    """Everything ``repro trace-report`` prints, as plain data."""

    events: int = 0
    messages: int = 0
    """Distinct messages injected."""
    injections: int = 0
    """Inject events including retries' re-injections."""
    delivered: int = 0
    dropped: int = 0
    retries: int = 0
    faults: int = 0
    hops: int = 0
    hot_nodes: List[Tuple[int, int]] = field(default_factory=list)
    """``(node, forwards)`` sorted by forwards, descending."""
    hop_latency_percentiles: Dict[str, float] = field(default_factory=dict)
    """p50/p90/p99/max of hop durations (empty when no hop carries one)."""
    corruptions: int = 0
    """Table-corruption events (``corrupt`` spans)."""
    quarantines: int = 0
    """Detections: nodes quarantined after an integrity failure."""
    heals: int = 0
    """Tables rebuilt pristine (self-heal or scheduled re-push)."""
    drops_by_reason: Dict[str, int] = field(default_factory=dict)
    drops_attributed: int = 0
    """Drops whose failed subject was inside an active fault window."""
    drops_unattributed: int = 0
    drops_by_fault_subject: List[Tuple[str, int]] = field(default_factory=list)
    """``("link 3-7", count)`` per fault subject, sorted descending."""
    span_violations: int = 0
    """Messages whose event sequence was malformed (diagnostic; expect 0)."""

    def to_dict(self) -> dict:
        """JSON-ready view (``repro trace-report --json``)."""
        percentiles = {
            key: (None if math.isnan(value) else value)
            for key, value in self.hop_latency_percentiles.items()
        }
        return {
            "events": self.events,
            "messages": self.messages,
            "injections": self.injections,
            "delivered": self.delivered,
            "dropped": self.dropped,
            "retries": self.retries,
            "faults": self.faults,
            "hops": self.hops,
            "corruptions": self.corruptions,
            "quarantines": self.quarantines,
            "heals": self.heals,
            "hot_nodes": [list(pair) for pair in self.hot_nodes],
            "hop_latency_percentiles": percentiles,
            "drops_by_reason": dict(self.drops_by_reason),
            "drops_attributed": self.drops_attributed,
            "drops_unattributed": self.drops_unattributed,
            "drops_by_fault_subject": [
                list(pair) for pair in self.drops_by_fault_subject
            ],
            "span_violations": self.span_violations,
        }


def _subject_text(subject: Sequence[str]) -> str:
    if subject and subject[0] == "link" and len(subject) == 3:
        return f"link {subject[1]}-{subject[2]}"
    if subject and subject[0] == "node" and len(subject) == 2:
        return f"node {subject[1]}"
    return " ".join(subject)


def _check_span_order(events: List[TraceEvent]) -> int:
    """Count messages whose span sequence is malformed.

    A well-formed message span is, per attempt: one ``inject`` (attempt 0)
    or implicit re-injection (``retry``), then hops, then at most one
    terminal ``deliver``/``drop`` — with tracer sequence numbers strictly
    increasing along the way.
    """
    per_message: Dict[int, List[TraceEvent]] = {}
    for event in events:
        if event.msg_id is not None:
            per_message.setdefault(event.msg_id, []).append(event)
    violations = 0
    for msg_events in per_message.values():
        ordered = sorted(msg_events, key=lambda e: e.seq)
        ok = True
        if ordered[0].event not in ("inject",):
            ok = False
        terminal_seen = False
        for event in ordered:
            if terminal_seen and event.event in ("hop", "deliver"):
                ok = False
            if event.event == "deliver":
                terminal_seen = True
            elif event.event in ("drop", "retry"):
                # a retry re-opens the span; a final drop closes it
                terminal_seen = event.event == "drop"
        if not ok:
            violations += 1
    return violations


def summarize_trace(events: Sequence[TraceEvent], top: int = 10) -> TraceSummary:
    """Aggregate a trace (any order) into a :class:`TraceSummary`."""
    summary = TraceSummary(events=len(events))
    ordered = sorted(events, key=lambda e: (e.time, e.seq))
    forwards: Dict[int, int] = {}
    durations: List[float] = []
    message_ids = set()
    down: Dict[Tuple[str, ...], float] = {}
    subject_drops: Dict[Tuple[str, ...], int] = {}
    for event in ordered:
        if event.event == "inject":
            summary.injections += 1
            if event.msg_id is not None:
                message_ids.add(event.msg_id)
        elif event.event == "hop":
            summary.hops += 1
            if event.node is not None:
                forwards[event.node] = forwards.get(event.node, 0) + 1
            if event.duration is not None:
                durations.append(event.duration)
        elif event.event == "retry":
            summary.retries += 1
        elif event.event == "fault":
            summary.faults += 1
            kind = (event.reason or "").lower()
            if event.subject is not None:
                if kind in _DOWN_KINDS:
                    down[tuple(event.subject)] = event.time
                elif kind in _UP_KINDS:
                    down.pop(tuple(event.subject), None)
        elif event.event == "corrupt":
            # A corrupt table opens a fault-attribution window on the node
            # exactly like a node-down event; heal closes it.
            summary.corruptions += 1
            if event.subject is not None:
                down[tuple(event.subject)] = event.time
        elif event.event == "quarantine":
            summary.quarantines += 1
        elif event.event == "heal":
            summary.heals += 1
            if event.subject is not None:
                down.pop(tuple(event.subject), None)
        elif event.event == "deliver":
            summary.delivered += 1
        elif event.event == "drop":
            summary.dropped += 1
            reason = event.reason or "UNKNOWN"
            summary.drops_by_reason[reason] = (
                summary.drops_by_reason.get(reason, 0) + 1
            )
            subject = tuple(event.subject) if event.subject else None
            if subject is not None and subject in down:
                summary.drops_attributed += 1
                subject_drops[subject] = subject_drops.get(subject, 0) + 1
            else:
                summary.drops_unattributed += 1
    summary.messages = len(message_ids)
    summary.hot_nodes = sorted(
        forwards.items(), key=lambda kv: (-kv[1], kv[0])
    )[:top]
    durations.sort()
    if durations:
        summary.hop_latency_percentiles = {
            "p50": _percentile(durations, 50),
            "p90": _percentile(durations, 90),
            "p99": _percentile(durations, 99),
            "max": durations[-1],
        }
    summary.drops_by_fault_subject = [
        (_subject_text(subject), count)
        for subject, count in sorted(
            subject_drops.items(), key=lambda kv: (-kv[1], kv[0])
        )
    ][:top]
    summary.span_violations = _check_span_order(list(events))
    return summary


def format_trace_report(summary: TraceSummary) -> str:
    """Human-readable rendering of a :class:`TraceSummary`."""
    lines = [
        f"trace: {summary.events} events, {summary.messages} messages "
        f"({summary.injections} injections incl. retries)",
        f"outcomes: {summary.delivered} delivered, {summary.dropped} "
        f"dropped, {summary.retries} retries, {summary.faults} fault events",
        f"hops: {summary.hops}",
    ]
    if summary.corruptions or summary.quarantines or summary.heals:
        lines.append(
            f"table corruption: {summary.corruptions} corrupted, "
            f"{summary.quarantines} quarantined, {summary.heals} healed"
        )
    if summary.hop_latency_percentiles:
        p = summary.hop_latency_percentiles
        lines.append(
            "hop latency: "
            f"p50 {p['p50']:.2f}  p90 {p['p90']:.2f}  "
            f"p99 {p['p99']:.2f}  max {p['max']:.2f}"
        )
    if summary.hot_nodes:
        hot = "  ".join(f"{node} ({count}x)" for node, count in summary.hot_nodes)
        lines.append(f"hot nodes: {hot}")
    if summary.dropped:
        lines.append(
            f"drops: {summary.drops_attributed} inside a traced fault "
            f"window, {summary.drops_unattributed} unattributed"
        )
        for reason, count in sorted(
            summary.drops_by_reason.items(), key=lambda kv: (-kv[1], kv[0])
        ):
            lines.append(f"  {reason}: {count}")
        if summary.drops_by_fault_subject:
            worst = "  ".join(
                f"{text} ({count} drops)"
                for text, count in summary.drops_by_fault_subject
            )
            lines.append(f"fault attribution: {worst}")
    if summary.span_violations:
        lines.append(
            f"WARNING: {summary.span_violations} malformed message spans"
        )
    return "\n".join(lines)
