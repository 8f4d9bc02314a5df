"""Aggregate metrics over simulated deliveries.

Besides the classic delivery/stretch statistics this module reports the
resilience quantities the chaos experiments sweep over: retry counts,
time-to-delivery including backoff, and the per-:class:`DropReason`
breakdown of everything that did not arrive.

Every aggregate is one numpy pass over a record sequence's columns: a
:class:`~repro.simulator.message.DeliveryRecords` view lends its batch's
arrays as they are, and any other sequence is read field by field once,
so no record object is built to be folded back into a mean.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Optional, Sequence

import numpy as np

from repro.graphs import LabeledGraph, get_context
from repro.observability.profiling import profile_section
from repro.observability.registry import get_registry
from repro.simulator.message import (
    DROP_REASON_BY_CODE,
    DROP_REASON_CODES,
    NO_DROP,
    DeliveryRecord,
    DeliveryRecords,
    DropReason,
)

__all__ = [
    "RoutingMetrics",
    "drop_breakdown",
    "retry_histogram",
    "summarize",
]


@dataclass(frozen=True)
class RoutingMetrics:
    """Delivery, stretch and resilience statistics of one message batch."""

    messages: int
    delivered: int
    mean_hops: float
    mean_stretch: float
    max_stretch: float
    p95_stretch: float
    mean_latency: float
    drop_reasons: Dict[DropReason, int]
    total_retries: int = 0
    """Re-transmissions summed over all messages (delivered or not)."""
    mean_retries: float = 0.0
    """Mean re-transmissions per message."""
    mean_time_to_delivery: float = math.nan
    """Mean time of *delivered* messages from first injection to arrival,
    inclusive of retry backoff — computed from the records' own
    ``injected_at``/``completed_at`` timestamps.  For records without
    timestamps it falls back to ``mean_latency``, to which it is
    identical whenever no retries occurred."""
    stale_deliveries: int = 0
    """Delivered messages that made at least one hop decision on tables
    not yet repaired after a topology mutation (correct destination,
    possibly detoured route) — the churn convergence layer's staleness
    count."""

    @property
    def delivered_fraction(self) -> float:
        """Share of messages that reached their destination."""
        if self.messages == 0:
            return 0.0
        return self.delivered / self.messages

    def to_dict(self) -> Dict[str, object]:
        """JSON-ready view (NaN mapped to ``None``, reasons by name)."""

        def _num(value: float) -> Optional[float]:
            return None if isinstance(value, float) and math.isnan(value) else value

        return {
            "messages": self.messages,
            "delivered": self.delivered,
            "delivered_fraction": self.delivered_fraction,
            "mean_hops": _num(self.mean_hops),
            "mean_stretch": _num(self.mean_stretch),
            "max_stretch": _num(self.max_stretch),
            "p95_stretch": _num(self.p95_stretch),
            "mean_latency": _num(self.mean_latency),
            "mean_time_to_delivery": _num(self.mean_time_to_delivery),
            "total_retries": self.total_retries,
            "mean_retries": self.mean_retries,
            "stale_deliveries": self.stale_deliveries,
            "drop_breakdown": {
                reason.name: count
                for reason, count in sorted(self.drop_reasons.items())
            },
        }


@dataclass(frozen=True)
class _Columns:
    """A record sequence as parallel arrays, in row order."""

    source: np.ndarray
    destination: np.ndarray
    delivered: np.ndarray
    hops: np.ndarray
    latency: np.ndarray
    injected: np.ndarray
    completed: np.ndarray
    retries: np.ndarray
    stale: np.ndarray
    drop_code: np.ndarray
    """:data:`~repro.simulator.message.NO_DROP` where the record has no
    drop reason."""

    def drops(self) -> Dict[DropReason, int]:
        """Undelivered rows per reason (none given counts as ``NO_ROUTE``),
        keyed in order of first occurrence."""
        codes = self.drop_code[~self.delivered]
        codes = np.where(
            codes == NO_DROP, DROP_REASON_CODES[DropReason.NO_ROUTE], codes
        )
        return {
            DROP_REASON_BY_CODE[code]: count
            for code, count in _tally(codes).items()
        }


def _columns(records: Sequence[DeliveryRecord]) -> _Columns:
    """The columns of ``records``: a view's arrays as they are, or every
    field of a plain sequence read once."""
    if isinstance(records, DeliveryRecords):
        batch = records.batch
        return _Columns(
            source=batch.source,
            destination=batch.destination,
            delivered=batch.delivered,
            hops=np.maximum(batch.plen - 1, 0).astype(np.int64),
            latency=batch.completed - batch.injected,
            injected=batch.injected,
            completed=batch.completed,
            retries=batch.attempt,
            stale=batch.stale,
            drop_code=batch.drop_code,
        )
    return _Columns(
        source=np.array([r.source for r in records], dtype=np.int64),
        destination=np.array([r.destination for r in records], dtype=np.int64),
        delivered=np.array([r.delivered for r in records], dtype=bool),
        hops=np.array([r.hops for r in records], dtype=np.int64),
        latency=np.array([r.latency for r in records], dtype=np.float64),
        injected=np.array([r.injected_at for r in records], dtype=np.float64),
        completed=np.array([r.completed_at for r in records], dtype=np.float64),
        retries=np.array([r.retries for r in records], dtype=np.int64),
        stale=np.array([r.stale for r in records], dtype=bool),
        drop_code=np.array(
            [
                NO_DROP if r.drop_reason is None
                else DROP_REASON_CODES[r.drop_reason]
                for r in records
            ],
            dtype=np.int64,
        ),
    )


def _tally(values: np.ndarray) -> Dict[int, int]:
    """Occurrences of each value, keyed in order of first occurrence."""
    keys, first, counts = np.unique(
        values, return_index=True, return_counts=True
    )
    order = np.argsort(first)
    return dict(zip(keys[order].tolist(), counts[order].tolist()))


def drop_breakdown(
    records: Sequence[DeliveryRecord],
) -> Dict[DropReason, int]:
    """Count undelivered records per structured :class:`DropReason`."""
    return _columns(records).drops()


def retry_histogram(
    records: Sequence[DeliveryRecord],
) -> Dict[int, int]:
    """How many messages needed 0, 1, 2, ... re-transmissions."""
    return _tally(_columns(records).retries)


def summarize(
    records: Sequence[DeliveryRecord], graph: LabeledGraph
) -> RoutingMetrics:
    """Compute metrics; stretch is hops over graph distance per pair."""
    with profile_section("simulator.summarize"):
        dist = get_context(graph).distances()
        columns = _columns(records)
        messages = len(records)
        delivered = columns.delivered
        delivered_count = int(np.count_nonzero(delivered))
        none_delivered = delivered_count == 0
        total_retries = int(columns.retries.sum())
        stale_deliveries = int(np.count_nonzero(columns.stale & delivered))
        hops = columns.hops[delivered]
        shortest = dist[
            columns.source[delivered] - 1, columns.destination[delivered] - 1
        ]
        stretches = np.divide(
            hops, shortest, out=np.ones(len(hops)), where=shortest > 0
        )
        mean_latency = (
            math.nan if none_delivered
            else float(np.mean(columns.latency[delivered]))
        )
        # Timestamped records measure injection-to-arrival directly; records
        # without timestamps fall back to the latency alias.
        stamped = (
            delivered
            & ~np.isnan(columns.injected)
            & ~np.isnan(columns.completed)
        )
        times_to_delivery = columns.completed[stamped] - columns.injected[stamped]
        mean_ttd = (
            float(np.mean(times_to_delivery))
            if len(times_to_delivery)
            else mean_latency
        )
        registry = get_registry()
        registry.counter("repro_messages_routed_total").inc(messages)
        registry.counter("repro_messages_delivered_total").inc(delivered_count)
        registry.counter("repro_retries_total").inc(total_retries)
        if stale_deliveries:
            registry.counter("repro_stale_deliveries_total").inc(stale_deliveries)
        breakdown = columns.drops()
        for reason, count in breakdown.items():
            registry.counter("repro_drops_total", reason=reason.name).inc(count)
        return RoutingMetrics(
            messages=messages,
            delivered=delivered_count,
            mean_hops=math.nan if none_delivered else float(np.mean(hops)),
            mean_stretch=(
                math.nan if none_delivered else float(np.mean(stretches))
            ),
            max_stretch=math.nan if none_delivered else float(np.max(stretches)),
            p95_stretch=(
                math.nan if none_delivered
                else float(np.percentile(stretches, 95))
            ),
            mean_latency=mean_latency,
            drop_reasons=breakdown,
            total_retries=total_retries,
            mean_retries=total_retries / messages if messages else 0.0,
            mean_time_to_delivery=mean_ttd,
            stale_deliveries=stale_deliveries,
        )
