"""Aggregate metrics over simulated deliveries.

Besides the classic delivery/stretch statistics this module reports the
resilience quantities the chaos experiments sweep over: retry counts,
time-to-delivery including backoff, and the per-:class:`DropReason`
breakdown of everything that did not arrive.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Optional, Sequence

import numpy as np

from repro.graphs import LabeledGraph, get_context
from repro.observability.registry import get_registry
from repro.simulator.message import DeliveryRecord, DropReason

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


def drop_breakdown(
    records: Sequence[DeliveryRecord],
) -> Dict[DropReason, int]:
    """Count undelivered records per structured :class:`DropReason`."""
    drops: Dict[DropReason, int] = {}
    for record in records:
        if record.delivered:
            continue
        reason = record.drop_reason or DropReason.NO_ROUTE
        drops[reason] = drops.get(reason, 0) + 1
    return drops


def retry_histogram(
    records: Sequence[DeliveryRecord],
) -> Dict[int, int]:
    """How many messages needed 0, 1, 2, ... re-transmissions."""
    hist: Dict[int, int] = {}
    for record in records:
        hist[record.retries] = hist.get(record.retries, 0) + 1
    return hist


def summarize(
    records: Sequence[DeliveryRecord], graph: LabeledGraph
) -> RoutingMetrics:
    """Compute metrics; stretch is hops over graph distance per pair."""
    dist = get_context(graph).distances()
    stretches = []
    hops = []
    latencies = []
    times_to_delivery = []
    delivered = 0
    total_retries = 0
    stale_deliveries = 0
    for record in records:
        total_retries += record.retries
        if not record.delivered:
            continue
        delivered += 1
        if record.stale:
            stale_deliveries += 1
        hops.append(record.hops)
        latencies.append(record.latency)
        if not (
            math.isnan(record.injected_at) or math.isnan(record.completed_at)
        ):
            times_to_delivery.append(record.completed_at - record.injected_at)
        shortest = int(dist[record.source - 1, record.destination - 1])
        stretches.append(record.hops / shortest if shortest > 0 else 1.0)
    mean_latency = float(np.mean(latencies)) if latencies else math.nan
    # Timestamped records measure injection-to-arrival directly; records
    # without timestamps fall back to the latency alias.
    mean_ttd = (
        float(np.mean(times_to_delivery)) if times_to_delivery else mean_latency
    )
    registry = get_registry()
    registry.counter("repro_messages_routed_total").inc(len(records))
    registry.counter("repro_messages_delivered_total").inc(delivered)
    registry.counter("repro_retries_total").inc(total_retries)
    if stale_deliveries:
        registry.counter("repro_stale_deliveries_total").inc(stale_deliveries)
    breakdown = drop_breakdown(records)
    for reason, count in breakdown.items():
        registry.counter("repro_drops_total", reason=reason.name).inc(count)
    return RoutingMetrics(
        messages=len(records),
        delivered=delivered,
        mean_hops=float(np.mean(hops)) if hops else math.nan,
        mean_stretch=float(np.mean(stretches)) if stretches else math.nan,
        max_stretch=float(np.max(stretches)) if stretches else math.nan,
        p95_stretch=(
            float(np.percentile(stretches, 95)) if stretches else math.nan
        ),
        mean_latency=mean_latency,
        drop_reasons=breakdown,
        total_retries=total_retries,
        mean_retries=total_retries / len(records) if records else 0.0,
        mean_time_to_delivery=mean_ttd,
        stale_deliveries=stale_deliveries,
    )
