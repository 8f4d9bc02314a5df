"""Eager reference implementation of the simulator's outcome aggregation.

The original ``MessageBatch.records()`` body, which built every
``DeliveryRecord`` of a finished batch up front, and the per-record loops
of ``summarize``, ``drop_breakdown``, ``retry_histogram`` and the sweep
driver's ``run_task``, kept verbatim as an oracle and rewritten as
functions over a finished batch or a record sequence: the
``DeliveryRecords`` view and the column aggregation in
``repro.simulator.metrics`` and ``repro.simulator.sweep`` must agree with
them on every input (``tests/test_outcome_reference.py`` and the lane
property in ``tests/test_batch_kernel.py``).  They are deliberately slow
and must not be optimised.
"""

from __future__ import annotations

import math
from typing import Dict, List, Sequence

import numpy as np

from repro.graphs import LabeledGraph, get_context
from repro.observability.registry import get_registry
from repro.simulator.message import (
    DROP_REASON_BY_CODE,
    NO_DROP,
    DeliveryRecord,
    DropReason,
    MessageBatch,
)
from repro.simulator.metrics import RoutingMetrics

__all__ = [
    "drop_breakdown",
    "records",
    "retry_histogram",
    "summarize",
    "sweep_counts",
]


def records(batch: MessageBatch) -> List[DeliveryRecord]:
    """Every row's outcome, in injection (row) order."""
    if batch.active.any():
        i = int(np.argmax(batch.active))
        raise ValueError(f"message row {i} is still in flight")
    msg_ids = batch.msg_id.tolist()
    sources = batch.source.tolist()
    destinations = batch.destination.tolist()
    delivered = batch.delivered.tolist()
    plens = batch.plen.tolist()
    injected = batch.injected.tolist()
    completed = batch.completed.tolist()
    codes = batch.drop_code.tolist()
    attempts = batch.attempt.tolist()
    stales = batch.stale.tolist()
    path = batch.path
    return [
        DeliveryRecord(
            msg_id=msg_ids[i],
            source=sources[i],
            destination=destinations[i],
            delivered=delivered[i],
            hops=plens[i] - 1 if plens[i] > 1 else 0,
            path=tuple(path[i, : plens[i]].tolist()),
            latency=completed[i] - injected[i],
            drop_reason=(
                None if codes[i] == NO_DROP else DROP_REASON_BY_CODE[codes[i]]
            ),
            drop_detail=batch.drop_detail[i],
            retries=attempts[i],
            injected_at=injected[i],
            completed_at=completed[i],
            stale=stales[i],
        )
        for i in range(batch.size)
    ]


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


def sweep_counts(records: Sequence[DeliveryRecord]) -> Dict[str, object]:
    """``run_task``'s aggregate fields of one run's records."""
    reasons: Dict[str, int] = {}
    for r in records:
        if r.drop_reason is not None:
            reasons[r.drop_reason.name] = reasons.get(r.drop_reason.name, 0) + 1
    return {
        "messages": len(records),
        "delivered": sum(1 for r in records if r.delivered),
        "dropped": sum(1 for r in records if not r.delivered),
        "retries": sum(r.retries for r in records),
        "stale": sum(1 for r in records if r.stale),
        "drop_reasons": tuple(sorted(reasons.items())),
    }
