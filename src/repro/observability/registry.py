"""Process-wide metrics registry: counters, gauges, histograms.

Every long-lived quantity the stack wants to expose — messages routed,
retries, drops by :class:`~repro.simulator.message.DropReason`,
distance-cache hits, per-scheme table bits, build-phase timings — lives in
one :class:`MetricsRegistry` so a run can be dumped as a single JSON
document or scraped in the Prometheus text exposition format.

The registry is deliberately tiny and dependency-free: metrics are keyed by
``(name, sorted labels)``, creation is get-or-create, and the hot-path
operations (``Counter.inc``, ``Histogram.observe``) are a dict lookup plus
an integer/float update.  A process-wide default registry is reachable via
:func:`get_registry`; experiments that need isolation construct their own
and pass it explicitly.
"""

from __future__ import annotations

import json
import math
import threading
from typing import Any, Dict, Iterable, List, Optional, Tuple, Type, Union

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "get_registry",
    "set_registry",
]

Labels = Tuple[Tuple[str, str], ...]
_MetricKey = Tuple[str, Labels]

# Geometric default buckets (powers of 4 from 1 µs up) cover everything from
# a single dict lookup to a multi-minute build in 16 buckets.
_DEFAULT_BUCKETS = tuple(1e-6 * 4.0 ** i for i in range(16))


def _labels_of(label_kwargs: Dict[str, object]) -> Labels:
    return tuple(sorted((k, str(v)) for k, v in label_kwargs.items()))


class Counter:
    """A monotonically increasing count."""

    kind = "counter"

    def __init__(self, name: str, labels: Labels = ()) -> None:
        self.name = name
        self.labels = labels
        self._value = 0.0

    def inc(self, amount: Union[int, float] = 1) -> None:
        """Add ``amount`` (must be non-negative) to the counter."""
        if amount < 0:
            raise ValueError(f"counter {self.name} cannot decrease by {amount}")
        self._value += amount

    @property
    def value(self) -> float:
        """Current count."""
        return self._value

    def snapshot(self) -> Dict[str, object]:
        """JSON-ready view of this metric."""
        return {"value": self._value}


class Gauge:
    """A value that can go up and down (table bits, live messages, ...)."""

    kind = "gauge"

    def __init__(self, name: str, labels: Labels = ()) -> None:
        self.name = name
        self.labels = labels
        self._value = 0.0

    def set(self, value: Union[int, float]) -> None:
        """Replace the gauge value."""
        self._value = float(value)

    def inc(self, amount: Union[int, float] = 1) -> None:
        """Adjust the gauge by ``amount`` (may be negative)."""
        self._value += amount

    @property
    def value(self) -> float:
        """Current gauge value."""
        return self._value

    def snapshot(self) -> Dict[str, object]:
        """JSON-ready view of this metric."""
        return {"value": self._value}


class Histogram:
    """A distribution of observations with fixed cumulative buckets.

    Tracks count/sum/min/max exactly and a Prometheus-style cumulative
    bucket vector for everything else; that keeps ``observe`` O(buckets)
    worst case and the memory footprint constant regardless of how many
    phase timings or hop latencies a run produces.
    """

    kind = "histogram"

    def __init__(
        self,
        name: str,
        labels: Labels = (),
        buckets: Optional[Iterable[float]] = None,
    ) -> None:
        self.name = name
        self.labels = labels
        bounds = tuple(sorted(buckets)) if buckets is not None else _DEFAULT_BUCKETS
        if not bounds:
            raise ValueError(f"histogram {name} needs at least one bucket")
        self._bounds = bounds
        self._bucket_counts = [0] * (len(bounds) + 1)  # last = +Inf
        self._count = 0
        self._sum = 0.0
        self._min = math.inf
        self._max = -math.inf

    def observe(self, value: Union[int, float]) -> None:
        """Record one observation."""
        value = float(value)
        self._count += 1
        self._sum += value
        if value < self._min:
            self._min = value
        if value > self._max:
            self._max = value
        for i, bound in enumerate(self._bounds):
            if value <= bound:
                self._bucket_counts[i] += 1
                return
        self._bucket_counts[-1] += 1

    @property
    def count(self) -> int:
        """Number of observations."""
        return self._count

    @property
    def sum(self) -> float:
        """Sum of all observations."""
        return self._sum

    @property
    def mean(self) -> float:
        """Mean observation (NaN when empty)."""
        return self._sum / self._count if self._count else math.nan

    def cumulative_buckets(self) -> List[Tuple[float, int]]:
        """``(upper_bound, cumulative_count)`` pairs, ending at +Inf."""
        out: List[Tuple[float, int]] = []
        running = 0
        for bound, n in zip(self._bounds, self._bucket_counts):
            running += n
            out.append((bound, running))
        out.append((math.inf, running + self._bucket_counts[-1]))
        return out

    def quantile(self, q: float) -> float:
        """Bucket-resolution quantile estimate (upper bound of the bucket)."""
        if not 0.0 <= q <= 1.0:
            raise ValueError(f"quantile must be in [0, 1], got {q}")
        if self._count == 0:
            return math.nan
        target = q * self._count
        for bound, cumulative in self.cumulative_buckets():
            if cumulative >= target:
                return min(bound, self._max)
        return self._max  # pragma: no cover - defensive

    def snapshot(self) -> Dict[str, object]:
        """JSON-ready view of this metric."""
        return {
            "count": self._count,
            "sum": self._sum,
            "min": self._min if self._count else None,
            "max": self._max if self._count else None,
            "mean": self.mean if self._count else None,
        }


Metric = Union[Counter, Gauge, Histogram]


def sanitize_metric_name(name: str) -> str:
    """Map a dotted metric/phase name onto the Prometheus grammar."""
    safe = [
        ch if (ch.isalnum() or ch in "_:") else "_"
        for ch in name
    ]
    text = "".join(safe)
    if text and text[0].isdigit():
        text = "_" + text
    return text


def _format_value(value: float) -> str:
    if math.isinf(value):
        return "+Inf" if value > 0 else "-Inf"
    if float(value).is_integer():
        return str(int(value))
    return repr(float(value))


def _escape_label_value(value: str) -> str:
    """Escape per the exposition format: backslash, double-quote, newline."""
    return (
        value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")
    )


def _escape_help(text: str) -> str:
    """HELP text escaping: backslash and newline only (quotes stay)."""
    return text.replace("\\", "\\\\").replace("\n", "\\n")


def _label_text(labels: Labels, extra: Labels = ()) -> str:
    merged = labels + extra
    if not merged:
        return ""
    inner = ",".join(f'{k}="{_escape_label_value(v)}"' for k, v in merged)
    return "{" + inner + "}"


_WELL_KNOWN_HELP: Dict[str, str] = {
    "repro_messages_routed_total": "Messages injected into a simulator.",
    "repro_messages_delivered_total": "Messages delivered to their destination.",
    "repro_drops_total": "Messages dropped, labelled by DropReason.",
    "repro_retries_total": "Source re-injections after a retryable drop.",
    "repro_routing_loops_total": "Walks aborted after revisiting a node.",
    "repro_kernel_rows_total":
        "Rows a kernel drain handed to each lane, once per cohort holding them.",
    "repro_kernel_drain_skips_total":
        "Cohorts that skipped the quiescent drain, by the first reason.",
    "repro_kernel_drain_exits_total":
        "Rows that left the quiescent drain for the scalar step, by the "
        "first failing check.",
    "repro_stale_deliveries_total":
        "Deliveries that routed on out-of-date topology knowledge.",
    "repro_scheme_table_bits": "Total routing-table bits of the built scheme.",
    "repro_scheme_max_node_bits": "Largest per-node table in bits.",
    "repro_phase_seconds": "Wall time per profiled phase.",
    "repro_phase_calls_total": "Invocations per profiled phase.",
    "repro_graph_ctx_total":
        "GraphContext derivation accesses, labelled by kind and op.",
    "repro_graph_ctx_invalidations_total":
        "Explicit GraphContext invalidations.",
    "repro_graph_ctx_store_total":
        "Process-wide context store traffic, labelled by op.",
    "repro_graph_ctx_distance_products":
        "Dense n x n products the last all-pairs distance derivation took.",
    "repro_table_corruptions_total": "Injected routing-table corruptions.",
    "repro_table_corruption_detected_total":
        "Corruptions caught by integrity framing.",
    "repro_table_corruption_undetected_total":
        "Corruptions that slipped past the framing policy.",
    "repro_table_heals_total": "Corrupted tables rebuilt pristine.",
    "repro_corruption_detection_latency":
        "Simulated time from corruption to detection.",
    "repro_topology_mutations_total":
        "Live topology mutations applied, labelled by kind.",
    "repro_churn_repairs_total": "Node tables rebuilt after churn.",
    "repro_churn_tables_rebuilt_total":
        "Tables rebuilt from scratch during churn repair.",
    "repro_churn_tables_reused_total":
        "Tables carried forward unchanged during churn repair.",
    "repro_churn_table_bits_rewritten_total":
        "Table bits rewritten by incremental repair.",
    "repro_churn_table_bits_reused_total":
        "Table bits reused by incremental repair.",
    "repro_churn_convergence_time":
        "Simulated time from first uncovered mutation to convergence.",
    "repro_store_records_total":
        "Journal records durably written, labelled by op (put/swap).",
    "repro_store_quarantined_total":
        "Damaged store records/snapshots quarantined, labelled by reason.",
    "repro_store_recoveries_total":
        "Recovery passes completed, labelled by source (journal/snapshot/empty).",
    "repro_store_snapshots_total": "Catalog snapshots installed.",
    "repro_store_swaps_total": "Verified hot-swaps of a scheme's active generation.",
    "repro_store_journal_bits": "Current size of the store journal in bits.",
    "repro_store_snapshot_bits": "Current size of the newest snapshot in bits.",
    "repro_store_recovery_seconds": "Wall time per recovery pass.",
}
"""Default ``# HELP`` text for the stack's own metrics.

Keyed by the *raw* metric name (pre-sanitisation); ``describe`` overrides
these, and metrics absent from both expose no HELP line."""


class MetricsRegistry:
    """Get-or-create home for every metric in the process."""

    def __init__(self) -> None:
        self._metrics: Dict[_MetricKey, Metric] = {}
        self._help: Dict[str, str] = {}
        self._lock = threading.Lock()

    def describe(self, name: str, help_text: str) -> None:
        """Attach ``# HELP`` text to a metric name (overrides defaults)."""
        with self._lock:
            self._help[name] = help_text

    def help_for(self, name: str) -> Optional[str]:
        """The HELP text for ``name`` (described, well-known, or ``None``)."""
        with self._lock:
            described = self._help.get(name)
        return described if described is not None else _WELL_KNOWN_HELP.get(name)

    def _get_or_create(
        self, cls: Type[Metric], name: str, labels: Labels, **kwargs: Any
    ) -> Metric:
        key = (name, labels)
        with self._lock:
            metric = self._metrics.get(key)
            if metric is None:
                metric = cls(name, labels, **kwargs)
                self._metrics[key] = metric
            elif not isinstance(metric, cls):
                raise ValueError(
                    f"metric {name!r} already registered as {metric.kind}"
                )
            return metric

    def counter(self, name: str, **labels: object) -> Counter:
        """The counter named ``name`` with these labels (created on demand)."""
        return self._get_or_create(Counter, name, _labels_of(labels))

    def gauge(self, name: str, **labels: object) -> Gauge:
        """The gauge named ``name`` with these labels (created on demand)."""
        return self._get_or_create(Gauge, name, _labels_of(labels))

    def histogram(
        self,
        name: str,
        buckets: Optional[Iterable[float]] = None,
        **labels: object,
    ) -> Histogram:
        """The histogram named ``name`` with these labels."""
        return self._get_or_create(
            Histogram, name, _labels_of(labels), buckets=buckets
        )

    def metrics(self) -> List[Metric]:
        """All registered metrics in stable (name, labels) order."""
        with self._lock:
            return [self._metrics[key] for key in sorted(self._metrics)]

    def reset(self) -> None:
        """Drop every registered metric (tests and fresh runs)."""
        with self._lock:
            self._metrics.clear()

    # -- exposition ----------------------------------------------------------

    def snapshot(self) -> Dict[str, object]:
        """Nested dict: ``{name: [{labels, kind, ...values}]}``."""
        out: Dict[str, List[Dict[str, object]]] = {}
        for metric in self.metrics():
            entry: Dict[str, object] = {
                "kind": metric.kind,
                "labels": dict(metric.labels),
            }
            entry.update(metric.snapshot())
            out.setdefault(metric.name, []).append(entry)
        return out

    def to_json(self, indent: int = 2) -> str:
        """The :meth:`snapshot` as a JSON document."""
        return json.dumps(self.snapshot(), indent=indent, sort_keys=True)

    def to_prometheus(self) -> str:
        """Prometheus text exposition format (0.0.4) of every metric.

        Each metric family is preceded by its ``# HELP`` line (when text
        is known via :meth:`describe` or the built-in defaults) and its
        ``# TYPE`` line; label values are escaped per the format
        (backslash, double-quote, newline).
        """
        lines: List[str] = []
        seen_types = set()
        for metric in self.metrics():
            name = sanitize_metric_name(metric.name)
            if name not in seen_types:
                help_text = self.help_for(metric.name)
                if help_text is not None:
                    lines.append(f"# HELP {name} {_escape_help(help_text)}")
                lines.append(f"# TYPE {name} {metric.kind}")
                seen_types.add(name)
            if isinstance(metric, (Counter, Gauge)):
                lines.append(
                    f"{name}{_label_text(metric.labels)} "
                    f"{_format_value(metric.value)}"
                )
            else:
                for bound, cumulative in metric.cumulative_buckets():
                    extra = (("le", _format_value(bound)),)
                    lines.append(
                        f"{name}_bucket{_label_text(metric.labels, extra)} "
                        f"{cumulative}"
                    )
                lines.append(
                    f"{name}_sum{_label_text(metric.labels)} "
                    f"{_format_value(metric.sum)}"
                )
                lines.append(
                    f"{name}_count{_label_text(metric.labels)} {metric.count}"
                )
        return "\n".join(lines) + ("\n" if lines else "")


_GLOBAL_REGISTRY = MetricsRegistry()


def get_registry() -> MetricsRegistry:
    """The process-wide default registry."""
    return _GLOBAL_REGISTRY


def set_registry(registry: MetricsRegistry) -> MetricsRegistry:
    """Swap the process-wide registry; returns the previous one."""
    global _GLOBAL_REGISTRY
    previous = _GLOBAL_REGISTRY
    _GLOBAL_REGISTRY = registry
    return previous
