"""Observability for the routing stack: tracing, metrics, profiling.

Three cooperating pieces, all usable independently:

* :mod:`repro.observability.tracer` — per-message, per-hop span events
  emitted by the simulators (``tracer=None`` keeps the hot path free);
* :mod:`repro.observability.registry` — process-wide counters, gauges and
  histograms with JSON and Prometheus text exposition;
* :mod:`repro.observability.profiling` — ``profile_section`` /
  ``@timed`` hooks that feed phase-time breakdowns (scheme builds, codec
  encode/decode) into the registry;
* :mod:`repro.observability.report` — the ``repro trace-report``
  summariser (hot nodes, hop latency percentiles, fault-window drop
  attribution) over a ``--trace-out`` JSONL file.
"""

from repro.observability.bench import (
    BENCH_SCHEMA_VERSION,
    BenchMetric,
    BenchResult,
    BenchSchemaError,
    BetterDirection,
    ComparisonReport,
    MetricDelta,
    compare_runs,
    format_comparison,
    load_bench_result,
    write_bench_result,
)
from repro.observability.manifest import (
    ManifestError,
    RunManifest,
    embedded_manifest,
)
from repro.observability.profiling import phase_breakdown, profile_section, timed
from repro.observability.sampling import SamplingTracer
from repro.observability.registry import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    get_registry,
    set_registry,
)
from repro.observability.report import (
    TraceSummary,
    format_trace_report,
    summarize_trace,
)
from repro.observability.tracer import (
    NULL_TRACER,
    JsonlTracer,
    NullTracer,
    RecordingTracer,
    TraceDecodeError,
    TraceEvent,
    Tracer,
    iter_trace,
    link_subject,
    load_events,
    node_subject,
    read_trace,
    read_trace_manifest,
)

__all__ = [
    "BENCH_SCHEMA_VERSION",
    "BenchMetric",
    "BenchResult",
    "BenchSchemaError",
    "BetterDirection",
    "ComparisonReport",
    "Counter",
    "Gauge",
    "Histogram",
    "JsonlTracer",
    "ManifestError",
    "MetricDelta",
    "MetricsRegistry",
    "NULL_TRACER",
    "NullTracer",
    "RecordingTracer",
    "RunManifest",
    "SamplingTracer",
    "TraceDecodeError",
    "TraceEvent",
    "TraceSummary",
    "Tracer",
    "compare_runs",
    "embedded_manifest",
    "format_comparison",
    "format_trace_report",
    "get_registry",
    "iter_trace",
    "link_subject",
    "load_bench_result",
    "load_events",
    "node_subject",
    "phase_breakdown",
    "profile_section",
    "read_trace",
    "read_trace_manifest",
    "set_registry",
    "summarize_trace",
    "timed",
    "write_bench_result",
]
