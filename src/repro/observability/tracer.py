"""Hop-level tracing of simulated message routing.

A tracer receives one flat :class:`TraceEvent` per interesting moment of a
message's life inside :class:`~repro.simulator.kernel.BatchKernel`:

``inject``
    The message enters the network (records source, destination, time).
``hop``
    A node made a forwarding decision: which node, which neighbour it
    chose, the hop ordinal, and how long the hop took end to end (queue
    wait + service + wire).
``retry``
    The source re-injected a dropped message after backoff.
``fault``
    A scheduled fault event fired (link/node went down or came back).
``drop`` / ``deliver``
    Final outcome; drops carry the structured ``DropReason`` name, the
    free-text detail, and — when the simulator knows it — the failed
    subject (``["link", u, v]`` or ``["node", u]``) so a trace report can
    attribute the drop to the fault window that caused it.  Stale
    deliveries (the table routed on out-of-date topology) carry
    ``detail="stale"``.
``corrupt`` / ``quarantine`` / ``heal``
    The table-corruption lifecycle of one node: its packed routing
    function was damaged, the damage was detected (the node stops
    forwarding), and the function was rebuilt pristine from graph+model
    knowledge.  All three carry the node subject, so corrupt→heal opens a
    fault-attribution window exactly like link/node down→up.
``mutate`` / ``repair`` / ``converged``
    The live-churn lifecycle: a topology mutation was applied to the
    running network (``reason`` carries the ``TopologyMutationKind``
    value, ``subject`` the edge or node), a dirtied node's table was
    rebuilt and installed, and the scheme finished converging (``duration``
    is the convergence time since the first uncovered mutation).
``persist`` / ``reject`` / ``recover`` / ``swap``
    The durable-store lifecycle (:mod:`repro.store`): a journal record or
    snapshot was durably written (``reason`` carries the operation —
    ``put``/``swap``/``snapshot``/``compact``); a damaged record or
    snapshot was detected and quarantined instead of trusted (``reason``
    carries the damage class, ``detail`` the scan's diagnosis); a
    :class:`~repro.store.recovery.RecoveryManager` finished rebuilding
    the catalog (``duration`` is the recovery time, ``detail`` the
    source it recovered from); and a scheme's active generation was
    switched by a verified hot-swap.
``sample``
    A :class:`~repro.observability.sampling.SamplingTracer` summarising
    its own behaviour on close: how many messages it saw, kept by the
    seeded coin, promoted because they turned anomalous, and suppressed.

Causality
---------

Every emitter returns the sequence number of the event it recorded, and
events carry two optional links that turn a flat trace into a tree:

* ``parent`` — the previous span of the *same message* (assigned
  automatically by :meth:`Tracer._record`, so ``inject → hop → … →
  deliver`` chains without any caller involvement);
* ``cause``  — an explicit cross-message/control-plane edge supplied by
  the caller, e.g. a ``quarantine`` caused by a ``corrupt`` span, or a
  ``repair``/``converged`` caused by the ``mutate`` span that dirtied it.

The simulators take ``tracer=None`` by default and normalise any tracer
whose ``enabled`` flag is false (e.g. :data:`NULL_TRACER`) to ``None``, so
the disabled path costs a single ``is None`` test per event site — that is
the zero-overhead guarantee the benchmarks pin down.

Run ledger
----------

:class:`JsonlTracer` accepts an optional
:class:`~repro.observability.manifest.RunManifest`, written as the first
JSONL row (``{"manifest": {...}}``) so every trace file is traceable to
the exact invocation that produced it.  The read helpers skip the
manifest row transparently; :func:`read_trace_manifest` recovers it.
Malformed rows (including a truncated final line from a killed run)
raise :class:`TraceDecodeError` with the offending location instead of
leaking a raw ``json`` or ``TypeError`` crash.
"""

from __future__ import annotations

import itertools
import json
import os
from dataclasses import asdict, dataclass
from typing import (
    IO,
    Any,
    Dict,
    Iterator,
    List,
    Optional,
    Sequence,
    Tuple,
    Union,
)

from repro.errors import ReproError
from repro.observability.manifest import RunManifest

__all__ = [
    "TraceEvent",
    "TraceDecodeError",
    "Tracer",
    "NullTracer",
    "NULL_TRACER",
    "RecordingTracer",
    "JsonlTracer",
    "read_trace",
    "read_trace_manifest",
    "iter_trace",
    "load_events",
]

Subject = Tuple[str, ...]


class TraceDecodeError(ReproError):
    """A trace file row could not be decoded (bad JSON or unknown shape)."""

    def __init__(self, source: str, line: int, problem: str) -> None:
        super().__init__(f"{source}:{line}: {problem}")
        self.source = source
        self.line = line
        self.problem = problem


@dataclass(frozen=True)
class TraceEvent:
    """One moment in a traced run (a span point, JSONL-serialisable)."""

    event: str
    """``inject`` | ``hop`` | ``retry`` | ``fault`` | ``drop`` | ``deliver``
    | ``corrupt`` | ``quarantine`` | ``heal`` | ``mutate`` | ``repair`` |
    ``converged`` | ``persist`` | ``reject`` | ``recover`` | ``swap`` |
    ``sample``."""
    seq: int = 0
    """Tracer-assigned monotone sequence number (total order of emission)."""
    time: float = 0.0
    """Simulated time of the event."""
    msg_id: Optional[int] = None
    source: Optional[int] = None
    destination: Optional[int] = None
    node: Optional[int] = None
    """Node where the event happened (hop decisions, drops)."""
    next_node: Optional[int] = None
    """Chosen forwarding neighbour (hop events; the ``port`` of the span)."""
    hop: Optional[int] = None
    """Zero-based hop ordinal within the current attempt."""
    attempt: Optional[int] = None
    """Zero-based retry attempt the message is on."""
    duration: Optional[float] = None
    """Timed-kernel hop cost: queue wait + service + link latency."""
    reason: Optional[str] = None
    """``DropReason.name`` for drops/retries; ``FaultKind.value`` for faults."""
    detail: Optional[str] = None
    subject: Optional[Subject] = None
    """Failed entity as ``("link", u, v)`` / ``("node", u)`` strings."""
    parent: Optional[int] = None
    """``seq`` of the previous span of the same message (intra-message tree)."""
    cause: Optional[int] = None
    """``seq`` of the control-plane span that caused this one (cross links)."""

    def to_dict(self) -> dict:
        """Compact dict with ``None`` fields elided (JSONL row)."""
        return {
            key: value
            for key, value in asdict(self).items()
            if value is not None
        }

    @classmethod
    def from_dict(cls, row: dict) -> "TraceEvent":
        """Rebuild an event from a JSONL row (unknown keys are rejected)."""
        if "subject" in row and row["subject"] is not None:
            row = dict(row)
            row["subject"] = tuple(str(part) for part in row["subject"])
        return cls(**row)


def link_subject(u: int, v: int) -> Subject:
    """Canonical subject tuple for a link (endpoint order normalised)."""
    lo, hi = sorted((u, v))
    return ("link", str(lo), str(hi))


def node_subject(u: int) -> Subject:
    """Canonical subject tuple for a node."""
    return ("node", str(u))


_TERMINAL_EVENTS = frozenset(("deliver", "drop"))


def _new_event(row: Dict[str, Any]) -> TraceEvent:
    """Build a :class:`TraceEvent` from ``row`` without its ``__init__``.

    The frozen dataclass ``__init__`` sets each of its 17 fields through
    ``object.__setattr__`` (~3 µs per span).  Adopting ``row`` as the
    instance dict costs ~0.4 µs and yields an equal event: every field
    ``row`` omits has a plain default, which the dataclass keeps as a
    class attribute.
    """
    span = object.__new__(TraceEvent)
    object.__setattr__(span, "__dict__", row)
    return span


class Tracer:
    """Base tracer: builds events, assigns sequence numbers, dispatches.

    Subclasses override :meth:`emit`.  All convenience emitters funnel
    through :meth:`_record` so the sequence numbering (and therefore span
    ordering) is uniform across sinks.  ``_record`` also maintains the
    per-message ``parent`` chain: each event of a message links back to
    the previous span of the same message, so a trace replays as a tree
    without any cooperation from the emission sites.
    """

    enabled: bool = True

    def __init__(self) -> None:
        self._seq = itertools.count()
        self._last_span: Dict[int, int] = {}

    def emit(self, event: TraceEvent) -> None:
        """Deliver one event to the sink."""
        raise NotImplementedError

    # -- sampling protocol ----------------------------------------------------
    #
    # The emitter (the timed kernel) asks ``wants(msg_id)`` once per
    # message and caches the answer, emitting no span of a suppressed
    # message until it turns anomalous and the emitter calls ``promote``
    # once.  Base tracers keep every message, so the default is a
    # constant ``True`` and ``promote`` — re-announcing a message the
    # caller had suppressed — is a no-op.  ``SamplingTracer`` overrides
    # both.

    def wants(self, msg_id: int) -> bool:
        """Should the caller emit this message's spans at all?"""
        return True

    def promote(
        self,
        msg_id: int,
        source: int,
        destination: int,
        inject_time: float = 0.0,
    ) -> None:
        """A suppressed message turned anomalous; start streaming it."""

    def _record(self, event: str, **row: Any) -> int:
        seq = next(self._seq)
        msg_id = row.get("msg_id")
        if msg_id is not None:
            if row.get("parent") is None:
                parent = self._last_span.get(msg_id)
                if parent is not None:
                    row["parent"] = parent
            if event in _TERMINAL_EVENTS:
                self._last_span.pop(msg_id, None)
            else:
                self._last_span[msg_id] = seq
        row["event"] = event
        row["seq"] = seq
        self.emit(_new_event(row))
        return seq

    # -- convenience emitters -------------------------------------------------

    def inject(
        self,
        msg_id: int,
        source: int,
        destination: int,
        time: float = 0.0,
        attempt: int = 0,
    ) -> int:
        """The message enters the network."""
        return self._record(
            "inject",
            msg_id=msg_id,
            source=source,
            destination=destination,
            time=time,
            attempt=attempt,
        )

    def hop(
        self,
        msg_id: int,
        node: int,
        next_node: int,
        hop: int,
        time: float = 0.0,
        duration: Optional[float] = None,
        attempt: int = 0,
    ) -> int:
        """A node chose an outgoing edge for the message."""
        return self._record(
            "hop",
            msg_id=msg_id,
            node=node,
            next_node=next_node,
            hop=hop,
            time=time,
            duration=duration,
            attempt=attempt,
        )

    def retry(
        self,
        msg_id: int,
        source: int,
        attempt: int,
        time: float,
        reason: str,
        duration: Optional[float] = None,
    ) -> int:
        """The source scheduled a re-transmission after a retryable drop."""
        return self._record(
            "retry",
            msg_id=msg_id,
            source=source,
            attempt=attempt,
            time=time,
            reason=reason,
            duration=duration,
        )

    def fault(
        self, kind: str, subject: Subject, time: float, detail: Optional[str] = None
    ) -> int:
        """A scheduled fault event fired."""
        return self._record(
            "fault", reason=kind, subject=subject, time=time, detail=detail
        )

    def drop(
        self,
        msg_id: int,
        node: int,
        reason: str,
        time: float = 0.0,
        detail: Optional[str] = None,
        subject: Optional[Subject] = None,
        attempt: int = 0,
        hop: Optional[int] = None,
    ) -> int:
        """Final outcome: the message was dropped at ``node``."""
        return self._record(
            "drop",
            msg_id=msg_id,
            node=node,
            reason=reason,
            time=time,
            detail=detail,
            subject=subject,
            attempt=attempt,
            hop=hop,
        )

    def deliver(
        self,
        msg_id: int,
        node: int,
        time: float = 0.0,
        hop: Optional[int] = None,
        attempt: int = 0,
        detail: Optional[str] = None,
    ) -> int:
        """Final outcome: the message arrived at its destination.

        ``detail="stale"`` marks a delivery that routed on out-of-date
        topology knowledge (an anomaly for the sampler's purposes).
        """
        return self._record(
            "deliver", msg_id=msg_id, node=node, time=time, hop=hop,
            attempt=attempt, detail=detail,
        )

    def corrupt(
        self,
        node: int,
        time: float = 0.0,
        detail: Optional[str] = None,
        cause: Optional[int] = None,
    ) -> int:
        """A node's packed routing function was corrupted."""
        return self._record(
            "corrupt",
            node=node,
            time=time,
            detail=detail,
            subject=node_subject(node),
            cause=cause,
        )

    def quarantine(
        self,
        node: int,
        time: float = 0.0,
        detail: Optional[str] = None,
        cause: Optional[int] = None,
    ) -> int:
        """Table corruption was detected; the node stops forwarding."""
        return self._record(
            "quarantine",
            node=node,
            time=time,
            detail=detail,
            subject=node_subject(node),
            cause=cause,
        )

    def heal(
        self, node: int, time: float = 0.0, cause: Optional[int] = None
    ) -> int:
        """The node's function was rebuilt pristine (self-heal or re-push)."""
        return self._record(
            "heal", node=node, time=time, subject=node_subject(node),
            cause=cause,
        )

    def mutate(
        self,
        kind: str,
        subject: Subject,
        time: float = 0.0,
        detail: Optional[str] = None,
        cause: Optional[int] = None,
    ) -> int:
        """A topology mutation was applied to the live network."""
        return self._record(
            "mutate", reason=kind, subject=subject, time=time, detail=detail,
            cause=cause,
        )

    def repair(
        self,
        node: int,
        time: float = 0.0,
        detail: Optional[str] = None,
        cause: Optional[int] = None,
    ) -> int:
        """A dirtied node's routing table was rebuilt and installed."""
        return self._record(
            "repair",
            node=node,
            time=time,
            detail=detail,
            subject=node_subject(node),
            cause=cause,
        )

    def converged(
        self,
        time: float = 0.0,
        duration: Optional[float] = None,
        detail: Optional[str] = None,
        cause: Optional[int] = None,
    ) -> int:
        """Every table is consistent with the live topology again."""
        return self._record(
            "converged", time=time, duration=duration, detail=detail,
            cause=cause,
        )

    def persist(
        self,
        op: str,
        detail: Optional[str] = None,
        time: float = 0.0,
        duration: Optional[float] = None,
    ) -> int:
        """The store durably wrote something (``op``: ``put`` | ``swap`` |
        ``snapshot`` | ``compact``); ``detail`` names the scheme/file."""
        return self._record(
            "persist", reason=op, detail=detail, time=time, duration=duration
        )

    def reject(
        self,
        reason: str,
        detail: Optional[str] = None,
        time: float = 0.0,
    ) -> int:
        """Damaged store bytes were detected and quarantined, not trusted."""
        return self._record(
            "reject", reason=reason, detail=detail, time=time
        )

    def recover(
        self,
        detail: Optional[str] = None,
        time: float = 0.0,
        duration: Optional[float] = None,
        reason: Optional[str] = None,
    ) -> int:
        """A recovery pass rebuilt the catalog (``detail`` names the
        source: the journal, a snapshot, or an empty store)."""
        return self._record(
            "recover", detail=detail, time=time, duration=duration,
            reason=reason,
        )

    def swap(
        self,
        detail: str,
        time: float = 0.0,
        cause: Optional[int] = None,
    ) -> int:
        """A verified hot-swap switched a scheme's active generation."""
        return self._record("swap", detail=detail, time=time, cause=cause)

    def sample(
        self,
        detail: str,
        time: float = 0.0,
        duration: Optional[float] = None,
    ) -> int:
        """A sampling tracer summarises its keep/promote/suppress tallies."""
        return self._record(
            "sample", detail=detail, time=time, duration=duration
        )


class NullTracer(Tracer):
    """Disabled tracer; simulators normalise it away entirely."""

    enabled = False

    def emit(self, event: TraceEvent) -> None:  # pragma: no cover - never hot
        pass


NULL_TRACER = NullTracer()
"""Shared no-op tracer instance."""


class RecordingTracer(Tracer):
    """Keeps every event in memory (tests and in-process reports)."""

    def __init__(self) -> None:
        super().__init__()
        self.events: List[TraceEvent] = []

    def emit(self, event: TraceEvent) -> None:
        self.events.append(event)

    def events_for(self, msg_id: int) -> List[TraceEvent]:
        """All events of one message, in emission order."""
        return [e for e in self.events if e.msg_id == msg_id]


class JsonlTracer(Tracer):
    """Streams events as JSON Lines to a file (the ``--trace-out`` sink).

    When a :class:`~repro.observability.manifest.RunManifest` is supplied
    it is written as the first row (``{"manifest": {...}}``) so the trace
    carries its own run ledger.  Because events stream as they happen,
    the embedded manifest reports the invocation's start state; the
    final wall time lives in the run's metrics/summary artifacts.
    """

    def __init__(
        self,
        target: Union[str, os.PathLike, IO[str]],
        manifest: Optional[RunManifest] = None,
    ) -> None:
        super().__init__()
        if hasattr(target, "write"):
            self._handle: IO[str] = target  # type: ignore[assignment]
            self._owns_handle = False
        else:
            self._handle = open(target, "w", encoding="utf-8")
            self._owns_handle = True
        self.written = 0
        self.manifest = manifest
        if manifest is not None:
            self._handle.write(
                json.dumps({"manifest": manifest.to_dict()}, sort_keys=True)
            )
            self._handle.write("\n")

    def emit(self, event: TraceEvent) -> None:
        self._handle.write(json.dumps(event.to_dict(), sort_keys=True))
        self._handle.write("\n")
        self.written += 1

    def close(self) -> None:
        """Flush and (if this tracer opened the file) close the sink."""
        self._handle.flush()
        if self._owns_handle:
            self._handle.close()

    def __enter__(self) -> "JsonlTracer":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()


def _decode_row(line: str, source: str, lineno: int) -> Optional[TraceEvent]:
    """One JSONL row → event; ``None`` for the manifest row; raise on junk."""
    try:
        row = json.loads(line)
    except ValueError as exc:
        raise TraceDecodeError(
            source, lineno, f"not valid JSON ({exc})"
        ) from exc
    if not isinstance(row, dict):
        raise TraceDecodeError(
            source, lineno, f"expected an object row, got {type(row).__name__}"
        )
    if "event" not in row:
        if "manifest" in row:
            return None
        raise TraceDecodeError(
            source, lineno, "row has neither 'event' nor 'manifest'"
        )
    try:
        return TraceEvent.from_dict(row)
    except TypeError as exc:
        raise TraceDecodeError(
            source, lineno, f"bad trace event ({exc})"
        ) from exc


def load_events(
    lines: Sequence[str], source: str = "<events>"
) -> List[TraceEvent]:
    """Parse JSONL rows (blank lines and the manifest row skipped).

    Raises :class:`TraceDecodeError` — not a bare ``json``/``TypeError``
    crash — when a row is malformed, naming the source and line.
    """
    events = []
    for lineno, line in enumerate(lines, start=1):
        line = line.strip()
        if line:
            event = _decode_row(line, source, lineno)
            if event is not None:
                events.append(event)
    return events


def read_trace(path: Union[str, os.PathLike]) -> List[TraceEvent]:
    """Read a ``--trace-out`` JSONL file back into :class:`TraceEvent` s."""
    with open(path, "r", encoding="utf-8") as handle:
        return load_events(handle.readlines(), source=os.fspath(path))


def read_trace_manifest(
    path: Union[str, os.PathLike],
) -> Optional[RunManifest]:
    """Recover the embedded :class:`RunManifest` from a trace file.

    Returns ``None`` when the trace was written without a manifest (the
    pre-ledger format).  Only leading blank lines may precede the
    manifest row.
    """
    source = os.fspath(path)
    with open(path, "r", encoding="utf-8") as handle:
        for lineno, line in enumerate(handle, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                row = json.loads(line)
            except ValueError as exc:
                raise TraceDecodeError(
                    source, lineno, f"not valid JSON ({exc})"
                ) from exc
            if isinstance(row, dict) and "manifest" in row:
                return RunManifest.from_dict(row["manifest"])
            return None
    return None


def iter_trace(path: Union[str, os.PathLike]) -> Iterator[TraceEvent]:
    """Stream a JSONL trace without holding the whole file."""
    source = os.fspath(path)
    with open(path, "r", encoding="utf-8") as handle:
        for lineno, line in enumerate(handle, start=1):
            line = line.strip()
            if line:
                event = _decode_row(line, source, lineno)
                if event is not None:
                    yield event
