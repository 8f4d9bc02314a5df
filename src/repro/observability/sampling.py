"""Sampled tracing that never loses an anomaly.

Recording every hop of every message is fine at thousands of messages and
ruinous at millions: the full recording path costs ~1.7× the untraced
loop.  :class:`SamplingTracer` keeps tracing affordable at scale with
*head-based deterministic sampling*:

* At ``inject`` time a seeded hash of the message id decides — once, and
  reproducibly across runs and processes — whether the message is *kept*
  (all of its spans stream to the sink) or *suppressed* (its spans are
  counted but never constructed).
* Suppressed messages leave a tiny breadcrumb (source, destination,
  inject time).  The moment one turns anomalous — a retry, a drop, or a
  stale delivery — it is **promoted**: a synthesised ``inject`` span is
  emitted from the breadcrumb, the anomalous span follows it, and every
  later span of that message streams normally.  Anomalous messages are
  therefore retained at 100% regardless of the sampling rate; the price
  of head sampling is only that a promoted message's pre-anomaly hops are
  summarised by the synthetic inject rather than replayed in full.
* Control-plane spans (faults, corruption lifecycle, churn lifecycle,
  ctx derivations) always pass through — they are rare and load-bearing.
* High-rate emission sites (the timed kernel) can skip suppressed
  messages entirely: they ask :meth:`~SamplingTracer.wants` once per
  message, cache the verdict on the message, and bypass every span call
  for suppressed ones — a field test per hop instead of a method call.
  When a bypassed message turns anomalous the kernel calls
  :meth:`~SamplingTracer.promote` with the inject facts it still holds,
  which emits the synthetic inject and re-opens the stream.  The
  breadcrumb path above remains for emitters that do not cooperate
  (hand-driven tests).

On :meth:`~SamplingTracer.close` the tracer emits one ``sample`` span
summarising its tallies, and — defensively — an ``slo`` span if the
retention guarantee was somehow violated.

:class:`RingBufferTracer` is the matching bounded in-memory sink: it
keeps the last ``capacity`` events, so an always-on sampler in a
long-lived process has a hard memory ceiling (a flight recorder, not an
archive).
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Dict, List, Optional, Set, Tuple

from repro.observability.tracer import Tracer, TraceEvent

__all__ = ["RingBufferTracer", "SamplingTracer"]

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15


def _mix(value: int, seed: int) -> int:
    """splitmix64 finaliser: cheap, well-distributed, dependency-free."""
    z = (value + (seed + 1) * _GOLDEN) & _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return z ^ (z >> 31)


class RingBufferTracer(Tracer):
    """Bounded in-memory sink: keeps only the most recent events."""

    def __init__(self, capacity: int = 4096) -> None:
        super().__init__()
        if capacity <= 0:
            raise ValueError(f"capacity must be positive, got {capacity}")
        self.capacity = capacity
        self._ring: Deque[TraceEvent] = deque(maxlen=capacity)
        self.seen = 0
        """Total events offered, including the ones the ring evicted."""

    def emit(self, event: TraceEvent) -> None:
        self._ring.append(event)
        self.seen += 1

    @property
    def events(self) -> List[TraceEvent]:
        """The retained window, oldest first."""
        return list(self._ring)

    def events_for(self, msg_id: int) -> List[TraceEvent]:
        """Retained events of one message, in emission order."""
        return [e for e in self._ring if e.msg_id == msg_id]


class SamplingTracer(Tracer):
    """Head-sampled tracer: seeded per-message keep, anomalies always kept.

    Wraps a ``sink`` tracer (:class:`RecordingTracer`,
    :class:`JsonlTracer`, :class:`RingBufferTracer`, …) and forwards a
    deterministic ``rate`` fraction of message span trees to it, plus —
    unconditionally — every message that retries, drops, or is delivered
    stale, and every control-plane span.
    """

    def __init__(
        self,
        sink: Tracer,
        rate: float = 0.01,
        seed: int = 0,
    ) -> None:
        super().__init__()
        if not 0.0 <= rate <= 1.0:
            raise ValueError(f"rate must be within [0, 1], got {rate}")
        self._sink = sink
        self.rate = rate
        self.seed = seed
        # Compare the top 32 bits of the mix against a fixed-point
        # threshold so the keep decision is a single integer comparison.
        self._threshold = int(rate * (1 << 32))
        self._kept: Set[int] = set()
        self._suppressed: Set[int] = set()
        self._crumbs: Dict[int, Tuple[int, int, float]] = {}
        self.messages = 0
        self.kept_sampled = 0
        self.promoted = 0
        self.suppressed_events = 0
        self._slo_breaches = 0
        self._closed = False

    # -- plumbing -------------------------------------------------------------

    def emit(self, event: TraceEvent) -> None:
        self._sink.emit(event)

    def _keep(self, msg_id: int) -> bool:
        return (_mix(msg_id, self.seed) >> 32) < self._threshold

    def wants(self, msg_id: int) -> bool:
        """The seeded keep decision, memoised (and tallied) per message.

        Cooperating emission sites (the timed kernel) call this once per
        message and skip span construction entirely for suppressed ones;
        when one of those turns anomalous they call :meth:`promote` with
        the inject facts they still hold, replacing the breadcrumb path.
        """
        if msg_id in self._kept:
            return True
        if msg_id in self._suppressed:
            return False
        self.messages += 1
        if self._keep(msg_id):
            self._kept.add(msg_id)
            self.kept_sampled += 1
            return True
        self._suppressed.add(msg_id)
        return False

    def promote(
        self,
        msg_id: int,
        source: int,
        destination: int,
        inject_time: float = 0.0,
    ) -> None:
        """Start streaming a suppressed message: synthetic inject first."""
        if msg_id in self._kept:
            return
        self._crumbs.pop(msg_id, None)
        self._suppressed.discard(msg_id)
        self._kept.add(msg_id)
        self.promoted += 1
        super().inject(msg_id, source, destination, time=inject_time)

    def _promote(self, msg_id: int, time: float) -> None:
        """Replay the breadcrumb as a synthetic inject; keep from here on."""
        crumb = self._crumbs.pop(msg_id, None)
        if crumb is not None:
            source, destination, inject_time = crumb
            self.promote(msg_id, source, destination, inject_time)
        else:
            # No breadcrumb means we never saw the inject — defensively
            # flag the retention gap instead of silently under-reporting.
            self._kept.add(msg_id)
            self.promoted += 1
            self._slo_breaches += 1
            super().slo(
                "sampling_retention",
                time=time,
                detail=f"anomalous msg {msg_id} had no breadcrumb",
            )

    # -- message-plane emitters (sampled) -------------------------------------

    def inject(
        self,
        msg_id: int,
        source: int,
        destination: int,
        time: float = 0.0,
        attempt: int = 0,
    ) -> int:
        if attempt == 0 and not self.wants(msg_id):
            self._crumbs[msg_id] = (source, destination, time)
        if msg_id in self._kept:
            return super().inject(
                msg_id, source, destination, time=time, attempt=attempt
            )
        self.suppressed_events += 1
        return -1

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
        if msg_id in self._kept:
            return super().hop(
                msg_id, node, next_node, hop,
                time=time, duration=duration, attempt=attempt,
            )
        self.suppressed_events += 1
        return -1

    def retry(
        self,
        msg_id: int,
        source: int,
        attempt: int,
        time: float,
        reason: str,
        duration: Optional[float] = None,
    ) -> int:
        if msg_id not in self._kept:
            self._promote(msg_id, time)
        return super().retry(
            msg_id, source, attempt, time, reason, duration=duration
        )

    def drop(
        self,
        msg_id: int,
        node: int,
        reason: str,
        time: float = 0.0,
        detail: Optional[str] = None,
        subject: Optional[Tuple[str, ...]] = None,
        attempt: int = 0,
        hop: Optional[int] = None,
    ) -> int:
        if msg_id not in self._kept:
            self._promote(msg_id, time)
        seq = super().drop(
            msg_id, node, reason,
            time=time, detail=detail, subject=subject,
            attempt=attempt, hop=hop,
        )
        self._kept.discard(msg_id)
        return seq

    def deliver(
        self,
        msg_id: int,
        node: int,
        time: float = 0.0,
        hop: Optional[int] = None,
        attempt: int = 0,
        detail: Optional[str] = None,
    ) -> int:
        if msg_id in self._kept:
            seq = super().deliver(
                msg_id, node, time=time, hop=hop, attempt=attempt,
                detail=detail,
            )
            self._kept.discard(msg_id)
            return seq
        if detail == "stale":
            # A clean-looking delivery that routed on stale topology is an
            # anomaly: promote it even though the message never dropped.
            self._promote(msg_id, time)
            seq = super().deliver(
                msg_id, node, time=time, hop=hop, attempt=attempt,
                detail=detail,
            )
            self._kept.discard(msg_id)
            return seq
        self._crumbs.pop(msg_id, None)
        self.suppressed_events += 1
        return -1

    # -- summary --------------------------------------------------------------

    def summary(self) -> Dict[str, float]:
        """Tallies of the sampling decisions taken so far."""
        return {
            "rate": self.rate,
            "seed": self.seed,
            "messages": self.messages,
            "kept_sampled": self.kept_sampled,
            "promoted": self.promoted,
            "suppressed_events": self.suppressed_events,
            "slo_breaches": self._slo_breaches,
        }

    def close(self, time: float = 0.0) -> None:
        """Emit the ``sample`` summary span (idempotent)."""
        if self._closed:
            return
        self._closed = True
        tallies = self.summary()
        detail = (
            f"rate={self.rate} seed={self.seed} "
            f"messages={self.messages} kept={self.kept_sampled} "
            f"promoted={self.promoted} "
            f"suppressed={self.suppressed_events}"
        )
        super().sample(detail, time=time)
        if tallies["slo_breaches"]:
            super().slo(
                "sampling_retention",
                time=time,
                detail=f"{self._slo_breaches} anomalous message(s) lost",
            )
