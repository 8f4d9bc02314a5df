"""Sampled tracing that never loses an anomaly.

Recording every hop of every message is fine at thousands of messages and
ruinous at millions: the full recording path costs ~1.7× the untraced
loop.  :class:`SamplingTracer` keeps tracing affordable at scale with
*head-based deterministic sampling*, in cooperation with its one emitter,
the timed :class:`~repro.simulator.kernel.BatchKernel`:

* The kernel asks :meth:`~SamplingTracer.wants` once per message, at
  inject time.  A seeded hash of the message id decides — reproducibly
  across runs and processes — whether the message is *kept* (the kernel
  emits all of its spans) or *suppressed* (the kernel emits none: a field
  test per hop instead of a method call).
* The moment a suppressed message turns anomalous — a retry, a drop, or a
  stale delivery — the kernel calls :meth:`~SamplingTracer.promote` with
  the inject facts it still holds.  That emits a synthetic ``inject``
  span, and the kernel streams every later span of the message.
  Anomalous messages are therefore retained at 100% regardless of the
  sampling rate; the price of head sampling is only that a promoted
  message's pre-anomaly hops are summarised by the synthetic inject.
* Control-plane spans (faults, corruption lifecycle, churn lifecycle)
  always pass through — they are rare and load-bearing.

On :meth:`~SamplingTracer.close` the tracer emits one ``sample`` span
summarising its tallies.
"""

from __future__ import annotations

from typing import Dict

from repro.observability.tracer import Tracer, TraceEvent

__all__ = ["SamplingTracer"]

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15


def _mix(value: int, seed: int) -> int:
    """splitmix64 finaliser: cheap, well-distributed, dependency-free."""
    z = (value + (seed + 1) * _GOLDEN) & _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return z ^ (z >> 31)


class SamplingTracer(Tracer):
    """Head-sampled tracer: seeded per-message keep, anomalies always kept.

    Wraps a ``sink`` tracer (:class:`RecordingTracer`,
    :class:`JsonlTracer`, …) and forwards to it every span its emitter
    sends: those of a deterministic ``rate`` fraction of messages, of
    every message the emitter promotes, and every control-plane span.
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
        self.messages = 0
        self.kept_sampled = 0
        self.promoted = 0
        self._closed = False

    def emit(self, event: TraceEvent) -> None:
        self._sink.emit(event)

    def wants(self, msg_id: int) -> bool:
        """The seeded keep decision, tallied (ask once per message)."""
        self.messages += 1
        if (_mix(msg_id, self.seed) >> 32) < self._threshold:
            self.kept_sampled += 1
            return True
        return False

    def promote(
        self,
        msg_id: int,
        source: int,
        destination: int,
        inject_time: float = 0.0,
    ) -> None:
        """Start streaming a suppressed message: synthetic inject first."""
        self.promoted += 1
        self.inject(msg_id, source, destination, time=inject_time)

    def summary(self) -> Dict[str, float]:
        """Tallies of the sampling decisions taken so far.

        ``suppressed`` counts the messages the keep decision suppressed,
        promoted ones included.
        """
        return {
            "rate": self.rate,
            "seed": self.seed,
            "messages": self.messages,
            "kept_sampled": self.kept_sampled,
            "promoted": self.promoted,
            "suppressed": self.messages - self.kept_sampled,
        }

    def close(self, time: float = 0.0) -> None:
        """Emit the ``sample`` summary span (idempotent)."""
        if self._closed:
            return
        self._closed = True
        self.sample(
            "rate={rate} seed={seed} messages={messages} kept={kept_sampled} "
            "promoted={promoted} suppressed={suppressed}".format(
                **self.summary()
            ),
            time=time,
        )
