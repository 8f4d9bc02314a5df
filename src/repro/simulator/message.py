"""Message state carried by the network simulator.

The kernel (:mod:`repro.simulator.kernel`) keeps every in-flight message
in the struct-of-arrays :class:`MessageBatch`, which both of its lanes
read and write.  Outcomes stay columns until they are read: a finished
batch hands out :class:`DeliveryRecords`, a read-only sequence that
builds a frozen :class:`DeliveryRecord` only for the element read, and
whose columns :mod:`repro.simulator.metrics` aggregates directly.
"""

from __future__ import annotations

import enum
import math
import operator
from dataclasses import dataclass
from typing import (
    Any,
    Dict,
    Iterator,
    List,
    Optional,
    Sequence,
    Tuple,
    Union,
    overload,
)

import numpy as np

__all__ = [
    "DropReason",
    "DeliveryRecord",
    "DeliveryRecords",
    "MessageBatch",
    "DROP_REASON_CODES",
    "DROP_REASON_BY_CODE",
    "NO_DROP",
]


class DropReason(str, enum.Enum):
    """Structured taxonomy of why a message failed to deliver.

    The ``str`` mixin keeps records greppable (``"down" in reason`` works on
    the member itself) while giving experiments a closed vocabulary to
    aggregate over instead of parsing free text.  Human-oriented context
    (which link, which node) travels separately in
    :attr:`DeliveryRecord.drop_detail`.
    """

    ENDPOINT_DOWN = "endpoint down"
    """The source was down when the message (or a retry) left it, or the
    destination crashed while the message was on its last link."""
    LINK_DOWN = "link down"
    """The chosen outgoing link was failed when the message tried it."""
    NODE_DOWN = "node down"
    """The chosen next hop (or the holding node itself) was crashed."""
    HOP_LIMIT = "hop limit exceeded"
    """The walk exceeded the scheme's loop-detection hop budget."""
    NO_ROUTE = "no route"
    """The local routing function had no usable entry (e.g. every
    shortest-path edge toward the destination has failed)."""
    INVALID_FORWARD = "invalid forward"
    """A function named a non-adjacent next hop — a scheme bug surfaced."""
    QUEUE_OVERFLOW = "queue overflow"
    """A node's forwarding backlog exceeded its queue capacity."""
    TABLE_CORRUPT = "table corrupt"
    """A node's packed routing function failed its integrity check (or a
    quarantined node was asked to forward); retryable — the self-healer
    rebuilds the table from graph+model knowledge after the repair delay."""
    ROUTING_LOOP = "routing loop"
    """Churn loop detection: the message revisited a node with identical
    header state while tables were converging after a topology mutation;
    retryable — the retransmission sees the repaired tables."""

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.value


@dataclass(frozen=True)
class DeliveryRecord:
    """Outcome of one routed message."""

    msg_id: int
    source: int
    destination: int
    delivered: bool
    hops: int
    path: tuple[int, ...]
    latency: float = 0.0
    """Simulated time from first injection to the final outcome,
    inclusive of retry backoff delays."""
    drop_reason: Optional[DropReason] = None
    drop_detail: Optional[str] = None
    """Free-text context for the drop (which link, which node, ...)."""
    retries: int = 0
    """Source-side re-transmissions performed before this outcome."""
    injected_at: float = math.nan
    """Simulated time of the first injection."""
    completed_at: float = math.nan
    """Simulated time of the final outcome."""
    stale: bool = False
    """At least one hop decision used a table not yet repaired after a
    topology mutation; a delivered-and-stale record is a *stale delivery*
    (correct destination, possibly detoured route)."""

    @property
    def time_to_delivery(self) -> float:
        """Injection-to-outcome time from the record's own timestamps.

        Includes every retry backoff window; NaN when the timestamps were
        not recorded.
        """
        return self.completed_at - self.injected_at


DROP_REASON_CODES: Dict[DropReason, int] = {
    reason: code for code, reason in enumerate(DropReason)
}
"""Dense integer code of each :class:`DropReason` (batch-kernel encoding)."""

DROP_REASON_BY_CODE: Tuple[DropReason, ...] = tuple(DropReason)
"""Inverse of :data:`DROP_REASON_CODES`: ``DROP_REASON_BY_CODE[code]``."""

NO_DROP: int = -1
"""Sentinel drop code for messages that have not (yet) been dropped."""


class MessageBatch:
    """A cohort of in-flight messages as parallel arrays (struct-of-arrays).

    The batch kernel advances every column in lockstep; the scalar slow
    lane reads and writes the same arrays per index, so the two lanes can
    interleave freely without conversion.  Outcomes scatter back out as
    ordinary :class:`DeliveryRecord` objects via :meth:`records`.

    Per-attempt path prefixes live in one shared ``[size, capacity]``
    buffer, stored column-major (``order="F"``): column ``j`` holds every
    row's ``j``-th node contiguously.  The quiescent drain moves a whole
    cohort one hop per step and writes that hop into one column, so the
    writes of a step land side by side instead of one cache line per row
    (a row-major buffer of 256 columns puts consecutive rows' entries
    1 KB apart).  Reading one record's path walks a row with a stride of
    ``size`` entries, which :meth:`DeliveryRecords.__iter__` pays once per
    record read.  The buffer starts at ``min(limit + 2, 64)`` columns and
    quadruples on demand (:meth:`ensure_path_capacity`) instead of being
    pre-sized to the hop limit — a 16k-message batch at ``n=256`` would
    otherwise allocate tens of megabytes it never touches.
    """

    __slots__ = (
        "size", "msg_id", "source", "destination", "current", "attempt",
        "plen", "stale", "active", "ready", "injected",
        "completed", "delivered", "drop_code", "drop_detail", "state",
        "path", "_path_capacity",
    )

    def __init__(
        self,
        msg_ids: Union[Sequence[int], np.ndarray],
        sources: Sequence[int],
        destinations: Sequence[int],
        inject_times: Sequence[float],
        limit: int,
    ) -> None:
        size = len(sources)
        if not (len(msg_ids) == len(destinations) == len(inject_times) == size):
            raise ValueError("batch columns must have equal length")
        self.size = size
        self.msg_id = np.asarray(msg_ids, dtype=np.int64)
        self.source = np.asarray(sources, dtype=np.int32)
        self.destination = np.asarray(destinations, dtype=np.int32)
        self.current = self.source.copy()
        self.attempt = np.zeros(size, dtype=np.int32)
        self.plen = np.ones(size, dtype=np.int32)
        self.stale = np.zeros(size, dtype=bool)
        self.active = np.ones(size, dtype=bool)
        self.ready = np.asarray(inject_times, dtype=np.float64).copy()
        self.injected = self.ready.copy()
        self.completed = np.full(size, math.nan, dtype=np.float64)
        self.delivered = np.zeros(size, dtype=bool)
        self.drop_code = np.full(size, NO_DROP, dtype=np.int32)
        self.drop_detail: List[Optional[str]] = [None] * size
        self.state: List[Any] = [None] * size
        self._path_capacity = max(2, min(int(limit) + 2, 64))
        self.path = np.zeros(
            (size, self._path_capacity), dtype=np.int32, order="F"
        )
        self.path[:, 0] = self.source

    def ensure_path_capacity(self, needed: int) -> None:
        """Grow the shared path buffer so every row can hold ``needed`` nodes.

        The buffer stays column-major, so the copy moves whole columns.
        The grown columns are left uninitialised: every reader slices row
        ``i`` to ``plen[i]`` nodes, so columns past the prefix are never
        observed (zeroing tens of megabytes per growth would dominate
        the drain loop on large batches).
        """
        if needed <= self._path_capacity:
            return
        capacity = self._path_capacity
        while capacity < needed:
            # Quadrupling halves the copy generations a long drain pays
            # versus doubling; the slack columns are transient per run.
            capacity *= 4
        grown = np.empty((self.size, capacity), dtype=np.int32, order="F")
        grown[:, : self._path_capacity] = self.path
        self.path = grown
        self._path_capacity = capacity

    def append_hop(self, i: int, node: int) -> None:
        """Record one traversed hop for row ``i`` and move it to ``node``."""
        plen = self.plen.item(i)
        self.ensure_path_capacity(plen + 1)
        self.path[i, plen] = node
        self.plen[i] = plen + 1
        self.current[i] = node

    def finish_delivered(self, i: int, time: float) -> None:
        """Mark row ``i`` delivered at ``time`` and deactivate it."""
        self.delivered[i] = True
        self.completed[i] = time
        self.active[i] = False

    def finish_dropped(
        self, i: int, reason: DropReason, detail: Optional[str], time: float
    ) -> None:
        """Mark row ``i`` dropped at ``time`` and deactivate it."""
        self.drop_code[i] = DROP_REASON_CODES[reason]
        self.drop_detail[i] = detail
        self.completed[i] = time
        self.active[i] = False

    def reset_for_retry(self, i: int, ready_at: float) -> None:
        """Re-arm row ``i`` as a fresh attempt from its source at ``ready_at``.

        Path, header state and the staleness mark reset; the attempt
        counter advances; the first injection time is preserved for
        latency accounting.
        """
        self.attempt[i] += 1
        self.current[i] = self.source[i]
        self.plen[i] = 1
        self.path[i, 0] = self.source[i]
        self.state[i] = None
        self.stale[i] = False
        self.drop_code[i] = NO_DROP
        self.drop_detail[i] = None
        self.ready[i] = ready_at

    def records(self) -> DeliveryRecords:
        """Every row's outcome, in injection (row) order, as a view.

        Raises ``ValueError`` while a row is still in flight.
        """
        if self.active.any():
            i = int(np.argmax(self.active))
            raise ValueError(f"message row {i} is still in flight")
        return DeliveryRecords(self)


class DeliveryRecords(Sequence[DeliveryRecord]):
    """A finished batch's outcomes: a read-only sequence of records.

    Backed by the batch's columns, so element ``i`` is built only when it
    is read.  Iteration converts every column in bulk (``ndarray.tolist``)
    instead of round-tripping one numpy scalar per field per row, so
    ``list(view)`` costs what building the records eagerly did.  A slice
    returns a list; ``==`` compares element by element with any sequence;
    like a list, the view is unhashable.
    """

    __slots__ = ("_batch",)

    def __init__(self, batch: MessageBatch) -> None:
        self._batch = batch

    @property
    def batch(self) -> MessageBatch:
        """The finished batch whose columns this view reads."""
        return self._batch

    def __len__(self) -> int:
        return self._batch.size

    @overload
    def __getitem__(self, index: int) -> DeliveryRecord: ...

    @overload
    def __getitem__(self, index: slice) -> List[DeliveryRecord]: ...

    def __getitem__(
        self, index: Union[int, slice]
    ) -> Union[DeliveryRecord, List[DeliveryRecord]]:
        if isinstance(index, slice):
            return list(self._build(index))
        size = self._batch.size
        i = operator.index(index)
        if i < 0:
            i += size
        if not 0 <= i < size:
            raise IndexError(f"record index {index} out of range for {size}")
        return next(self._build(slice(i, i + 1)))

    def __iter__(self) -> Iterator[DeliveryRecord]:
        return self._build(slice(None))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Sequence):
            return NotImplemented
        return len(self) == len(other) and all(
            mine == theirs for mine, theirs in zip(self, other)
        )

    def __repr__(self) -> str:
        return f"DeliveryRecords({len(self)} records)"

    def _build(self, rows: slice) -> Iterator[DeliveryRecord]:
        """The records of ``rows``, each column converted once."""
        batch = self._batch
        msg_ids = batch.msg_id[rows].tolist()
        sources = batch.source[rows].tolist()
        destinations = batch.destination[rows].tolist()
        delivered = batch.delivered[rows].tolist()
        plens = batch.plen[rows].tolist()
        injected = batch.injected[rows].tolist()
        completed = batch.completed[rows].tolist()
        codes = batch.drop_code[rows].tolist()
        attempts = batch.attempt[rows].tolist()
        stales = batch.stale[rows].tolist()
        details = batch.drop_detail[rows]
        path = batch.path[rows]
        for i, plen in enumerate(plens):
            yield DeliveryRecord(
                msg_id=msg_ids[i],
                source=sources[i],
                destination=destinations[i],
                delivered=delivered[i],
                hops=plen - 1 if plen > 1 else 0,
                path=tuple(path[i, :plen].tolist()),
                latency=completed[i] - injected[i],
                drop_reason=(
                    None if codes[i] == NO_DROP else DROP_REASON_BY_CODE[codes[i]]
                ),
                drop_detail=details[i],
                retries=attempts[i],
                injected_at=injected[i],
                completed_at=completed[i],
                stale=stales[i],
            )
