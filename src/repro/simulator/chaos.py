"""Dynamic fault injection: time-stamped failure/recovery schedules.

The static failure sets in :mod:`repro.simulator.failures` freeze the
network before a run.  A :class:`FaultSchedule` instead evolves the failure
set *during* a :class:`~repro.simulator.kernel.BatchKernel` run:
links flap, nodes crash and recover, whole regions go dark and come back.
That is the regime the paper's full-information schemes are designed for
("allow alternative, shortest, paths to be taken whenever an outgoing link
is down") and the one where retry/backoff recovery actually pays off —
a link that is down now may be up again one backoff later.

All generators are seeded and fully deterministic.
"""

from __future__ import annotations

import enum
import random
from dataclasses import dataclass, replace
from typing import (
    Any,
    Callable,
    FrozenSet,
    Generic,
    Iterable,
    Iterator,
    List,
    Optional,
    Protocol,
    Sequence,
    Set,
    Tuple,
    TypeVar,
)

from repro.bitio import BitArray
from repro.errors import GraphError
from repro.graphs import LabeledGraph, get_context

__all__ = [
    "FaultKind",
    "FaultEvent",
    "FaultSchedule",
    "MutationKind",
    "TableMutation",
    "TimedSchedule",
    "flapping_links",
    "renewal_faults",
    "regional_failures",
    "table_corruption",
]


class FaultKind(str, enum.Enum):
    """What a single scheduled fault event does to the network."""

    LINK_DOWN = "link down"
    LINK_UP = "link up"
    NODE_DOWN = "node down"
    NODE_UP = "node up"
    TABLE_CORRUPT = "table corrupt"
    """The node's packed routing-function bits are overwritten by a
    :class:`TableMutation` (the node itself stays up)."""
    TABLE_REPAIR = "table repair"
    """The node's function is rebuilt pristine from graph+model knowledge."""

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.value


_LINK_KINDS = frozenset({FaultKind.LINK_DOWN, FaultKind.LINK_UP})
_TABLE_KINDS = frozenset({FaultKind.TABLE_CORRUPT, FaultKind.TABLE_REPAIR})


class MutationKind(str, enum.Enum):
    """How a :class:`TableMutation` damages the packed function bits."""

    BIT_FLIP = "bit flip"
    BURST = "burst flip"
    TRUNCATE = "truncate"

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.value


@dataclass(frozen=True)
class TableMutation:
    """A deterministic corruption of one packed routing function.

    Offsets are stored unreduced and applied modulo the live table length,
    so one mutation object is meaningful for any node regardless of how
    long its encoding happens to be.
    """

    kind: MutationKind
    offsets: Tuple[int, ...] = (0,)
    """Bit positions to flip (BIT_FLIP) or the burst start (BURST);
    ignored by TRUNCATE."""
    span: int = 1
    """Burst length (BURST) or trailing bits dropped (TRUNCATE)."""

    def __post_init__(self) -> None:
        if not self.offsets:
            raise GraphError("table mutation needs at least one offset")
        if any(offset < 0 for offset in self.offsets):
            raise GraphError(
                f"mutation offsets must be >= 0, got {self.offsets!r}"
            )
        if self.span < 1:
            raise GraphError(f"mutation span must be >= 1, got {self.span}")

    def apply(self, bits: BitArray) -> BitArray:
        """The mutated copy of ``bits`` (empty tables pass through)."""
        n = len(bits)
        if n == 0:
            return bits
        if self.kind is MutationKind.TRUNCATE:
            return bits[: max(n - self.span, 0)]
        if self.kind is MutationKind.BIT_FLIP:
            positions = {offset % n for offset in self.offsets}
        else:  # BURST
            start = self.offsets[0] % n
            positions = set(range(start, min(start + self.span, n)))
        flipped = list(bits)
        for position in positions:
            flipped[position] ^= 1
        return BitArray(flipped)

    def describe(self) -> str:
        """Human-readable form for trace details."""
        if self.kind is MutationKind.TRUNCATE:
            return f"truncate {self.span} trailing bits"
        if self.kind is MutationKind.BIT_FLIP:
            plural = "s" if len(self.offsets) != 1 else ""
            at = ",".join(str(offset) for offset in self.offsets)
            return f"flip {len(self.offsets)} bit{plural} at offset{plural} {at}"
        return f"burst-flip {self.span} bits from offset {self.offsets[0]}"


@dataclass(frozen=True)
class FaultEvent:
    """One time-stamped change to the failure set."""

    time: float
    kind: FaultKind
    subject: Tuple[int, ...]
    """``(u, v)`` for link events, ``(node,)`` for node/table events."""
    mutation: Optional[TableMutation] = None
    """The table damage (TABLE_CORRUPT events only)."""

    def __post_init__(self) -> None:
        if self.time < 0:
            raise GraphError(f"fault event time must be >= 0, got {self.time}")
        expected = 2 if self.kind in _LINK_KINDS else 1
        if len(self.subject) != expected:
            raise GraphError(
                f"{self.kind.value} event needs {expected} subject node(s), "
                f"got {self.subject!r}"
            )
        if self.kind is FaultKind.TABLE_CORRUPT:
            if self.mutation is None:
                raise GraphError(
                    "table corrupt event needs a TableMutation"
                )
        elif self.mutation is not None:
            raise GraphError(
                f"{self.kind.value} event cannot carry a mutation"
            )

    # -- convenience constructors ------------------------------------------

    @classmethod
    def link_down(cls, time: float, u: int, v: int) -> "FaultEvent":
        """The link ``u–v`` fails at ``time``."""
        return cls(time, FaultKind.LINK_DOWN, (u, v))

    @classmethod
    def link_up(cls, time: float, u: int, v: int) -> "FaultEvent":
        """The link ``u–v`` recovers at ``time``."""
        return cls(time, FaultKind.LINK_UP, (u, v))

    @classmethod
    def node_down(cls, time: float, node: int) -> "FaultEvent":
        """Node ``node`` crashes at ``time``."""
        return cls(time, FaultKind.NODE_DOWN, (node,))

    @classmethod
    def node_up(cls, time: float, node: int) -> "FaultEvent":
        """Node ``node`` recovers at ``time``."""
        return cls(time, FaultKind.NODE_UP, (node,))

    @classmethod
    def table_corrupt(
        cls, time: float, node: int, mutation: TableMutation
    ) -> "FaultEvent":
        """Node ``node``'s packed function suffers ``mutation`` at ``time``."""
        return cls(time, FaultKind.TABLE_CORRUPT, (node,), mutation)

    @classmethod
    def table_repair(cls, time: float, node: int) -> "FaultEvent":
        """Node ``node``'s function is rebuilt pristine at ``time``."""
        return cls(time, FaultKind.TABLE_REPAIR, (node,))

    @property
    def link(self) -> Optional[FrozenSet[int]]:
        """The affected link as a frozenset, or None for node events."""
        if self.kind in _LINK_KINDS:
            return frozenset(self.subject)
        return None

    @property
    def node(self) -> Optional[int]:
        """The affected node, or None for link events."""
        if self.kind in _LINK_KINDS:
            return None
        return self.subject[0]


class _Timed(Protocol):
    """What a schedule orders: a time, a kind and the nodes acted on."""

    @property
    def time(self) -> float: ...

    @property
    def kind(self) -> enum.Enum: ...

    @property
    def subject(self) -> Tuple[int, ...]: ...


_T = TypeVar("_T", bound=_Timed)
_S = TypeVar("_S", bound="TimedSchedule[Any]")


class TimedSchedule(Generic[_T]):
    """An immutable sequence of timed items, ordered by time, kind, subject.

    The container :class:`FaultSchedule` and
    :class:`~repro.simulator.churn.ChurnSchedule` share; each adds its
    own validation and replay.
    """

    _noun = "events"

    def __init__(self, items: Iterable[_T] = ()) -> None:
        self._items: Tuple[_T, ...] = tuple(
            sorted(items, key=lambda e: (e.time, e.kind.value, e.subject))
        )

    def __len__(self) -> int:
        return len(self._items)

    def __iter__(self) -> Iterator[_T]:
        return iter(self._items)

    def __bool__(self) -> bool:
        return bool(self._items)

    def __repr__(self) -> str:
        return (
            f"{type(self).__name__}({len(self._items)} {self._noun}, "
            f"horizon={self.horizon:.2f})"
        )

    @property
    def horizon(self) -> float:
        """Time of the last scheduled item (0.0 when empty)."""
        return self._items[-1].time if self._items else 0.0

    def merged(self: _S, other: _S) -> _S:
        """Interleave two schedules into one time-ordered schedule."""
        return type(self)(self._items + other._items)

    def __add__(self: _S, other: _S) -> _S:
        return self.merged(other)

    def shifted(self: _S, delta: float) -> _S:
        """The same schedule displaced ``delta`` time units later."""
        return type(self)(
            replace(item, time=item.time + delta) for item in self._items
        )


class FaultSchedule(TimedSchedule[FaultEvent]):
    """An immutable, time-ordered sequence of :class:`FaultEvent`s."""

    @property
    def events(self) -> Tuple[FaultEvent, ...]:
        """The events in time order."""
        return self._items

    # -- validation and replay ---------------------------------------------

    def validate(self, graph: LabeledGraph) -> None:
        """Check every event references a real link/node of ``graph``."""
        for event in self._items:
            if event.kind in _LINK_KINDS:
                u, v = event.subject
                if not graph.has_edge(u, v):
                    raise GraphError(
                        f"fault schedule references non-edge {u}-{v}"
                    )
            else:
                node = event.subject[0]
                if not 1 <= node <= graph.n:
                    raise GraphError(
                        f"fault schedule references node {node} "
                        f"outside 1..{graph.n}"
                    )

    def state_at(
        self, time: float
    ) -> Tuple[Set[FrozenSet[int]], Set[int]]:
        """Replay the schedule: (failed links, failed nodes) at ``time``.

        Events stamped exactly ``time`` are considered applied, matching the
        kernel's fault-before-message tie-break.  Table events do not
        crash nodes; replay them with :meth:`corrupted_at`.
        """
        links: Set[FrozenSet[int]] = set()
        nodes: Set[int] = set()
        for event in self._items:
            if event.time > time:
                break
            if event.kind is FaultKind.LINK_DOWN:
                links.add(frozenset(event.subject))
            elif event.kind is FaultKind.LINK_UP:
                links.discard(frozenset(event.subject))
            elif event.kind is FaultKind.NODE_DOWN:
                nodes.add(event.subject[0])
            elif event.kind is FaultKind.NODE_UP:
                nodes.discard(event.subject[0])
            else:
                # TABLE_CORRUPT / TABLE_REPAIR: tracked by corrupted_at.
                continue
        return links, nodes

    def corrupted_at(self, time: float) -> Set[int]:
        """Replay only the table events: corrupt-table nodes at ``time``."""
        corrupt: Set[int] = set()
        for event in self._items:
            if event.time > time:
                break
            if event.kind is FaultKind.TABLE_CORRUPT:
                corrupt.add(event.subject[0])
            elif event.kind is FaultKind.TABLE_REPAIR:
                corrupt.discard(event.subject[0])
            else:
                # Link/node availability events: tracked by state_at.
                continue
        return corrupt


# ---------------------------------------------------------------------------
# Schedule generators
# ---------------------------------------------------------------------------


def _sample_links(
    graph: LabeledGraph, count: int, rng: random.Random
) -> List[Tuple[int, int]]:
    edges = list(graph.edges())
    if count > len(edges):
        raise GraphError(
            f"cannot schedule faults on {count} of {len(edges)} links"
        )
    return rng.sample(edges, count)


def flapping_links(
    graph: LabeledGraph,
    count: int,
    period: float = 10.0,
    duty: float = 0.5,
    horizon: float = 100.0,
    seed: int = 0,
    stagger: bool = True,
) -> FaultSchedule:
    """``count`` random links flap periodically until ``horizon``.

    Each sampled link repeats a down/up cycle of length ``period``, spending
    ``duty`` of every cycle down.  With ``stagger`` each link gets a random
    phase offset so the failure set churns continuously instead of
    blinking in lockstep.
    """
    if period <= 0:
        raise GraphError(f"flap period must be positive, got {period}")
    if not 0 < duty < 1:
        raise GraphError(f"duty cycle must be in (0, 1), got {duty}")
    if horizon <= 0:
        raise GraphError(f"horizon must be positive, got {horizon}")
    rng = random.Random(seed)
    events: List[FaultEvent] = []
    for u, v in _sample_links(graph, count, rng):
        phase = rng.uniform(0.0, period) if stagger else 0.0
        down_for = period * duty
        start = phase
        while start < horizon:
            events.append(FaultEvent.link_down(start, u, v))
            recover = min(start + down_for, horizon)
            events.append(FaultEvent.link_up(recover, u, v))
            start += period
    return FaultSchedule(events)


def renewal_faults(
    graph: LabeledGraph,
    horizon: float = 100.0,
    seed: int = 0,
    link_count: int = 0,
    link_mtbf: float = 20.0,
    link_mttr: float = 5.0,
    node_count: int = 0,
    node_mtbf: float = 50.0,
    node_mttr: float = 10.0,
) -> FaultSchedule:
    """An MTBF/MTTR renewal process per sampled link and node.

    Each chosen component alternates exponentially distributed up-times
    (mean ``mtbf``) and down-times (mean ``mttr``), the classic reliability
    model.  Components start up; the first failure of each arrives after
    one exponential up-time.
    """
    for name, value in (
        ("horizon", horizon),
        ("link_mtbf", link_mtbf),
        ("link_mttr", link_mttr),
        ("node_mtbf", node_mtbf),
        ("node_mttr", node_mttr),
    ):
        if value <= 0:
            raise GraphError(f"{name} must be positive, got {value}")
    rng = random.Random(seed)
    events: List[FaultEvent] = []

    def _alternate(
        down: Callable[[float], FaultEvent],
        up: Callable[[float], FaultEvent],
        mtbf: float,
        mttr: float,
    ) -> None:
        clock = rng.expovariate(1.0 / mtbf)
        while clock < horizon:
            events.append(down(clock))
            clock += rng.expovariate(1.0 / mttr)
            recover = min(clock, horizon)
            events.append(up(recover))
            if clock >= horizon:
                break
            clock += rng.expovariate(1.0 / mtbf)

    for u, v in _sample_links(graph, link_count, rng):
        _alternate(
            lambda t, u=u, v=v: FaultEvent.link_down(t, u, v),
            lambda t, u=u, v=v: FaultEvent.link_up(t, u, v),
            link_mtbf,
            link_mttr,
        )
    nodes = list(graph.nodes)
    if node_count > len(nodes):
        raise GraphError(
            f"cannot schedule faults on {node_count} of {len(nodes)} nodes"
        )
    for node in rng.sample(nodes, node_count):
        _alternate(
            lambda t, node=node: FaultEvent.node_down(t, node),
            lambda t, node=node: FaultEvent.node_up(t, node),
            node_mtbf,
            node_mttr,
        )
    return FaultSchedule(events)


def regional_failures(
    graph: LabeledGraph,
    regions: int = 1,
    radius: int = 1,
    duration: float = 20.0,
    horizon: float = 100.0,
    seed: int = 0,
    protect: Optional[Sequence[int]] = None,
) -> FaultSchedule:
    """Correlated regional outages: whole hop-balls crash together.

    Each region picks a random epicentre and a random outage start in
    ``[0, horizon - duration]``; every unprotected node within ``radius``
    hops of the epicentre crashes at the start and recovers ``duration``
    later.  Models the correlated failures (power loss, cable cut) that
    independent per-link models miss.
    """
    if radius < 0:
        raise GraphError(f"radius must be >= 0, got {radius}")
    if duration <= 0 or horizon <= 0 or duration > horizon:
        raise GraphError(
            f"need 0 < duration <= horizon, got {duration}, {horizon}"
        )
    protected = set(protect or ())
    rng = random.Random(seed)
    events: List[FaultEvent] = []
    for _ in range(regions):
        epicenter = rng.randrange(1, graph.n + 1)
        start = rng.uniform(0.0, horizon - duration)
        # Every region (and every repeated schedule on one graph) reads
        # its ball off the shared context's one distance matrix.
        for node in sorted(get_context(graph).ball(epicenter, radius)):
            if node in protected:
                continue
            events.append(FaultEvent.node_down(start, node))
            events.append(FaultEvent.node_up(start + duration, node))
    return FaultSchedule(events)


# The offset space mutations draw from; applied modulo the table length,
# so any value >= the longest encoding is uniform over positions.
_OFFSET_SPACE = 1 << 24


def table_corruption(
    graph: LabeledGraph,
    count: int,
    horizon: float = 100.0,
    seed: int = 0,
    kinds: Sequence[MutationKind] = (MutationKind.BIT_FLIP,),
    flips: int = 1,
    burst_span: int = 8,
    truncate_bits: int = 4,
    repair_delay: Optional[float] = None,
) -> FaultSchedule:
    """``count`` distinct nodes suffer one table corruption each.

    Corruption times are uniform in ``[0, horizon)``; each event's
    :class:`TableMutation` kind is drawn from ``kinds`` with the given
    parameters (``flips`` independent bit flips, ``burst_span``-bit
    bursts, ``truncate_bits`` dropped trailing bits).  With
    ``repair_delay`` set, a blind :attr:`FaultKind.TABLE_REPAIR` (a
    periodic table re-push, independent of detection) follows each
    corruption after that delay; leave it ``None`` to let the simulator's
    detection-triggered self-healer do the repairs instead.

    Seeded and fully deterministic, like every other generator here.
    """
    if horizon <= 0:
        raise GraphError(f"horizon must be positive, got {horizon}")
    if not kinds:
        raise GraphError("table corruption needs at least one mutation kind")
    if flips < 1 or burst_span < 1 or truncate_bits < 1:
        raise GraphError(
            f"mutation sizes must be >= 1, got flips={flips}, "
            f"burst_span={burst_span}, truncate_bits={truncate_bits}"
        )
    if repair_delay is not None and repair_delay <= 0:
        raise GraphError(
            f"repair delay must be positive, got {repair_delay}"
        )
    nodes = list(graph.nodes)
    if count > len(nodes):
        raise GraphError(
            f"cannot corrupt {count} of {len(nodes)} tables"
        )
    rng = random.Random(seed)
    events: List[FaultEvent] = []
    for node in rng.sample(nodes, count):
        time = rng.uniform(0.0, horizon)
        kind = kinds[rng.randrange(len(kinds))]
        if kind is MutationKind.BIT_FLIP:
            mutation = TableMutation(
                kind,
                offsets=tuple(
                    rng.randrange(_OFFSET_SPACE) for _ in range(flips)
                ),
            )
        elif kind is MutationKind.BURST:
            mutation = TableMutation(
                kind,
                offsets=(rng.randrange(_OFFSET_SPACE),),
                span=burst_span,
            )
        else:
            mutation = TableMutation(kind, span=truncate_bits)
        events.append(FaultEvent.table_corrupt(time, node, mutation))
        if repair_delay is not None:
            events.append(
                FaultEvent.table_repair(time + repair_delay, node)
            )
    return FaultSchedule(events)
