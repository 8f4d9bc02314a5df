"""The timed routing kernel: one simulator, two lanes, one record stream.

:class:`BatchKernel` executes a routing scheme in simulated time over the
struct-of-arrays :class:`~repro.simulator.message.MessageBatch`.  Hops
cost ``link_latency`` on the wire; with ``node_service_time`` set every
node serialises its forwarding work (``queue_capacity`` turns backlog
into drops); a :class:`~repro.simulator.chaos.FaultSchedule` evolves the
failure and table-corruption state during the run; a
:class:`~repro.simulator.churn.ChurnSchedule` rewires the topology while
repair installs stream in; a
:class:`~repro.simulator.recovery.RetryPolicy` re-injects dropped
messages at their source.

The drain loop takes one *cohort* at a time — the rows whose ready time
equals the earliest pending time — from an index of ready times (a heap
of distinct times, one row bucket per time), and the kernel picks the
cohort's lane:

* the **scalar lane** — :meth:`BatchKernel._step_one`, one exact step per
  row in ascending row order: liveness, quarantine, hop-limit and
  routing-loop checks, the forwarding decision via
  :meth:`~repro.simulator.network.Network._choose_hop` and its adjacency
  check (a forward over an edge the live graph lacks drops ``LINK_DOWN``
  when the graph of the node's stored table has that edge, and
  ``INVALID_FORWARD`` when it does not), drop details, spans and
  counters.  The hop semantics are written here and nowhere else.
* the **quiescent drain** — :meth:`BatchKernel._drain_quiescent`, for a
  cohort of at least :data:`_MIN_BATCH_ROWS` rows that nothing outside
  them can perturb: no tracer, node service time, churn schedule or
  queued event, a :attr:`~repro.simulator.network.Network.quiescent`
  network, and a derivable next-hop matrix
  (:meth:`~repro.graphs.context.GraphContext.next_hop_matrix`).  Its
  rows walk to completion in lockstep gathers off the matrix; a row
  without a matrix entry, with header state or at the hop limit leaves
  it through the scalar step.  Every other cohort takes the scalar lane.

Each :meth:`BatchKernel.drain` tallies the rows it hands to each lane,
the cohorts that skipped the drain and the rows that left it, each by
the first failing check, in plain ints, and publishes them once at its
end as :data:`KERNEL_ROWS`, :data:`DRAIN_SKIPS` and :data:`DRAIN_EXITS`.

Under those conditions a matrix gather is exactly the scalar step's
decision, so the default lane choice and ``batch=False`` (every cohort
through the scalar lane) produce **bit-identical**
:class:`~repro.simulator.message.DeliveryRecord` streams.  That
equivalence is the batch boundary's contract, enforced by a hypothesis
property over every registered scheme with latency, queueing, chaos,
churn and corruption enabled, and on clean runs that reach the drain.

Outcomes stay in the batch's columns past the boundary: :meth:`run`
returns a :class:`~repro.simulator.message.DeliveryRecords` view that
builds a record only when one is read, and the metrics aggregate the
columns without building any.

Retry backoff jitter draws from a *per-message* :class:`random.Random`
seeded as ``retry_seed * 1_000_003 + msg_id``, so a message's backoffs
do not depend on how other messages' outcomes interleave.
"""

from __future__ import annotations

import heapq
import itertools
import random
from dataclasses import dataclass
from typing import Any, Dict, Iterable, List, Optional, Set, Tuple, Union

import numpy as np

from repro.core import RoutingScheme
from repro.core.repair import RepairPlan, plan_repair
from repro.errors import IntegrityError, ReproError, RoutingError
from repro.observability.profiling import timed
from repro.observability.registry import get_registry
from repro.observability.tracer import (
    Subject,
    Tracer,
    link_subject,
    node_subject,
)
from repro.simulator.chaos import FaultEvent, FaultKind, FaultSchedule
from repro.simulator.churn import (
    ChurnSchedule,
    TopologyMutation,
    TopologyMutationKind,
)
from repro.simulator.message import DeliveryRecords, DropReason, MessageBatch
from repro.simulator.network import Network
from repro.simulator.recovery import RetryPolicy

__all__ = ["BatchKernel", "DRAIN_EXITS", "DRAIN_SKIPS", "KERNEL_ROWS"]

KERNEL_ROWS = "repro_kernel_rows_total"
"""Counter of the rows each :meth:`BatchKernel.drain` handed to each lane
(``lane=drain|scalar``), a row once per cohort that holds it."""

DRAIN_SKIPS = "repro_kernel_drain_skips_total"
"""Counter of the cohorts that took the scalar lane, by the first reason
the quiescent drain could not take them: ``small_cohort``, ``batch_off``,
``service_time``, ``tracer``, ``churn``, ``events_queued``,
``not_quiescent`` or ``no_matrix``."""

DRAIN_EXITS = "repro_kernel_drain_exits_total"
"""Counter of the rows that left the quiescent drain for the scalar step,
by the first check they failed: ``no_entry`` (the next-hop matrix has no
neighbour for the row), ``header_state`` or ``hop_limit``.  Every
:meth:`BatchKernel.drain` adds to all three, so a run whose drained rows
all delivered reads 0."""

_EXIT_REASONS = ("no_entry", "header_state", "hop_limit")
"""The :data:`DRAIN_EXITS` reasons, in the order the drain checks them."""

_MIN_BATCH_ROWS = 8
"""Smallest cohort the quiescent drain takes; smaller ones step row by row.

Measured on fault-free full-table over G(128, 1/2) on a shared 2-core
host: cohorts of k uniform-pair rows moving in lockstep (one or two hops
each), time spent stepping the cohort, drain over scalar step (medians
of 600 alternated runs, three runs): 2.25-2.30 at k=1, 1.53-1.63 at
k=2, 1.06-1.12 at k=4, 0.63-0.69 at k=8, 0.34-0.39 at k=16.  A drain
costs a near-fixed 50-75 µs of numpy calls per cohort, about what four
rows' scalar steps cost, so below that one exact step per row is
cheaper."""

# Drops worth retrying: the condition that caused them can heal as the
# fault schedule advances (ROUTING_LOOP: as churn repair converges).  A
# scheme bug (INVALID_FORWARD) cannot.
_RETRYABLE = frozenset(
    {
        DropReason.ENDPOINT_DOWN,
        DropReason.LINK_DOWN,
        DropReason.NODE_DOWN,
        DropReason.HOP_LIMIT,
        DropReason.NO_ROUTE,
        DropReason.QUEUE_OVERFLOW,
        DropReason.TABLE_CORRUPT,
        DropReason.ROUTING_LOOP,
    }
)


@dataclass(frozen=True)
class _RepairTick:
    """Internal event: start planning a repair for one churn generation."""

    generation: int


@dataclass(frozen=True)
class _TableInstall:
    """Internal event: one staggered table install of the active plan."""

    generation: int
    node: int
    bits: int
    final: bool
    """Last install of the plan — convergence finalises after it."""


def _live_tracer(tracer: Optional[Tracer]) -> Optional[Tracer]:
    """Normalise disabled tracers to ``None`` so the hot path pays one test."""
    if tracer is not None and tracer.enabled:
        return tracer
    return None


def _mutation_subject(mutation: TopologyMutation) -> Subject:
    """The trace subject a topology mutation acts on."""
    if mutation.kind in (
        TopologyMutationKind.EDGE_ADD,
        TopologyMutationKind.EDGE_REMOVE,
    ):
        return link_subject(*mutation.subject)
    return node_subject(mutation.subject[0])


_Event = Union[FaultEvent, TopologyMutation, _RepairTick, _TableInstall]
_EventEntry = Tuple[float, int, _Event]
_Bucket = Tuple[List[int], List[np.ndarray]]
"""The rows due at one ready time: single rows, and ascending row arrays."""


class BatchKernel:
    """Timed execution of one routing scheme, cohort by cohort.

    :meth:`inject` schedules messages and :meth:`run` drains them,
    returning one record per message **in injection order** (the batch's
    row order — stable across worker counts and lane splits).  Events at
    time ``t`` (faults, mutations, repair steps) apply before any message
    step at ``t``, so a link that dies at ``t`` is dead for every hop
    taken at ``t``.

    ``link_latency`` is the wire time of one hop.  A positive
    ``node_service_time`` makes each node forward one message at a time,
    so traffic concentrating on a node — the Theorem 4 hub, a hotspot
    destination — queues up; ``queue_capacity`` (messages of backlog)
    turns overload into ``QUEUE_OVERFLOW`` drops.

    ``TABLE_CORRUPT`` fault events mutate a node's packed routing
    function.  When the damage is *detected* (checksum or structural
    failure at decode/route time) the node is quarantined and — with a
    ``repair_delay`` — healed that long after detection; the detection
    latency lands in the ``repro_corruption_detection_latency`` histogram.

    Under a ``churn_schedule`` each mutation updates the live graph at
    once while the installed tables keep describing the old topology.
    ``churn_repair_delay`` after a mutation a repair plan rebuilds only
    the dirtied tables (``incremental_repair=False`` forces the
    full-rebuild control arm); ``churn_repair_rate`` (bits per time unit,
    ``None`` = instantaneous) staggers the installs.  A newer mutation
    aborts an in-flight plan, and the tables it already installed are
    forced dirty in the next one.  Messages forwarded during the stale
    window are marked ``stale`` and watched by a per-attempt routing-loop
    detector; :meth:`churn_summary` reports the episode accounting.

    ``batch=False`` routes every cohort through the scalar lane — the
    reference stream the default lane choice reproduces bit-for-bit.
    """

    def __init__(
        self,
        scheme: RoutingScheme,
        *,
        link_latency: float = 1.0,
        failed_links: Iterable[Tuple[int, int]] = (),
        failed_nodes: Iterable[int] = (),
        node_service_time: float = 0.0,
        queue_capacity: Optional[int] = None,
        fault_schedule: Optional[FaultSchedule] = None,
        retry_policy: Optional[RetryPolicy] = None,
        retry_seed: int = 0,
        tracer: Optional[Tracer] = None,
        repair_delay: Optional[float] = None,
        churn_schedule: Optional[ChurnSchedule] = None,
        churn_repair_delay: float = 5.0,
        churn_repair_rate: Optional[float] = None,
        incremental_repair: bool = True,
        batch: bool = True,
    ) -> None:
        self._network = Network(scheme, failed_links, failed_nodes)
        if link_latency <= 0:
            raise RoutingError(
                f"link latency must be positive, got {link_latency}"
            )
        if node_service_time < 0:
            raise RoutingError(
                f"service time must be non-negative, got {node_service_time}"
            )
        if queue_capacity is not None and queue_capacity < 1:
            raise RoutingError(
                f"queue capacity must be positive, got {queue_capacity}"
            )
        if repair_delay is not None and repair_delay <= 0:
            raise RoutingError(
                f"repair delay must be positive, got {repair_delay}"
            )
        if churn_repair_delay <= 0:
            raise RoutingError(
                f"churn repair delay must be positive, got {churn_repair_delay}"
            )
        if churn_repair_rate is not None and churn_repair_rate <= 0:
            raise RoutingError(
                f"churn repair rate must be positive, got {churn_repair_rate}"
            )
        if (
            churn_schedule is not None
            and self._network.scheme.address_of(1) != 1
        ):
            # Repaired schemes re-derive their own labels; only plain-label
            # addressing survives a table swap mid-flight.
            raise RoutingError(
                "live topology churn requires a plain-label scheme "
                "(address_of(u) == u)"
            )
        if churn_schedule is not None:
            self._check_node_churn(churn_schedule)
        self._batch = batch
        self._latency = link_latency
        self._service = node_service_time
        self._capacity = queue_capacity
        self._schedule = fault_schedule
        self._retry = retry_policy
        self._retry_seed = retry_seed
        self._retry_rngs: Dict[int, random.Random] = {}
        self._repair_delay = repair_delay
        self._tracer = _live_tracer(tracer)
        # Pending injections as columns; their message ids are the
        # contiguous range starting at _next_id.
        self._next_id = 0
        self._sources: List[int] = []
        self._destinations: List[int] = []
        self._times: List[float] = []
        self._pending_traced: List[bool] = []
        self._events: List[_EventEntry] = []
        self._sequence = itertools.count()
        self._control_events = 0
        self._limit = 0
        self._corrupted_at: Dict[int, float] = {}
        self._hop_sets: Dict[Tuple[int, int], Set[Tuple[int, Any]]] = {}
        self._addresses: Dict[int, Any] = {}
        self._forward_counts: Dict[int, int] = {}
        self._busy_until: Dict[int, float] = {}
        # Ready index: a heap of distinct pending ready times, and the
        # rows filed under each one.
        self._ready_times: List[float] = []
        self._buckets: Dict[float, _Bucket] = {}
        # Live topology churn state.
        self._churn = churn_schedule
        self._churn_delay = churn_repair_delay
        self._churn_rate = churn_repair_rate
        self._incremental = incremental_repair
        self._generation = 0
        self._pending_mutations: List[TopologyMutation] = []
        self._stale_since: Optional[float] = None
        self._active_plan: Optional[RepairPlan] = None
        self._plan_installed: Set[int] = set()
        self._aborted_installs: Set[int] = set()
        self._convergence_times: List[float] = []
        self._churn_stats: Dict[str, int] = {
            "mutations": 0,
            "repairs": 0,
            "tables_rebuilt": 0,
            "tables_reused": 0,
            "bits_rewritten": 0,
            "bits_reused": 0,
        }
        # Open trace spans for causal links: corrupt span per damaged
        # node, the latest mutate span (repairs link to it) and the first
        # mutate span of the current churn episode (converged links to it).
        self._corrupt_spans: Dict[int, int] = {}
        self._mutate_span: Optional[int] = None
        self._episode_root_span: Optional[int] = None
        # The quiescent drain's next-hop matrix, derived once per scheme.
        self._matrix_scheme: Optional[RoutingScheme] = None
        self._matrix: Optional[np.ndarray] = None
        self._matrix_complete = False
        self._fwd_pending: List[np.ndarray] = []
        # Lane tallies of the current drain(), published once at its end.
        self._drain_rows = 0
        self._scalar_rows = 0
        self._drain_skips: Dict[str, int] = {}
        self._drain_exits = dict.fromkeys(_EXIT_REASONS, 0)
        # Per-row kernel bookkeeping (sized at run()).
        self._has_state = np.zeros(0, dtype=bool)
        # Per-row trace verdicts (filled only under a tracer), a list so
        # the scalar step's per-hop test costs no numpy call.
        self._traced: List[bool] = []
        self.batch: Optional[MessageBatch] = None

    # -- public surface -------------------------------------------------------

    @property
    def network(self) -> Network:
        """The underlying failure-state holder (live during a run)."""
        return self._network

    @property
    def forward_counts(self) -> Dict[int, int]:
        """Messages forwarded per node in the last :meth:`run`."""
        counts = self._forward_counts
        if self._fwd_pending:
            # The quiescent drain defers its (0-based) hop sources here;
            # one bincount on first read replaces a per-step accumulate.
            hop0 = np.concatenate(self._fwd_pending)
            self._fwd_pending = []
            for node0, count in enumerate(np.bincount(hop0).tolist()):
                if count:
                    counts[node0 + 1] = counts.get(node0 + 1, 0) + count
        return dict(counts)

    def churn_summary(self) -> Dict[str, object]:
        """Episode accounting of the last run's churn convergence.

        ``bits_full`` is what full rebuilds would have pushed over the
        same episodes; ``converged`` reports whether every mutation's
        repair completed before the run drained.
        """
        stats = self._churn_stats
        return {
            "mutations": stats["mutations"],
            "repairs": stats["repairs"],
            "tables_rebuilt": stats["tables_rebuilt"],
            "tables_reused": stats["tables_reused"],
            "bits_rewritten": stats["bits_rewritten"],
            "bits_reused": stats["bits_reused"],
            "bits_full": stats["bits_rewritten"] + stats["bits_reused"],
            "convergence_times": list(self._convergence_times),
            "converged": self._stale_since is None,
        }

    def inject(self, source: int, destination: int, at_time: float = 0.0) -> None:
        """Schedule one message (call before :meth:`run`).

        Message ids count up across the kernel's lifetime: the next
        :meth:`drain` numbers its rows from where the previous one stopped.
        """
        tracer = self._tracer
        if tracer is not None:
            msg_id = self._next_id + len(self._sources)
            traced = tracer.wants(msg_id)
            if traced:
                tracer.inject(msg_id, source, destination, time=at_time)
            self._pending_traced.append(traced)
        self._sources.append(source)
        self._destinations.append(destination)
        self._times.append(at_time)

    def run(self) -> DeliveryRecords:
        """Drain every injected message; one record per row, row order.

        The records are a read-only view over the finished batch's
        columns (no ``append`` or ``sort``; a slice is a list): a record
        is built only when it is read.
        """
        return self.drain().records()

    @timed("simulator.drain")
    def drain(self) -> MessageBatch:
        """Route every injected message, leaving outcomes in SoA form.

        Returns the finished :class:`MessageBatch` with every row
        inactive; its :meth:`~MessageBatch.records` view is what
        :meth:`run` returns.  The registry phase ``simulator.drain``
        times each call, and each call adds its lane tallies to
        :data:`KERNEL_ROWS`, :data:`DRAIN_SKIPS` and :data:`DRAIN_EXITS`.
        """
        nw = self._network
        self._limit = nw.scheme.hop_limit()
        self._hop_sets = {}
        self._retry_rngs = {}
        self._forward_counts = {}
        self._busy_until = {}
        self._fwd_pending = []
        self._drain_rows = self._scalar_rows = 0
        self._drain_skips = {}
        self._drain_exits = dict.fromkeys(_EXIT_REASONS, 0)
        first = self._next_id
        size = len(self._sources)
        batch = MessageBatch(
            np.arange(first, first + size, dtype=np.int64),
            self._sources,
            self._destinations,
            self._times,
            self._limit,
        )
        self._next_id = first + size
        self._traced = self._pending_traced
        self._sources, self._destinations, self._times = [], [], []
        self._pending_traced = []
        self._has_state = np.zeros(batch.size, dtype=bool)
        self.batch = batch
        self._index_injections(batch)
        if self._schedule is not None:
            for event in self._schedule:
                heapq.heappush(
                    self._events,
                    (event.time, next(self._sequence), event),
                )
        if self._churn is not None:
            for mutation in self._churn:
                self._push_control(mutation, mutation.time)
        ready_times = self._ready_times
        events = self._events
        while True:
            if ready_times:
                now = ready_times[0]
                while events and events[0][0] <= now:
                    time, _, payload = heapq.heappop(events)
                    self._dispatch_event(payload, time)
                heapq.heappop(ready_times)
                self._step_cohort(batch, self._buckets.pop(now), now)
            elif self._control_events:
                if not events:  # pragma: no cover - defensive
                    break
                time, _, payload = heapq.heappop(events)
                self._dispatch_event(payload, time)
            else:
                break
        self._events = []
        self._control_events = 0
        registry = get_registry()
        registry.counter(KERNEL_ROWS, lane="drain").inc(self._drain_rows)
        registry.counter(KERNEL_ROWS, lane="scalar").inc(self._scalar_rows)
        for reason, cohorts in self._drain_skips.items():
            registry.counter(DRAIN_SKIPS, reason=reason).inc(cohorts)
        for reason, rows in self._drain_exits.items():
            registry.counter(DRAIN_EXITS, reason=reason).inc(rows)
        return batch

    # -- ready index ----------------------------------------------------------

    def _index_injections(self, batch: MessageBatch) -> None:
        """File every injected row under its ready time.

        A batch injected at one instant becomes a single bucket without
        sorting; mixed times are filed in one stable argsort order, so
        the heap of distinct times comes out already sorted.
        """
        self._ready_times = []
        self._buckets = {}
        if batch.size == 0:
            return
        ready = batch.ready
        first = float(ready[0])
        if bool((ready == first).all()):
            self._buckets[first] = ([], [np.arange(batch.size)])
            self._ready_times.append(first)
            return
        order = np.argsort(ready, kind="stable")
        buckets = self._buckets
        for time, i in zip(ready[order].tolist(), order.tolist()):
            bucket = buckets.get(time)
            if bucket is None:
                buckets[time] = ([i], [])
            else:
                bucket[0].append(i)
        self._ready_times = list(buckets)

    def _bucket(self, time: float) -> _Bucket:
        """The bucket of rows due at ``time``, opened on first use."""
        bucket = self._buckets.get(time)
        if bucket is None:
            bucket = self._buckets[time] = ([], [])
            heapq.heappush(self._ready_times, time)
        return bucket

    # -- event plumbing -------------------------------------------------------

    def _push_control(self, payload: _Event, at_time: float) -> None:
        """Queue a churn control event (mutation / repair tick / install).

        Control events keep the drain loop alive after every message has
        resolved, so convergence always completes.
        """
        heapq.heappush(
            self._events, (at_time, next(self._sequence), payload)
        )
        self._control_events += 1

    def _dispatch_event(self, payload: _Event, now: float) -> None:
        if isinstance(payload, FaultEvent):
            self._apply_timed_fault(payload, now)
            return
        self._control_events -= 1
        if isinstance(payload, TopologyMutation):
            self._apply_mutation_event(payload, now)
        elif isinstance(payload, _RepairTick):
            self._start_repair(payload, now)
        else:
            self._apply_install(payload, now)

    def _apply_timed_fault(self, event: FaultEvent, now: float) -> None:
        """Apply one scheduled fault, with corruption-lifecycle tracing.

        Every span carries the simulated time; quarantine spans are
        emitted in :meth:`_on_detection`.
        """
        tracer = self._tracer
        if event.kind is FaultKind.TABLE_CORRUPT:
            node = event.subject[0]
            self._network.apply_fault(event)
            self._corrupted_at[node] = now
            if tracer is not None:
                detail = (
                    event.mutation.describe()
                    if event.mutation is not None
                    else None
                )
                self._corrupt_spans[node] = tracer.corrupt(
                    node=node, time=now, detail=detail
                )
            return
        if event.kind is FaultKind.TABLE_REPAIR:
            node = event.subject[0]
            healed = self._network.heal_table(node)
            self._corrupted_at.pop(node, None)
            if healed and tracer is not None:
                tracer.heal(
                    node=node, time=now,
                    cause=self._corrupt_spans.pop(node, None),
                )
            return
        if tracer is not None:
            subject = (
                link_subject(*event.subject)
                if len(event.subject) == 2
                else node_subject(event.subject[0])
            )
            tracer.fault(kind=event.kind.value, subject=subject, time=now)
        self._network.apply_fault(event)

    def _on_detection(self, node: int, now: float) -> None:
        """Record the detection latency and plan the heal.

        Runs once per corruption episode: the detection quarantines the
        node, and a quarantined node never reaches the forwarding
        decision again until fresh damage, a heal or an install.
        """
        tracer = self._tracer
        if tracer is not None:
            tracer.quarantine(
                node=node, time=now, cause=self._corrupt_spans.get(node)
            )
        corrupted_since = self._corrupted_at.pop(node, None)
        if corrupted_since is not None:
            get_registry().histogram(
                "repro_corruption_detection_latency"
            ).observe(now - corrupted_since)
        if self._repair_delay is not None:
            heal_time = now + self._repair_delay
            heapq.heappush(
                self._events,
                (
                    heal_time,
                    next(self._sequence),
                    FaultEvent.table_repair(heal_time, node),
                ),
            )

    # -- live topology churn --------------------------------------------------

    def _check_node_churn(self, schedule: ChurnSchedule) -> None:
        """Refuse node churn the scheme cannot be repaired under.

        A node that leaves stays isolated until it rejoins, so the
        repairs in between rebuild the scheme on a disconnected graph.
        The scheme's own rebuild decides whether it accepts one: it is
        tried once, on the live graph right after the first leave.
        """
        leave = next(
            (m for m in schedule if m.kind is TopologyMutationKind.NODE_LEAVE),
            None,
        )
        if leave is None:
            return
        scheme = self._network.scheme
        graph = schedule.graph_at(scheme.graph, leave.time)
        try:
            scheme.rebuild(graph)
        except ReproError as exc:
            raise RoutingError(
                f"node churn isolates node {leave.subject[0]}, and "
                f"{scheme.scheme_name} cannot be rebuilt on that graph "
                f"({exc}); use edge churn only (--kinds edges)"
            ) from exc

    def _apply_mutation_event(
        self, mutation: TopologyMutation, now: float
    ) -> None:
        """Mutate the live topology and (re)arm the repair reaction."""
        self._network.apply_mutation(mutation)
        self._pending_mutations.append(mutation)
        self._churn_stats["mutations"] += 1
        if self._stale_since is None:
            self._stale_since = now
        if self._active_plan is not None:
            # A newer mutation invalidates the in-flight repair; whatever
            # it already installed describes neither the old nor the next
            # converged graph, so those nodes are forced dirty next plan.
            self._aborted_installs |= self._plan_installed
            self._active_plan = None
            self._plan_installed = set()
        self._generation += 1
        tracer = self._tracer
        if tracer is not None:
            self._mutate_span = tracer.mutate(
                kind=mutation.kind.value,
                subject=_mutation_subject(mutation),
                time=now,
                detail=mutation.describe(),
            )
            if self._episode_root_span is None:
                self._episode_root_span = self._mutate_span
        self._push_control(
            _RepairTick(self._generation), now + self._churn_delay
        )

    def _start_repair(self, tick: _RepairTick, now: float) -> None:
        """Plan the repair for the current generation and begin installs."""
        if tick.generation != self._generation or self._active_plan is not None:
            return  # superseded by a newer mutation
        plan = plan_repair(
            self._network.scheme,
            self._network.live_graph,
            full=not self._incremental,
            extra_dirty=self._aborted_installs,
        )
        self._active_plan = plan
        self._plan_installed = set()
        stats = self._churn_stats
        stats["repairs"] += 1
        stats["tables_rebuilt"] += len(plan.dirty)
        stats["tables_reused"] += len(plan.clean)
        stats["bits_rewritten"] += plan.bits_rewritten
        stats["bits_reused"] += plan.bits_reused
        get_registry().counter("repro_churn_repairs_total").inc()
        if not plan.table_bits or self._churn_rate is None:
            for node, bits in plan.table_bits:
                self._install_node(plan.new_scheme, node, bits, now)
            self._finalize_convergence(now)
            return
        elapsed = 0.0
        last = len(plan.table_bits) - 1
        for index, (node, bits) in enumerate(plan.table_bits):
            # Deliberate ratio: bits over a bits-per-time rate is a time.
            elapsed += bits / self._churn_rate  # repro-lint: disable=R001
            self._push_control(
                _TableInstall(tick.generation, node, bits, index == last),
                now + elapsed,
            )

    def _install_node(
        self, scheme: RoutingScheme, node: int, bits: int, now: float
    ) -> None:
        """Install one repaired table of ``bits`` encoded bits."""
        self._network.install_table(node, scheme)
        self._plan_installed.add(node)
        tracer = self._tracer
        if tracer is not None:
            tracer.repair(
                node=node, time=now,
                detail=f"{bits} bits reinstalled",
                cause=self._mutate_span,
            )

    def _apply_install(self, install: _TableInstall, now: float) -> None:
        """Apply one staggered install; the final one converges."""
        if install.generation != self._generation or self._active_plan is None:
            return  # superseded by a newer mutation
        self._install_node(
            self._active_plan.new_scheme, install.node, install.bits, now
        )
        if install.final:
            self._finalize_convergence(now)

    def _finalize_convergence(self, now: float) -> None:
        """Swap in the converged scheme and close the churn episode."""
        plan = self._active_plan
        assert plan is not None
        self._network.install_scheme(plan.new_scheme)
        histogram = get_registry().histogram("repro_churn_convergence_time")
        for mutation in self._pending_mutations:
            histogram.observe(now - mutation.time)
        duration = (
            now - self._stale_since if self._stale_since is not None else 0.0
        )
        self._convergence_times.append(duration)
        tracer = self._tracer
        if tracer is not None:
            tracer.converged(
                time=now, duration=duration, detail=plan.describe(),
                cause=self._episode_root_span,
            )
            self._episode_root_span = None
        self._pending_mutations = []
        self._stale_since = None
        self._active_plan = None
        self._plan_installed = set()
        self._aborted_installs = set()

    # -- cohort stepping ------------------------------------------------------

    def _step_cohort(
        self, batch: MessageBatch, bucket: _Bucket, now: float
    ) -> None:
        """Step the cohort due at ``now``: drain it, or step it row by row.

        Both lanes visit the cohort's rows in ascending row order.  The
        cohort's rows are tallied under the lane that takes them, and a
        cohort the drain cannot take under the first reason why.
        """
        singles, arrays = bucket
        if not arrays and len(singles) < _MIN_BATCH_ROWS:
            reason: Optional[str] = "small_cohort"
            order = sorted(singles)
        else:
            if singles:
                arrays.append(np.array(sorted(singles), dtype=np.intp))
            if len(arrays) == 1:
                rows = arrays[0]
            else:
                rows = np.sort(np.concatenate(arrays))
            reason = (
                "small_cohort"
                if rows.size < _MIN_BATCH_ROWS
                else self._drain_skip()
            )
            if reason is None:
                self._drain_rows += rows.size
                self._drain_quiescent(batch, rows, now)
                return
            order = rows.tolist()
        skips = self._drain_skips
        skips[reason] = skips.get(reason, 0) + 1
        self._scalar_rows += len(order)
        for i in order:
            self._step_one(batch, i, now)

    def _drain_skip(self) -> Optional[str]:
        """Why a cohort may not take the quiescent drain now, or ``None``.

        The drain needs rows that nothing outside them can perturb:
        ``batch`` on, and no node service time, tracer, churn schedule,
        queued event or network fault state; the first check that fails
        names the reason.  The next-hop matrix is derived once per
        installed scheme, and only when it is needed (``no_matrix`` when
        the scheme has none).
        """
        nw = self._network
        if not self._batch:
            return "batch_off"
        if self._service > 0:
            return "service_time"
        if self._tracer is not None:
            return "tracer"
        if self._churn is not None:
            return "churn"
        if self._events:
            return "events_queued"
        if not nw.quiescent:
            return "not_quiescent"
        scheme = nw.scheme
        if scheme is not self._matrix_scheme:
            self._matrix_scheme = scheme
            self._matrix = scheme.ctx.next_hop_matrix(scheme)
            if self._matrix is not None:
                # Complete off the diagonal means the quiescent drain can
                # skip the per-step no-route check entirely.
                off_diag = self._matrix.copy()
                np.fill_diagonal(off_diag, 1)
                self._matrix_complete = bool((off_diag >= 1).all())
            else:
                self._matrix_complete = False
        return "no_matrix" if self._matrix is None else None

    def _drain_quiescent(
        self, batch: MessageBatch, rows: np.ndarray, now: float
    ) -> None:
        """Advance lockstep cohorts with pure gather/scatter steps.

        Entered only when nothing outside a row can perturb it (see
        :meth:`_drain_skip`), so rows are mutually independent and the
        whole cohort can be walked to completion without returning to
        the drain loop.  Rows that arrive deliver unconditionally; rows
        that carry header state, hit the hop limit or lack a matrix entry
        leave the lockstep set through the exact scalar step (and, after
        a retry backoff, re-enter via the ready index at their own ready
        time).  Each surviving step is one arrival compare, one 1-D
        ``take`` from the flattened next-hop matrix at the flat index
        ``cur * n + dst``, and one write of the step's hops into a single
        column of the column-major path buffer, at flat positions
        ``plen * size + row`` kept in ``pkey`` — the untraced hot path the
        throughput bench measures.  Both flat indices are ``intp``, so
        neither can overflow on a large graph or batch.
        """
        matrix = self._matrix
        assert matrix is not None  # _drain_skip derived it
        nw = self._network
        limit = self._limit
        latency = self._latency
        next_flat = matrix.ravel()
        n = matrix.shape[1]
        size = batch.size
        idx = rows
        # Row position is kept in compacted local copies; the shared
        # arrays are scattered to only when a row delivers, leaves for
        # the scalar lane, or the drain hands control back.  A row's
        # path length is pkey // size (0 <= row < size).
        cur0 = batch.current[idx] - 1
        dst0 = batch.destination[idx] - 1
        plen = batch.plen[idx]
        pkey = np.multiply(plen, size, dtype=np.intp)
        pkey += idx
        state_any = bool(self._has_state[idx].any())
        # Steps every row can take before any could trip the hop limit
        # (hops = plen - 1 grows by one per step); until then the limit
        # check is provably redundant.
        safe_steps = limit - int(plen.max())
        needed = int(plen.max()) + 1
        complete = self._matrix_complete
        # Deliveries and forward counts are deferred and flushed in one
        # shot after the loop; nothing inside the drain reads them back.
        done_idx: List[np.ndarray] = []
        done_key: List[np.ndarray] = []
        done_time: List[float] = []
        while True:
            arrived = cur0 == dst0
            if arrived.any():
                done_idx.append(idx[arrived])
                done_key.append(pkey[arrived])
                done_time.append(now)
                keep = ~arrived
                idx = idx[keep]
                if not idx.size:
                    break
                cur0 = cur0[keep]
                dst0 = dst0[keep]
                pkey = pkey[keep]
            key = np.multiply(cur0, n, dtype=np.intp)
            key += dst0
            nxt = next_flat.take(key)
            if state_any or safe_steps <= 0 or not complete:
                ok = nxt >= 1
                if state_any:
                    ok &= ~self._has_state[idx]
                if safe_steps <= 0:
                    ok &= pkey < (limit + 1) * size
                if not ok.all():
                    leave = ~ok
                    out = idx[leave]
                    # Tally the leaving rows by the first check they fail.
                    entry = nxt[leave] >= 1
                    stateful = int(np.count_nonzero(self._has_state[out] & entry))
                    missing = out.size - int(np.count_nonzero(entry))
                    exits = self._drain_exits
                    exits["no_entry"] += missing
                    exits["header_state"] += stateful
                    exits["hop_limit"] += out.size - missing - stateful
                    batch.current[out] = cur0[leave] + 1
                    batch.plen[out] = pkey[leave] // size
                    batch.ready[out] = now
                    for i in out.tolist():
                        self._step_one(batch, i, now)
                    idx = idx[ok]
                    cur0 = cur0[ok]
                    dst0 = dst0[ok]
                    pkey = pkey[ok]
                    nxt = nxt[ok]
                    if not nw.quiescent:
                        # A slow row touched shared network state; hand
                        # the rest back to the ready index, whose next
                        # pop steps them row by row.
                        batch.current[idx] = cur0 + 1
                        batch.plen[idx] = pkey // size
                        batch.ready[idx] = now
                        if idx.size:
                            self._bucket(now)[1].append(idx)
                        break
                    if not idx.size:
                        break
                    if state_any:
                        state_any = bool(self._has_state[idx].any())
            self._fwd_pending.append(cur0)
            batch.ensure_path_capacity(needed)
            batch.path.ravel(order="F")[pkey] = nxt
            pkey += size
            cur0 = nxt - 1
            now += latency
            safe_steps -= 1
            needed += 1
        if done_idx:
            done = np.concatenate(done_idx)
            batch.delivered[done] = True
            batch.active[done] = False
            batch.current[done] = batch.destination[done]
            batch.plen[done] = np.concatenate(done_key) // size
            times = np.repeat(
                np.asarray(done_time), [d.size for d in done_idx]
            )
            batch.completed[done] = times
            batch.ready[done] = times

    # -- scalar lane ----------------------------------------------------------

    def _address_of(self, destination: int) -> Any:
        address = self._addresses.get(destination)
        if address is None:
            address = self._network.scheme.address_of(destination)
            self._addresses[destination] = address
        return address

    def _step_one(self, batch: MessageBatch, i: int, now: float) -> None:
        """One exact scalar step for row ``i`` at time ``now``."""
        nw = self._network
        current = batch.current.item(i)
        destination = batch.destination.item(i)
        if current == destination:
            if current in nw._failed_nodes:
                self._finish(
                    batch, i, now,
                    DropReason.ENDPOINT_DOWN,
                    f"destination {current} crashed before arrival",
                    subject=node_subject(current),
                )
            else:
                self._finish(batch, i, now, None)
            return
        if current in nw._failed_nodes:
            hops = batch.plen.item(i) - 1
            reason = (
                DropReason.ENDPOINT_DOWN if hops == 0 else DropReason.NODE_DOWN
            )
            self._finish(
                batch, i, now, reason,
                f"node {current} holding the message is down",
                subject=node_subject(current),
            )
            return
        if current in nw._quarantined:
            self._finish(
                batch, i, now,
                DropReason.TABLE_CORRUPT,
                f"node {current} is quarantined with a corrupt table",
                subject=node_subject(current),
            )
            return
        if batch.plen.item(i) - 1 >= self._limit:
            self._finish(
                batch, i, now,
                DropReason.HOP_LIMIT,
                f"hop limit {self._limit} exceeded",
            )
            return
        state = batch.state[i]
        if self._churn is not None:
            # A forwarding decision made while tables are converging
            # marks the message stale; revisiting a node with identical
            # header state during that window is a routing loop.
            if self._stale_since is not None:
                batch.stale[i] = True
            if self._looped(batch, i, current, state):
                get_registry().counter("repro_routing_loops_total").inc()
                self._finish(
                    batch, i, now,
                    DropReason.ROUTING_LOOP,
                    f"revisited node {current} with identical header "
                    f"state during churn convergence",
                    subject=node_subject(current),
                )
                return
        try:
            decision = nw._choose_hop(
                current, self._address_of(destination), state, destination
            )
        except IntegrityError as exc:
            self._on_detection(current, now)
            self._finish(
                batch, i, now,
                DropReason.TABLE_CORRUPT,
                str(exc),
                subject=node_subject(current),
            )
            return
        except RoutingError as exc:
            self._finish(batch, i, now, DropReason.NO_ROUTE, str(exc))
            return
        next_node = decision.next_node
        if next_node in nw._quarantined and next_node != destination:
            self._finish(
                batch, i, now,
                DropReason.TABLE_CORRUPT,
                f"next hop {next_node} is quarantined with a corrupt table",
                subject=node_subject(next_node),
            )
            return
        if (
            next_node != current
            and next_node not in nw.live_graph.neighbor_set(current)
        ):
            if next_node in nw.holder(current).graph.neighbor_set(current):
                # A stored table forwarding over a mutated-away edge.
                self._finish(
                    batch, i, now,
                    DropReason.LINK_DOWN,
                    f"link {current}-{next_node} was removed by a "
                    f"topology mutation",
                    subject=link_subject(current, next_node),
                )
            else:
                self._finish(
                    batch, i, now,
                    DropReason.INVALID_FORWARD,
                    f"{current} forwarded to non-adjacent {next_node}",
                )
            return
        # A single-path scheme may have chosen a dead link or node.
        if nw._failed and frozenset((current, next_node)) in nw._failed:
            self._finish(
                batch, i, now,
                DropReason.LINK_DOWN,
                f"link {current}-{next_node} is down",
                subject=link_subject(current, next_node),
            )
            return
        if next_node in nw._failed_nodes:
            self._finish(
                batch, i, now,
                DropReason.NODE_DOWN,
                f"node {next_node} is down",
                subject=node_subject(next_node),
            )
            return
        # Serialise forwarding through the node's processor.
        departure = now
        if self._service > 0:
            busy = self._busy_until.get(current, 0.0)
            if (
                self._capacity is not None
                and max(busy - now, 0.0) / self._service >= self._capacity
            ):
                self._finish(
                    batch, i, now,
                    DropReason.QUEUE_OVERFLOW,
                    f"queue overflow at node {current}",
                    subject=node_subject(current),
                )
                return
            departure = max(now, busy) + self._service
            self._busy_until[current] = departure
        self._forward_counts[current] = (
            self._forward_counts.get(current, 0) + 1
        )
        arrival = departure + self._latency
        tracer = self._tracer
        if tracer is not None and self._traced[i]:
            tracer.hop(
                batch.msg_id.item(i),
                node=current,
                next_node=next_node,
                hop=batch.plen.item(i) - 1,
                time=now,
                duration=arrival - now,
                attempt=batch.attempt.item(i),
            )
        batch.state[i] = decision.state
        if decision.state is not None:
            self._has_state[i] = True
        batch.append_hop(i, next_node)
        batch.ready[i] = arrival
        self._bucket(arrival)[0].append(i)

    def _looped(
        self, batch: MessageBatch, i: int, current: int, state: Any
    ) -> bool:
        """The per-attempt ``(node, state)`` revisit check.

        While every header state of the attempt has been ``None`` the
        seen-set is exactly the previously visited nodes, so the path
        prefix answers membership without a side table.  Once a
        non-``None`` state appears the row is pinned to the scalar lane
        and an explicit seen-set takes over, seeded from the
        (all-``None``) path prefix.
        """
        if not self._has_state[i]:
            plen = batch.plen.item(i)
            for j in range(plen - 1):
                if int(batch.path[i, j]) == current:
                    return True
            return False
        key = (batch.msg_id.item(i), batch.attempt.item(i))
        seen = self._hop_sets.get(key)
        if seen is None:
            seen = {
                (int(batch.path[i, j]), None)
                for j in range(batch.plen.item(i) - 1)
            }
            self._hop_sets[key] = seen
        entry = (current, state)
        try:
            looped = entry in seen
            if not looped:
                seen.add(entry)
        except TypeError:
            # Unhashable header state: loop detection skipped; the hop
            # limit still bounds the walk.
            looped = False
        return looped

    def _finish(
        self,
        batch: MessageBatch,
        i: int,
        now: float,
        reason: Optional[DropReason],
        detail: Optional[str] = None,
        subject: Optional[Tuple[str, ...]] = None,
    ) -> None:
        """Record a final outcome, or re-arm the row for a retry.

        ``subject`` names the failed entity behind a fault-caused drop
        (``("link", u, v)`` / ``("node", u)``) so traces can attribute the
        drop to the fault window that produced it.
        """
        tracer = self._tracer
        msg_id = batch.msg_id.item(i)
        source = batch.source.item(i)
        destination = batch.destination.item(i)
        attempt = batch.attempt.item(i)
        traced = tracer is not None and self._traced[i]
        stale = batch.stale.item(i)
        hops = batch.plen.item(i) - 1
        injected_at = batch.injected.item(i)
        if reason is None:
            # A stale delivery is anomalous: promote it even though the
            # message was suppressed at inject and never dropped.
            if tracer is not None and (traced or stale):
                if not traced:
                    tracer.promote(msg_id, source, destination, injected_at)
                tracer.deliver(
                    msg_id,
                    node=destination,
                    time=now,
                    hop=hops,
                    attempt=attempt,
                    detail="stale" if stale else None,
                )
            batch.finish_delivered(i, now)
            return
        if (
            self._retry is not None
            and reason in _RETRYABLE
            and attempt < self._retry.max_retries
        ):
            rng = self._retry_rngs.get(msg_id)
            if rng is None:
                rng = random.Random(self._retry_seed * 1_000_003 + msg_id)
                self._retry_rngs[msg_id] = rng
            backoff = self._retry.delay(attempt, rng)
            if tracer is not None:
                if not traced:
                    tracer.promote(msg_id, source, destination, injected_at)
                tracer.retry(
                    msg_id,
                    source=source,
                    attempt=attempt + 1,
                    time=now,
                    reason=reason.name,
                    duration=backoff,
                )
            batch.reset_for_retry(i, now + backoff)
            self._bucket(now + backoff)[0].append(i)
            self._has_state[i] = False
            if tracer is not None:
                # A retried message is traced from here on: it turned
                # anomalous, and its promotion already opened its span.
                self._traced[i] = True
            return
        if tracer is not None:
            if not traced:
                tracer.promote(msg_id, source, destination, injected_at)
            tracer.drop(
                msg_id,
                node=batch.current.item(i),
                reason=reason.name,
                time=now,
                detail=detail,
                subject=subject,
                attempt=attempt,
                hop=hops,
            )
        batch.finish_dropped(i, reason, detail, now)
