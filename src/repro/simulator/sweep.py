"""One run description, one builder, and the multiprocessing sweep driver.

A :class:`SweepTask` describes a whole ``simulate`` run as primitives
named after the command's flags (argparse dests): scheme, graph and
workload, and the fault axes, each off by default and free to compose —
static link/node failures, a timed fault schedule, table corruption under
optional integrity framing, live topology churn — plus retries.
:func:`build_run` turns a task into the graph, the scheme (framing first,
then detour), a :class:`~repro.simulator.kernel.BatchKernel` carrying
every axis the task switches on, and the kernel's injections.  The CLI's
single run and every ``--workers`` replica go through it alike.

With only static failures on, every message is injected at t=0 (outcomes
cannot depend on injection time); with any timed axis on, injection
times are uniform over ``[0, 0.8 * horizon]``, seeded by ``seed``.

Nothing live crosses the process boundary, so results are a pure function
of the task description and :func:`run_sweep` returns the same
:class:`SweepResult` list for any worker count — a property the test
suite pins via the per-task record digest.
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass, replace
from typing import Collection, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core import RoutingScheme, build_scheme, default_model
from repro.core.detour import DetourWrapper
from repro.errors import ReproError
from repro.graphs import LabeledGraph, gnp_random_graph
from repro.integrity import FramingPolicy, IntegrityWrapper
from repro.models import RoutingModel
from repro.observability.tracer import Tracer
from repro.simulator.chaos import (
    FaultSchedule,
    MutationKind,
    flapping_links,
    regional_failures,
    renewal_faults,
    table_corruption,
)
from repro.simulator.churn import (
    ChurnSchedule,
    TopologyMutationKind,
    random_churn,
)
from repro.simulator.failures import (
    sample_link_failures,
    sample_node_failures,
)
from repro.simulator.kernel import BatchKernel
from repro.simulator.message import DROP_REASON_BY_CODE, NO_DROP, DeliveryRecord
from repro.simulator.metrics import _columns, _tally
from repro.simulator.recovery import RetryPolicy
from repro.simulator.workloads import (
    all_to_one,
    hotspot_pairs,
    one_to_all,
    permutation_traffic,
    uniform_pairs,
)

__all__ = [
    "CHURN_KINDS",
    "MUTATIONS",
    "SCHEDULES",
    "WORKLOADS",
    "Run",
    "SweepTask",
    "SweepResult",
    "build_run",
    "run_task",
    "run_sweep",
    "seed_replicas",
]

WORKLOADS = ("uniform", "hotspot", "all-to-one", "one-to-all", "permutation")
SCHEDULES = ("none", "flapping", "renewal", "regional")
MUTATIONS: Dict[str, Tuple[MutationKind, ...]] = {
    "bit-flip": (MutationKind.BIT_FLIP,),
    "burst": (MutationKind.BURST,),
    "truncate": (MutationKind.TRUNCATE,),
    "mixed": (
        MutationKind.BIT_FLIP,
        MutationKind.BURST,
        MutationKind.TRUNCATE,
    ),
}
CHURN_KINDS: Dict[str, Tuple[TopologyMutationKind, ...]] = {
    "edges": (
        TopologyMutationKind.EDGE_ADD,
        TopologyMutationKind.EDGE_REMOVE,
    ),
    "nodes": (
        TopologyMutationKind.NODE_LEAVE,
        TopologyMutationKind.NODE_JOIN,
    ),
    "all": (
        TopologyMutationKind.EDGE_ADD,
        TopologyMutationKind.EDGE_REMOVE,
        TopologyMutationKind.NODE_LEAVE,
        TopologyMutationKind.NODE_JOIN,
    ),
}


def _check_choice(field: str, value: object, choices: Collection[str]) -> None:
    if value not in choices:
        raise ReproError(
            f"unknown {field} {value!r}; expected one of {tuple(choices)}"
        )


@dataclass(frozen=True)
class SweepTask:
    """One simulation run, as primitives named after ``simulate``'s flags."""

    scheme: str
    n: int
    seed: int = 0
    """Failure samples, schedules, workload, retry jitter and injection
    clock all derive from this seed (the CLI's ``--seed``)."""
    graph_seed: Optional[int] = None
    """Seed of G(n, 1/2); defaults to ``seed``, and seed replicas keep it."""
    model: Optional[RoutingModel] = None
    """Routing model (defaults to :func:`~repro.core.default_model`)."""
    messages: int = 200
    workload: str = "uniform"
    # Static failures, sampled up front.
    failures: int = 0
    node_failures: int = 0
    # Timed fault schedule (``none`` = off).
    schedule: str = "none"
    horizon: float = 100.0
    """Schedules and injections land in ``[0, horizon]``."""
    chaos_links: Optional[int] = None
    """Links under churn (defaults to half the edges)."""
    chaos_nodes: int = 0
    period: float = 10.0
    duty: float = 0.5
    mtbf: float = 20.0
    mttr: float = 5.0
    regions: int = 2
    radius: int = 1
    outage: float = 20.0
    # Table corruption (``corrupt_nodes == 0`` = off) and scheme wrappers.
    corrupt_nodes: int = 0
    mutation: str = "bit-flip"
    flips: int = 1
    burst_span: int = 8
    truncate_bits: int = 4
    repair_delay: float = 10.0
    """Heal a detected table this long after detection (<= 0: never)."""
    framing: str = FramingPolicy.NONE.value
    detour: bool = False
    # Live topology churn (``events == 0`` = off).
    events: int = 0
    kinds: str = "edges"
    churn_repair_delay: float = 5.0
    repair_rate: Optional[float] = None
    full_rebuild: bool = False
    # Source retries (``retries == 0`` = off).
    retries: int = 0
    backoff_base: float = 1.0
    backoff_multiplier: float = 2.0
    max_delay: float = 60.0
    jitter: float = 0.1
    batch: bool = True
    """``False`` forces the kernel's all-scalar reference lane."""

    def __post_init__(self) -> None:
        if self.graph_seed is None:
            object.__setattr__(self, "graph_seed", self.seed)
        if self.messages < 0:
            raise ReproError(f"messages must be >= 0, got {self.messages}")
        if self.retries < 0:
            raise ReproError(f"retries must be >= 0, got {self.retries}")
        _check_choice("workload", self.workload, WORKLOADS)
        _check_choice("schedule", self.schedule, SCHEDULES)
        _check_choice("mutation", self.mutation, MUTATIONS)
        _check_choice("churn kinds", self.kinds, CHURN_KINDS)
        _check_choice(
            "framing", self.framing, [policy.value for policy in FramingPolicy]
        )

    @property
    def timed(self) -> bool:
        """Whether any timed axis (schedule, corruption, churn) is on."""
        return (
            self.schedule != "none" or self.corrupt_nodes > 0 or self.events > 0
        )

    @property
    def heal_delay(self) -> Optional[float]:
        """The self-heal delay, or ``None`` when healing is off."""
        return self.repair_delay if self.repair_delay > 0 else None

    def retry_policy(self) -> Optional[RetryPolicy]:
        """The retry policy the retry fields describe (None when off)."""
        if self.retries == 0:
            return None
        return RetryPolicy(
            max_attempts=self.retries + 1,
            base_delay=self.backoff_base,
            multiplier=self.backoff_multiplier,
            max_delay=self.max_delay,
            jitter=self.jitter,
        )

    def graph(self) -> LabeledGraph:
        """The task's G(n, 1/2) sample."""
        return gnp_random_graph(self.n, seed=self.graph_seed)


@dataclass(frozen=True)
class Run:
    """A task built into live objects: the kernel holds its injections."""

    task: SweepTask
    graph: LabeledGraph
    scheme: RoutingScheme
    kernel: BatchKernel
    faults: Optional[FaultSchedule]
    """The timed fault schedule (``None`` when the axis is off)."""
    corruption: Optional[FaultSchedule]
    churn: Optional[ChurnSchedule]


def _fault_schedule(
    task: SweepTask, graph: LabeledGraph
) -> Optional[FaultSchedule]:
    if task.schedule == "none":
        return None
    links = (
        task.chaos_links
        if task.chaos_links is not None
        else graph.edge_count // 2
    )
    if task.schedule == "flapping":
        return flapping_links(
            graph, links, period=task.period, duty=task.duty,
            horizon=task.horizon, seed=task.seed,
        )
    if task.schedule == "renewal":
        return renewal_faults(
            graph, horizon=task.horizon, seed=task.seed,
            link_count=links, link_mtbf=task.mtbf, link_mttr=task.mttr,
            node_count=task.chaos_nodes,
        )
    return regional_failures(
        graph, regions=task.regions, radius=task.radius,
        duration=task.outage, horizon=task.horizon, seed=task.seed,
    )


def _pairs(task: SweepTask, graph: LabeledGraph) -> List[Tuple[int, int]]:
    if task.workload == "uniform":
        return list(uniform_pairs(graph, task.messages, seed=task.seed))
    if task.workload == "hotspot":
        return list(hotspot_pairs(graph, task.messages, seed=task.seed))
    if task.workload == "all-to-one":
        return all_to_one(graph)
    if task.workload == "one-to-all":
        return one_to_all(graph)
    return list(permutation_traffic(graph, seed=task.seed))


def build_run(
    task: SweepTask,
    tracer: Optional[Tracer] = None,
    graph: Optional[LabeledGraph] = None,
) -> Run:
    """Build ``task``'s graph, scheme, schedules and loaded kernel.

    ``graph`` reuses an already sampled ``task.graph()``.  An axis that
    is off passes ``None`` to the kernel, never an empty schedule.
    """
    if graph is None:
        graph = task.graph()
    scheme = build_scheme(
        task.scheme, graph, task.model or default_model(task.scheme)
    )
    policy = FramingPolicy(task.framing)
    if policy is not FramingPolicy.NONE:
        scheme = IntegrityWrapper(scheme, policy)
    if task.detour:
        scheme = DetourWrapper(scheme)
    faults = _fault_schedule(task, graph)
    corruption: Optional[FaultSchedule] = None
    churn: Optional[ChurnSchedule] = None
    if task.corrupt_nodes > 0:
        corruption = table_corruption(
            graph, task.corrupt_nodes, horizon=task.horizon, seed=task.seed,
            kinds=MUTATIONS[task.mutation], flips=task.flips,
            burst_span=task.burst_span, truncate_bits=task.truncate_bits,
        )
    if task.events > 0:
        churn = random_churn(
            graph, task.events, horizon=task.horizon, seed=task.seed,
            kinds=CHURN_KINDS[task.kinds],
        )
    schedule = faults
    if corruption is not None:
        schedule = corruption if schedule is None else schedule + corruption
    kernel = BatchKernel(
        scheme,
        failed_links=sample_link_failures(
            graph, task.failures, seed=task.seed
        ) if task.failures else (),
        failed_nodes=sample_node_failures(
            graph, task.node_failures, seed=task.seed
        ) if task.node_failures else (),
        fault_schedule=schedule,
        retry_policy=task.retry_policy(),
        retry_seed=task.seed,
        tracer=tracer,
        repair_delay=task.heal_delay if corruption is not None else None,
        churn_schedule=churn,
        churn_repair_delay=task.churn_repair_delay,
        churn_repair_rate=task.repair_rate,
        incremental_repair=not task.full_rebuild,
        batch=task.batch,
    )
    clock = random.Random(task.seed)
    for source, destination in _pairs(task, graph):
        at = clock.uniform(0.0, task.horizon * 0.8) if task.timed else 0.0
        kernel.inject(source, destination, at)
    return Run(task, graph, scheme, kernel, faults, corruption, churn)


@dataclass(frozen=True)
class SweepResult:
    """Aggregate outcome of one task, cheap to ship between processes."""

    task: SweepTask
    messages: int
    delivered: int
    dropped: int
    retries: int
    stale: int
    drop_reasons: Tuple[Tuple[str, int], ...]
    record_digest: str
    """SHA-256 over every record's full field tuple, in row order — the
    determinism witness: equal digests mean bit-identical record streams."""


def _record_digest(records: Sequence[DeliveryRecord]) -> str:
    hasher = hashlib.sha256()
    for r in records:
        hasher.update(
            repr((
                r.msg_id, r.source, r.destination, r.delivered, r.hops,
                r.path, r.latency,
                None if r.drop_reason is None else r.drop_reason.name,
                r.drop_detail, r.retries, r.injected_at, r.completed_at,
                r.stale,
            )).encode()
        )
    return hasher.hexdigest()


def run_task(task: SweepTask) -> SweepResult:
    """Build and run one shard; pure in the task description.

    ``stale`` counts every stale record, delivered or not, and
    ``drop_reasons`` counts every record that carries a reason.
    """
    records = build_run(task).kernel.run()
    columns = _columns(records)
    delivered = int(np.count_nonzero(columns.delivered))
    codes = columns.drop_code[columns.drop_code != NO_DROP]
    return SweepResult(
        task=task,
        messages=len(records),
        delivered=delivered,
        dropped=len(records) - delivered,
        retries=int(columns.retries.sum()),
        stale=int(np.count_nonzero(columns.stale)),
        drop_reasons=tuple(sorted(
            (DROP_REASON_BY_CODE[code].name, count)
            for code, count in _tally(codes).items()
        )),
        record_digest=_record_digest(records),
    )


def run_sweep(
    tasks: Sequence[SweepTask], workers: int = 1
) -> List[SweepResult]:
    """Run every task, optionally sharded over worker processes.

    Results come back in task order regardless of ``workers``; each task
    rebuilds its world from seeds inside its worker, so the digest of
    every result is independent of the worker count and chunking.
    """
    if workers < 1:
        raise ReproError(f"worker count must be >= 1, got {workers}")
    tasks = list(tasks)
    if workers == 1 or len(tasks) <= 1:
        return [run_task(task) for task in tasks]
    import multiprocessing

    # fork shares the already-imported modules; spawn would re-import the
    # whole package per worker for no isolation benefit here.
    try:
        context = multiprocessing.get_context("fork")
    except ValueError:  # pragma: no cover - non-POSIX fallback
        context = multiprocessing.get_context()
    with context.Pool(min(workers, len(tasks))) as pool:
        return pool.map(run_task, tasks)


def seed_replicas(task: SweepTask, count: int) -> List[SweepTask]:
    """``count`` copies of ``task`` on its graph, seeds ``seed..seed+count-1``."""
    return [replace(task, seed=task.seed + offset) for offset in range(count)]
