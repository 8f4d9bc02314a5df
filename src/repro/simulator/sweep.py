"""Multiprocessing sweep driver sharding ``(graph, seed)`` kernel runs.

A sweep is a list of :class:`SweepTask` descriptions — frozen, picklable
bundles of primitives (scheme name, graph seed, workload seed, fault
variant knobs) from which a worker process can rebuild the entire run:
graph, scheme, schedule, workload and :class:`~repro.simulator.kernel.
BatchKernel`.  Nothing live crosses the process boundary, so results are
a pure function of the task description and :func:`run_sweep` returns the
same :class:`SweepResult` list for any worker count — a property the test
suite pins via the per-task record digest.

Variants mirror the CLI simulate commands: ``plain`` (static sampled
failures), ``chaos`` (renewal fault schedule), ``corruption`` (timed
table corruption with optional repair, over tables under the task's
integrity framing) and ``churn`` (random topology mutations with
incremental repair).
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.core import build_scheme
from repro.errors import ReproError
from repro.graphs import gnp_random_graph
from repro.integrity import FramingPolicy, IntegrityWrapper
from repro.models import Knowledge, Labeling, RoutingModel
from repro.simulator.chaos import renewal_faults, table_corruption
from repro.simulator.failures import (
    sample_link_failures,
    sample_node_failures,
)
from repro.simulator.churn import random_churn
from repro.simulator.kernel import BatchKernel
from repro.simulator.message import DeliveryRecord
from repro.simulator.recovery import RetryPolicy
from repro.simulator.workloads import (
    hotspot_pairs,
    permutation_traffic,
    uniform_pairs,
)

__all__ = [
    "SweepTask",
    "SweepResult",
    "run_task",
    "run_sweep",
    "seed_replicas",
]

_VARIANTS = ("plain", "chaos", "corruption", "churn")
_WORKLOADS = ("uniform", "hotspot", "permutation")


def _default_model(scheme: str) -> RoutingModel:
    """The CLI's per-scheme default model (kept in sync with repro.cli)."""
    if scheme == "thm2-neighbor-labels":
        return RoutingModel(Knowledge.II, Labeling.GAMMA)
    if scheme in ("interval", "chain-comparison"):
        return RoutingModel(Knowledge.II, Labeling.BETA)
    return RoutingModel(Knowledge.II, Labeling.ALPHA)


@dataclass(frozen=True)
class SweepTask:
    """One shard of a sweep: everything a worker needs, as primitives."""

    scheme: str
    n: int
    graph_seed: int
    seed: int
    """Workload, injection-clock and schedule seed (the CLI's ``--seed``)."""
    messages: int = 64
    workload: str = "uniform"
    variant: str = "plain"
    batch: bool = True
    failures: int = 0
    """Static link failures sampled up front (``plain`` variant)."""
    node_failures: int = 0
    horizon: float = 50.0
    """Fault/churn schedules and injections land in ``[0, horizon * 0.8]``."""
    retries: int = 0
    """Source retries per message (0 disables the retry policy)."""
    retry_base_delay: float = 0.5
    chaos_links: Optional[int] = None
    """Renewal-fault link count (defaults to half the edge count)."""
    chaos_nodes: int = 0
    corrupt_nodes: Optional[int] = None
    """Corrupted tables to schedule (defaults to ``n // 4``)."""
    repair_delay: Optional[float] = None
    framing: str = FramingPolicy.NONE.value
    """Integrity framing charged on every table (a ``FramingPolicy`` value)."""
    churn_events: int = 4
    churn_repair_delay: float = 5.0

    def __post_init__(self) -> None:
        if self.variant not in _VARIANTS:
            raise ReproError(
                f"unknown sweep variant {self.variant!r}; "
                f"expected one of {_VARIANTS}"
            )
        if self.workload not in _WORKLOADS:
            raise ReproError(
                f"unknown sweep workload {self.workload!r}; "
                f"expected one of {_WORKLOADS}"
            )
        framings = tuple(policy.value for policy in FramingPolicy)
        if self.framing not in framings:
            raise ReproError(
                f"unknown sweep framing {self.framing!r}; "
                f"expected one of {framings}"
            )


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


def _task_pairs(task: SweepTask, graph: object) -> List[Tuple[int, int]]:
    if task.workload == "uniform":
        return list(uniform_pairs(graph, task.messages, seed=task.seed))
    if task.workload == "hotspot":
        return list(hotspot_pairs(graph, task.messages, seed=task.seed))
    return list(permutation_traffic(graph, seed=task.seed))


def _task_kernel(task: SweepTask) -> Tuple[BatchKernel, List[Tuple[int, int]]]:
    graph = gnp_random_graph(task.n, seed=task.graph_seed)
    scheme = build_scheme(task.scheme, graph, _default_model(task.scheme))
    policy = FramingPolicy(task.framing)
    if policy is not FramingPolicy.NONE:
        scheme = IntegrityWrapper(scheme, policy)
    retry = (
        RetryPolicy(
            max_attempts=task.retries + 1, base_delay=task.retry_base_delay
        )
        if task.retries > 0
        else None
    )
    if task.variant == "plain":
        kernel = BatchKernel(
            scheme,
            failed_links=sample_link_failures(
                graph, task.failures, seed=task.seed
            ) if task.failures else (),
            failed_nodes=sample_node_failures(
                graph, task.node_failures, seed=task.seed
            ) if task.node_failures else (),
            retry_policy=retry,
            retry_seed=task.seed,
            batch=task.batch,
        )
    elif task.variant == "chaos":
        links = (
            task.chaos_links
            if task.chaos_links is not None
            else graph.edge_count // 2
        )
        kernel = BatchKernel(
            scheme,
            fault_schedule=renewal_faults(
                graph, horizon=task.horizon, seed=task.seed,
                link_count=links, node_count=task.chaos_nodes,
            ),
            retry_policy=retry,
            retry_seed=task.seed,
            batch=task.batch,
        )
    elif task.variant == "corruption":
        nodes = (
            task.corrupt_nodes
            if task.corrupt_nodes is not None
            else max(task.n // 4, 1)
        )
        kernel = BatchKernel(
            scheme,
            fault_schedule=table_corruption(
                graph, nodes, horizon=task.horizon, seed=task.seed
            ),
            retry_policy=retry,
            retry_seed=task.seed,
            repair_delay=task.repair_delay,
            batch=task.batch,
        )
    else:  # churn
        kernel = BatchKernel(
            scheme,
            churn_schedule=random_churn(
                graph, task.churn_events,
                horizon=task.horizon, seed=task.seed,
            ),
            churn_repair_delay=task.churn_repair_delay,
            retry_policy=retry,
            retry_seed=task.seed,
            batch=task.batch,
        )
    return kernel, _task_pairs(task, graph)


def run_task(task: SweepTask) -> SweepResult:
    """Rebuild and run one shard; pure in the task description."""
    import random

    kernel, pairs = _task_kernel(task)
    clock = random.Random(task.seed)
    for source, destination in pairs:
        kernel.inject(
            source, destination, clock.uniform(0.0, task.horizon * 0.8)
        )
    records = kernel.run()
    reasons: Dict[str, int] = {}
    for r in records:
        if r.drop_reason is not None:
            reasons[r.drop_reason.name] = reasons.get(r.drop_reason.name, 0) + 1
    return SweepResult(
        task=task,
        messages=len(records),
        delivered=sum(1 for r in records if r.delivered),
        dropped=sum(1 for r in records if not r.delivered),
        retries=sum(r.retries for r in records),
        stale=sum(1 for r in records if r.stale),
        drop_reasons=tuple(sorted(reasons.items())),
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


def seed_replicas(
    scheme: str,
    n: int,
    graph_seed: int,
    base_seed: int,
    count: int,
    **knobs: object,
) -> List[SweepTask]:
    """``count`` replica tasks differing only in seed (CLI ``--workers``)."""
    return [
        SweepTask(
            scheme=scheme,
            n=n,
            graph_seed=graph_seed,
            seed=base_seed + offset,
            **knobs,  # type: ignore[arg-type]
        )
        for offset in range(count)
    ]
