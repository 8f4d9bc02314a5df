"""Message-level network simulator.

Executes any :class:`~repro.core.scheme.RoutingScheme` on its graph in
simulated time — link latency, node queueing, retries — through one
router, :class:`~repro.simulator.kernel.BatchKernel` (an exact scalar
step, and a bit-identical vectorised drain for fault-free cohorts), over
the network's routing state
(:class:`~repro.simulator.network.Network`), with reproducible static
failure injection (:mod:`~repro.simulator.failures`), dynamic chaos
schedules (:mod:`~repro.simulator.chaos`), live topology churn with
incremental repair (:mod:`~repro.simulator.churn`), retry/backoff
recovery (:mod:`~repro.simulator.recovery`), delivery/stretch/resilience
metrics, and one run description (:class:`~repro.simulator.sweep.SweepTask`)
with its builder and a multiprocessing sweep driver sharding seed
replicas (:mod:`~repro.simulator.sweep`).
"""

from repro.simulator.bootstrap import BootstrapResult, simulate_dissemination
from repro.simulator.chaos import (
    FaultEvent,
    FaultKind,
    FaultSchedule,
    MutationKind,
    TableMutation,
    flapping_links,
    regional_failures,
    renewal_faults,
    table_corruption,
)
from repro.simulator.churn import (
    ChurnSchedule,
    TopologyMutation,
    TopologyMutationKind,
    random_churn,
)
from repro.simulator.failures import (
    sample_incident_failures,
    sample_link_failures,
    sample_node_failures,
)
from repro.simulator.kernel import BatchKernel
from repro.simulator.message import (
    DeliveryRecord,
    DeliveryRecords,
    DropReason,
    MessageBatch,
)
from repro.simulator.metrics import (
    RoutingMetrics,
    drop_breakdown,
    retry_histogram,
    summarize,
)
from repro.simulator.network import Network
from repro.simulator.recovery import DetourWrapper, RetryPolicy
from repro.simulator.sweep import (
    SweepResult,
    SweepTask,
    run_sweep,
    run_task,
    seed_replicas,
)
from repro.simulator.workloads import (
    all_to_one,
    hotspot_pairs,
    one_to_all,
    permutation_traffic,
    uniform_pairs,
)

__all__ = [
    "BatchKernel",
    "BootstrapResult",
    "ChurnSchedule",
    "DeliveryRecord",
    "DeliveryRecords",
    "DetourWrapper",
    "DropReason",
    "FaultEvent",
    "FaultKind",
    "FaultSchedule",
    "MessageBatch",
    "MutationKind",
    "Network",
    "RetryPolicy",
    "RoutingMetrics",
    "SweepResult",
    "SweepTask",
    "TableMutation",
    "TopologyMutation",
    "TopologyMutationKind",
    "all_to_one",
    "drop_breakdown",
    "flapping_links",
    "hotspot_pairs",
    "one_to_all",
    "permutation_traffic",
    "random_churn",
    "regional_failures",
    "renewal_faults",
    "retry_histogram",
    "run_sweep",
    "run_task",
    "sample_incident_failures",
    "sample_link_failures",
    "sample_node_failures",
    "seed_replicas",
    "simulate_dissemination",
    "summarize",
    "table_corruption",
    "uniform_pairs",
]
