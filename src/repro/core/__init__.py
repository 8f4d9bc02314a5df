"""The paper's primary contribution: compact routing-scheme constructions.

One module per construction:

========================  =========================  ==========  =================
module                    paper source               stretch     total size target
========================  =========================  ==========  =================
``full_table``            folklore baseline          1           ``O(n² log n)``
``two_level``             Theorem 1                  1           ``O(n²)``
``neighbor_labels``       Theorem 2 (model II ∧ γ)   1           ``O(n log² n)``
``centers``               Theorem 3                  1.5         ``O(n log n)``
``hub``                   Theorem 4                  2           ``O(n log log n)``
``probe``                 Theorem 5                  ``O(log n)``  ``O(n)``
``full_information``      Section 1 / Theorem 10     1 (all)     ``O(n³)``
``interval``              related work [1]           tree        ``O(n log n)``
========================  =========================  ==========  =================

Every scheme serialises its local functions to real bit strings and can
rebuild them; :mod:`~repro.core.verification` routes actual messages to
check correctness and stretch.
"""

from repro.core.builder import (
    SCHEME_BUILDERS,
    available_schemes,
    build_scheme,
    default_model,
)
from repro.core.centers import CenterScheme, RelayFunction
from repro.core.chain import ChainComparisonScheme, ComparisonFunction, chain_order
from repro.core.detour import DetourFunction, DetourState, DetourWrapper
from repro.core.full_information import (
    FullInformationFunction,
    FullInformationScheme,
)
from repro.core.full_table import FullTableScheme, PortTableFunction
from repro.core.hub import HubScheme, TowardHubFunction
from repro.core.interval import IntervalFunction, IntervalRoutingScheme
from repro.core.multi_interval import (
    MultiIntervalFunction,
    MultiIntervalScheme,
    cyclic_intervals,
)
from repro.core.neighbor_labels import (
    NeighborLabelFunction,
    NeighborLabelScheme,
    NodeAddress,
)
from repro.core.persistence import (
    SchemeBlob,
    pack_scheme,
    restore_scheme,
    unpack_blob,
)
from repro.core.probe import ProbeFunction, ProbeScheme, ProbeState
from repro.core.repair import RepairPlan, dirty_nodes, plan_repair
from repro.core.scheme import (
    HopDecision,
    LocalRoutingFunction,
    RoutingScheme,
)
from repro.core.tree_cover import (
    TreeCoverAddress,
    TreeCoverFunction,
    TreeCoverScheme,
)
from repro.core.two_level import TwoLevelFunction, TwoLevelScheme, split_threshold
from repro.core.verification import (
    RouteTrace,
    VerificationReport,
    route_message,
    verify_full_information_resilience,
    verify_scheme,
)

__all__ = [
    "CenterScheme",
    "ChainComparisonScheme",
    "ComparisonFunction",
    "DetourFunction",
    "DetourState",
    "DetourWrapper",
    "FullInformationFunction",
    "FullInformationScheme",
    "FullTableScheme",
    "HopDecision",
    "HubScheme",
    "IntervalFunction",
    "IntervalRoutingScheme",
    "LocalRoutingFunction",
    "MultiIntervalFunction",
    "MultiIntervalScheme",
    "NeighborLabelFunction",
    "NeighborLabelScheme",
    "NodeAddress",
    "PortTableFunction",
    "ProbeFunction",
    "ProbeScheme",
    "ProbeState",
    "RelayFunction",
    "RepairPlan",
    "RouteTrace",
    "RoutingScheme",
    "SCHEME_BUILDERS",
    "SchemeBlob",
    "TowardHubFunction",
    "TreeCoverAddress",
    "TreeCoverFunction",
    "TreeCoverScheme",
    "TwoLevelFunction",
    "TwoLevelScheme",
    "VerificationReport",
    "available_schemes",
    "build_scheme",
    "chain_order",
    "cyclic_intervals",
    "default_model",
    "dirty_nodes",
    "pack_scheme",
    "plan_repair",
    "restore_scheme",
    "route_message",
    "split_threshold",
    "unpack_blob",
    "verify_full_information_resilience",
    "verify_scheme",
]
