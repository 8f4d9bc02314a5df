"""Incremental scheme repair after live topology mutations.

When the topology changes under a running network the installed routing
tables describe a graph that no longer exists.  The brute-force fix —
rebuild the whole scheme and re-push every table — rewrites ``O(n² log n)``
bits for a mutation that touched two nodes.  This module plans the cheap
fix instead: compute which nodes a mutation actually *dirtied*, rebuild
only those tables, and carry every clean node's serialised table forward
bit-for-bit.

The dirty-set closure rule: node ``u`` is dirty iff its adjacency
changed, its own distance row changed, or a neighbour's distance row
changed.  For schemes whose per-node tables depend only on that immediate
neighbourhood (``scheme.supports_incremental_repair()`` — the full-table
and full-information schemes here), a node outside the closure provably
encodes to the same bits, so its pristine snapshot is *adopted* into the
successor graph's :class:`~repro.graphs.context.GraphContext` unchanged
(:meth:`~repro.graphs.context.GraphContext.adopt_pristine_bits`) and the
heal machinery can keep rebuilding it from knowledge without a single
re-encode.  Schemes with global structure fall back to a full rebuild.

The plan's bit accounting is what the convergence benchmark sweeps:
``bits_rewritten`` (dirty tables only) against ``bits_total`` (what a
full rebuild would have pushed).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import FrozenSet, Iterable, Tuple

import numpy as np

from repro.core.scheme import RoutingScheme
from repro.errors import GraphError
from repro.graphs import LabeledGraph, get_context

__all__ = [
    "RepairPlan",
    "dirty_nodes",
    "plan_repair",
    "CHURN_TABLES_REBUILT",
    "CHURN_TABLES_REUSED",
    "CHURN_BITS_REWRITTEN",
    "CHURN_BITS_REUSED",
]

CHURN_TABLES_REBUILT = "repro_churn_tables_rebuilt_total"
"""Counter: dirty tables re-encoded by repair plans."""
CHURN_TABLES_REUSED = "repro_churn_tables_reused_total"
"""Counter: clean tables carried forward bit-identically."""
CHURN_BITS_REWRITTEN = "repro_churn_table_bits_rewritten_total"
"""Counter: table bits re-encoded and re-pushed by repair plans."""
CHURN_BITS_REUSED = "repro_churn_table_bits_reused_total"
"""Counter: table bits a full rebuild would have pushed but repair kept."""


@dataclass(frozen=True)
class RepairPlan:
    """Everything needed to converge a scheme onto a mutated graph.

    ``new_scheme`` is the converged target (built over the mutated graph,
    sharing its context); ``table_bits`` lists the dirty tables in install
    order with their encoded lengths, which is what lets the simulator
    stagger installs at a bits-per-time repair rate.
    """

    old_scheme: RoutingScheme
    new_scheme: RoutingScheme
    dirty: FrozenSet[int]
    """Nodes whose tables must be re-encoded and re-pushed."""
    clean: FrozenSet[int]
    """Nodes whose tables are provably bit-identical and carried forward."""
    bits_rewritten: int
    """Total encoded length of the dirty tables."""
    bits_reused: int
    """Total encoded length of the carried-forward clean tables."""
    table_bits: Tuple[Tuple[int, int], ...]
    """``(node, encoded_bits)`` per dirty node, in install (label) order."""

    @property
    def bits_total(self) -> int:
        """What a full rebuild would push: every node's new encoding."""
        return self.bits_rewritten + self.bits_reused

    def describe(self) -> str:
        """Human-readable summary for trace details."""
        n = len(self.dirty) + len(self.clean)
        return (
            f"{len(self.dirty)}/{n} tables dirty, "
            f"{self.bits_rewritten} of {self.bits_total} bits rewritten"
        )


def dirty_nodes(old: LabeledGraph, new: LabeledGraph) -> FrozenSet[int]:
    """The closure of nodes a topology change dirties.

    Node ``u`` is dirty iff its adjacency changed, its own distance row
    changed, or the distance row of one of its (old or new) neighbours
    changed.  This is exactly the knowledge a neighbourhood-local scheme
    reads when building F(u), so a node outside the set builds an
    identical table on both graphs.
    """
    if old.n != new.n:
        raise GraphError(
            f"churn never changes the node count ({old.n} vs {new.n})"
        )
    old_dist = get_context(old).distances()
    new_dist = get_context(new).distances()
    row_changed = (old_dist != new_dist).any(axis=1)
    new_adj = new.adjacency_matrix()
    dirty = (
        (old.adjacency_matrix() != new_adj).any(axis=1)
        | row_changed
        | (new_adj & row_changed).any(axis=1)
    )
    return frozenset((np.flatnonzero(dirty) + 1).tolist())


def plan_repair(
    scheme: RoutingScheme,
    new_graph: LabeledGraph,
    full: bool = False,
    extra_dirty: Iterable[int] = (),
) -> RepairPlan:
    """Plan the convergence of ``scheme`` onto ``new_graph``.

    Builds the target scheme over the mutated graph, carries every clean
    node's pristine table into the new graph's context, and returns the
    dirty/clean split with its bit accounting.
    ``full`` forces a full rebuild (the benchmark's control arm);
    ``extra_dirty`` adds nodes the caller knows hold non-converged tables
    (e.g. installs from a repair that a newer mutation aborted).

    Schemes that do not declare
    :meth:`~repro.core.scheme.RoutingScheme.supports_incremental_repair`
    are planned as full rebuilds regardless of ``full``.
    """
    from repro.observability import get_registry

    old_graph = scheme.graph
    old_ctx = scheme.ctx
    new_ctx = get_context(new_graph)
    if full or not scheme.supports_incremental_repair():
        dirty = frozenset(new_graph.nodes)
    else:
        dirty = dirty_nodes(old_graph, new_graph) | frozenset(
            int(u) for u in extra_dirty
        )
    new_scheme = scheme.rebuild(new_graph, ctx=new_ctx)
    clean = frozenset(new_graph.nodes) - dirty
    bits_reused = 0
    for u in sorted(clean):
        bits = old_ctx.pristine_bits(scheme, u)
        new_ctx.adopt_pristine_bits(new_scheme, u, bits)
        bits_reused += len(bits)
    table_bits = []
    bits_rewritten = 0
    for u in sorted(dirty):
        bits = new_ctx.pristine_bits(new_scheme, u)
        table_bits.append((u, len(bits)))
        bits_rewritten += len(bits)
    registry = get_registry()
    registry.counter(CHURN_TABLES_REBUILT).inc(len(dirty))
    registry.counter(CHURN_TABLES_REUSED).inc(len(clean))
    registry.counter(CHURN_BITS_REWRITTEN).inc(bits_rewritten)
    registry.counter(CHURN_BITS_REUSED).inc(bits_reused)
    return RepairPlan(
        old_scheme=scheme,
        new_scheme=new_scheme,
        dirty=dirty,
        clean=clean,
        bits_rewritten=bits_rewritten,
        bits_reused=bits_reused,
        table_bits=tuple(table_bits),
    )
