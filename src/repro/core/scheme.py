"""Routing-scheme abstractions.

A *routing scheme* for a graph comprises a *local routing function* per
node: given a destination (and, for the stateful Theorem 5 scheme, the
message's header state) it names the neighbour to forward to.  Schemes also
serialise every local function to a real bit string — the paper's space
requirement is the measured length of those strings, never a formula.

The functions a scheme installs also give the batched kernel its dense
next-hop matrix: :meth:`RoutingScheme.next_hop_rows` stacks one row per
installed function, read off the function's own table by its fast form
where it has one, else by the per-destination loop
:meth:`LocalRoutingFunction.next_hop_row` that defines every row.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass
from typing import Any, Dict, Hashable, Optional, Sequence

import numpy as np

from repro.bitio import BitArray
from repro.errors import ReproError, RoutingError
from repro.graphs import GraphContext, LabeledGraph, get_context
from repro.models import NodeSpace, RoutingModel, SpaceReport
from repro.observability import get_registry, profile_section

__all__ = ["NEXT_HOP_ROWS", "HopDecision", "LocalRoutingFunction", "RoutingScheme"]

NEXT_HOP_ROWS = "repro_next_hop_rows_total"
"""Counter of next-hop rows derived (labels: ``scheme``, and ``form``:
``fast`` for a function's own vectorised row, ``loop`` for the
per-destination loop)."""

_ROW_ERRORS = (ReproError, KeyError, IndexError, TypeError, ValueError)
"""What a function may raise that makes its next-hop row underivable."""


@dataclass(frozen=True)
class HopDecision:
    """The output of a local routing function for one message."""

    next_node: int
    """Label of the neighbour to forward to."""
    state: Any = None
    """Replacement header state carried with the message (None = stateless)."""


class LocalRoutingFunction(abc.ABC):
    """The routing function F(u) of a single node."""

    def __init__(self, node: int) -> None:
        self._node = node

    @property
    def node(self) -> int:
        """The node this function is installed on."""
        return self._node

    @abc.abstractmethod
    def next_hop(self, destination: Hashable, state: Any = None) -> HopDecision:
        """Choose the outgoing edge for a message addressed to ``destination``.

        ``destination`` is the destination's *address* — its plain label in
        models α/β, or the scheme's complex label under model γ.  Raises
        :class:`~repro.errors.RoutingError` when the function has no entry
        (which on a correctly built scheme never happens for valid
        addresses; the paper's model γ explicitly assumes only valid labels
        are presented).
        """

    def next_hop_row(
        self, addresses: Sequence[Hashable], graph: LabeledGraph
    ) -> Optional[np.ndarray]:
        """This node's row of the next-hop matrix, one ``next_hop`` per
        destination — the definition every fast form must reproduce.

        ``addresses[d - 1]`` is destination ``d``'s address and ``graph``
        the scheme's graph.  Entry ``d - 1`` is the neighbour the function
        names for ``d`` when it answers with a stateless single-neighbour
        decision; ``-1`` marks a :class:`~repro.errors.RoutingError` ("no
        route"), ``-2`` the node's own entry and every decision a
        vectorised consumer must resolve through the scalar path
        (self-routing, non-neighbour or non-integer next nodes).  The
        whole row is ``None`` when a decision carries header state or
        evaluation fails in a scheme-specific way.
        """
        u = self.node
        row = np.full(graph.n, -2, dtype=np.int32)
        for d in graph.nodes:
            if d == u:
                continue
            try:
                decision = self.next_hop(addresses[d - 1])
            except RoutingError:
                row[d - 1] = -1
                continue
            except _ROW_ERRORS:
                return None
            if decision.state is not None:
                return None
            nxt = decision.next_node
            if isinstance(nxt, int) and nxt != u and graph.has_edge(u, nxt):
                row[d - 1] = nxt
        return row

    def fast_next_hop_row(self, graph: LabeledGraph) -> Optional[np.ndarray]:
        """:meth:`next_hop_row` over the plain labels ``1..n``, read off
        the function's own table; called only when those are the scheme's
        addresses.  ``None`` where this function has no such form or its
        precondition fails: the caller then runs the loop."""
        return None


class RoutingScheme(abc.ABC):
    """A full routing scheme: one local function per node, plus accounting."""

    scheme_name: str = "abstract"

    def __init__(
        self,
        graph: LabeledGraph,
        model: RoutingModel,
        ctx: Optional[GraphContext] = None,
    ) -> None:
        self._graph = graph
        self._model = model
        self._ctx = ctx if ctx is not None else get_context(graph)
        self._function_cache: Dict[int, LocalRoutingFunction] = {}

    # -- identity ------------------------------------------------------------

    @property
    def graph(self) -> LabeledGraph:
        """The static network the scheme was generated for."""
        return self._graph

    @property
    def model(self) -> RoutingModel:
        """The model the scheme was built (and is charged) under."""
        return self._model

    @property
    def ctx(self) -> GraphContext:
        """The shared derived-computation context of :attr:`graph`.

        Builders pull distances, BFS trees, port tables and degree
        statistics from here instead of recomputing them; composite
        schemes hand the same context to their inner schemes so one
        pipeline derives each object exactly once.
        """
        return self._ctx

    # -- repair (live topology churn) -----------------------------------------

    def rebuild(self, graph: LabeledGraph, ctx: Optional[GraphContext] = None) -> "RoutingScheme":
        """A same-configuration scheme over a mutated successor graph.

        The churn repair path (:mod:`repro.core.repair`) calls this after
        a topology mutation to obtain the converged target scheme.  The
        default rebuilds from the constructor with the same model; schemes
        carrying extra configuration (ports, parameters) override it.
        """
        return type(self)(graph, self._model, ctx=ctx)

    def supports_incremental_repair(self) -> bool:
        """Whether F(u) depends only on ``u``'s immediate neighbourhood.

        True means each node's table (and its encoding) is a function of
        exactly: ``u``'s adjacency, ``u``'s distance row, and the distance
        rows of ``u``'s neighbours.  Under that locality the repair layer
        can prove a node untouched by a mutation keeps bit-identical
        tables and skip re-encoding it.  Schemes with global structure
        (hubs, landmark sets, interval labellings) return False and are
        repaired by full rebuild.
        """
        return False

    # -- addressing ----------------------------------------------------------

    def address_of(self, node: int) -> Hashable:
        """The label used to address messages to ``node``.

        Plain-label schemes return the node itself; model-γ schemes return
        their complex labels.
        """
        return node

    def node_of_address(self, address: Hashable) -> int:
        """Map an address back to the node it names (for bookkeeping)."""
        if isinstance(address, int):
            return address
        raise RoutingError(f"cannot resolve address {address!r}")

    # -- routing ---------------------------------------------------------------

    def function(self, u: int) -> LocalRoutingFunction:
        """The local routing function installed at ``u`` (cached)."""
        if u not in self._function_cache:
            self._function_cache[u] = self._build_function(u)
        return self._function_cache[u]

    @abc.abstractmethod
    def _build_function(self, u: int) -> LocalRoutingFunction:
        """Construct the local function for one node."""

    def next_hop_rows(self) -> Optional[np.ndarray]:
        """The dense next-hop lookup of the installed functions, or None.

        Row ``u - 1`` is the row of ``self.function(u)`` over this
        scheme's addresses (see :meth:`LocalRoutingFunction.next_hop_row`
        for the entry codes): the function's fast form where the addresses
        are the plain labels and it has one, else the per-destination
        loop.  ``None`` when any row is, or when a function cannot be
        built.  Each row is counted in :data:`NEXT_HOP_ROWS` under the form
        that produced it.
        """
        graph = self._graph
        addresses = [self.address_of(d) for d in graph.nodes]
        plain = addresses == list(graph.nodes)  # fast forms index by label
        matrix = np.empty((graph.n, graph.n), dtype=np.int32)
        registry = get_registry()
        fast = registry.counter(NEXT_HOP_ROWS, scheme=self.scheme_name, form="fast")
        loop = registry.counter(NEXT_HOP_ROWS, scheme=self.scheme_name, form="loop")
        for u in graph.nodes:
            try:
                function = self.function(u)
            except _ROW_ERRORS:
                return None
            row = function.fast_next_hop_row(graph) if plain else None
            if row is not None:
                fast.inc()
            else:
                row = function.next_hop_row(addresses, graph)
                if row is None:
                    return None
                loop.inc()
            matrix[u - 1] = row
        return matrix

    # -- serialisation -----------------------------------------------------------

    @abc.abstractmethod
    def encode_function(self, u: int) -> BitArray:
        """Serialise F(u) to the bits actually charged for it."""

    @abc.abstractmethod
    def decode_function(self, u: int, bits: BitArray) -> LocalRoutingFunction:
        """Rebuild F(u) from its serialised form.

        The decoder may use exactly the knowledge the model grants for free
        (neighbour labels under II, the identity port convention under IB)
        and nothing else.
        """

    # -- accounting ----------------------------------------------------------------

    def label_bits(self, u: int) -> int:
        """Charged label bits for ``u`` (0 except under model γ)."""
        return 0

    def aux_bits(self, u: int) -> int:
        """Charged auxiliary knowledge for ``u`` (e.g. neighbour vectors)."""
        return 0

    def integrity_bits(self, u: int) -> int:
        """Checksum framing bits protecting F(u)'s encoding (0 unframed).

        Integrity wrappers override this with their per-node checksum
        width; :meth:`space_report` then charges those bits on an explicit
        line instead of smuggling them into ``routing_bits``.
        """
        return 0

    def space_report(self) -> SpaceReport:
        """Measure the scheme: every node's serialised function length.

        As a side effect the measured totals are published to the
        process-wide metrics registry (``repro_scheme_table_bits``), so a
        build run ends with per-scheme table sizes scrapable next to the
        phase timings.
        """
        report = SpaceReport(
            model=self._model, scheme_name=self.scheme_name, n=self._graph.n
        )
        with profile_section(f"encode.{self.scheme_name}"):
            for u in self._graph.nodes:
                encoded_bits = len(self.encode_function(u))
                checksum_bits = self.integrity_bits(u)
                report.add(
                    NodeSpace(
                        node=u,
                        routing_bits=encoded_bits - checksum_bits,
                        label_bits=self.label_bits(u),
                        aux_bits=self.aux_bits(u),
                        integrity_bits=checksum_bits,
                    )
                )
        registry = get_registry()
        labels = {"scheme": self.scheme_name, "n": self._graph.n}
        registry.gauge("repro_scheme_table_bits", **labels).set(
            report.total_bits
        )
        registry.gauge("repro_scheme_max_node_bits", **labels).set(
            report.max_node_bits
        )
        return report

    # -- guarantees -------------------------------------------------------------------

    @abc.abstractmethod
    def stretch_bound(self) -> float:
        """The stretch factor this scheme advertises."""

    def hop_limit(self) -> int:
        """Upper bound on hops before a router declares a routing loop."""
        return 4 * self._graph.n + 8

    def __repr__(self) -> str:
        return (
            f"{type(self).__name__}(n={self._graph.n}, model={self._model}, "
            f"stretch<= {self.stretch_bound()})"
        )

