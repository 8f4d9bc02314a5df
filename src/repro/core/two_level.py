"""Theorem 1 — shortest-path routing in ``6n`` bits per node (models IB ∨ II).

The construction for node ``u`` on a Kolmogorov random graph (diameter 2,
Lemma 2; logarithmic covers, Lemma 3):

* ``A₀`` — the non-neighbours of ``u``;
* ``v₁, ..., v_m`` — a covering sequence of neighbours (the *least* ones in
  the paper; Claim 1 shows each covers ≥ 1/3 of what remains);
* **table 1** — one entry per ``w ∈ A₀`` in increasing order: the index
  ``t`` of the first covering neighbour, in unary (``1^t 0``), if ``w`` was
  covered while the remainder was still large; a bare ``0`` otherwise;
* **table 2** — for the at most ``n / log n`` late-covered nodes, the index
  ``t`` in fixed ``⌈log₂ m⌉``-width binary.

Routing from ``u`` to ``w``: deliver directly if ``w`` is a neighbour,
otherwise forward to ``v_t`` — a shortest (length-2) path, stretch 1.

Under model IB the scheme additionally charges the ``n - 1``-bit
interconnection vector per node and fixes the identity port convention
(i-th least neighbour on port i); under model II neighbours are free.
"""

from __future__ import annotations

import math
from typing import Any, Dict, Hashable, List, Optional, Tuple

import numpy as np

from repro.bitio import BitArray, BitReader, BitWriter
from repro.errors import CoverError, RoutingError, SchemeBuildError
from repro.graphs import (
    GraphContext,
    LabeledGraph,
    covering_sequence,
    least_cover_prefixes,
)
from repro.models import RoutingModel
from repro.observability import profile_section
from repro.core.scheme import HopDecision, LocalRoutingFunction, RoutingScheme

__all__ = [
    "TwoLevelScheme",
    "TwoLevelFunction",
    "decode_two_level_function",
    "split_threshold",
]


def split_threshold(n: int, rule: str) -> float:
    """The remainder size below which entries move to the binary table.

    ``rule='log'`` is the paper's refined choice ``n / log n`` (the ``3n``
    remark); ``rule='loglog'`` is the choice used in the main ``6n``
    analysis, ``n / log log n``.
    """
    if rule == "log":
        return n / max(math.log2(max(n, 2)), 1.0)
    if rule == "loglog":
        return n / max(math.log2(max(math.log2(max(n, 4)), 2.0)), 1.0)
    raise SchemeBuildError(f"unknown split rule {rule!r}")


class TwoLevelFunction(LocalRoutingFunction):
    """Decoded Theorem 1 function: neighbour-direct plus an intermediate map."""

    def __init__(
        self,
        node: int,
        neighbors: Tuple[int, ...],
        intermediate: Dict[int, int],
    ) -> None:
        super().__init__(node)
        self._neighbor_set = frozenset(neighbors)
        self._intermediate = dict(intermediate)

    def next_hop(self, destination: Hashable, state: Any = None) -> HopDecision:
        dest = int(destination)
        if dest in self._neighbor_set:
            return HopDecision(dest)
        try:
            return HopDecision(self._intermediate[dest])
        except KeyError as exc:
            raise RoutingError(
                f"node {self.node}: no intermediate entry for {dest}"
            ) from exc

    def intermediate_for(self, destination: int) -> int:
        """The covering neighbour used for a non-adjacent destination."""
        return self._intermediate[destination]


class TwoLevelScheme(RoutingScheme):
    """The Theorem 1 construction (shortest path, stretch 1)."""

    scheme_name = "thm1-two-level"

    def __init__(
        self,
        graph: LabeledGraph,
        model: RoutingModel,
        strategy: str = "least",
        split_rule: str = "log",
        ctx: Optional[GraphContext] = None,
    ) -> None:
        super().__init__(graph, model, ctx=ctx)
        if not (model.neighbors_known or model.ports_reassignable):
            raise SchemeBuildError(
                f"Theorem 1 requires model IB or II, got {model}"
            )
        if strategy not in ("least", "greedy"):
            raise SchemeBuildError(f"unknown covering strategy {strategy!r}")
        self._strategy = strategy
        self._split_rule = split_rule
        self._threshold = split_threshold(graph.n, split_rule)
        self._plans: Dict[int, _NodePlan] = {}
        with profile_section("build.thm1-two-level.plan"):
            # Lemma 3 for every node at once: covers exist under either
            # strategy iff every non-neighbour is at distance 2.  A node's
            # plan is built on first use.
            self._dist = self._ctx.distances()
            self._ranks = self._ctx.least_hop_ranks()
            try:
                least_cover_prefixes(self._dist, self._ranks)
            except CoverError as exc:
                raise SchemeBuildError(
                    f"Theorem 1 construction failed at node {exc.node}: {exc}"
                ) from exc

    # -- construction ---------------------------------------------------------

    def _plan(self, u: int) -> "_NodePlan":
        plan = self._plans.get(u)
        if plan is None:
            plan = self._plans[u] = self._plan_node(u)
        return plan

    def _plan_node(self, u: int) -> "_NodePlan":
        if self._strategy == "least":
            # Every non-neighbour is at distance 2 and first covered at
            # the step after its rank.
            far = np.flatnonzero(self._dist[u - 1] == 2)
            steps = self._ranks[u - 1, far] + 1
            counts = np.bincount(steps)[1:].tolist()
            sequence = self._graph.neighbors(u)[: len(counts)]
            first_cover = dict(zip((far + 1).tolist(), steps.tolist()))
        else:
            greedy, newly_covered = covering_sequence(self._graph, u, "greedy")
            sequence = tuple(greedy)
            step_of = {w: t for t, ws in enumerate(newly_covered, start=1) for w in ws}
            first_cover = {w: step_of[w] for w in sorted(step_of)}
            counts = [len(covered) for covered in newly_covered]
        # l = number of steps taken while the remainder was still above the
        # threshold; entries first covered at t <= l go to the unary table.
        remainder = len(first_cover)
        cutoff = 0
        for t, covered in enumerate(counts, start=1):
            if remainder <= self._threshold:
                break
            cutoff = t
            remainder -= covered
        return _NodePlan(sequence=sequence, first_cover=first_cover, cutoff=cutoff)

    def covering_sequence_of(self, u: int) -> Tuple[int, ...]:
        """The covering neighbours ``v₁..v_m`` chosen for ``u``."""
        return self._plan(u).sequence

    # -- RoutingScheme interface ------------------------------------------------

    def _build_function(self, u: int) -> TwoLevelFunction:
        plan = self._plan(u)
        intermediate = {
            w: plan.sequence[t - 1] for w, t in plan.first_cover.items()
        }
        return TwoLevelFunction(u, self._graph.neighbors(u), intermediate)

    def encode_function(self, u: int) -> BitArray:
        plan = self._plan(u)
        writer = BitWriter()
        writer.write_bit(0 if self._strategy == "least" else 1)
        m = len(plan.sequence)
        writer.write_gamma(m)
        if self._strategy == "greedy":
            # Greedy sequences are not derivable from the neighbour order,
            # so their identities are stored as neighbour-list indices.
            position = {nb: i for i, nb in enumerate(self._graph.neighbors(u))}
            for v in plan.sequence:
                writer.write_gamma(position[v])
        # Table 1, over A₀ in increasing order: unary first-cover indices
        # (0 marks a table-2 entry).
        overflow: List[int] = []
        for t in plan.first_cover.values():
            if t <= plan.cutoff:
                writer.write_unary(t)
            else:
                writer.write_unary(0)
                overflow.append(t)
        # Table 2: fixed-width binary indices for the late-covered nodes.
        width = max(m - 1, 0).bit_length()
        writer.write_uints([t - 1 for t in overflow], width)
        return writer.getvalue()

    def decode_function(self, u: int, bits: BitArray) -> TwoLevelFunction:
        return decode_two_level_function(
            u, self._graph.n, self._graph.neighbors(u), bits
        )

    def aux_bits(self, u: int) -> int:
        """Under IB the interconnection vector (``n - 1`` bits) is charged."""
        if self._model.neighbors_known:
            return 0
        return self._graph.n - 1

    def stretch_bound(self) -> float:
        return 1.0


def decode_two_level_function(
    u: int, n: int, neighbors: Tuple[int, ...], bits: BitArray
) -> TwoLevelFunction:
    """Rebuild a Theorem 1 function from its bits and free knowledge only.

    The decoder uses exactly what the model grants: the node's own label,
    ``n``, and its sorted neighbour list (known under II; derivable from the
    stored interconnection vector under IB).  The Theorem 6 codec reuses
    this entry point, since its proof reconstructs ``F(u)`` from an
    embedded description under the same side information.
    """
    neighbor_set = frozenset(neighbors)
    non_neighbors = [w for w in range(1, n + 1) if w != u and w not in neighbor_set]
    reader = BitReader(bits)
    strategy_bit = reader.read_bit()
    m = reader.read_gamma()
    if strategy_bit:
        sequence: Tuple[int, ...] = tuple(
            neighbors[reader.read_gamma()] for _ in range(m)
        )
    else:
        sequence = neighbors[:m]
    pending: List[int] = []
    intermediate: Dict[int, int] = {}
    for w in non_neighbors:
        t = reader.read_unary()
        if t == 0:
            pending.append(w)
        else:
            intermediate[w] = sequence[t - 1]
    width = max(m - 1, 0).bit_length()
    for w in pending:
        intermediate[w] = sequence[reader.read_uint(width)]
    return TwoLevelFunction(u, neighbors, intermediate)


class _NodePlan:
    """Per-node construction artefacts (internal): the covering sequence,
    each node of ``A₀`` (in increasing order) mapped to the step ``t``
    that first covers it, and the unary-table cutoff ``l``."""

    __slots__ = ("sequence", "first_cover", "cutoff")

    def __init__(
        self,
        sequence: Tuple[int, ...],
        first_cover: Dict[int, int],
        cutoff: int,
    ) -> None:
        self.sequence = sequence
        self.first_cover = first_cover
        self.cutoff = cutoff
