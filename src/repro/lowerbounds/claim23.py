"""Theorem 7 machinery: Claims 2 and 3, executable.

**Claim 2** is a combinatorial inequality: if ``x₁ + ... + x_k = n`` with
``x_i ≥ 1`` then ``Σ ⌈log x_i⌉ ≤ n - k``.

**Claim 3** turns a routing function into a description of a node's
interconnection pattern: apply ``F(u)`` to every label; each port ``i``
collects a list of ``z_i`` destinations, exactly one of which is the true
neighbour on that port, and naming it costs ``⌈log z_i⌉`` bits.  By
Claim 2 (with ``k = d(u) ≈ n/2``) the whole pattern costs only
``n/2 + o(n)`` extra bits beyond ``F(u)`` — but the pattern of a random
graph carries ``n - 1`` bits, so ``|F(u)| ≥ n/2 - o(n)`` when neighbours
are not known (models IA ∨ IB): Theorem 7's ``Ω(n²)``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

from repro.bitio import BitArray, BitReader, BitWriter
from repro.errors import ReproError
from repro.models import minimal_label_bits
from repro.core.full_table import FullTableScheme

__all__ = [
    "claim2_lhs",
    "claim2_holds",
    "port_destination_lists",
    "encode_neighbor_choices",
    "decode_neighbor_choices",
    "Theorem7NodeLedger",
    "theorem7_ledger",
]


def claim2_lhs(xs: Sequence[int]) -> int:
    """``Σ ⌈log₂ x_i⌉`` over positive integers."""
    if any(x < 1 for x in xs):
        raise ReproError(f"Claim 2 requires x_i >= 1, got {list(xs)}")
    return sum(math.ceil(math.log2(x)) for x in xs)


def claim2_holds(xs: Sequence[int]) -> bool:
    """Check ``Σ ⌈log x_i⌉ ≤ (Σ x_i) - k`` (Claim 2)."""
    return claim2_lhs(xs) <= sum(xs) - len(xs)


def port_destination_lists(
    scheme: FullTableScheme, u: int
) -> Dict[int, List[int]]:
    """Destinations grouped by the port ``F(u)`` routes them over.

    This is Claim 3's first step: "apply the local routing function to each
    of the labels of the nodes in turn".
    """
    return scheme.destinations_by_port(u)


def encode_neighbor_choices(scheme: FullTableScheme, u: int) -> BitArray:
    """Per port, the index of the true neighbour among its destinations.

    Port order is ``1..d(u)``; each index is written in ``⌈log₂ z_i⌉``
    bits, no separators (Claim 3: the ``z_i`` are derivable from ``F(u)``).
    """
    graph = scheme.graph
    ports = scheme.port_assignment
    lists = port_destination_lists(scheme, u)
    writer = BitWriter()
    for port in range(1, graph.degree(u) + 1):
        destinations = lists.get(port, [])
        neighbor = ports.neighbor(u, port)
        try:
            index = destinations.index(neighbor)
        except ValueError as exc:
            raise ReproError(
                f"port {port} at node {u} never routes its own neighbour "
                f"{neighbor} — not a shortest-path function"
            ) from exc
        width = max(len(destinations) - 1, 0).bit_length()
        writer.write_uint(index, width)
    return writer.getvalue()


def decode_neighbor_choices(
    bits: BitArray, destination_lists: Dict[int, List[int]]
) -> Tuple[int, ...]:
    """Recover the neighbour set from ``F(u)``'s groups plus the choice bits.

    Together with the routing function itself this reconstructs the node's
    interconnection pattern — the content of Claim 3.
    """
    reader = BitReader(bits)
    neighbors = []
    for port in sorted(destination_lists):
        destinations = destination_lists[port]
        width = max(len(destinations) - 1, 0).bit_length()
        neighbors.append(destinations[reader.read_uint(width)])
    return tuple(sorted(neighbors))


@dataclass(frozen=True)
class Theorem7NodeLedger:
    """Per-node bit accounting of the Theorem 7 argument."""

    node: int
    pattern_bits: int
    """Information content of the interconnection row (``n - 1`` literal bits)."""
    choice_bits: int
    """Measured ``Σ ⌈log z_i⌉`` — Claim 3's extra description cost."""
    claim2_budget: int
    """Claim 2's ceiling ``(n - 1) - d(u)`` on the choice bits."""
    implied_function_bound: int
    """``pattern - choices - O(log n)``: bits ``F(u)`` must itself contain."""


def theorem7_ledger(scheme: FullTableScheme, u: int) -> Theorem7NodeLedger:
    """Run the Claim 3 description for one node and do the arithmetic."""
    graph = scheme.graph
    n = graph.n
    choices = encode_neighbor_choices(scheme, u)
    lists = port_destination_lists(scheme, u)
    rebuilt = decode_neighbor_choices(choices, lists)
    if rebuilt != graph.neighbors(u):
        raise ReproError(
            f"Claim 3 reconstruction failed at node {u}"
        )
    zs = [len(destinations) for destinations in lists.values()]
    if not claim2_holds(zs):
        raise ReproError(f"Claim 2 violated at node {u}: {zs}")
    pattern_bits = n - 1
    overhead = 2 * minimal_label_bits(n)
    return Theorem7NodeLedger(
        node=u,
        pattern_bits=pattern_bits,
        choice_bits=len(choices),
        claim2_budget=(n - 1) - graph.degree(u),
        implied_function_bound=pattern_bits - len(choices) - overhead,
    )
