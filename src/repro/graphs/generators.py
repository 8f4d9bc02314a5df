"""Graph generators for the paper's experiments.

* :func:`gnp_random_graph` — uniform random graphs.  ``G(n, 1/2)`` *is* the
  uniform distribution over all labelled graphs on ``n`` nodes, so seeded
  samples stand in for the paper's Kolmogorov random graphs (a fraction
  ``1 - 1/n^c`` of all graphs is ``c log n``-random); per-instance
  certification lives in :mod:`repro.graphs.randomness`.
* :func:`lower_bound_graph` — the explicit three-layer family of Figure 1
  used in Theorem 9's worst-case ``Ω(n² log n)`` bound.
* Assorted deterministic families (paths, cycles, stars, complete graphs,
  random trees) used by tests, the interval-routing extension and the
  simulator examples.
"""

from __future__ import annotations

import heapq
import random
import zlib
from typing import Iterator, Sequence

import numpy as np

from repro.errors import GraphError
from repro.graphs.graph import LabeledGraph

__all__ = [
    "gnp_random_graph",
    "random_graph_stream",
    "lower_bound_graph",
    "lower_bound_graph_variant",
    "lower_bound_inner_nodes",
    "lower_bound_middle_nodes",
    "lower_bound_outer_nodes",
    "path_graph",
    "cycle_graph",
    "complete_graph",
    "star_graph",
    "grid_graph",
    "torus_graph",
    "random_tree",
]


def gnp_random_graph(n: int, p: float = 0.5, seed: int | None = None) -> LabeledGraph:
    """Sample ``G(n, p)`` with a seeded generator.

    With the default ``p = 0.5`` every labelled graph on ``n`` nodes is
    equally likely, matching the paper's uniform average (Definition 5).
    """
    if not 0.0 <= p <= 1.0:
        raise GraphError(f"edge probability must be in [0, 1], got {p}")
    rng = np.random.default_rng(seed)
    upper = np.triu(rng.random((n, n)) < p, k=1)
    return LabeledGraph(n, np.argwhere(upper) + 1)


def random_graph_stream(
    n: int, count: int, p: float = 0.5, seed: int = 0
) -> Iterator[LabeledGraph]:
    """Yield ``count`` independent seeded ``G(n, p)`` samples.

    Seeds are derived deterministically (CRC32, not salted ``hash``) from
    the base seed so Monte-Carlo averages (Corollary 1 benches) are exactly
    reproducible across processes.
    """
    for i in range(count):
        derived = zlib.crc32(f"{seed}|{n}|{p}|{i}".encode()) & 0x7FFFFFFF
        yield gnp_random_graph(n, p, seed=derived)


# -- the Theorem 9 family (Figure 1) ----------------------------------------


def lower_bound_graph(
    k: int, outer_assignment: Sequence[int] | None = None
) -> LabeledGraph:
    """Build the Figure 1 graph ``G_B`` on ``n = 3k`` nodes.

    Layers (with the default identity assignment):

    * inner nodes ``1..k`` — each adjacent to every middle node;
    * middle nodes ``k+1..2k`` — middle node ``k+i`` is also adjacent to one
      outer node;
    * outer nodes ``2k+1..3k`` — each a degree-1 pendant of its middle node.

    ``outer_assignment[i]`` (0-based over middle positions) chooses which
    outer *label* hangs off middle node ``k+1+i``; it must be a permutation
    of ``2k+1..3k``.  Because the shortest inner→outer path is forced
    through the unique middle partner, any stretch-<2 routing function at an
    inner node determines this permutation — Theorem 9's ``Ω(n² log n)``.
    """
    if k < 1:
        raise GraphError(f"lower-bound graph needs k >= 1, got {k}")
    outer_labels = list(range(2 * k + 1, 3 * k + 1))
    if outer_assignment is None:
        outer_assignment = outer_labels
    if sorted(outer_assignment) != outer_labels:
        raise GraphError(
            f"outer_assignment must be a permutation of {2 * k + 1}..{3 * k}"
        )
    edges = []
    for i in range(1, k + 1):
        middle = k + i
        for inner in range(1, k + 1):
            edges.append((inner, middle))
        edges.append((middle, outer_assignment[i - 1]))
    return LabeledGraph(3 * k, edges)


def lower_bound_graph_variant(n: int) -> tuple[LabeledGraph, int, int]:
    """The Figure 1 family for *any* ``n ≥ 4``.

    The paper: "For n = 3k−1 or n = 3k−2 we can use G_B dropping v_k and
    v_{k−1}" — i.e. shrink the inner layer while keeping ``k`` middle/outer
    pairs.  Returns ``(graph, k, inner_count)`` with contiguous labels:
    inner ``1..inner_count``, middle ``inner_count+1..inner_count+k``,
    outer ``inner_count+k+1..n``.
    """
    if n < 4:
        raise GraphError(f"variant family needs n >= 4, got {n}")
    k = (n + 2) // 3
    inner_count = n - 2 * k
    edges = []
    for i in range(1, k + 1):
        middle = inner_count + i
        for inner in range(1, inner_count + 1):
            edges.append((inner, middle))
        edges.append((middle, inner_count + k + i))
    return LabeledGraph(n, edges), k, inner_count


def lower_bound_inner_nodes(k: int) -> range:
    """Inner-layer labels ``1..k`` of :func:`lower_bound_graph`."""
    return range(1, k + 1)


def lower_bound_middle_nodes(k: int) -> range:
    """Middle-layer labels ``k+1..2k`` of :func:`lower_bound_graph`."""
    return range(k + 1, 2 * k + 1)


def lower_bound_outer_nodes(k: int) -> range:
    """Outer-layer labels ``2k+1..3k`` of :func:`lower_bound_graph`."""
    return range(2 * k + 1, 3 * k + 1)


# -- deterministic families ---------------------------------------------------


def path_graph(n: int) -> LabeledGraph:
    """The chain ``1 - 2 - ... - n`` (the paper's relabelling example)."""
    return LabeledGraph(n, ((i, i + 1) for i in range(1, n)))


def cycle_graph(n: int) -> LabeledGraph:
    """The n-cycle (requires ``n >= 3``)."""
    if n < 3:
        raise GraphError(f"cycle needs at least 3 nodes, got {n}")
    edges = [(i, i + 1) for i in range(1, n)]
    edges.append((n, 1))
    return LabeledGraph(n, edges)


def complete_graph(n: int) -> LabeledGraph:
    """The complete graph ``K_n`` — the only diameter-1 topology."""
    return LabeledGraph(
        n, ((u, v) for u in range(1, n + 1) for v in range(u + 1, n + 1))
    )


def star_graph(n: int) -> LabeledGraph:
    """A star with centre 1 and ``n - 1`` leaves."""
    return LabeledGraph(n, ((1, v) for v in range(2, n + 1)))


def grid_graph(rows: int, cols: int) -> LabeledGraph:
    """The ``rows × cols`` mesh (node ``(r, c)`` is labelled ``r·cols + c + 1``).

    A classic multiprocessor interconnect used by the simulator examples;
    its diameter ``rows + cols - 2`` puts it firmly outside the paper's
    random-graph class.
    """
    if rows < 1 or cols < 1:
        raise GraphError(f"grid needs positive dimensions, got {rows}x{cols}")

    def label(r: int, c: int) -> int:
        return r * cols + c + 1

    edges = []
    for r in range(rows):
        for c in range(cols):
            if c + 1 < cols:
                edges.append((label(r, c), label(r, c + 1)))
            if r + 1 < rows:
                edges.append((label(r, c), label(r + 1, c)))
    return LabeledGraph(rows * cols, edges)


def torus_graph(rows: int, cols: int) -> LabeledGraph:
    """The ``rows × cols`` torus (mesh with wrap-around links)."""
    if rows < 3 or cols < 3:
        raise GraphError(
            f"torus needs dimensions >= 3 (no duplicate wrap edges), "
            f"got {rows}x{cols}"
        )

    def label(r: int, c: int) -> int:
        return r * cols + c + 1

    edges = []
    for r in range(rows):
        for c in range(cols):
            edges.append((label(r, c), label(r, (c + 1) % cols)))
            edges.append((label(r, c), label((r + 1) % rows, c)))
    return LabeledGraph(rows * cols, edges)


def random_tree(n: int, seed: int | None = None) -> LabeledGraph:
    """A uniformly random labelled tree via a random Prüfer sequence."""
    if n < 1:
        raise GraphError(f"tree needs at least one node, got {n}")
    if n == 1:
        return LabeledGraph(1)
    if n == 2:
        return LabeledGraph(2, [(1, 2)])
    rng = random.Random(seed)
    pruefer = [rng.randrange(1, n + 1) for _ in range(n - 2)]
    degree = [1] * (n + 1)
    for node in pruefer:
        degree[node] += 1
    edges = []
    leaves = [u for u in range(1, n + 1) if degree[u] == 1]
    heapq.heapify(leaves)
    for node in pruefer:
        leaf = heapq.heappop(leaves)
        edges.append((leaf, node))
        degree[node] -= 1
        if degree[node] == 1:
            heapq.heappush(leaves, node)
    remaining = sorted(leaves)
    edges.append((remaining[0], remaining[1]))
    return LabeledGraph(n, edges)
