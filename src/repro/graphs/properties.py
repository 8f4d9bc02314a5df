"""Structural properties behind the paper's three lemmas.

* **Lemma 1** — on random graphs every degree is ``(n-1)/2 ± O(√(n log n))``:
  :func:`degree_statistics` measures the deviation band.
* **Lemma 2** — random graphs have diameter 2: :func:`diameter` and the fast
  :func:`is_diameter_two` check via one boolean matrix product.
* **Lemma 3 / Claim 1** — from every node ``u`` all non-neighbours are
  reachable through the least ``(c+3) log n`` neighbours of ``u``, and each
  successive least neighbour covers ≥ 1/3 of what remains:
  :func:`covering_sequence` and :func:`claim1_remainders` per node, and
  :func:`least_hop_ranks` and :func:`least_cover_prefixes` for all nodes
  at once.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Tuple

import numpy as np

from repro.errors import CoverError, GraphError
from repro.graphs.graph import LabeledGraph

__all__ = [
    "DegreeStatistics",
    "degree_statistics",
    "distance_matrix",
    "diameter",
    "is_diameter_two",
    "eccentricity",
    "covering_sequence",
    "cover_prefix_length",
    "least_hop_ranks",
    "least_cover_prefixes",
    "claim1_remainders",
    "common_neighbors",
    "min_common_neighbors",
    "lemma3_bound",
]


@dataclass(frozen=True)
class DegreeStatistics:
    """Summary of a graph's degree sequence against the Lemma 1 band."""

    n: int
    min_degree: int
    max_degree: int
    mean_degree: float
    max_deviation: int
    """Largest ``|d(v) - (n-1)/2|`` over all nodes."""
    lemma1_bound: float
    """The ``√((δ + log n) n)`` scale the deviations should respect."""

    @property
    def within_band(self) -> bool:
        """True when every degree deviation is within the Lemma 1 scale.

        The scale ``√((δ + log n) n)`` already carries a comfortable
        constant: on ``G(n, 1/2)`` the worst deviation concentrates near
        ``√(n ln(2n) / 2)``, roughly a third of the scale, while skewed
        graphs (stars, the Figure 1 family) overshoot it.
        """
        return self.max_deviation <= self.lemma1_bound


def degree_statistics(
    graph: LabeledGraph, deficiency: float | None = None
) -> DegreeStatistics:
    """Measure the degree band of Lemma 1.

    ``deficiency`` is the randomness deficiency ``δ(n)`` (defaults to
    ``3 log n``, the class of graphs the paper's averages are taken over).
    """
    n = graph.n
    degrees = [graph.degree(u) for u in graph.nodes]
    center = (n - 1) / 2.0
    if deficiency is None:
        deficiency = 3.0 * math.log2(max(n, 2))
    bound = math.sqrt((deficiency + math.log2(max(n, 2))) * n)
    return DegreeStatistics(
        n=n,
        min_degree=min(degrees),
        max_degree=max(degrees),
        mean_degree=sum(degrees) / n,
        max_deviation=int(max(abs(d - center) for d in degrees) + 0.5),
        lemma1_bound=bound,
    )


FLOAT32_EXACT_N = 4096
"""Largest ``n`` whose parity products :func:`distance_matrix` runs in
float32: every partial sum of ``D′·A`` is a nonnegative integer at most
``(n−1)²``, below ``2²⁴`` (float32's exact-integer range) up to here.
Larger graphs take float64."""


def _seidel_levels(adjacency: np.ndarray) -> Tuple[List[np.ndarray], bool, int]:
    """Seidel's levels ``A₀ = adjacency``, ``A_{j+1} = A_j ∨ A_j²`` (bool,
    diagonal clear), whether the top one is complete, and the products.

    Squaring stops at the first complete level, or when a product adds no
    pair: the level below is then closed (every component a clique) and
    the product's result is dropped.
    """
    n = adjacency.shape[0]
    pairs = n * (n - 1)
    levels = [adjacency]
    edges = int(np.count_nonzero(adjacency))
    products = 0
    while edges < pairs:
        work = levels[-1].astype(np.float32)
        above = np.matmul(work, work) > 0
        above |= levels[-1]
        np.fill_diagonal(above, False)
        products += 1
        reached = int(np.count_nonzero(above))
        if reached == edges:
            break
        levels.append(above)
        edges = reached
    return levels, edges == pairs, products


def _seidel_distances(graph: LabeledGraph) -> Tuple[np.ndarray, int]:
    """:func:`distance_matrix` and the number of dense ``n × n`` products
    it took."""
    n = graph.n
    levels, complete, products = _seidel_levels(graph.adjacency_matrix())
    top = levels.pop()
    if not levels:
        dist = top.astype(np.int32)
    else:
        dist = 2 * top.astype(np.int32) - levels.pop()
    dtype = np.float32 if n <= FLOAT32_EXACT_N else np.float64
    while levels:
        below = levels.pop().astype(dtype)
        scaled = dist.astype(dtype)
        odd = np.matmul(scaled, below) < scaled * below.sum(axis=0)
        products += 1
        dist *= 2
        dist -= odd
    if not complete:
        dist[~top] = -1
        np.fill_diagonal(dist, 0)
    return dist, products


def distance_matrix(graph: LabeledGraph) -> np.ndarray:
    """All-pairs hop distances by Seidel's algorithm (JCSS 1995), as int32.

    Entry ``[u - 1, w - 1]`` is the hop distance from ``u`` to ``w``: 0 on
    the diagonal and ``-1`` for unreached pairs.

    Level ``j + 1`` joins the pairs within two hops at level ``j``
    (``A ∨ A²``, one float32 BLAS product), so level ``j`` holds the pairs
    within ``2ʲ`` hops.  Squaring stops at the first complete level, or
    one product later once a level adds no pair: every component is then
    a clique at that level ``t``, so ``D_{t−1} = 2A_t − A_{t−1}``.  Each
    lower level unwinds with one product,
    ``D_j = 2D_{j+1} − [D_{j+1}·A_j < D_{j+1} ⊙ deg_j]``: a distance is
    odd exactly when the far end's neighbours lie, on average, strictly
    closer at level ``j + 1``.  Pairs in different components stay 0
    throughout and are masked with ``-1`` at the end.  The parity
    products are exact in float32 while ``n ≤`` :data:`FLOAT32_EXACT_N`
    and run in float64 above.

    A connected graph of diameter ``D ≥ 2`` takes ``2⌈log₂ D⌉ − 1``
    products: one at diameter 2, as on the ``G(n, 1/2)`` graphs
    dominating this library, and 15 on ``path(256)``.  Settling one hop
    per product would take ``D − 1``: one fewer at ``D`` = 3 and 5, as
    many at 2, 4 and 6, and more from ``D = 7`` up.  A disconnected
    graph takes ``2⌈log₂ D⌉`` for its largest component diameter
    ``D ≥ 2``, a complete graph none.
    """
    return _seidel_distances(graph)[0]


def diameter(graph: LabeledGraph) -> int:
    """The graph diameter (raises on disconnected graphs)."""
    dist = distance_matrix(graph)
    if (dist < 0).any():
        raise GraphError("diameter undefined: graph is disconnected")
    return int(dist.max())


def is_diameter_two(graph: LabeledGraph) -> bool:
    """Fast Lemma 2 check: every non-adjacent pair has a common neighbour."""
    n = graph.n
    if n == 1:
        return False
    adjacency = graph.adjacency_matrix()
    off_diagonal = adjacency.copy()
    np.fill_diagonal(off_diagonal, True)
    if off_diagonal.all():
        return False  # complete graph: diameter 1
    two_step = (adjacency.astype(np.float32) @ adjacency.astype(np.float32)) > 0
    covered = adjacency | two_step
    np.fill_diagonal(covered, True)
    return bool(covered.all())


def eccentricity(graph: LabeledGraph, u: int) -> int:
    """Largest hop distance from ``u`` (single-source BFS)."""
    seen = {u: 0}
    frontier = [u]
    depth = 0
    while frontier:
        depth += 1
        next_frontier = []
        for x in frontier:
            for y in graph.neighbor_set(x):
                if y not in seen:
                    seen[y] = depth
                    next_frontier.append(y)
        frontier = next_frontier
    if len(seen) != graph.n:
        raise GraphError("eccentricity undefined: graph is disconnected")
    return max(seen.values())


def covering_sequence(
    graph: LabeledGraph, u: int, strategy: str = "least"
) -> Tuple[List[int], List[List[int]]]:
    """Neighbours ``v₁..v_m`` of ``u`` covering every non-neighbour, plus
    the newly-covered sets ``A_t`` of Claim 1.

    ``strategy='least'`` replays the paper: take neighbours in increasing
    label order and stop once all of ``A₀`` is covered (Lemma 3 promises a
    prefix of length ``(c+3) log n`` on random graphs).  ``strategy='greedy'``
    picks the neighbour covering the most still-uncovered targets — the
    ablation considered in DESIGN.md.

    Raises :class:`~repro.errors.GraphError` when no full cover exists,
    i.e. some non-neighbour is at distance > 2 from ``u``.
    """
    remaining = set(graph.non_neighbors(u))
    sequence: List[int] = []
    newly_covered: List[List[int]] = []
    if strategy == "least":
        for v in graph.neighbors(u):
            if not remaining:
                break
            covered = sorted(remaining & graph.neighbor_set(v))
            sequence.append(v)
            newly_covered.append(covered)
            remaining -= set(covered)
    elif strategy == "greedy":
        candidates = set(graph.neighbors(u))
        while remaining and candidates:
            best = max(
                sorted(candidates),
                key=lambda v: len(remaining & graph.neighbor_set(v)),
            )
            covered = sorted(remaining & graph.neighbor_set(best))
            if not covered:
                break
            sequence.append(best)
            newly_covered.append(covered)
            remaining -= set(covered)
            candidates.discard(best)
    else:
        raise GraphError(f"unknown covering strategy {strategy!r}")
    if remaining:
        raise CoverError(u, len(remaining))
    return sequence, newly_covered


def cover_prefix_length(graph: LabeledGraph, u: int) -> int:
    """Length of the least-neighbour prefix needed to cover ``A₀`` (Lemma 3)."""
    sequence, _ = covering_sequence(graph, u, strategy="least")
    return len(sequence)


def least_hop_ranks(graph: LabeledGraph, dist: np.ndarray) -> np.ndarray:
    """Every node's least shortest-path neighbour, as a rank, for all
    destinations at once.

    An ``(n, n)`` ``int32`` array over the all-pairs distances ``dist``:
    entry ``[u - 1, w - 1]`` is the index, in ``u``'s sorted neighbour
    list, of ``u``'s least neighbour one hop closer to ``w`` (the first
    True of :func:`~repro.core.full_table.shortest_hop_mask`'s column
    ``w``), and ``-1`` where ``w = u`` or ``w`` is unreachable.  On a
    distance-2 pair it is the step at which :func:`covering_sequence`
    (``'least'``) first covers ``w``, less one.

    An adjacent destination is its own next hop.  The rest are resolved
    in passes ``t = 0, 1, …``: every row with unresolved destinations
    tests its ``t``-th least neighbour's distance row against its own
    less one, and leaves the passes once resolved.  The result is exact
    on every graph and the work never exceeds ``Σ d(u)·n``; on a
    ``c log n``-random graph Lemma 3 stops the passes after about
    ``(c+3) log n`` neighbours.
    """
    adjacency = graph.adjacency_matrix()
    ranks = np.where(
        adjacency, np.cumsum(adjacency, axis=1, dtype=np.int32) - 1, np.int32(-1)
    )
    neighbors = [graph.neighbors(u) for u in graph.nodes]
    pending = dist >= 2
    rows = np.flatnonzero(pending.any(axis=1))
    pending, goal = pending[rows], dist[rows] - 1
    # A pending entry starts at -1 + 1 and gains 1 per pass that leaves
    # it pending, so it holds the pass that resolved it.
    found = ranks[rows] + pending
    t = 0
    while rows.size:
        step = np.array([neighbors[u][t] for u in rows.tolist()]) - 1
        pending &= dist[step] != goal
        found += pending
        open_rows = pending.any(axis=1)
        if not open_rows.all():
            done = ~open_rows
            ranks[rows[done]] = found[done]
            rows, pending = rows[open_rows], pending[open_rows]
            goal, found = goal[open_rows], found[open_rows]
        t += 1
    return ranks


def least_cover_prefixes(dist: np.ndarray, ranks: np.ndarray) -> np.ndarray:
    """Every node's least-neighbour cover prefix (Lemma 3), from
    :func:`least_hop_ranks`.

    Entry ``u - 1`` is ``cover_prefix_length(graph, u)``: one more than
    the largest rank over ``u``'s distance-2 destinations, 0 when ``u``
    has none.  Raises the :class:`~repro.errors.CoverError` that
    :func:`covering_sequence` raises at the least node with a
    non-neighbour at a distance other than 2.
    """
    uncovered = ((dist > 2) | (dist < 0)).sum(axis=1)
    stuck = np.flatnonzero(uncovered)
    if stuck.size:
        raise CoverError(int(stuck[0]) + 1, int(uncovered[stuck[0]]))
    return np.max(ranks, axis=1, where=dist == 2, initial=-1) + 1


def claim1_remainders(graph: LabeledGraph, u: int, strategy: str = "least") -> List[int]:
    """The sequence ``m₀ ≥ m₁ ≥ ...`` of uncovered counts from Claim 1.

    ``m₀ = |A₀|`` and ``m_t = m_{t-1} - |A_t|``; Claim 1 says each step with
    ``m_{t-1} > n / log log n`` removes at least a third of the remainder.
    """
    _, newly_covered = covering_sequence(graph, u, strategy)
    remainders = [len(graph.non_neighbors(u))]
    for covered in newly_covered:
        remainders.append(remainders[-1] - len(covered))
    return remainders


def common_neighbors(graph: LabeledGraph, u: int, v: int) -> Tuple[int, ...]:
    """Nodes adjacent to both ``u`` and ``v``, in increasing order.

    On a diameter-2 graph this is the set of shortest-path intermediaries —
    exactly what a full-information function stores per non-adjacent pair,
    and what link-failure resilience draws on.
    """
    return tuple(
        sorted(graph.neighbor_set(u) & graph.neighbor_set(v))
    )


def min_common_neighbors(graph: LabeledGraph) -> int:
    """The worst shortest-path redundancy over non-adjacent pairs.

    On ``G(n, 1/2)`` every non-adjacent pair shares about ``n/4``
    neighbours, which is why full-information routing survives so many
    failures (the simulator benches measure the consequence).
    """
    n = graph.n
    adjacency = graph.adjacency_matrix()
    counts = adjacency.astype(np.float32) @ adjacency.astype(np.float32)
    worst = None
    for u in range(n):
        for v in range(u + 1, n):
            if adjacency[u, v]:
                continue
            shared = int(counts[u, v])
            if worst is None or shared < worst:
                worst = shared
    return worst if worst is not None else 0


def lemma3_bound(n: int, c: float = 3.0) -> float:
    """The ``(c+3) log n`` prefix-length bound of Lemma 3."""
    return (c + 3.0) * math.log2(max(n, 2))
