"""Traffic-pattern generators for simulation experiments.

Deterministic (seeded) workloads over a graph's node set:

* uniform random source/destination pairs;
* hotspot traffic (many sources, few destinations);
* all-to-one gather and one-to-all scatter;
* permutation traffic (every node sends to a distinct target).

Each generator yields ``(source, destination)`` pairs ready to inject into
:class:`~repro.simulator.kernel.BatchKernel`.
"""

from __future__ import annotations

import random
from typing import List, Tuple

from repro.errors import GraphError
from repro.graphs import LabeledGraph

__all__ = [
    "uniform_pairs",
    "hotspot_pairs",
    "all_to_one",
    "one_to_all",
    "permutation_traffic",
]

Pair = Tuple[int, int]


def uniform_pairs(
    graph: LabeledGraph, count: int, seed: int = 0
) -> List[Pair]:
    """``count`` independent uniformly random ordered pairs (s ≠ t)."""
    if graph.n < 2:
        raise GraphError("need at least two nodes for traffic")
    rng = random.Random(seed)
    pairs = []
    for _ in range(count):
        source = rng.randrange(1, graph.n + 1)
        destination = rng.randrange(1, graph.n)
        if destination >= source:
            destination += 1
        pairs.append((source, destination))
    return pairs


def hotspot_pairs(
    graph: LabeledGraph,
    count: int,
    hotspots: int = 2,
    seed: int = 0,
) -> List[Pair]:
    """Traffic converging on a few random hotspot destinations."""
    if not 1 <= hotspots < graph.n:
        raise GraphError(
            f"hotspots must be in [1, n), got {hotspots} for n={graph.n}"
        )
    rng = random.Random(seed)
    targets = rng.sample(range(1, graph.n + 1), hotspots)
    pairs = []
    for _ in range(count):
        destination = rng.choice(targets)
        source = rng.randrange(1, graph.n)
        if source >= destination:
            source += 1
        pairs.append((source, destination))
    return pairs


def all_to_one(graph: LabeledGraph, destination: int = 1) -> List[Pair]:
    """Every other node sends one message to ``destination`` (gather)."""
    if not 1 <= destination <= graph.n:
        raise GraphError(f"destination {destination} outside 1..{graph.n}")
    return [(u, destination) for u in graph.nodes if u != destination]


def one_to_all(graph: LabeledGraph, source: int = 1) -> List[Pair]:
    """``source`` sends one message to every other node (scatter)."""
    if not 1 <= source <= graph.n:
        raise GraphError(f"source {source} outside 1..{graph.n}")
    return [(source, w) for w in graph.nodes if w != source]


def permutation_traffic(graph: LabeledGraph, seed: int = 0) -> List[Pair]:
    """Every node sends to a distinct partner (a random derangement-ish map).

    The mapping is a uniformly random permutation conditioned on having no
    fixed points, drawn by seeded rejection — the classic worst-ish-case
    pattern for oblivious routing studies.
    """
    if graph.n < 2:
        raise GraphError("need at least two nodes for permutation traffic")
    rng = random.Random(seed)
    nodes = list(graph.nodes)
    while True:
        targets = nodes[:]
        rng.shuffle(targets)
        if all(s != t for s, t in zip(nodes, targets)):
            return list(zip(nodes, targets))
