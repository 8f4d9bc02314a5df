"""Link-failure injection for resilience experiments.

The paper motivates full-information schemes as the ones that "allow
alternative, shortest, paths to be taken whenever an outgoing link is
down"; these helpers produce reproducible failure sets to measure exactly
that against single-path schemes.
"""

from __future__ import annotations

import random
from typing import Dict, FrozenSet, Optional, Set, Tuple

from repro.errors import GraphError
from repro.graphs import LabeledGraph

__all__ = ["sample_link_failures", "sample_incident_failures", "sample_node_failures"]


def sample_link_failures(
    graph: LabeledGraph,
    count: int,
    seed: int = 0,
    keep_connected: bool = True,
) -> Set[FrozenSet[int]]:
    """Pick ``count`` random links to fail.

    With ``keep_connected`` (default) candidate failures that would
    disconnect the surviving graph are skipped, so undeliverability in an
    experiment is attributable to the *scheme*, not to a partitioned
    network.  On a graph that is already disconnected no candidate
    qualifies.
    """
    edges = list(graph.edges())
    if count > len(edges):
        raise GraphError(
            f"cannot fail {count} of {len(edges)} links"
        )
    rng = random.Random(seed)
    rng.shuffle(edges)
    failed: Set[FrozenSet[int]] = set()
    if keep_connected:
        if not graph.is_connected():
            edges = []
        # The surviving links, as one adjacency the candidates edit in
        # place: the survivors stay connected, so dropping (u, v) keeps
        # them connected exactly when v is still reachable from u.
        links = {u: set(graph.neighbor_set(u)) for u in graph.nodes}
    for u, v in edges:
        if len(failed) == count:
            break
        if keep_connected:
            links[u].discard(v)
            links[v].discard(u)
            if not _reachable(links, u, v):
                links[u].add(v)
                links[v].add(u)
                continue
        failed.add(frozenset((u, v)))
    if len(failed) < count:
        raise GraphError(
            f"only {len(failed)} of {count} links can fail without "
            f"disconnecting the graph"
        )
    return failed


def _reachable(links: Dict[int, Set[int]], source: int, target: int) -> bool:
    """Whether ``target`` is reachable from ``source`` (stops on sight)."""
    seen = {source}
    stack = [source]
    while stack:
        for node in links[stack.pop()]:
            if node == target:
                return True
            if node not in seen:
                seen.add(node)
                stack.append(node)
    return False


def sample_node_failures(
    graph: LabeledGraph,
    count: int,
    seed: int = 0,
    protect: Optional[Set[int]] = None,
    keep_connected: bool = True,
) -> Set[int]:
    """Pick ``count`` nodes to crash.

    ``protect`` shields named nodes (typically the sources/destinations
    under measurement, or the Theorem 4 hub when studying its loss).  With
    ``keep_connected`` candidates whose removal disconnects the surviving
    node set are skipped.
    """
    protected = set(protect or ())
    candidates = [u for u in graph.nodes if u not in protected]
    if count > len(candidates):
        raise GraphError(
            f"cannot fail {count} of {len(candidates)} unprotected nodes"
        )
    rng = random.Random(seed)
    rng.shuffle(candidates)
    failed: Set[int] = set()
    for node in candidates:
        if len(failed) == count:
            break
        if keep_connected:
            trial = failed | {node}
            if not graph.is_connected(trial):
                continue
        failed.add(node)
    if len(failed) < count:
        raise GraphError(
            f"only {len(failed)} of {count} nodes can fail without "
            f"disconnecting the survivors"
        )
    return failed


def sample_incident_failures(
    graph: LabeledGraph,
    node: int,
    count: int,
    seed: int = 0,
    spare: Optional[Tuple[int, int]] = None,
) -> Set[FrozenSet[int]]:
    """Fail ``count`` links incident to one node (keeping ``spare`` alive).

    Used to stress a single source's full-information entries: each failed
    incident link removes one shortest-path option per destination.
    """
    incident = [
        (node, nb)
        for nb in graph.neighbors(node)
        if spare is None or frozenset((node, nb)) != frozenset(spare)
    ]
    if count > len(incident):
        raise GraphError(
            f"node {node} has only {len(incident)} failable incident links"
        )
    rng = random.Random(seed)
    return {frozenset(edge) for edge in rng.sample(incident, count)}
