"""The array-wide Lemma 3 derivation agrees with the per-node references.

``least_hop_ranks`` resolves every node's least shortest-path neighbour
for all destinations in passes over the whole array; the references are
the per-node ``shortest_hop_mask(...).argmax`` and
``covering_sequence(graph, u, "least")``.  These properties run both on
G(n, ½), paths, grids, stars, sparse G(n, p) and G(n, ½) after a node
leave (a disconnected graph), and require the same rank for every pair,
the same covering sequences and newly covered lists, the same
``CoverError`` node and count, the same Theorem 1 plans, and unchanged
build errors from Theorems 1–4 wherever some node is not Lemma 3-like.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Any, Dict, Iterator, List, Optional, Tuple

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import FullTableScheme, build_scheme, full_table
from repro.core.full_table import shortest_hop_mask
from repro.core.two_level import TwoLevelScheme
from repro.errors import CoverError, SchemeBuildError
from repro.graphs import (
    GraphContext,
    LabeledGraph,
    covering_sequence,
    distance_matrix,
    gnp_random_graph,
    grid_graph,
    least_cover_prefixes,
    least_hop_ranks,
    path_graph,
    star_graph,
)
from repro.graphs import context
from repro.graphs.context import LEAST_HOP_PASSES
from repro.models import Knowledge, Labeling, RoutingModel
from repro.observability import MetricsRegistry, set_registry

II_ALPHA = RoutingModel(Knowledge.II, Labeling.ALPHA)
II_GAMMA = RoutingModel(Knowledge.II, Labeling.GAMMA)


@st.composite
def graphs(draw: Any) -> LabeledGraph:
    """G(n, ½), path, grid, star, sparse G(n, p) or G(n, ½) after a leave."""
    kind = draw(
        st.sampled_from(("half", "half", "path", "grid", "star", "sparse", "leave"))
    )
    seed = draw(st.integers(0, 2**16))
    if kind == "path":
        return path_graph(draw(st.integers(1, 40)))
    if kind == "grid":
        return grid_graph(draw(st.integers(1, 6)), draw(st.integers(1, 6)))
    if kind == "star":
        return star_graph(draw(st.integers(1, 30)))
    if kind == "sparse":
        p = draw(st.sampled_from((0.03, 0.08, 0.15)))
        return gnp_random_graph(draw(st.integers(1, 60)), p=p, seed=seed)
    n = draw(st.integers(1 if kind == "half" else 3, 48))
    graph = gnp_random_graph(n, seed=seed)
    if kind == "leave":
        return graph.without_node_edges(draw(st.integers(1, graph.n)))
    return graph


def reference_ranks(graph: LabeledGraph, dist: np.ndarray) -> np.ndarray:
    """Each node's ``shortest_hop_mask`` first True per column, else -1."""
    ranks = np.full((graph.n, graph.n), -1, dtype=np.int32)
    for u in graph.nodes:
        mask = shortest_hop_mask(graph, dist, u)
        if len(mask):
            ranks[u - 1] = np.where(mask.any(axis=0), mask.argmax(axis=0), -1)
    return ranks


def reference_covers(
    graph: LabeledGraph,
) -> Tuple[Dict[int, Tuple[List[int], List[List[int]]]], Optional[CoverError]]:
    """``covering_sequence`` per node up to the first node that raises."""
    covers = {}
    for u in graph.nodes:
        try:
            covers[u] = covering_sequence(graph, u, "least")
        except CoverError as exc:
            return covers, exc
    return covers, None


@settings(max_examples=150)
@given(graphs())
def test_ranks_match_the_per_node_masks(graph):
    dist = distance_matrix(graph)
    ranks = least_hop_ranks(graph, dist)
    assert ranks.dtype == np.int32 and ranks.shape == (graph.n, graph.n)
    expected = reference_ranks(graph, dist)
    np.testing.assert_array_equal(ranks, expected)

    registry = MetricsRegistry()
    previous = set_registry(registry)
    try:
        memo = GraphContext(graph).least_hop_ranks()
    finally:
        set_registry(previous)
    np.testing.assert_array_equal(memo, expected)
    assert not memo.flags.writeable
    far = expected[dist >= 2]
    passes = int(far.max()) + 1 if far.size else 0
    assert registry.gauge(LEAST_HOP_PASSES, n=graph.n).value == passes


@settings(max_examples=150)
@given(graphs())
def test_covers_match_covering_sequence(graph):
    dist = distance_matrix(graph)
    ranks = least_hop_ranks(graph, dist)
    covers, error = reference_covers(graph)
    if error is not None:
        with pytest.raises(CoverError) as raised:
            least_cover_prefixes(dist, ranks)
        assert (raised.value.node, raised.value.count) == (error.node, error.count)
        assert str(raised.value) == str(error)
        return
    prefixes = least_cover_prefixes(dist, ranks)
    for u in graph.nodes:
        sequence, newly_covered = covers[u]
        m = int(prefixes[u - 1])
        assert list(graph.neighbors(u)[:m]) == sequence
        row, far = ranks[u - 1], np.flatnonzero(dist[u - 1] == 2)
        assert [
            (far[row[far] == t] + 1).tolist() for t in range(m)
        ] == newly_covered


def reference_plan(
    graph: LabeledGraph, u: int, threshold: float
) -> Tuple[Tuple[int, ...], Dict[int, int], int]:
    """Theorem 1's plan for ``u`` from ``covering_sequence``, step by step."""
    sequence, newly_covered = covering_sequence(graph, u, "least")
    first_cover = {w: t for t, ws in enumerate(newly_covered, 1) for w in ws}
    remainder, cutoff = len(graph.non_neighbors(u)), 0
    for t, covered in enumerate(newly_covered, start=1):
        if remainder <= threshold:
            break
        cutoff = t
        remainder -= len(covered)
    return tuple(sequence), first_cover, cutoff


@settings(max_examples=60)
@given(graphs())
def test_theorems_build_as_the_per_node_scans_decide(graph):
    """Theorem 1's least plans equal the per-node plans wherever the
    covers exist; elsewhere Theorems 1–4 and Theorem 1's greedy ablation
    raise the per-node scan's error."""
    covers, error = reference_covers(graph)
    builds = (
        ("thm1-two-level", II_ALPHA, "Theorem 1", {}),
        ("thm1-two-level", II_ALPHA, "Theorem 1", {"strategy": "greedy"}),
        ("thm2-neighbor-labels", II_GAMMA, "Theorem 2", {}),
        ("thm3-centers", II_ALPHA, "Theorem 1", {}),
        ("thm4-hub", II_ALPHA, "Theorem 1", {}),
    )
    if error is not None:
        for name, model, theorem, params in builds:
            with pytest.raises(SchemeBuildError) as raised:
                build_scheme(name, graph, model, **params)
            assert str(raised.value) == (
                f"{theorem} construction failed at node {error.node}: {error}"
            )
        return
    scheme = TwoLevelScheme(graph, II_ALPHA)
    for u in graph.nodes:
        sequence, first_cover, cutoff = reference_plan(graph, u, scheme._threshold)
        plan = scheme._plan(u)
        assert plan.sequence == sequence == scheme.covering_sequence_of(u)
        assert plan.first_cover == first_cover
        assert list(plan.first_cover) == list(graph.non_neighbors(u))
        assert plan.cutoff == cutoff
    labels = build_scheme("thm2-neighbor-labels", graph, II_GAMMA)
    for u in graph.nodes:
        assert labels.address_of(u).cover == tuple(covers[u][0])


def test_theorems_3_and_4_plan_only_the_nodes_they_install():
    graph = gnp_random_graph(48, seed=83)
    centers = build_scheme("thm3-centers", graph, II_ALPHA)
    assert set(centers._inner._plans) == {1}
    centers.space_report()
    assert set(centers._inner._plans) == set(centers.centers)
    hub = build_scheme("thm4-hub", graph, II_ALPHA)
    hub.space_report()
    assert set(hub._inner._plans) == {hub.hub}


def test_distances_never_derive_inside_the_table_sections(monkeypatch):
    """The pipeline benchmark books ``ctx.distances`` and
    ``build.full-table.tables`` to different layers on the premise that
    they never nest; a cold context derives distances before either the
    ranks or the port table."""
    open_sections: List[str] = []
    derived: List[str] = []

    def tracking(module: Any) -> Any:
        real = module.profile_section

        @contextmanager
        def section(phase: str) -> Iterator[None]:
            open_sections.append(phase)
            try:
                with real(phase):
                    yield
            finally:
                open_sections.pop()

        return section

    real_distances = context._seidel_distances

    def distances(*args: Any, **kwargs: Any) -> Tuple[np.ndarray, int]:
        derived.append("/".join(open_sections))
        return real_distances(*args, **kwargs)

    for module in (full_table, context):
        monkeypatch.setattr(module, "profile_section", tracking(module))
    monkeypatch.setattr(context, "_seidel_distances", distances)
    for graph in (gnp_random_graph(40, seed=3), path_graph(12)):
        FullTableScheme(graph, II_ALPHA, ctx=GraphContext(graph))
        GraphContext(graph).least_hop_ranks()
    assert derived == ["build.full-table.distances/ctx.distances", "ctx.distances"] * 2
