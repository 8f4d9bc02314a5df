"""The array graph agrees with the dict-of-sets reference on every input.

``tests/graph_reference.py`` keeps the per-edge ``LabeledGraph``
constructor, its transformations, the list comprehension
``gnp_random_graph`` and a per-source breadth-first search.  These tests
require:

* a graph built from any edge list — duplicates and both orientations
  included, given as a list of tuples or as an ``(m, 2)`` array — to have
  the reference's edges, neighbour tuples, neighbour sets (compared as
  sets), edge count, adjacency matrix, equality and hash;
* bad input to raise what the reference raises: the same class and
  message at the first out-of-range or self-loop edge, ``ValueError`` for
  an edge that is not a pair and ``TypeError`` for a label that is not an
  integer;
* ``relabel``, ``complement``, ``without_node_edges``, ``with_edge`` and
  ``without_edge`` to return the reference's graph or raise its error;
* ``gnp_random_graph`` to draw the reference's graph for every
  ``n``, ``p`` and seed tried;
* ``distance_matrix`` (Seidel's algorithm) to equal the breadth-first
  search, and every ``GraphContext.ball`` read off its rows to hold the
  nodes a search cut at that radius reaches, for every radius tried: on
  every run, on each of the fixed random graphs (disconnected ones
  included), paths, cycles, stars, complete graphs, grids and random
  trees; and by a property, on relabelled disjoint unions of cliques,
  paths, odd and even cycles, stars, trees and isolated nodes, with four
  pinned cases; with the parity products in float32 and in float64.  The
  pinned cases leave Seidel's squaring at both of its exits (a complete
  level, a level that stops changing) and more than four levels up;
* ``find_distant_pair`` (the Lemma 2 codec's pair) to name the pair the
  reference's double loop over the two-hop search names, on the fixed
  graphs and the pinned cases.
"""

from __future__ import annotations

import random
from typing import Any, Callable, List, Sequence, Tuple

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.graphs import properties
from repro.graphs import (
    GraphContext,
    LabeledGraph,
    complete_graph,
    cycle_graph,
    distance_matrix,
    gnp_random_graph,
    grid_graph,
    path_graph,
    random_tree,
    star_graph,
)
from repro.incompressibility import find_distant_pair
from tests import graph_reference as reference

Edges = List[Tuple[Any, Any]]


def snapshot(graph: Any) -> Tuple[Any, ...]:
    """Everything the oracle compares, in a form ``==`` can judge."""
    return (
        graph.n,
        graph.edge_count,
        list(graph.edges()),
        [graph.neighbors(u) for u in graph.nodes],
        [graph.neighbor_set(u) for u in graph.nodes],
        graph.adjacency_matrix().tobytes(),
        hash(graph),
    )


def outcome(call: Callable[[], Any]) -> Tuple[Any, ...]:
    """``("ok", snapshot)`` of the graph built, or ``("raise", class, message)``."""
    try:
        return ("ok", snapshot(call()))
    except Exception as exc:
        return ("raise", type(exc).__name__, str(exc))


def forms(edges: Edges) -> List[Any]:
    """The edge list as given and as an ``(m, 2)`` integer array."""
    return [edges, np.array(edges, dtype=np.int64).reshape(-1, 2)]


@st.composite
def edge_lists(draw: Any) -> Tuple[int, Edges]:
    """A node count and an edge list from empty to complete, each edge in a
    random orientation, with repeats in either orientation, shuffled."""
    n = draw(st.integers(1, 40))
    p = draw(st.sampled_from((0.0, 0.05, 0.2, 0.5, 1.0)))
    rng = random.Random(draw(st.integers(0, 2**32)))
    edges: Edges = [
        (u, v) if rng.random() < 0.5 else (v, u)
        for u in range(1, n + 1)
        for v in range(u + 1, n + 1)
        if rng.random() < p
    ]
    if edges:
        edges += [
            rng.choice(edges)[:: rng.choice((1, -1))]
            for _ in range(rng.randrange(len(edges) // 2 + 2))
        ]
    rng.shuffle(edges)
    return n, edges


@settings(max_examples=80)
@given(edge_lists())
def test_graph_matches_reference(case):
    n, edges = case
    expected = reference.LabeledGraph(n, edges)
    for given_edges in forms(edges):
        assert snapshot(LabeledGraph(n, given_edges)) == snapshot(expected)
    # Equality and hash: a half of the list spans the same edge set exactly
    # when the reference says so, the reversed list always does.
    half = edges[: len(edges) // 2]
    graph = LabeledGraph(n, edges)
    assert (graph == LabeledGraph(n, half)) == (
        expected == reference.LabeledGraph(n, half)
    )
    assert graph == LabeledGraph(n, edges[::-1])
    assert hash(graph) == hash(LabeledGraph(n, edges[::-1]))
    assert graph != LabeledGraph(n + 1, edges)


@settings(max_examples=80)
@given(st.integers(1, 12).flatmap(
    lambda n: st.tuples(
        st.just(n),
        st.lists(
            st.tuples(st.integers(-2, n + 2), st.integers(-2, n + 2)),
            min_size=1,
            max_size=12,
        ),
    )
))
def test_bad_edges_raise_like_the_reference(case):
    n, edges = case
    expected = outcome(lambda: reference.LabeledGraph(n, edges))
    for given_edges in forms(edges):
        assert outcome(lambda: LabeledGraph(n, given_edges)) == expected


@st.composite
def spoiled(draw: Any, kind: str) -> Tuple[int, Edges]:
    """A valid edge list with one edge replaced by a non-pair (``arity``)
    or with one label replaced by a non-integer (``label``)."""
    n, edges = draw(edge_lists().filter(lambda case: case[0] >= 2))
    edges = edges or [(1, 2)]
    at = draw(st.integers(0, len(edges) - 1))
    u, v = edges[at]
    if kind == "arity":
        edges[at] = draw(st.sampled_from([(u,), (u, v, v)]))
    else:
        bad = draw(st.one_of(
            st.integers(1, n - 1).map(lambda k: k + 0.5),
            st.text(max_size=2),
            st.none(),
        ))
        edges[at] = draw(st.sampled_from([(bad, v), (u, bad)]))
    return n, edges


@settings(max_examples=60)
@given(spoiled("arity"))
def test_an_edge_that_is_not_a_pair_raises_value_error(case):
    n, edges = case
    assert outcome(lambda: reference.LabeledGraph(n, edges))[:2] == (
        "raise", "ValueError"
    )
    with pytest.raises(ValueError):
        LabeledGraph(n, edges)
    width = next(len(edge) for edge in edges if len(edge) != 2)
    with pytest.raises(ValueError):
        LabeledGraph(n, np.array([edge[:1] * width for edge in edges]))


@settings(max_examples=60)
@given(spoiled("label"))
def test_a_label_that_is_not_an_integer_raises_type_error(case):
    n, edges = case
    assert outcome(lambda: reference.LabeledGraph(n, edges))[:2] == (
        "raise", "TypeError"
    )
    for given_edges in (edges, np.array(edges)):
        with pytest.raises(TypeError):
            LabeledGraph(n, given_edges)


@settings(max_examples=60)
@given(edge_lists(), st.data())
def test_transformations_match_reference(case, data):
    n, edges = case
    graph, expected = LabeledGraph(n, edges), reference.LabeledGraph(n, edges)
    mapping = dict(zip(range(1, n + 1), data.draw(st.permutations(range(1, n + 1)))))
    node = st.integers(1, n)
    u, v, w = data.draw(node), data.draw(node), data.draw(node)
    for call in (
        lambda g: g.relabel(mapping),
        lambda g: g.complement(),
        lambda g: g.without_node_edges(w),
        lambda g: g.with_edge(u, v),
        lambda g: g.without_edge(u, v),
    ):
        assert outcome(lambda: call(graph)) == outcome(lambda: call(expected))
    if edges:
        a, b = data.draw(st.sampled_from(edges))
        assert snapshot(graph.without_edge(a, b)) == snapshot(
            expected.without_edge(a, b)
        )


@pytest.mark.parametrize("p", (0.0, 0.1, 0.5, 1.0))
@pytest.mark.parametrize("n", (1, 2, 17, 64, 256))
def test_gnp_matches_reference(n, p):
    for seed in range(5):
        assert snapshot(gnp_random_graph(n, p, seed=seed)) == snapshot(
            reference.gnp_random_graph(n, p, seed=seed)
        )


def distance_graphs() -> List[LabeledGraph]:
    """G(n, p) samples, sparse enough that some are disconnected, and the
    deterministic families."""
    return [
        gnp_random_graph(n, p, seed=seed)
        for p in (0.05, 0.1, 0.5)
        for n in (1, 2, 12, 40)
        for seed in range(3)
    ] + [
        path_graph(9),
        cycle_graph(10),
        star_graph(7),
        complete_graph(6),
        grid_graph(3, 5),
        random_tree(20, seed=4),
    ]


def union_graph(parts: Sequence[LabeledGraph], order: Sequence[int]) -> LabeledGraph:
    """The disjoint union of ``parts``, its node ``k`` relabelled
    ``order[k - 1]``."""
    edges: Edges = []
    offset = 0
    for part in parts:
        edges += [
            (order[offset + u - 1], order[offset + v - 1])
            for u, v in part.edges()
        ]
        offset += part.n
    return LabeledGraph(offset, edges)


COMPONENTS = {
    "clique": lambda size, seed: complete_graph(size),
    "path": lambda size, seed: path_graph(size),
    "cycle": lambda size, seed: cycle_graph(size + 2),
    "star": lambda size, seed: star_graph(size),
    "tree": random_tree,
    "isolated": lambda size, seed: LabeledGraph(1),
}


@st.composite
def unions(draw: Any) -> LabeledGraph:
    """A relabelled disjoint union of one to four components, each a
    clique, path, cycle (odd or even), star, random tree or isolated
    node of up to 26 nodes."""
    parts = [
        COMPONENTS[kind](draw(st.integers(1, 24)), draw(st.integers(0, 2**16)))
        for kind in draw(
            st.lists(st.sampled_from(sorted(COMPONENTS)), min_size=1, max_size=4)
        )
    ]
    n = sum(part.n for part in parts)
    return union_graph(parts, draw(st.permutations(range(1, n + 1))))


PINNED = [
    path_graph(300),
    union_graph(
        [path_graph(40), cycle_graph(11), star_graph(5), LabeledGraph(1)],
        random.Random(7).sample(range(1, 58), 57),
    ),
    complete_graph(6),
    LabeledGraph(4),
]
"""Cases every run checks: the deep path, a disconnected union whose
squaring stops changing six levels up, and the two graphs that stop at
the adjacency (complete, and edgeless)."""


RADII = (None, 0, 1, 2, 3, 4, 5, 8)
"""Hop-ball radii each distance check also reads the matrix at (``None``:
the full matrix alone)."""


def assert_distances_match_bfs(graph: LabeledGraph, radius: Any) -> None:
    """The full matrix is the breadth-first search's, and every ball of
    ``radius`` holds the nodes a search cut at that depth reaches."""
    dist = distance_matrix(graph)
    assert dist.dtype == np.int32
    np.testing.assert_array_equal(dist, reference.bfs_distances(graph))
    if radius is None:
        return
    reached = reference.bfs_distances(graph, radius)
    ctx = GraphContext(graph)
    for center in graph.nodes:
        assert ctx.ball(center, radius) == {
            w for w in graph.nodes if reached[center - 1, w - 1] >= 0
        }


@pytest.mark.parametrize("radius", RADII)
def test_distance_matrix_matches_bfs(radius):
    for graph in distance_graphs():
        assert_distances_match_bfs(graph, radius)


@pytest.mark.parametrize("radius", RADII)
@settings(max_examples=60)
@given(graph=unions())
@example(graph=PINNED[0])
@example(graph=PINNED[1])
@example(graph=PINNED[2])
@example(graph=PINNED[3])
def test_distance_matrix_matches_bfs_on_unions(radius, graph):
    assert_distances_match_bfs(graph, radius)


def test_pinned_cases_reach_both_exits_and_deep_levels():
    """Seidel's squaring stops at a complete level (path(300), nine
    levels up) and at a level that stops changing (the union, six levels
    up), and at the adjacency itself under either exit."""
    exits = []
    for graph in PINNED:
        levels, complete, _ = properties._seidel_levels(graph.adjacency_matrix())
        exits.append((complete, len(levels) - 1))
    assert exits == [(True, 9), (False, 6), (True, 0), (False, 0)]


@pytest.mark.parametrize("radius", (None, 2, 5))
def test_float64_parity_products_match_bfs(monkeypatch, radius):
    """Graphs above ``FLOAT32_EXACT_N`` nodes unwind in float64;
    lowering the constant sends the pinned cases and the fixed graphs
    down that branch."""
    monkeypatch.setattr(properties, "FLOAT32_EXACT_N", 0)
    for graph in PINNED + distance_graphs():
        assert_distances_match_bfs(graph, radius)


def test_find_distant_pair_matches_the_double_loop():
    """The least pair beyond two hops, or ``None``; both outcomes occur."""
    graphs = PINNED + distance_graphs()
    pairs = [reference.find_distant_pair(graph) for graph in graphs]
    assert None in pairs and any(pair is not None for pair in pairs)
    for graph, expected in zip(graphs, pairs):
        assert find_distant_pair(graph) == expected


def test_distance_graphs_span_every_regime():
    """Disconnected, diameter 1 and 2, and pairs more than three hops
    apart."""
    dists = [reference.bfs_distances(graph) for graph in distance_graphs()]
    assert any((dist < 0).any() for dist in dists)
    assert {1, 2} <= {int(dist.max()) for dist in dists if (dist >= 0).all()}
    assert any(dist.max() > 3 for dist in dists if (dist >= 0).all())
