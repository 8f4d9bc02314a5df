"""Tests for the shared derived-computation layer (`repro.graphs.context`).

Three families:

* property tests — every :class:`GraphContext` accessor agrees with the
  raw :mod:`repro.graphs.properties` computation on random graphs;
* caching semantics — an untouched graph never recomputes, an
  invalidated (corrupted/healed) one does, the pipeline computes the
  distance matrix exactly once, and the store aliases equal graphs;
* integration — the corruption self-healer sources pristine bits from
  the context.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core import build_scheme, verify_scheme
from repro.errors import GraphError
from repro.graphs import (
    GraphContext,
    LabeledGraph,
    clear_context_cache,
    distance_matrix,
    get_context,
    gnp_random_graph,
    path_graph,
    structural_fingerprint,
)
from repro.graphs.context import CTX_COUNTER, DISTANCE_PRODUCTS
from repro.graphs.ports import PortAssignment
from repro.models import Knowledge, Labeling, RoutingModel
from repro.observability import MetricsRegistry, set_registry
from repro.simulator import BatchKernel, MutationKind, TableMutation
from tests.routing import route_one

II_ALPHA = RoutingModel(Knowledge.II, Labeling.ALPHA)


@pytest.fixture
def registry():
    fresh = MetricsRegistry()
    previous = set_registry(fresh)
    yield fresh
    set_registry(previous)


@pytest.fixture(autouse=True)
def clear_cache():
    clear_context_cache()
    yield
    clear_context_cache()


def _ctx_count(registry, kind, op):
    return registry.counter(CTX_COUNTER, kind=kind, op=op).value


random_graph = st.builds(
    gnp_random_graph,
    st.integers(min_value=2, max_value=24),
    seed=st.integers(min_value=0, max_value=2**31 - 1),
)


# -- accessors agree with the raw computations --------------------------------


class TestAccessorsMatchRawProperties:
    @given(graph=random_graph)
    @settings(max_examples=25, suppress_health_check=[HealthCheck.too_slow])
    def test_distances(self, graph):
        ctx = GraphContext(graph)
        np.testing.assert_array_equal(ctx.distances(), distance_matrix(graph))

    @given(graph=random_graph, data=st.data())
    @settings(max_examples=25, suppress_health_check=[HealthCheck.too_slow])
    def test_bfs_tree_depths_are_the_distance_row(self, graph, data):
        root = data.draw(st.integers(min_value=1, max_value=graph.n))
        ctx = GraphContext(graph)
        parent = ctx.bfs_tree(root)
        assert parent[root] == root
        dist = distance_matrix(graph)
        reachable = {
            v for v in graph.nodes if dist[root - 1][v - 1] >= 0
        }
        assert set(parent) == reachable
        for v, p in parent.items():
            if v == root:
                continue
            # Each parent edge descends exactly one BFS level.
            assert p in graph.neighbors(v)
            assert dist[root - 1][v - 1] == dist[root - 1][p - 1] + 1

    @given(graph=random_graph, data=st.data())
    @settings(max_examples=25, suppress_health_check=[HealthCheck.too_slow])
    def test_ball_is_the_distance_ball(self, graph, data):
        center = data.draw(st.integers(min_value=1, max_value=graph.n))
        radius = data.draw(st.integers(min_value=0, max_value=4))
        ctx = GraphContext(graph)
        dist = distance_matrix(graph)
        expected = {
            v
            for v in graph.nodes
            if 0 <= dist[center - 1][v - 1] <= radius
        }
        assert ctx.ball(center, radius) == expected

    @pytest.mark.parametrize("center, radius", [(0, 1), (5, 1), (2, -1)])
    def test_ball_rejects_a_node_or_radius_out_of_range(self, center, radius):
        """Node 0 would read the last row of the matrix, not fail."""
        with pytest.raises(GraphError):
            GraphContext(path_graph(4)).ball(center, radius)

    @given(graph=random_graph, data=st.data())
    @settings(max_examples=25, suppress_health_check=[HealthCheck.too_slow])
    def test_port_table_is_the_identity_assignment(self, graph, data):
        u = data.draw(st.integers(min_value=1, max_value=graph.n))
        ports = GraphContext(graph).port_table()
        assert ports.is_identity()
        identity = PortAssignment.identity(graph)
        for v in graph.neighbors(u):
            assert ports.port(u, v) == identity.port(u, v)


# -- caching and invalidation semantics ---------------------------------------


class TestCachingSemantics:
    def test_untouched_graph_never_recomputes(self, registry):
        graph = gnp_random_graph(16, seed=1)
        ctx = get_context(graph)
        first = ctx.distances()
        for _ in range(5):
            assert ctx.distances() is first
            ctx.bfs_tree(1)
            ctx.port_table()
        for kind, hits in (("distances", 5), ("bfs_tree", 4), ("port_table", 4)):
            assert _ctx_count(registry, kind, "miss") == 1
            assert _ctx_count(registry, kind, "hit") == hits
        assert (
            registry.counter("repro_graph_ctx_invalidations_total").value == 0
        )

    def test_invalidate_forces_one_recompute(self, registry):
        graph = gnp_random_graph(12, seed=2)
        ctx = get_context(graph)
        first = ctx.distances()
        ctx.invalidate()
        assert "distances" not in ctx.cached_kinds()
        second = ctx.distances()
        assert second is not first
        np.testing.assert_array_equal(second, first)
        assert _ctx_count(registry, "distances", "miss") == 2
        assert (
            registry.counter("repro_graph_ctx_invalidations_total").value == 1
        )

    def test_fresh_derivations_set_the_products_gauge(self, registry):
        """One product on G(256, 1/2), 15 for path(256); a memo hit takes
        none and leaves the gauge as it was."""
        gauge = registry.gauge(DISTANCE_PRODUCTS, n=256)
        dense = GraphContext(gnp_random_graph(256, seed=0))
        dense.distances()
        assert gauge.value == 1
        GraphContext(path_graph(256)).distances()
        assert gauge.value == 15
        dense.distances()
        assert gauge.value == 15
        assert dense.cached_kinds() == {"distances"}
        assert len(dense._cache) == 1

    def test_returned_matrix_is_read_only(self):
        ctx = get_context(path_graph(5))
        dist = ctx.distances()
        with pytest.raises(ValueError):
            dist[0, 0] = 99

    def test_pipeline_computes_distances_exactly_once(self, registry):
        """The acceptance criterion: build → verify → simulate, one BFS sweep."""
        from repro.simulator import summarize

        graph = gnp_random_graph(20, seed=4)
        scheme = build_scheme("full-table", graph, II_ALPHA)
        result = verify_scheme(scheme, sample_pairs=50, seed=0)
        assert result.ok()
        kernel = BatchKernel(scheme)
        kernel.inject(1, 2)
        kernel.inject(3, 4)
        summarize(kernel.run(), graph)
        get_context(graph).distances()
        assert _ctx_count(registry, "distances", "miss") == 1
        assert _ctx_count(registry, "distances", "hit") >= 2

    def test_store_aliases_structurally_equal_graphs(self, registry):
        a = gnp_random_graph(10, seed=5)
        b = gnp_random_graph(10, seed=5)
        assert a is not b and a == b
        assert structural_fingerprint(a) == structural_fingerprint(b)
        ctx = get_context(a)
        assert get_context(b) is ctx
        # The alias shares derivations: b's distances come for free.
        ctx.distances()
        assert get_context(b).distances() is ctx.distances()
        assert _ctx_count(registry, "distances", "miss") == 1

    def test_distinct_graphs_get_distinct_contexts(self):
        a = gnp_random_graph(10, seed=6)
        b = gnp_random_graph(10, seed=7)
        assert get_context(a) is not get_context(b)
        assert get_context(a).fingerprint != structural_fingerprint(b)


# -- integration: healer knowledge --------------------------------------------


class TestPristineKnowledge:
    def test_corrupt_and_heal_reuse_one_encode(self, registry):
        graph = gnp_random_graph(12, seed=8)
        scheme = build_scheme("full-table", graph, II_ALPHA)
        kernel = BatchKernel(scheme)
        network = kernel.network
        flip = TableMutation(kind=MutationKind.BIT_FLIP, offsets=(0, 3))
        network.corrupt_table(5, flip)
        network.heal_table(5)
        network.corrupt_table(5, flip)
        network.heal_table(5)
        # One encode for node 5, three cache hits (heal, corrupt, heal).
        assert _ctx_count(registry, "pristine_bits", "miss") == 1
        assert _ctx_count(registry, "pristine_bits", "hit") == 3
        # Healed node routes correctly again.
        record = route_one(kernel, 5, 1)
        assert record.delivered

    def test_pristine_bits_keyed_per_scheme_instance(self, registry):
        graph = gnp_random_graph(12, seed=9)
        ctx = get_context(graph)
        one = build_scheme("full-table", graph, II_ALPHA, ctx=ctx)
        two = build_scheme("full-table", graph, II_ALPHA, ctx=ctx)
        assert ctx.pristine_bits(one, 3) == ctx.pristine_bits(one, 3)
        assert _ctx_count(registry, "pristine_bits", "miss") == 1
        ctx.pristine_bits(two, 3)
        assert _ctx_count(registry, "pristine_bits", "miss") == 2
