"""Property-based checks of the incremental churn-repair invariants.

The repair layer's central claim: after any valid mutation sequence, a
node outside the dirty closure *provably* encodes to the same bits, so
its pristine table can be adopted unchanged — and the repaired scheme as
a whole routes the mutated topology exactly like a from-scratch build.
"""

from __future__ import annotations

import random

from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.core import build_scheme, plan_repair, route_message
from repro.core.repair import dirty_nodes
from repro.graphs import LabeledGraph, get_context, gnp_random_graph
from repro.models import Knowledge, Labeling, RoutingModel
from repro.simulator import (
    BatchKernel,
    RetryPolicy,
    TopologyMutationKind,
    random_churn,
)

IA_ALPHA = RoutingModel(Knowledge.IA, Labeling.ALPHA)

ALL_KINDS = (
    TopologyMutationKind.EDGE_ADD,
    TopologyMutationKind.EDGE_REMOVE,
    TopologyMutationKind.NODE_LEAVE,
    TopologyMutationKind.NODE_JOIN,
)


@settings(max_examples=25)
@given(
    graph_seed=st.integers(min_value=0, max_value=2**16),
    churn_seed=st.integers(min_value=0, max_value=2**16),
    events=st.integers(min_value=1, max_value=5),
)
def test_clean_tables_are_bit_identical_after_repair(
    graph_seed, churn_seed, events
):
    graph = gnp_random_graph(14, seed=graph_seed)
    assume(graph.is_connected())  # full-table requires connectivity
    scheme = build_scheme("full-table", graph, IA_ALPHA)
    schedule = random_churn(graph, events, horizon=10.0, seed=churn_seed)
    final = schedule.final_graph(graph)
    plan = plan_repair(scheme, final)
    assert plan.dirty | plan.clean == frozenset(final.nodes)
    assert not plan.dirty & plan.clean
    # An independently built scheme is the ground truth encoding.
    fresh = build_scheme("full-table", final, IA_ALPHA)
    for node in plan.clean:
        adopted = plan.new_scheme.ctx.pristine_bits(plan.new_scheme, node)
        assert adopted == fresh.encode_function(node), (
            f"node {node} was declared clean but its adopted table "
            f"differs from a from-scratch encode"
        )
    # Dirty tables were re-encoded; together the plan covers the full
    # rebuild's bill exactly.
    assert plan.bits_total == sum(
        len(fresh.encode_function(u)) for u in final.nodes
    )


@settings(max_examples=25)
@given(
    graph_seed=st.integers(min_value=0, max_value=2**16),
    churn_seed=st.integers(min_value=0, max_value=2**16),
    events=st.integers(min_value=1, max_value=4),
)
def test_repaired_scheme_routes_like_a_fresh_build(
    graph_seed, churn_seed, events
):
    graph = gnp_random_graph(12, seed=graph_seed)
    assume(graph.is_connected())  # full-table requires connectivity
    scheme = build_scheme("full-table", graph, IA_ALPHA)
    schedule = random_churn(
        graph, events, horizon=10.0, seed=churn_seed, kinds=ALL_KINDS
    )
    final = schedule.final_graph(graph)
    plan = plan_repair(scheme, final)
    # Routing over the repaired scheme is exact-shortest-path on the
    # mutated topology for every live ordered pair (a left node is
    # isolated until it rejoins, so it is neither source nor sink).
    live = [u for u in final.nodes if final.degree(u) > 0]
    dist = plan.new_scheme.ctx.distances()
    rng = random.Random(1)
    for _ in range(60):
        source, destination = rng.sample(live, 2)
        trace = route_message(plan.new_scheme, source, destination)
        assert trace.delivered, trace
        assert trace.hops == dist[source - 1, destination - 1], trace


@settings(max_examples=15, deadline=None)
@given(
    churn_seed=st.integers(min_value=0, max_value=2**16),
    events=st.integers(min_value=1, max_value=4),
)
def test_engine_converges_and_post_churn_probes_are_never_stale(
    churn_seed, events
):
    graph = gnp_random_graph(12, seed=5)
    scheme = build_scheme("full-table", graph, IA_ALPHA)
    schedule = random_churn(graph, events, horizon=10.0, seed=churn_seed)
    sim = BatchKernel(
        scheme,
        retry_policy=RetryPolicy(max_attempts=5, base_delay=1.0),
        retry_seed=churn_seed,
        churn_schedule=schedule,
        churn_repair_delay=2.0,
    )
    # Probes go in after the last repair can possibly finish.
    probe_at = schedule.horizon + 5.0
    final = schedule.final_graph(graph)
    live = [u for u in final.nodes if final.degree(u) > 0]
    for offset, source in enumerate(live):
        destination = live[(offset + 1) % len(live)]
        if source != destination:
            sim.inject(source, destination, probe_at + 0.1 * offset)
    records = sim.run()
    assert sim.churn_summary()["converged"]
    probes = [r for r in records if r.injected_at >= probe_at]
    assert probes
    for record in probes:
        assert record.delivered and not record.stale, record


@settings(max_examples=30)
@given(
    graph_seed=st.integers(min_value=0, max_value=2**16),
    churn_seed=st.integers(min_value=0, max_value=2**16),
)
def test_dirty_closure_is_monotone_under_composition(graph_seed, churn_seed):
    """The closure of a two-mutation schedule contains every node whose
    adjacency any single mutation touched."""
    graph = gnp_random_graph(12, seed=graph_seed)
    assume(graph.is_connected())  # keep_connected churn needs a base
    schedule = random_churn(graph, 2, horizon=10.0, seed=churn_seed)
    final = schedule.final_graph(graph)
    dirty = dirty_nodes(graph, final)
    for mutation in schedule:
        if mutation.kind in (
            TopologyMutationKind.EDGE_ADD, TopologyMutationKind.EDGE_REMOVE
        ):
            touched = set(mutation.subject)
            for node in touched:
                old_nb = graph.neighbor_set(node)
                new_nb = final.neighbor_set(node)
                if old_nb != new_nb:
                    assert node in dirty


def dirty_nodes_loop(old: LabeledGraph, new: LabeledGraph) -> frozenset:
    """The per-node form of :func:`dirty_nodes`, its reference: a node is
    dirty when its neighbour set or its distance row changed, or the
    distance row of one of its new neighbours did."""
    row_changed = (
        get_context(old).distances() != get_context(new).distances()
    ).any(axis=1)
    dirty = set()
    for u in new.nodes:
        new_nb = new.neighbor_set(u)
        if old.neighbor_set(u) != new_nb or row_changed[u - 1]:
            dirty.add(u)
        elif any(row_changed[w - 1] for w in new_nb):
            dirty.add(u)
    return frozenset(dirty)


@settings(max_examples=40)
@given(
    n=st.sampled_from([8, 20, 64, 128]),
    p=st.sampled_from([0.1, 0.5]),
    graph_seed=st.integers(min_value=0, max_value=2**16),
    churn_seed=st.integers(min_value=0, max_value=2**16),
    events=st.integers(min_value=1, max_value=3),
)
def test_dirty_nodes_matches_the_per_node_loop(n, p, graph_seed, churn_seed, events):
    """Edge adds, edge removes and node leaves, disconnecting ones included."""
    graph = gnp_random_graph(n, p, seed=graph_seed)
    schedule = random_churn(
        graph, events, horizon=10.0, seed=churn_seed, kinds=ALL_KINDS[:3],
        keep_connected=False,
    )
    final = schedule.final_graph(graph)
    assert dirty_nodes(graph, final) == dirty_nodes_loop(graph, final)
