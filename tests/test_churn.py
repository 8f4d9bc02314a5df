"""Live topology churn: mutations, schedules, repair planning, convergence."""

from __future__ import annotations

import json

import pytest

from repro.core import build_scheme, plan_repair, verify_scheme
from repro.core.repair import dirty_nodes
from repro.errors import GraphError, RoutingError
from repro.core import DetourWrapper
from repro.graphs import (
    complete_graph,
    cycle_graph,
    get_context,
    gnp_random_graph,
    star_graph,
)
from repro.integrity import FramingPolicy, IntegrityWrapper
from repro.models import Knowledge, Labeling, RoutingModel
from repro.observability import MetricsRegistry, RecordingTracer, set_registry
from repro.simulator import (
    BatchKernel,
    ChurnSchedule,
    DropReason,
    RetryPolicy,
    TopologyMutation,
    TopologyMutationKind,
    random_churn,
    summarize,
    uniform_pairs,
)

IA_ALPHA = RoutingModel(Knowledge.IA, Labeling.ALPHA)


@pytest.fixture
def registry():
    fresh = MetricsRegistry()
    previous = set_registry(fresh)
    yield fresh
    set_registry(previous)


class TestTopologyMutation:
    def test_constructors_and_describe(self):
        add = TopologyMutation.edge_add(1.0, 2, 3)
        assert add.kind is TopologyMutationKind.EDGE_ADD
        assert add.describe() == "add edge 2-3"
        remove = TopologyMutation.edge_remove(2.0, 3, 4)
        assert remove.describe() == "remove edge 3-4"
        leave = TopologyMutation.node_leave(3.0, 5)
        assert leave.describe() == "node 5 leaves"
        join = TopologyMutation.node_join(4.0, 5, (1, 2))
        assert join.describe() == "node 5 joins via 1,2"

    def test_validation_rejects_malformed_mutations(self):
        with pytest.raises(GraphError):
            TopologyMutation.edge_add(-1.0, 1, 2)
        with pytest.raises(GraphError):
            TopologyMutation.edge_add(0.0, 4, 4)  # self loop
        with pytest.raises(GraphError):
            TopologyMutation(0.0, TopologyMutationKind.NODE_LEAVE, (1, 2))
        with pytest.raises(GraphError):
            TopologyMutation(0.0, TopologyMutationKind.NODE_JOIN, (5,))
        with pytest.raises(GraphError):
            TopologyMutation.node_join(0.0, 5, (5,))  # attach to itself
        with pytest.raises(GraphError):
            TopologyMutation.node_join(0.0, 5, (1, 1))  # duplicate

    def test_apply_mutates_the_graph(self):
        graph = cycle_graph(5)
        added = TopologyMutation.edge_add(0.0, 1, 3).apply(graph)
        assert added.has_edge(1, 3) and not graph.has_edge(1, 3)
        removed = TopologyMutation.edge_remove(0.0, 1, 2).apply(graph)
        assert not removed.has_edge(1, 2)
        isolated = TopologyMutation.node_leave(0.0, 4).apply(graph)
        assert isolated.degree(4) == 0 and isolated.n == graph.n
        rejoined = TopologyMutation.node_join(0.0, 4, (1, 2)).apply(isolated)
        assert rejoined.neighbor_set(4) == frozenset({1, 2})

    def test_apply_rejects_inapplicable_mutations(self):
        graph = cycle_graph(5)
        with pytest.raises(GraphError):
            TopologyMutation.edge_add(0.0, 1, 2).apply(graph)  # exists
        with pytest.raises(GraphError):
            TopologyMutation.edge_remove(0.0, 1, 3).apply(graph)  # absent
        with pytest.raises(GraphError):
            TopologyMutation.node_join(0.0, 4, (1,)).apply(graph)  # attached
        isolated = TopologyMutation.node_leave(0.0, 4).apply(graph)
        with pytest.raises(GraphError):
            TopologyMutation.node_leave(0.0, 4).apply(isolated)  # isolated


class TestChurnSchedule:
    def test_orders_merges_and_shifts(self):
        early = TopologyMutation.edge_add(1.0, 1, 3)
        late = TopologyMutation.edge_remove(9.0, 1, 2)
        schedule = ChurnSchedule([late, early])
        assert [m.time for m in schedule] == [1.0, 9.0]
        assert len(schedule) == 2 and bool(schedule)
        assert schedule.horizon == 9.0
        merged = schedule + ChurnSchedule([TopologyMutation.edge_add(4.0, 2, 4)])
        assert [m.time for m in merged] == [1.0, 4.0, 9.0]
        shifted = schedule.shifted(10.0)
        assert [m.time for m in shifted] == [11.0, 19.0]
        assert not ChurnSchedule() and ChurnSchedule().horizon == 0.0

    def test_validate_is_path_dependent(self):
        graph = cycle_graph(5)
        twice = ChurnSchedule([
            TopologyMutation.edge_remove(1.0, 1, 2),
            TopologyMutation.edge_remove(2.0, 1, 2),
        ])
        with pytest.raises(GraphError, match="t=2.00"):
            twice.validate(graph)
        once = ChurnSchedule([TopologyMutation.edge_remove(1.0, 1, 2)])
        once.validate(graph)  # no raise

    def test_graph_at_applies_mutations_inclusively(self):
        graph = cycle_graph(5)
        schedule = ChurnSchedule([
            TopologyMutation.edge_add(2.0, 1, 3),
            TopologyMutation.edge_add(5.0, 2, 5),
        ])
        assert not schedule.graph_at(graph, 1.9).has_edge(1, 3)
        at_boundary = schedule.graph_at(graph, 2.0)
        assert at_boundary.has_edge(1, 3) and not at_boundary.has_edge(2, 5)
        final = schedule.final_graph(graph)
        assert final.has_edge(1, 3) and final.has_edge(2, 5)


class TestRandomChurn:
    def test_deterministic_and_valid(self):
        graph = gnp_random_graph(20, seed=7)
        one = random_churn(graph, 8, horizon=50.0, seed=3)
        two = random_churn(graph, 8, horizon=50.0, seed=3)
        assert one.mutations == two.mutations
        assert len(one) > 0
        one.validate(graph)
        assert all(0.0 <= m.time < 50.0 for m in one)

    def test_keep_connected_preserves_live_connectivity(self):
        graph = gnp_random_graph(16, seed=9)
        kinds = (
            TopologyMutationKind.EDGE_ADD,
            TopologyMutationKind.EDGE_REMOVE,
            TopologyMutationKind.NODE_LEAVE,
            TopologyMutationKind.NODE_JOIN,
        )
        schedule = random_churn(graph, 12, horizon=30.0, seed=5, kinds=kinds)
        current = graph
        for mutation in schedule:
            current = mutation.apply(current)
            live = [u for u in current.nodes if current.degree(u) > 0]
            dist = get_context(current).distances()
            for v in live[1:]:
                assert dist[live[0] - 1, v - 1] < current.n  # reachable

    def test_best_effort_when_no_move_exists(self):
        # A complete graph cannot gain an edge: every slot is skipped.
        schedule = random_churn(
            complete_graph(5), 4, seed=1,
            kinds=(TopologyMutationKind.EDGE_ADD,),
        )
        assert len(schedule) == 0

    def test_input_validation(self):
        graph = cycle_graph(5)
        with pytest.raises(GraphError):
            random_churn(graph, -1)
        with pytest.raises(GraphError):
            random_churn(graph, 2, horizon=0.0)
        with pytest.raises(GraphError):
            random_churn(graph, 2, kinds=())
        with pytest.raises(GraphError):
            random_churn(graph, 2, max_attachments=0)


class TestRepairPlanning:
    def test_dirty_closure_on_a_star_chord(self):
        # Adding a chord between two leaves changes exactly their rows;
        # the closure adds the centre (their common neighbour).
        old = star_graph(8)
        new = old.with_edge(3, 5)
        assert dirty_nodes(old, new) == frozenset({1, 3, 5})

    def test_dirty_nodes_rejects_node_count_change(self):
        with pytest.raises(GraphError):
            dirty_nodes(star_graph(5), star_graph(6))

    def test_plan_reuses_clean_tables_bit_identically(self, registry):
        old_graph = star_graph(8)
        scheme = build_scheme("full-table", old_graph, IA_ALPHA)
        new_graph = old_graph.with_edge(3, 5)
        plan = plan_repair(scheme, new_graph)
        assert plan.dirty == frozenset({1, 3, 5})
        assert plan.clean == frozenset({2, 4, 6, 7, 8})
        # The carried-forward encodings equal a from-scratch build's.
        fresh = build_scheme("full-table", new_graph, IA_ALPHA)
        for node in plan.clean:
            adopted = plan.new_scheme.ctx.pristine_bits(
                plan.new_scheme, node
            )
            assert adopted == fresh.encode_function(node)
        # Accounting: dirty + clean bits cover the whole new scheme.
        total = sum(
            len(fresh.encode_function(u)) for u in new_graph.nodes
        )
        assert plan.bits_total == total
        assert plan.bits_rewritten == sum(b for _, b in plan.table_bits)
        assert [u for u, _ in plan.table_bits] == sorted(plan.dirty)
        assert "3/8 tables dirty" in plan.describe()
        assert registry.counter(
            "repro_churn_tables_reused_total"
        ).value == 5

    def test_full_flag_forces_rebuild_everything(self, registry):
        old_graph = star_graph(8)
        scheme = build_scheme("full-table", old_graph, IA_ALPHA)
        plan = plan_repair(scheme, old_graph.with_edge(3, 5), full=True)
        assert plan.dirty == frozenset(old_graph.nodes)
        assert not plan.clean and plan.bits_reused == 0

    def test_extra_dirty_nodes_are_forced_into_the_plan(self):
        old_graph = star_graph(8)
        scheme = build_scheme("full-table", old_graph, IA_ALPHA)
        plan = plan_repair(
            scheme, old_graph.with_edge(3, 5), extra_dirty=(7,)
        )
        assert 7 in plan.dirty and 7 not in plan.clean

    def test_global_scheme_falls_back_to_full_rebuild(self):
        graph = cycle_graph(8)
        interval = build_scheme(
            "interval", graph, RoutingModel(Knowledge.II, Labeling.BETA)
        )
        assert not interval.supports_incremental_repair()
        # Removing one cycle edge leaves a connected path.
        plan = plan_repair(interval, graph.without_edge(1, 2))
        assert plan.dirty == frozenset(graph.nodes)
        assert not plan.clean

    @pytest.mark.parametrize("name", ["full-table", "full-information"])
    @pytest.mark.parametrize(
        "wrap",
        [
            lambda scheme: IntegrityWrapper(scheme, FramingPolicy.CRC8),
            lambda scheme: DetourWrapper(scheme),
        ],
        ids=["framed", "detour"],
    )
    def test_wrapped_schemes_repair_incrementally(self, wrap, name):
        """A wrapper repairs like the scheme it wraps: the same dirty/clean
        split, and every table carried forward is the rebuilt wrapper's."""
        graph = gnp_random_graph(32, seed=0)
        new_graph = graph.without_edge(*next(iter(graph.edges())))
        bare = plan_repair(build_scheme(name, graph, IA_ALPHA), new_graph)
        plan = plan_repair(wrap(build_scheme(name, graph, IA_ALPHA)), new_graph)
        assert bare.clean
        assert (plan.dirty, plan.clean) == (bare.dirty, bare.clean)
        rebuilt = plan.new_scheme
        for node in plan.clean:
            carried = rebuilt.ctx.pristine_bits(rebuilt, node)
            assert carried == rebuilt.encode_function(node)

    def test_repaired_scheme_routes_the_new_topology(self):
        graph = gnp_random_graph(16, seed=11)
        scheme = build_scheme("full-table", graph, IA_ALPHA)
        schedule = random_churn(graph, 5, horizon=10.0, seed=2)
        plan = plan_repair(scheme, schedule.final_graph(graph))
        assert verify_scheme(plan.new_scheme, sample_pairs=60, seed=1).ok()


class TestSelectiveInvalidation:
    def test_kind_scoped_and_full_flush(self, registry):
        graph = star_graph(7)
        ctx = get_context(graph)
        ctx.invalidate()
        ctx.distances()
        ctx.bfs_tree(4)
        assert ctx.invalidate(kinds=["distances"]) == 1
        assert "distances" not in ctx.cached_kinds()
        before = registry.counter(
            "repro_graph_ctx_invalidations_total"
        ).value
        assert ctx.invalidate() == 1  # the bfs tree
        assert registry.counter(
            "repro_graph_ctx_invalidations_total"
        ).value == before + 1


def _edge_churn_kernel(graph, schedule, messages=40, **kwargs):
    scheme = build_scheme("full-table", graph, IA_ALPHA)
    sim = BatchKernel(
        scheme,
        retry_policy=RetryPolicy(max_attempts=5, base_delay=1.0),
        retry_seed=3,
        churn_schedule=schedule,
        **kwargs,
    )
    for index, (source, destination) in enumerate(
        uniform_pairs(graph, messages, seed=4)
    ):
        sim.inject(source, destination, 0.5 * index)
    return sim


class TestEngineChurn:
    def test_converges_and_delivers_under_edge_churn(self, registry):
        graph = gnp_random_graph(16, seed=21)
        schedule = random_churn(graph, 4, horizon=15.0, seed=6)
        tracer = RecordingTracer()
        sim = _edge_churn_kernel(
            graph, schedule, churn_repair_delay=3.0, tracer=tracer
        )
        records = sim.run()
        metrics = summarize(records, sim.network.live_graph)
        assert metrics.delivered_fraction == 1.0
        summary = sim.churn_summary()
        assert summary["converged"]
        assert summary["mutations"] == len(schedule)
        assert 1 <= summary["repairs"] <= summary["mutations"]
        assert summary["bits_rewritten"] + summary["bits_reused"] == (
            summary["bits_full"]
        )
        assert summary["tables_reused"] > 0  # incremental by default
        names = [event.event for event in tracer.events]
        assert names.count("mutate") == len(schedule)
        assert "repair" in names and "converged" in names
        counted = sum(
            registry.counter(
                "repro_topology_mutations_total", kind=kind.name
            ).value
            for kind in TopologyMutationKind
        )
        assert counted == len(schedule)
        assert registry.counter(
            "repro_churn_repairs_total"
        ).value == summary["repairs"]

    @pytest.mark.parametrize(
        "wrap",
        [
            lambda scheme: IntegrityWrapper(scheme, FramingPolicy.CRC16),
            lambda scheme: DetourWrapper(scheme, max_bounces=2),
        ],
        ids=["framed", "detour"],
    )
    def test_wrapped_schemes_survive_repair(self, wrap):
        graph = gnp_random_graph(16, seed=21)
        schedule = random_churn(graph, 4, horizon=15.0, seed=6)
        sim = BatchKernel(
            wrap(build_scheme("full-table", graph, IA_ALPHA)),
            churn_schedule=schedule,
            churn_repair_delay=3.0,
        )
        for index, (source, destination) in enumerate(
            uniform_pairs(graph, 40, seed=4)
        ):
            sim.inject(source, destination, 0.5 * index)
        sim.run()
        assert sim.churn_summary()["converged"]
        converged = sim.network.scheme
        live = sim.network.live_graph
        assert converged.graph is live
        fresh = wrap(build_scheme("full-table", live, IA_ALPHA))
        assert type(converged) is type(fresh)
        assert converged.scheme_name == fresh.scheme_name
        # The detour bound grows with max_bounces: the budget survived.
        assert converged.stretch_bound() == fresh.stretch_bound()
        for u in live.nodes:
            assert converged.encode_function(u) == fresh.encode_function(u)

    def test_stale_deliveries_are_counted_during_the_repair_window(self):
        graph = gnp_random_graph(16, seed=21)
        schedule = random_churn(graph, 4, horizon=15.0, seed=6)
        sim = _edge_churn_kernel(graph, schedule, churn_repair_delay=3.0)
        metrics = summarize(sim.run(), sim.network.live_graph)
        assert metrics.stale_deliveries > 0
        assert metrics.to_dict()["stale_deliveries"] == (
            metrics.stale_deliveries
        )

    def test_staggered_installs_delay_convergence(self):
        graph = gnp_random_graph(16, seed=21)
        schedule = ChurnSchedule(
            random_churn(graph, 1, horizon=5.0, seed=6).mutations
        )
        assert len(schedule) == 1
        instant = _edge_churn_kernel(
            graph, schedule, churn_repair_delay=2.0
        )
        instant.run()
        fast = instant.churn_summary()["convergence_times"]
        slow_sim = _edge_churn_kernel(
            graph, schedule, churn_repair_delay=2.0, churn_repair_rate=200.0
        )
        slow_sim.run()
        slow = slow_sim.churn_summary()["convergence_times"]
        assert slow_sim.churn_summary()["converged"]
        assert len(fast) == len(slow) == 1
        assert slow[0] > fast[0]

    def test_node_leave_and_rejoin_round_trip(self):
        graph = gnp_random_graph(16, seed=13)
        node = max(graph.nodes, key=graph.degree)
        neighbors = sorted(graph.neighbor_set(node))[:2]
        schedule = ChurnSchedule([
            TopologyMutation.node_leave(2.0, node),
            TopologyMutation.node_join(10.0, node, neighbors),
        ])
        scheme = build_scheme("full-table", graph, IA_ALPHA)
        sim = BatchKernel(
            scheme,
            churn_schedule=schedule,
            churn_repair_delay=2.0,
        )
        # To the left node while it is gone, and again after it rejoined.
        other = next(u for u in graph.nodes if u != node)
        sim.inject(other, node, 5.0)
        sim.inject(other, node, 30.0)
        records = sorted(sim.run(), key=lambda r: r.injected_at)
        # While the node is gone it is unreachable: either the stale
        # table still points at it (endpoint down) or the repaired table
        # has no entry for the isolated label (no route).
        assert not records[0].delivered
        assert records[0].drop_reason in (
            DropReason.ENDPOINT_DOWN, DropReason.NO_ROUTE
        )
        assert records[1].delivered
        summary = sim.churn_summary()
        assert summary["converged"] and summary["mutations"] == 2

    def test_burst_of_mutations_coalesces_into_fewer_repairs(self):
        graph = gnp_random_graph(16, seed=17)
        base = random_churn(graph, 5, horizon=2.0, seed=8)
        assert len(base) >= 3
        sim = _edge_churn_kernel(graph, base, churn_repair_delay=5.0)
        sim.run()
        summary = sim.churn_summary()
        assert summary["converged"]
        # All mutations land inside one repair-delay window.
        assert summary["repairs"] == 1

    def test_constructor_validation(self):
        graph = gnp_random_graph(8, seed=1)
        scheme = build_scheme("full-table", graph, IA_ALPHA)
        schedule = random_churn(graph, 1, seed=1)
        with pytest.raises(RoutingError):
            BatchKernel(
                scheme, churn_schedule=schedule, churn_repair_delay=0.0
            )
        with pytest.raises(RoutingError):
            BatchKernel(
                scheme, churn_schedule=schedule, churn_repair_rate=-1.0
            )

    def test_relabeling_schemes_are_rejected_under_churn(self):
        graph = gnp_random_graph(8, seed=1)
        scheme = build_scheme("full-table", graph, IA_ALPHA)
        schedule = random_churn(graph, 1, seed=1)

        class _Relabeled:
            def __init__(self, inner):
                self._inner = inner

            def __getattr__(self, name):
                return getattr(self._inner, name)

            def address_of(self, node):
                return ("lbl", node)

        with pytest.raises(RoutingError):
            BatchKernel(
                _Relabeled(scheme), churn_schedule=schedule
            )

    def test_node_churn_needs_a_scheme_that_rebuilds_without_the_node(self):
        """A leave is refused up front when the scheme's own rebuild
        rejects the graph with the node isolated; full-table accepts it."""
        graph = gnp_random_graph(16, seed=13)
        schedule = ChurnSchedule([TopologyMutation.node_leave(2.0, 5)])
        refusing = build_scheme("full-information", graph, IA_ALPHA)
        with pytest.raises(RoutingError, match="--kinds edges"):
            BatchKernel(refusing, churn_schedule=schedule)
        u, v = next(iter(graph.edges()))
        edges_only = ChurnSchedule([TopologyMutation.edge_remove(2.0, u, v)])
        BatchKernel(refusing, churn_schedule=edges_only)
        BatchKernel(
            build_scheme("full-table", graph, IA_ALPHA),
            churn_schedule=schedule,
        )


class TestChurnCli:
    def test_simulate_churn_json_reports_convergence(self, capsys):
        from repro.cli import main

        code = main([
            "simulate", "full-table", "16",
            "--events", "3", "--messages", "30", "--seed", "5",
            "--retries", "2", "--json",
        ])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        churn = payload["churn"]
        assert churn["scheduled"] >= churn["mutations"] >= 1
        assert churn["converged"] is True
        assert churn["incremental"] is True
        assert churn["bits_rewritten"] <= churn["bits_full"]
        assert payload["messages"] == 30

    @pytest.mark.parametrize("scheme", ["full-information", "interval"])
    def test_node_churn_is_rejected_before_the_run(self, scheme, capsys):
        from repro.cli import main

        code = main([
            "simulate", scheme, "40", "--events", "6", "--kinds", "all",
        ])
        assert code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: node churn")
        assert "--kinds edges" in captured.err

    def test_simulate_churn_text_mentions_repair_mode(self, capsys):
        from repro.cli import main

        code = main([
            "simulate", "full-table", "16",
            "--events", "2", "--messages", "20", "--seed", "5",
            "--full-rebuild",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "full-rebuild repair" in out
        assert "converged: yes" in out
