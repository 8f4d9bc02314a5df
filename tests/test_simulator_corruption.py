"""Table-corruption fault axis: mutations, schedules, detection, healing."""

from __future__ import annotations

import pytest

from repro.bitio import BitArray
from repro.core import build_scheme
from repro.errors import GraphError, RoutingError
from repro.graphs import cycle_graph, gnp_random_graph, path_graph
from repro.integrity import FramingPolicy, IntegrityWrapper
from repro.models import Knowledge, Labeling, RoutingModel
from repro.observability import (
    MetricsRegistry,
    RecordingTracer,
    format_trace_report,
    set_registry,
    summarize_trace,
)
from repro.simulator import (
    BatchKernel,
    DropReason,
    FaultEvent,
    FaultKind,
    FaultSchedule,
    MutationKind,
    Network,
    RetryPolicy,
    TableMutation,
    table_corruption,
)
from tests.routing import route_one

IA_ALPHA = RoutingModel(Knowledge.IA, Labeling.ALPHA)


@pytest.fixture
def registry():
    fresh = MetricsRegistry()
    previous = set_registry(fresh)
    yield fresh
    set_registry(previous)


class TestTableMutation:
    def test_bit_flip_applies_offsets_modulo_length(self):
        bits = BitArray([0] * 8)
        mutated = TableMutation(
            MutationKind.BIT_FLIP, offsets=(2, 10)
        ).apply(bits)
        # 10 % 8 == 2: both offsets collapse onto one flipped position.
        assert mutated == BitArray([0, 0, 1, 0, 0, 0, 0, 0])

    def test_burst_flips_contiguous_span_clipped_at_end(self):
        bits = BitArray([0] * 10)
        mutated = TableMutation(
            MutationKind.BURST, offsets=(7,), span=5
        ).apply(bits)
        assert list(mutated) == [0] * 7 + [1, 1, 1]

    def test_truncate_drops_trailing_bits_and_floors_at_zero(self):
        bits = BitArray([1] * 6)
        assert len(TableMutation(
            MutationKind.TRUNCATE, span=4
        ).apply(bits)) == 2
        assert len(TableMutation(
            MutationKind.TRUNCATE, span=99
        ).apply(bits)) == 0

    def test_empty_table_passes_through(self):
        empty = BitArray()
        assert TableMutation(MutationKind.BIT_FLIP).apply(empty) == empty

    def test_validation(self):
        with pytest.raises(GraphError):
            TableMutation(MutationKind.BIT_FLIP, offsets=())
        with pytest.raises(GraphError):
            TableMutation(MutationKind.BIT_FLIP, offsets=(-1,))
        with pytest.raises(GraphError):
            TableMutation(MutationKind.BURST, span=0)

    def test_describe_names_the_damage(self):
        assert "flip 2 bits" in TableMutation(
            MutationKind.BIT_FLIP, offsets=(1, 5)
        ).describe()
        assert "burst-flip 8 bits" in TableMutation(
            MutationKind.BURST, span=8
        ).describe()
        assert "truncate 4 trailing bits" in TableMutation(
            MutationKind.TRUNCATE, span=4
        ).describe()


class TestCorruptionFaultEvents:
    def test_table_corrupt_requires_a_mutation(self):
        with pytest.raises(GraphError, match="needs a TableMutation"):
            FaultEvent(1.0, FaultKind.TABLE_CORRUPT, (3,))

    def test_only_table_corrupt_may_carry_a_mutation(self):
        mutation = TableMutation(MutationKind.BIT_FLIP)
        with pytest.raises(GraphError, match="cannot carry a mutation"):
            FaultEvent(1.0, FaultKind.NODE_DOWN, (3,), mutation)
        with pytest.raises(GraphError, match="cannot carry a mutation"):
            FaultEvent(1.0, FaultKind.TABLE_REPAIR, (3,), mutation)

    def test_constructors_and_node_property(self):
        mutation = TableMutation(MutationKind.TRUNCATE, span=2)
        corrupt = FaultEvent.table_corrupt(2.0, 7, mutation)
        repair = FaultEvent.table_repair(5.0, 7)
        assert corrupt.node == 7 and repair.node == 7
        assert corrupt.link is None
        assert corrupt.mutation is mutation and repair.mutation is None

    def test_shifted_schedule_preserves_mutations(self):
        mutation = TableMutation(MutationKind.BIT_FLIP, offsets=(9,))
        schedule = FaultSchedule(
            [FaultEvent.table_corrupt(1.0, 4, mutation)]
        ).shifted(2.5)
        event = schedule.events[0]
        assert event.time == 3.5
        assert event.mutation is mutation

    def test_corrupted_at_replays_table_events_only(self):
        mutation = TableMutation(MutationKind.BIT_FLIP)
        schedule = FaultSchedule(
            [
                FaultEvent.table_corrupt(1.0, 4, mutation),
                FaultEvent.table_repair(5.0, 4),
                FaultEvent.node_down(0.5, 9),
            ]
        )
        assert schedule.corrupted_at(0.5) == set()
        assert schedule.corrupted_at(3.0) == {4}
        assert schedule.corrupted_at(5.0) == set()
        links, nodes = schedule.state_at(3.0)
        assert nodes == {9} and not links

    def test_validate_rejects_out_of_range_table_events(self):
        graph = path_graph(4)
        schedule = FaultSchedule(
            [FaultEvent.table_repair(1.0, 9)]
        )
        with pytest.raises(GraphError, match="node 9"):
            schedule.validate(graph)


class TestTableCorruptionGenerator:
    def test_deterministic_and_distinct_nodes(self):
        graph = gnp_random_graph(16, seed=3)
        first = table_corruption(graph, 6, horizon=40.0, seed=9)
        second = table_corruption(graph, 6, horizon=40.0, seed=9)
        assert first.events == second.events
        nodes = [event.node for event in first]
        assert len(set(nodes)) == 6
        assert all(0.0 <= event.time < 40.0 for event in first)
        assert all(
            event.kind is FaultKind.TABLE_CORRUPT for event in first
        )
        first.validate(graph)

    def test_blind_repair_delay_pairs_every_corruption(self):
        graph = gnp_random_graph(12, seed=3)
        schedule = table_corruption(
            graph, 5, horizon=30.0, seed=2, repair_delay=4.0
        )
        corrupts = [
            e for e in schedule if e.kind is FaultKind.TABLE_CORRUPT
        ]
        repairs = {
            e.node: e.time
            for e in schedule
            if e.kind is FaultKind.TABLE_REPAIR
        }
        assert len(corrupts) == 5 and len(repairs) == 5
        for event in corrupts:
            assert repairs[event.node] == pytest.approx(event.time + 4.0)

    def test_mutation_kinds_are_honoured(self):
        graph = gnp_random_graph(12, seed=3)
        schedule = table_corruption(
            graph, 8, seed=1,
            kinds=(MutationKind.TRUNCATE,), truncate_bits=3,
        )
        for event in schedule:
            assert event.mutation.kind is MutationKind.TRUNCATE
            assert event.mutation.span == 3

    def test_generator_validation(self):
        graph = path_graph(4)
        with pytest.raises(GraphError):
            table_corruption(graph, 5)
        with pytest.raises(GraphError):
            table_corruption(graph, 1, horizon=0.0)
        with pytest.raises(GraphError):
            table_corruption(graph, 1, kinds=())
        with pytest.raises(GraphError):
            table_corruption(graph, 1, flips=0)
        with pytest.raises(GraphError):
            table_corruption(graph, 1, repair_delay=-1.0)


def _framed_path_scheme(n=5):
    graph = path_graph(n)
    return IntegrityWrapper(
        build_scheme("full-table", graph, IA_ALPHA), FramingPolicy.CRC8
    )


_FLIP = TableMutation(MutationKind.BIT_FLIP, offsets=(0,))


class TestNetworkCorruption:
    def test_corrupt_detect_quarantine_lifecycle(self, registry):
        kernel = BatchKernel(_framed_path_scheme())
        network = kernel.network
        network.corrupt_table(3, _FLIP)
        assert network.corrupted_nodes == {3}
        assert network.quarantined_nodes == set()
        assert network.corruption_summary()["injected"] == 1

        # First traversal through node 3 hits the bad checksum: the
        # message drops with TABLE_CORRUPT and the node is quarantined.
        record = route_one(kernel, 1, 5)
        assert not record.delivered
        assert record.drop_reason is DropReason.TABLE_CORRUPT
        assert network.quarantined_nodes == {3}
        summary = network.corruption_summary()
        assert summary["detected"] == 1 and summary["healed"] == 0

    def test_quarantined_node_still_receives_as_destination(self):
        kernel = BatchKernel(_framed_path_scheme())
        network = kernel.network
        network.corrupt_table(3, _FLIP)
        assert not route_one(kernel, 1, 5).delivered  # trigger quarantine
        assert route_one(kernel, 2, 3).delivered
        # ... but cannot forward, and is refused as a next hop.
        record = route_one(kernel, 2, 4)
        assert not record.delivered
        assert record.drop_reason is DropReason.TABLE_CORRUPT

    def test_heal_restores_delivery(self):
        kernel = BatchKernel(_framed_path_scheme())
        network = kernel.network
        network.corrupt_table(3, _FLIP)
        assert not route_one(kernel, 1, 5).delivered
        assert network.heal_table(3)
        assert network.corrupted_nodes == set()
        assert network.quarantined_nodes == set()
        assert network.corruption_summary()["healed"] == 1
        assert route_one(kernel, 1, 5).delivered
        # Healing an intact table is a no-op.
        assert not network.heal_table(3)

    def test_full_information_routes_around_quarantine(self):
        # On a 4-cycle, 1 -> 3 has two equal shortest paths (via 2 or 4);
        # full-information stores both edges, so quarantining 2 leaves a
        # usable alternative.
        graph = cycle_graph(4)
        scheme = IntegrityWrapper(
            build_scheme("full-information", graph, IA_ALPHA),
            FramingPolicy.CRC8,
        )
        kernel = BatchKernel(scheme)
        network = kernel.network
        network.corrupt_table(2, _FLIP)
        assert not route_one(kernel, 2, 4).delivered  # decode at 2 detects
        assert network.quarantined_nodes == {2}
        record = route_one(kernel, 1, 3)
        assert record.delivered
        assert record.path == (1, 4, 3)

    def test_unframed_corruption_installs_silently(self):
        graph = path_graph(5)
        kernel = BatchKernel(build_scheme("full-table", graph, IA_ALPHA))
        network = kernel.network
        # Without framing, a single flipped bit still decodes to *some*
        # function: the mutation installs undetected.
        network.corrupt_table(3, _FLIP)
        route_one(kernel, 1, 5)
        summary = network.corruption_summary()
        assert summary["undetected"] == 1
        assert summary["detected"] == 0
        assert network.quarantined_nodes == set()

    def test_apply_fault_dispatches_table_events(self):
        network = Network(_framed_path_scheme())
        network.apply_fault(FaultEvent.table_corrupt(1.0, 2, _FLIP))
        assert network.corrupted_nodes == {2}
        network.apply_fault(FaultEvent.table_repair(2.0, 2))
        assert network.corrupted_nodes == set()


class TestEngineSelfHealing:
    def test_repair_delay_must_be_positive(self):
        scheme = _framed_path_scheme()
        with pytest.raises(RoutingError):
            BatchKernel(scheme, repair_delay=0.0)
        with pytest.raises(RoutingError):
            BatchKernel(scheme, repair_delay=-3.0)

    def _run(self, registry, tracer=None):
        scheme = _framed_path_scheme()
        schedule = FaultSchedule(
            [FaultEvent.table_corrupt(0.25, 3, _FLIP)]
        )
        sim = BatchKernel(
            scheme,
            fault_schedule=schedule,
            retry_policy=RetryPolicy(
                max_attempts=6, base_delay=1.0, jitter=0.0
            ),
            repair_delay=2.0,
            tracer=tracer,
        )
        sim.inject(1, 5, at_time=0.5)
        sim.inject(5, 1, at_time=0.75)
        return sim, sim.run()

    def test_detection_triggers_heal_and_retries_recover(self, registry):
        sim, records = self._run(registry)
        assert len(records) == 2
        assert all(record.delivered for record in records)
        assert all(record.retries >= 1 for record in records)
        summary = sim.network.corruption_summary()
        assert summary["injected"] == 1
        assert summary["detected"] == 1
        assert summary["healed"] == 1
        histogram = registry.histogram(
            "repro_corruption_detection_latency"
        )
        assert histogram.count == 1
        # Corrupted at 0.25, first decode attempt when the 0.5 message
        # reaches node 3 — latency is positive and under the horizon.
        assert 0.0 < histogram.mean < 10.0

    def test_lifecycle_spans_and_trace_report(self, registry):
        tracer = RecordingTracer()
        self._run(registry, tracer=tracer)
        kinds = [event.event for event in tracer.events]
        assert kinds.count("corrupt") == 1
        assert kinds.count("quarantine") == 1
        assert kinds.count("heal") == 1
        assert kinds.index("corrupt") < kinds.index("quarantine")
        assert kinds.index("quarantine") < kinds.index("heal")
        summary = summarize_trace(tracer.events)
        assert summary.corruptions == 1
        assert summary.quarantines == 1
        assert summary.heals == 1
        assert summary.span_violations == 0
        assert summary.delivered == 2
        report = format_trace_report(summary)
        assert "table corruption: 1 corrupted, 1 quarantined, 1 healed" in (
            report
        )

    def test_without_repair_delay_quarantine_persists(self, registry):
        scheme = _framed_path_scheme()
        schedule = FaultSchedule(
            [FaultEvent.table_corrupt(0.25, 3, _FLIP)]
        )
        sim = BatchKernel(
            scheme,
            fault_schedule=schedule,
            retry_policy=RetryPolicy(
                max_attempts=3, base_delay=1.0, jitter=0.0
            ),
        )
        sim.inject(1, 5, at_time=0.5)
        records = sim.run()
        assert len(records) == 1
        assert not records[0].delivered
        assert records[0].drop_reason is DropReason.TABLE_CORRUPT
        summary = sim.network.corruption_summary()
        assert summary["healed"] == 0
        assert 3 in sim.network.quarantined_nodes
