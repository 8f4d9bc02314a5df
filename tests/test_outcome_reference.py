"""The columnar outcome path agrees with the eager reference.

``tests/outcome_reference.py`` keeps the eager ``records()`` body and the
per-record aggregation loops of ``summarize``, ``drop_breakdown``,
``retry_histogram`` and ``run_task``.  These tests require the
``DeliveryRecords`` view to yield the reference records field by field
(reprs included, so ``1``, ``1.0`` and ``True`` differ) on every scheme
and model of the n=64 golden grid and on runs with static failures,
renewal faults with retries, CRC-16-framed corruption and node churn;
they require the column aggregation to give the same metrics, counters
and key orders on those runs and on hand-built record lists; and they
pin the view's sequence protocol.
"""

from __future__ import annotations

import math
from typing import List, Sequence

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core import available_schemes, build_scheme
from repro.errors import ReproError
from repro.graphs import LabeledGraph, path_graph
from repro.models import Knowledge, Labeling, RoutingModel
from repro.observability import MetricsRegistry, set_registry
from repro.simulator import (
    BatchKernel,
    DeliveryRecord,
    DeliveryRecords,
    DropReason,
    MessageBatch,
    SweepTask,
    drop_breakdown,
    retry_histogram,
    run_task,
    summarize,
)
from repro.simulator.sweep import build_run
from tests import make_scheme_goldens as goldens
from tests import outcome_reference as ref

II_ALPHA = RoutingModel(Knowledge.II, Labeling.ALPHA)

AXIS_TASKS = {
    "static-failures": SweepTask(
        "full-information", 48, failures=150, node_failures=2, messages=300
    ),
    "renewal-retries": SweepTask(
        "full-table", 48, schedule="renewal", chaos_nodes=3, retries=3,
        messages=300,
    ),
    "crc16-corruption": SweepTask(
        "full-table", 32, corrupt_nodes=6, framing="crc16", retries=2,
        messages=300,
    ),
    "churn-all-kinds": SweepTask(
        "full-table", 40, events=6, kinds="all", retries=2, messages=300
    ),
}
"""One run per fault axis, each as ``simulate`` would build it."""


def reprs(records: Sequence[DeliveryRecord]) -> List[str]:
    """Every record's repr: each field's value and type, NaN included."""
    return [repr(record) for record in records]


def summarize_fresh(summarize_with, records, graph):
    """``summarize_with(records, graph)`` on a fresh registry: the metrics,
    and the counters it emitted (phase timings and context lookups aside)."""
    previous = set_registry(MetricsRegistry())
    try:
        metrics = summarize_with(records, graph)
    finally:
        registry = set_registry(previous)
    counters = {
        name: rows for name, rows in registry.snapshot().items()
        if not name.startswith(("repro_phase_", "repro_graph_ctx"))
    }
    return metrics, counters


def assert_same_aggregates(
    records: Sequence[DeliveryRecord], graph: LabeledGraph
) -> None:
    """The column aggregation of ``records`` (as given and as a list)
    matches the reference: values, key orders and registry counters."""
    listed = list(records)
    expected, expected_counters = summarize_fresh(ref.summarize, listed, graph)
    for argument in (records, listed):
        metrics, counters = summarize_fresh(summarize, argument, graph)
        assert metrics.to_dict() == expected.to_dict()
        assert list(metrics.drop_reasons) == list(expected.drop_reasons)
        assert counters == expected_counters
        drops = drop_breakdown(argument)
        assert list(drops.items()) == list(ref.drop_breakdown(listed).items())
        retries = retry_histogram(argument)
        assert list(retries.items()) == list(ref.retry_histogram(listed).items())


# -- records and aggregates of real runs ---------------------------------------


@pytest.mark.parametrize("name", available_schemes())
def test_records_match_reference_on_the_golden_grid(name):
    """Every model and seed of the n=64 golden grid, for one scheme."""
    built = 0
    for cell in goldens.grid():
        scheme_name, model, n, seed = cell
        if scheme_name != name or n != 64:
            continue
        graph = goldens.graph_for(name, n, seed)
        try:
            scheme = build_scheme(name, graph, model)
        except ReproError:
            continue
        built += 1
        kernel = BatchKernel(scheme)
        for source, target in goldens.batch_pairs(n, seed):
            kernel.inject(source, target, 0.0)
        view = kernel.run()
        expected = ref.records(kernel.batch)
        assert isinstance(view, DeliveryRecords)
        assert reprs(view) == reprs(expected)
        assert list(view) == expected
        assert_same_aggregates(view, graph)
    assert built > 0


@pytest.mark.parametrize("axis", sorted(AXIS_TASKS))
def test_records_match_reference_under_faults(axis):
    task = AXIS_TASKS[axis]
    run = build_run(task)
    view = run.kernel.run()
    expected = ref.records(run.kernel.batch)
    assert reprs(view) == reprs(expected)
    assert reprs([view[i] for i in range(len(view))]) == reprs(expected)
    assert_same_aggregates(view, run.kernel.network.live_graph)
    result = run_task(task)
    counts = ref.sweep_counts(expected)
    assert {field: getattr(result, field) for field in counts} == counts
    # Every axis run drops something, so the comparisons see drops.
    assert counts["dropped"] > 0


def test_fault_runs_exercise_retries_and_staleness():
    """The axis runs cover what the aggregation must get right: retried
    messages, and stale drops beside stale deliveries."""
    renewal = build_run(AXIS_TASKS["renewal-retries"]).kernel.run()
    assert ref.sweep_counts(renewal)["retries"] > 0
    churn = build_run(AXIS_TASKS["churn-all-kinds"]).kernel.run()
    assert any(r.stale and r.delivered for r in churn)
    assert any(r.stale and not r.delivered for r in churn)


# -- hand-built record lists ---------------------------------------------------

# Two components and an isolated node: distances 0 (source == destination),
# positive, and -1 (unreachable) all occur.
GRAPH = LabeledGraph(7, [(1, 2), (2, 3), (3, 4), (5, 6)])

NAN = math.nan
_times = st.one_of(
    st.just(NAN), st.floats(-1e6, 1e6, allow_nan=False, allow_infinity=False)
)


@st.composite
def hand_records(draw) -> List[DeliveryRecord]:
    count = draw(st.integers(0, 30))
    out = []
    for msg_id in range(count):
        source = draw(st.integers(1, GRAPH.n))
        destination = draw(st.integers(1, GRAPH.n))
        out.append(DeliveryRecord(
            msg_id=msg_id,
            source=source,
            destination=destination,
            delivered=draw(st.booleans()),
            hops=draw(st.integers(0, 12)),
            path=(source,),
            latency=draw(_times),
            drop_reason=draw(st.one_of(st.none(), st.sampled_from(DropReason))),
            drop_detail=None,
            retries=draw(st.integers(0, 4)),
            injected_at=draw(_times),
            completed_at=draw(_times),
            stale=draw(st.booleans()),
        ))
    return out


def _hand(delivered, reason=None, stale=False, retries=0, injected=0.0,
          completed=2.0, source=1, destination=3, hops=2):
    return DeliveryRecord(
        msg_id=0, source=source, destination=destination, delivered=delivered,
        hops=hops, path=(source,), latency=completed - injected,
        drop_reason=reason, retries=retries, injected_at=injected,
        completed_at=completed, stale=stale,
    )


@given(hand_records())
@settings(max_examples=100, deadline=None)
@example([])
@example([_hand(True, injected=NAN), _hand(True, completed=NAN),
          _hand(False, injected=NAN, completed=NAN)])
@example([_hand(False), _hand(False, DropReason.LINK_DOWN), _hand(False)])
@example([_hand(False, DropReason.ROUTING_LOOP, stale=True),
          _hand(True, stale=True), _hand(True, stale=True, retries=2),
          _hand(False, DropReason.NO_ROUTE, stale=True, retries=1)])
@example([_hand(True, source=2, destination=2, hops=0),
          _hand(True, source=1, destination=5, hops=4)])
def test_aggregates_match_reference_on_hand_built_records(records):
    assert_same_aggregates(records, GRAPH)


def test_stale_drops_are_not_stale_deliveries():
    records = [
        _hand(False, DropReason.ROUTING_LOOP, stale=True),
        _hand(True, stale=True),
    ]
    assert summarize(records, GRAPH).stale_deliveries == 1


def test_undelivered_without_reason_counts_as_no_route():
    records = [_hand(False), _hand(False, DropReason.LINK_DOWN), _hand(False)]
    assert list(drop_breakdown(records).items()) == [
        (DropReason.NO_ROUTE, 2), (DropReason.LINK_DOWN, 1),
    ]


# -- the sequence protocol -----------------------------------------------------


def _view_and_reference():
    """A 12-row view with deliveries and LINK_DOWN drops."""
    graph = path_graph(6)
    kernel = BatchKernel(
        build_scheme("full-table", graph, II_ALPHA), failed_links=[(3, 4)]
    )
    for source, destination in [(1, 6), (2, 3), (6, 1), (4, 5)] * 3:
        kernel.inject(source, destination)
    view = kernel.run()
    return view, ref.records(kernel.batch)


def test_view_length_and_indices():
    view, expected = _view_and_reference()
    assert len(view) == len(expected) == 12
    for i in range(-len(view), len(view)):
        assert repr(view[i]) == repr(expected[i])
    for bad in (len(view), -len(view) - 1, 100):
        with pytest.raises(IndexError):
            view[bad]
    assert repr(list(reversed(view))) == repr(expected[::-1])
    assert view.index(expected[5]) == 5
    assert expected[7] in view


@pytest.mark.parametrize(
    "rows",
    [slice(None), slice(2, 9), slice(None, None, 3), slice(1, 11, 4),
     slice(None, None, -1), slice(10, 2, -3), slice(-4, None), slice(7, 3),
     slice(50, 60)],
)
def test_view_slices_are_lists(rows):
    view, expected = _view_and_reference()
    part = view[rows]
    assert type(part) is list
    assert reprs(part) == reprs(expected[rows])


def test_view_equality():
    view, expected = _view_and_reference()
    again, _ = _view_and_reference()
    assert view == expected and expected == view
    assert view == tuple(expected)
    assert view == again and not view != again
    assert view != expected[:-1] and expected[:-1] != view
    assert view != expected[::-1]
    assert view != [] and [] != view
    assert not view == object()
    empty = BatchKernel(build_scheme("full-table", path_graph(3), II_ALPHA)).run()
    assert empty == [] and [] == empty and not empty != []
    assert len(empty) == 0 and list(empty) == [] and empty[:] == []


def test_view_is_unhashable():
    view, _ = _view_and_reference()
    with pytest.raises(TypeError):
        hash(view)


def test_records_refuses_a_row_in_flight():
    batch = MessageBatch([0, 1], [1, 2], [2, 1], [0.0, 0.0], limit=4)
    batch.finish_delivered(0, 1.0)
    with pytest.raises(ValueError, match="message row 1 is still in flight"):
        batch.records()
    batch.finish_dropped(1, DropReason.NO_ROUTE, None, 1.0)
    assert len(batch.records()) == 2
