"""Property tests for the table-corruption axis (satellite of CORRUPTION).

Two invariants beyond what ``test_chaos_property`` already pins:

* A node that is simultaneously crashed (``node_down``) and
  table-corrupt starts delivering again only after *both* conditions
  clear — recovery alone leaves the quarantine in force, healing alone
  leaves the node dead.
* Mixing timed corruption events into arbitrary chaos schedules never
  makes the kernel raise, and it still emits exactly one record per
  injected message.
"""

from __future__ import annotations

from hypothesis import given
from hypothesis import strategies as st

from repro.core import build_scheme
from repro.graphs import gnp_random_graph, path_graph
from repro.integrity import FramingPolicy, IntegrityWrapper
from repro.models import Knowledge, Labeling, RoutingModel
from repro.simulator import (
    BatchKernel,
    FaultEvent,
    FaultSchedule,
    MutationKind,
    RetryPolicy,
    TableMutation,
    table_corruption,
)
from tests.routing import route_one

II_ALPHA = RoutingModel(Knowledge.II, Labeling.ALPHA)
IA_ALPHA = RoutingModel(Knowledge.IA, Labeling.ALPHA)

# Mutations CRC-8 framing is *guaranteed* to catch at decode time: any
# single bit flip and any burst no wider than the checksum.  (Truncation
# is only probabilistically caught, which would make the double-fault
# property flaky.)
_DETECTABLE_MUTATIONS = st.one_of(
    st.builds(
        TableMutation,
        kind=st.just(MutationKind.BIT_FLIP),
        offsets=st.tuples(st.integers(0, 1 << 16)),
    ),
    st.builds(
        TableMutation,
        kind=st.just(MutationKind.BURST),
        offsets=st.tuples(st.integers(0, 1 << 16)),
        span=st.integers(1, 8),
    ),
)


@given(
    mutation=_DETECTABLE_MUTATIONS,
    clear_down_first=st.booleans(),
)
def test_doubly_faulted_node_needs_both_conditions_cleared(
    mutation, clear_down_first
):
    """node_down + table-corrupt: delivery resumes only after both clear."""
    graph = path_graph(5)
    scheme = IntegrityWrapper(
        build_scheme("full-table", graph, IA_ALPHA), FramingPolicy.CRC8
    )
    kernel = BatchKernel(scheme)
    network = kernel.network
    network.corrupt_table(3, mutation)
    network.fail_node(3)
    # The cut vertex is both crashed and corrupt: nothing crosses.
    assert not route_one(kernel, 1, 5).delivered

    if clear_down_first:
        network.restore_node(3)
    else:
        network.heal_table(3)
    # One condition cleared: the path through node 3 still cannot carry
    # (either the node is still down, or its first decode after the
    # restart detects the damage and quarantines it).
    assert not route_one(kernel, 1, 5).delivered

    if clear_down_first:
        network.heal_table(3)
    else:
        network.restore_node(3)
    assert route_one(kernel, 1, 5).delivered
    assert network.quarantined_nodes == set()


@st.composite
def corruption_chaos_cases(draw):
    graph_seed = draw(st.integers(0, 5))
    graph = gnp_random_graph(12, seed=graph_seed)
    corrupt_count = draw(st.integers(0, 6))
    corruption = table_corruption(
        graph,
        corrupt_count,
        horizon=30.0,
        seed=draw(st.integers(0, 50)),
        kinds=tuple(MutationKind),
        flips=draw(st.integers(1, 4)),
        burst_span=draw(st.integers(1, 12)),
        truncate_bits=draw(st.integers(1, 8)),
    )
    events = []
    for _ in range(draw(st.integers(0, 10))):
        node = draw(st.integers(1, graph.n))
        time = draw(st.floats(0.0, 30.0, allow_nan=False))
        ctor = (
            FaultEvent.node_down if draw(st.booleans()) else FaultEvent.node_up
        )
        events.append(ctor(time, node))
    schedule = corruption + FaultSchedule(events)
    messages = []
    for _ in range(draw(st.integers(1, 10))):
        source = draw(st.integers(1, graph.n))
        destination = draw(
            st.integers(1, graph.n).filter(lambda d: d != source)
        )
        messages.append(
            (source, destination, draw(st.floats(0.0, 25.0, allow_nan=False)))
        )
    policy = draw(st.sampled_from(list(FramingPolicy)))
    repair_delay = draw(
        st.one_of(st.none(), st.floats(0.5, 10.0, allow_nan=False))
    )
    retry = draw(st.booleans())
    return graph, schedule, messages, policy, repair_delay, retry


@given(corruption_chaos_cases())
def test_corruption_chaos_never_raises(case):
    graph, schedule, messages, policy, repair_delay, retry = case
    scheme = build_scheme("full-table", graph, II_ALPHA)
    if policy is not FramingPolicy.NONE:
        scheme = IntegrityWrapper(scheme, policy)
    sim = BatchKernel(
        scheme,
        fault_schedule=schedule,
        retry_policy=(
            RetryPolicy(max_attempts=3, base_delay=0.5) if retry else None
        ),
        repair_delay=repair_delay,
    )
    for source, destination, at_time in messages:
        sim.inject(source, destination, at_time)
    records = sim.run()
    assert len(records) == len(messages)
    for record in records:
        assert record.path[0] == record.source
        for u, v in zip(record.path, record.path[1:]):
            assert graph.has_edge(u, v)
        if record.delivered:
            assert record.path[-1] == record.destination
        else:
            assert record.drop_reason is not None
    stats = sim.network.corruption_summary()
    # A single corruption can legitimately be counted undetected (it
    # decoded cleanly) and *later* detected at runtime, so the two
    # counters bound `injected` separately, not jointly.
    assert stats["detected"] <= stats["injected"]
    assert stats["undetected"] <= stats["injected"]
    assert stats["healed"] <= stats["injected"]
