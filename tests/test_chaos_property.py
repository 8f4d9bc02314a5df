"""Property test: the simulator invariants hold under arbitrary chaos.

Whatever fault schedule and workload hypothesis throws at it,
``BatchKernel.run()`` must never raise, must return exactly one
record per injected message, and every delivered record's path must be a
walk in the graph from the source ending at the destination.
"""

from __future__ import annotations

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core import DetourWrapper, build_scheme
from repro.graphs import gnp_random_graph
from repro.models import Knowledge, Labeling, RoutingModel
from repro.simulator import (
    BatchKernel,
    FaultEvent,
    FaultSchedule,
    RetryPolicy,
)

II_ALPHA = RoutingModel(Knowledge.II, Labeling.ALPHA)

# Schemes that build on any connected graph (the compact Theorem 1/4
# constructions require Lemma 3-like graphs and would reject some of the
# small samples hypothesis draws).
_SCHEMES = ("full-information", "full-table")


@st.composite
def chaos_cases(draw):
    graph_seed = draw(st.integers(0, 5))
    graph = gnp_random_graph(12, seed=graph_seed)
    edges = list(graph.edges())
    events = []
    for _ in range(draw(st.integers(0, 25))):
        time = draw(st.floats(0.0, 40.0, allow_nan=False))
        if draw(st.booleans()):
            u, v = edges[draw(st.integers(0, len(edges) - 1))]
            ctor = (
                FaultEvent.link_down if draw(st.booleans()) else FaultEvent.link_up
            )
            events.append(ctor(time, u, v))
        else:
            node = draw(st.integers(1, graph.n))
            ctor = (
                FaultEvent.node_down if draw(st.booleans()) else FaultEvent.node_up
            )
            events.append(ctor(time, node))
    messages = []
    for _ in range(draw(st.integers(1, 12))):
        source = draw(st.integers(1, graph.n))
        destination = draw(
            st.integers(1, graph.n).filter(lambda d: d != source)
        )
        messages.append(
            (source, destination, draw(st.floats(0.0, 30.0, allow_nan=False)))
        )
    scheme_name = draw(st.sampled_from(_SCHEMES))
    detour = draw(st.booleans())
    retry = draw(st.booleans())
    return graph, FaultSchedule(events), messages, scheme_name, detour, retry


@given(chaos_cases())
@settings(
    max_examples=40,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
def test_run_never_raises_and_paths_are_walks(case):
    graph, schedule, messages, scheme_name, detour, retry = case
    scheme = build_scheme(scheme_name, graph, II_ALPHA)
    if detour:
        scheme = DetourWrapper(scheme)
    sim = BatchKernel(
        scheme,
        fault_schedule=schedule,
        retry_policy=(
            RetryPolicy(max_attempts=3, base_delay=0.5) if retry else None
        ),
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
            assert record.hops == len(record.path) - 1
        else:
            assert record.drop_reason is not None
        assert record.retries >= 0
        assert record.latency >= 0.0
