"""Scalar/batch equivalence for the timed routing kernel.

The batch boundary's contract is *bit identity*: for any fixed seed the
``BatchKernel``'s default lane choice must emit exactly the
``DeliveryRecord`` stream of its all-scalar reference (``batch=False``)
— across every scheme, with link latency, node queueing, chaos,
corruption and churn (instant or rate-staggered installs) enabled, over
one-row and many-row cohorts, with tracing on or off, and on clean runs
whose bursts take the quiescent drain.  These tests pin that contract
with a hypothesis property over all 11 schemes (which also requires
each lane's column aggregation to equal the per-record reference), pin
it on paths long enough to grow the column-major path buffer, pin the
lane telemetry and the message numbering across drains, pin the sweep
driver's worker-count independence, and regression-test that the
untraced kernel pays nothing for the (disabled) tracer hooks.
"""

from __future__ import annotations

import random
import time
from dataclasses import replace
from functools import lru_cache

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core import HopDecision, available_schemes, build_scheme
from repro.core.scheme import LocalRoutingFunction
from repro.errors import RoutingError
from repro.graphs import gnp_random_graph, path_graph
from repro.models import Knowledge, Labeling, RoutingModel
from repro.observability import (
    NULL_TRACER,
    MetricsRegistry,
    RecordingTracer,
    SamplingTracer,
    set_registry,
)
from repro.simulator import (
    BatchKernel,
    DropReason,
    RetryPolicy,
    SweepTask,
    run_sweep,
    summarize,
)
from repro.simulator.chaos import (
    FaultEvent,
    FaultSchedule,
    renewal_faults,
    table_corruption,
)
from repro.simulator.churn import random_churn
from repro.simulator.failures import sample_link_failures, sample_node_failures
from repro.simulator.kernel import DRAIN_EXITS, DRAIN_SKIPS, KERNEL_ROWS
from repro.simulator.sweep import _pairs, build_run
from tests import outcome_reference

II_GAMMA = RoutingModel(Knowledge.II, Labeling.GAMMA)
II_ALPHA = RoutingModel(Knowledge.II, Labeling.ALPHA)

ALL_SCHEMES = available_schemes()

# Churn repairs reinstall tables against live addresses, so the churn
# property restricts itself to plain-label schemes (address == node id).
CHURN_SCHEMES = ("full-table", "full-information")


@lru_cache(maxsize=None)
def _scheme(name):
    """One cached (scheme, graph) per name; built on a graph it accepts.

    chain-comparison requires an actual chain and thm1-two-level a dense
    Lemma-3-like graph; G(28, 1/2) satisfies every other construction.
    """
    if name == "chain-comparison":
        graph = path_graph(12)
    else:
        graph = gnp_random_graph(28, seed=43)
    return build_scheme(name, graph, II_GAMMA), graph


def _injections(graph, messages, seed, horizon=30.0, burst=0, burst_at=0.0):
    """``messages`` pairs at uniform times, then ``burst`` more at once.

    Uniform times make one-row cohorts; the burst (at ``burst_at``) is
    one many-row cohort that moves in lockstep, so on a clean run it
    takes the quiescent drain.
    """
    clock = random.Random(seed)
    nodes = sorted(graph.nodes)
    return [
        (*clock.sample(nodes, 2), clock.uniform(0.0, horizon))
        for _ in range(messages)
    ] + [(*clock.sample(nodes, 2), burst_at) for _ in range(burst)]


def _run(scheme, injections, batch, **kwargs):
    kernel = BatchKernel(scheme, batch=batch, **kwargs)
    for source, destination, at_time in injections:
        kernel.inject(source, destination, at_time)
    return kernel.run()


def _tracer(kind):
    """A fresh tracer of ``kind`` and the list its spans land in."""
    if kind == "recording":
        tracer = RecordingTracer()
        return tracer, tracer.events
    if kind == "sampled":
        sink = RecordingTracer()
        return SamplingTracer(sink, rate=0.1, seed=3), sink.events
    return None, []


# -- the tentpole property ----------------------------------------------------


@st.composite
def fault_cases(draw):
    # "clean" runs without faults, churn, service time or tracer, and
    # always with a burst: the only variant that reaches the quiescent
    # drain.
    variant = draw(
        st.sampled_from(("static", "chaos", "corruption", "churn", "clean"))
    )
    scheme_name = draw(
        st.sampled_from(CHURN_SCHEMES if variant == "churn" else ALL_SCHEMES)
    )
    seed = draw(st.integers(0, 3))
    messages = draw(st.integers(1, 20))
    burst = draw(
        st.sampled_from((24, 40) if variant == "clean" else (0, 0, 24, 40))
    )
    retries = draw(st.integers(0, 2))
    # Zero jitter re-injects rows dropped together as one retry cohort.
    jitter = draw(st.sampled_from((0.1, 0.0)))
    timing = {"link_latency": draw(st.sampled_from((0.35, 1.0, 2.0)))}
    service = draw(st.sampled_from((0.0, 0.0, 0.2, 0.7)))
    if service and variant != "clean":
        timing["node_service_time"] = service
        timing["queue_capacity"] = draw(st.sampled_from((None, 1, 3)))
    repair_rate = draw(st.sampled_from((None, 40.0, 400.0)))
    tracer = draw(st.sampled_from((None, "recording", "sampled")))
    if variant == "clean":
        tracer = None
    return (scheme_name, seed, variant, messages, burst, retries, jitter,
            timing, repair_rate, tracer)


@given(fault_cases())
@settings(
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
def test_batch_matches_scalar_under_faults(case):
    """Bit-identical records and spans, all 11 schemes, every axis."""
    (scheme_name, seed, variant, messages, burst, retries, jitter, timing,
     repair_rate, tracer_kind) = case
    scheme, graph = _scheme(scheme_name)
    kwargs = {
        "retry_policy": (
            RetryPolicy(
                max_attempts=retries + 1, base_delay=0.5, jitter=jitter
            )
            if retries
            else None
        ),
        "retry_seed": seed,
        **timing,
    }
    if variant == "static":
        # keep_connected=False: a chain has no expendable links, and the
        # equivalence must hold on partitioned graphs anyway.
        kwargs["failed_links"] = sample_link_failures(
            graph, 3, seed=seed, keep_connected=False
        )
        kwargs["failed_nodes"] = sample_node_failures(
            graph, 1, seed=seed, keep_connected=False
        )
    elif variant == "chaos":
        kwargs["fault_schedule"] = renewal_faults(
            graph,
            horizon=40.0,
            seed=seed,
            link_count=graph.edge_count // 3,
            node_count=2,
        )
    elif variant == "corruption":
        kwargs["fault_schedule"] = table_corruption(
            graph, max(graph.n // 4, 1), horizon=40.0, seed=seed
        )
        kwargs["repair_delay"] = 6.0
    elif variant == "churn":
        kwargs["churn_schedule"] = random_churn(
            graph, 3, horizon=20.0, seed=seed
        )
        kwargs["churn_repair_delay"] = 2.0
        kwargs["churn_repair_rate"] = repair_rate
    injections = _injections(graph, messages, seed, burst=burst)
    runs = {}
    for batch in (True, False):
        tracer, spans = _tracer(tracer_kind)
        records = _run(scheme, injections, batch, tracer=tracer, **kwargs)
        runs[batch] = (records, spans)
    assert runs[True] == runs[False]
    assert len(runs[True][0]) == messages + burst
    # The column aggregation of either lane's view, and of the view as a
    # list, equals the per-record reference.
    for records, _ in runs.values():
        expected = outcome_reference.summarize(list(records), graph)
        for metrics in (summarize(records, graph), summarize(list(records), graph)):
            assert metrics.to_dict() == expected.to_dict()
            assert list(metrics.drop_reasons) == list(expected.drop_reasons)


@pytest.mark.parametrize("scheme_name", CHURN_SCHEMES)
def test_batch_matches_scalar_under_churn(scheme_name):
    """Churn, untraced and sampled, with a burst routed on stale tables.

    The burst lands at t=2.5, inside the first mutation's (t=2.17)
    repair window, so its rows travel and deliver stale as one cohort;
    a sampling tracer must promote each of those deliveries.
    """
    graph = gnp_random_graph(18, seed=11)
    scheme = build_scheme(scheme_name, graph, II_ALPHA)
    injections = _injections(
        graph, 80, seed=5, horizon=35.0, burst=40, burst_at=2.5
    )
    kwargs = {
        "retry_policy": RetryPolicy(max_attempts=3, base_delay=0.5),
        "retry_seed": 5,
        "churn_repair_delay": 4.0,
    }
    for tracer_kind in (None, "sampled"):
        results = {}
        for batch in (True, False):
            tracer, spans = _tracer(tracer_kind)
            kernel = BatchKernel(
                scheme,
                batch=batch,
                churn_schedule=random_churn(graph, 6, horizon=30.0, seed=7),
                tracer=tracer,
                **kwargs,
            )
            for source, destination, at_time in injections:
                kernel.inject(source, destination, at_time)
            results[batch] = (kernel.run(), kernel.churn_summary(), spans)
        assert results[True] == results[False]
        assert sum(r.stale for r in results[True][0][80:]) >= 8


def test_drained_forward_counts_match_scalar():
    """The quiescent drain's deferred forward counts equal the scalar
    step's, including on a second read."""
    scheme, graph = _scheme("full-table")
    injections = _injections(graph, 10, seed=3, burst=40)
    counts = {}
    for batch in (True, False):
        kernel = BatchKernel(scheme, batch=batch)
        for source, destination, at_time in injections:
            kernel.inject(source, destination, at_time)
        kernel.run()
        counts[batch] = kernel.forward_counts
        assert kernel.forward_counts == counts[batch]
    assert counts[True] == counts[False]
    assert sum(counts[True].values()) >= 40


class _NoRouteTo(LocalRoutingFunction):
    """A node's own function, except that it has no entry for one
    destination: the next-hop matrix reads -1 there, so a drained row
    asking for it leaves for the scalar step and drops ``NO_ROUTE``."""

    def __init__(self, inner, blocked):
        super().__init__(inner.node)
        self._inner = inner
        self._blocked = blocked

    def next_hop(self, destination, state=None):
        if destination == self._blocked:
            raise RoutingError(f"no entry for {destination}")
        return self._inner.next_hop(destination, state)


def _blocked_path_300(batch):
    """46 t=0 pairs over path(300), whose node 150 has no entry for node
    300, with one retry: the finished kernel and its records."""
    graph = path_graph(300)
    clock = random.Random(11)
    pairs = [tuple(clock.sample(graph.nodes, 2)) for _ in range(40)]
    pairs += [(300, 1), (1, 299), (299, 2), (1, 300), (60, 300), (200, 300)]
    retry = RetryPolicy(max_attempts=2, base_delay=0.5, jitter=0.0)
    scheme = build_scheme("full-table", graph, II_ALPHA)
    scheme._function_cache[150] = _NoRouteTo(scheme.function(150), 300)
    kernel = BatchKernel(scheme, batch=batch, retry_policy=retry)
    for source, destination in pairs:
        kernel.inject(source, destination)
    return kernel, kernel.run()


def test_lanes_agree_on_paths_that_grow_the_path_buffer():
    """Hops of up to 299 grow the column-major path buffer 64 → 256 →
    1024 columns, and the lanes still agree on every record and every
    forward count.

    Node 150 has no entry for node 300, so each row bound there leaves
    the drain for the scalar step at node 150, drops ``NO_ROUTE`` and is
    retried from its source, which rewrites column 0 of its path.
    """
    runs = {}
    for batch in (True, False):
        kernel, records = _blocked_path_300(batch)
        runs[batch] = (records, kernel.forward_counts)
        assert kernel.batch.path.shape[1] == 1024
        assert kernel.batch.path.flags.f_contiguous
    assert runs[True] == runs[False]
    records = runs[True][0]
    assert max(r.hops for r in records) == 299
    retried = [r for r in records if r.destination == 300 and r.source < 150]
    assert len(retried) == 2
    for record in retried:
        assert record.drop_reason is DropReason.NO_ROUTE
        assert record.retries == 1
        assert record.path == tuple(range(record.source, 151))


def test_lanes_agree_past_1024_columns():
    """Eight rows of 1,024 hops or more grow the path buffer to 4,096
    columns, and the lanes still agree on every record and every forward
    count."""
    graph = path_graph(1100)
    scheme = build_scheme("full-table", graph, II_ALPHA)
    clock = random.Random(12)
    pairs = [tuple(clock.sample(graph.nodes, 2)) for _ in range(24)]
    pairs += [(1, 1100), (1100, 1), (10, 1050), (1060, 20), (30, 1080),
              (1090, 5), (40, 1070), (1099, 70)]
    runs = {}
    for batch in (True, False):
        kernel = BatchKernel(scheme, batch=batch)
        for source, destination in pairs:
            kernel.inject(source, destination)
        runs[batch] = (kernel.run(), kernel.forward_counts)
        assert kernel.batch.path.shape[1] == 4096
        assert kernel.batch.path.flags.f_contiguous
    assert runs[True] == runs[False]
    records = runs[True][0]
    assert all(r.delivered for r in records)
    assert sum(r.hops >= 1024 for r in records) == 8


class _AskedTracer(SamplingTracer):
    """A sampling tracer that logs the ids it is asked about at inject."""

    def __init__(self, sink):
        super().__init__(sink, rate=0.3, seed=5)
        self.asked = []

    def wants(self, msg_id):
        self.asked.append(msg_id)
        return super().wants(msg_id)


@pytest.mark.parametrize("traced", [False, True], ids=["untraced", "sampled"])
def test_second_drain_numbers_from_where_the_first_stopped(traced):
    """Message ids count up across drains of one kernel, and a tracer is
    asked about exactly the ids the records carry."""
    scheme, graph = _scheme("full-table")
    tracer = _AskedTracer(RecordingTracer()) if traced else None
    kernel = BatchKernel(scheme, tracer=tracer)
    batches = (_injections(graph, 3, seed=1), _injections(graph, 0, seed=2, burst=12))
    ids = []
    for injections in batches:
        for source, destination, at_time in injections:
            kernel.inject(source, destination, at_time)
        ids.append([r.msg_id for r in kernel.run()])
    assert ids == [[0, 1, 2], list(range(3, 15))]
    if traced:
        assert tracer.asked == list(range(15))
        injected = [e.msg_id for e in tracer._sink.events if e.event == "inject"]
        assert injected and set(injected) <= set(range(15))


# -- lane telemetry -----------------------------------------------------------


@pytest.fixture
def registry():
    fresh = MetricsRegistry()
    previous = set_registry(fresh)
    yield fresh
    set_registry(previous)


def _lane_tallies(registry):
    """Rows per lane and drain skips per reason, as the registry holds them."""
    rows = {
        lane: registry.counter(KERNEL_ROWS, lane=lane).value
        for lane in ("drain", "scalar")
    }
    skips = {
        dict(metric.labels)["reason"]: metric.value
        for metric in registry.metrics()
        if metric.name == DRAIN_SKIPS
    }
    return rows, skips


@pytest.mark.parametrize("batch", [True, False], ids=["default", "scalar"])
def test_fault_free_batch_lane_tallies(registry, batch):
    """A fault-free t=0 burst is one cohort: the drain takes every row;
    ``batch=False`` steps every row of every cohort instead, the cohorts
    of eight rows or more skipping the drain as ``batch_off``."""
    scheme, graph = _scheme("full-table")
    records = _run(scheme, _injections(graph, 0, seed=3, burst=40), batch)
    rows, skips = _lane_tallies(registry)
    if batch:
        assert rows == {"drain": 40, "scalar": 0}
        assert skips == {}
    else:
        # A delivered row sits in one cohort per hop, plus its arrival.
        assert rows == {"drain": 0, "scalar": sum(r.hops + 1 for r in records)}
        assert skips["batch_off"] >= 1
        assert set(skips) <= {"batch_off", "small_cohort"}


def _skip_case(reason):
    """The scheme name and kernel options under which a t=0 burst skips
    the drain for ``reason``."""
    graph = _scheme("full-table")[1]
    edge = next(iter(graph.edges()))
    return {
        "service_time": ("full-table", {"node_service_time": 0.2}),
        "tracer": ("full-table", {"tracer": RecordingTracer()}),
        "churn": ("full-table", {
            "churn_schedule": random_churn(graph, 2, horizon=20.0, seed=1),
        }),
        "events_queued": ("full-table", {
            "fault_schedule": FaultSchedule(
                [FaultEvent.node_down(50.0, 2), FaultEvent.node_up(60.0, 2)]
            ),
        }),
        "not_quiescent": ("full-table", {"failed_links": [edge]}),
        "no_matrix": ("tree-cover", {}),
    }[reason]


@pytest.mark.parametrize(
    "reason",
    ["service_time", "tracer", "churn", "events_queued", "not_quiescent",
     "no_matrix"],
)
def test_skipped_cohorts_name_their_reason(registry, reason):
    """The burst's cohort skips the drain for the first check that fails,
    and every row goes to the scalar step."""
    name, options = _skip_case(reason)
    scheme, graph = _scheme(name)
    if reason == "no_matrix":
        assert scheme.ctx.next_hop_matrix(scheme) is None
    _run(scheme, _injections(graph, 0, seed=4, burst=24), True, **options)
    rows, skips = _lane_tallies(registry)
    assert rows["drain"] == 0 and rows["scalar"] >= 24
    assert skips[reason] >= 1
    assert set(skips) <= {reason, "small_cohort"}


def test_chaos_episode_tallies_every_cohort(registry):
    """Under a fault schedule the burst skips the drain while events are
    queued, and the single-row cohorts count as ``small_cohort``."""
    scheme, graph = _scheme("full-table")
    schedule = renewal_faults(
        graph, horizon=40.0, seed=2, link_count=6, node_count=1
    )
    _run(
        scheme, _injections(graph, 30, seed=2, burst=24), True,
        fault_schedule=schedule,
    )
    rows, skips = _lane_tallies(registry)
    assert rows["scalar"] >= 54 and rows["drain"] == 0
    assert skips["events_queued"] >= 1 and skips["small_cohort"] >= 1


class _Bounces(LocalRoutingFunction):
    """A broken table sending every message back to the node below: on a
    path its node and the one below bounce a message to the hop limit."""

    def next_hop(self, destination, state=None):
        return HopDecision(self.node - 1)


class _Tags(LocalRoutingFunction):
    """A node's own function, except that its decisions carry a header
    state.  Its matrix row is the inner function's, so a row it tagged in
    a scalar step can join a drained cohort, whose header-state check
    sends it back to the scalar step."""

    def __init__(self, inner):
        super().__init__(inner.node)
        self._inner = inner

    def next_hop(self, destination, state=None):
        return HopDecision(self._inner.next_hop(destination).next_node, "tagged")

    def next_hop_row(self, addresses, graph):
        return self._inner.next_hop_row(addresses, graph)


def _exit_case(reason, batch):
    """The records of a run whose drained rows leave by ``reason``, and
    how many rows leave."""
    if reason == "no_entry":
        return _blocked_path_300(batch)[1], 2
    scheme = build_scheme("full-table", path_graph(12), II_ALPHA)
    if reason == "hop_limit":
        scheme._function_cache[6] = _Bounces(6)
        return _run(scheme, [(1, 12, 0.0)] * 16, batch), 16
    # The lone row from node 3 steps alone and is tagged there; at t=1 it
    # joins the burst's cohort at node 4.
    scheme._function_cache[3] = _Tags(scheme.function(3))
    burst = [(source, 12, 1.0) for source in range(4, 11)] * 2
    return _run(scheme, [(3, 12, 0.0)] + burst, batch), 1


@pytest.mark.parametrize("reason", ["no_entry", "header_state", "hop_limit"])
def test_rows_leave_the_drain_under_the_first_failing_check(registry, reason):
    """Each row that leaves the drain counts once, under the first check
    it fails, and the lanes still agree."""
    records, leaving = _exit_case(reason, True)
    exits = {
        dict(metric.labels)["reason"]: metric.value
        for metric in registry.metrics()
        if metric.name == DRAIN_EXITS
    }
    assert exits == {
        name: leaving if name == reason else 0
        for name in ("no_entry", "header_state", "hop_limit")
    }
    assert records == _exit_case(reason, False)[0]
    if reason == "hop_limit":
        assert {r.drop_reason for r in records} == {DropReason.HOP_LIMIT}


class _SkipsAhead(LocalRoutingFunction):
    """A broken table naming the node two labels on: on a path graph,
    never a neighbour."""

    def next_hop(self, destination, state=None):
        return HopDecision(self.node + 2)


@pytest.mark.parametrize("batch", [True, False], ids=["default", "scalar"])
def test_forward_to_a_non_neighbour_drops_invalid_forward(batch):
    scheme = build_scheme("full-table", path_graph(6), II_ALPHA)
    scheme._function_cache[2] = _SkipsAhead(2)
    kernel = BatchKernel(scheme, batch=batch)
    for _ in range(16):  # a cohort large enough for the quiescent drain
        kernel.inject(1, 6)
    for record in kernel.run():
        assert record.drop_reason is DropReason.INVALID_FORWARD
        assert record.path == (1, 2)


def test_tracing_is_preserved_behind_the_boundary():
    """Full tracing: identical records AND identical span streams.

    The t=0 burst is one many-row cohort; a live tracer keeps it off the
    quiescent drain, so every row must step exactly as in the reference.
    """
    graph = gnp_random_graph(16, seed=21)
    scheme = build_scheme("full-table", graph, II_ALPHA)
    injections = _injections(graph, 40, seed=13, burst=40)
    schedule = renewal_faults(
        graph, horizon=40.0, seed=13, link_count=6, node_count=1
    )
    streams = {}
    for batch in (True, False):
        tracer = RecordingTracer()
        records = _run(
            scheme,
            injections,
            batch,
            fault_schedule=schedule,
            retry_policy=RetryPolicy(max_attempts=3, base_delay=0.5),
            retry_seed=13,
            tracer=tracer,
        )
        streams[batch] = (records, tracer.events)
    assert streams[True] == streams[False]
    assert len(streams[True][1]) > 0


def test_sampled_tracing_promotion_matches_scalar():
    """Sampled tracing (with anomaly promotion) stays bit-identical.

    Burst rows share cohorts with the sampled-in rows.  Node 2's outage
    at t=0 makes 18 of them retry, and without jitter rows dropped at
    the same instant come back as one many-row cohort of promoted rows
    that must keep their spans.
    """
    graph = gnp_random_graph(16, seed=21)
    scheme = build_scheme("full-table", graph, II_ALPHA)
    injections = _injections(graph, 60, seed=17, burst=60)
    schedule = renewal_faults(
        graph, horizon=40.0, seed=17, link_count=6, node_count=1
    ) + FaultSchedule(
        [FaultEvent.node_down(0.0, 2), FaultEvent.node_up(0.25, 2)]
    )
    streams = {}
    for batch in (True, False):
        tracer = SamplingTracer(RecordingTracer(), rate=0.1, seed=3)
        records = _run(
            scheme,
            injections,
            batch,
            fault_schedule=schedule,
            retry_policy=RetryPolicy(
                max_attempts=3, base_delay=0.5, jitter=0.0
            ),
            retry_seed=17,
            tracer=tracer,
        )
        streams[batch] = (records, tracer._sink.events)
    assert streams[True] == streams[False]


# -- sweep driver determinism -------------------------------------------------


_SWEEP_AXES = (
    {"failures": 3, "node_failures": 1},
    {"schedule": "renewal"},
    {"corrupt_nodes": 3},
    {"events": 4},
    {
        "failures": 3, "schedule": "renewal", "corrupt_nodes": 3,
        "framing": "crc8", "events": 4,
    },
)


def _sweep_tasks(batch=True):
    return [
        SweepTask(
            scheme="full-table",
            n=14,
            graph_seed=2,
            seed=seed,
            messages=24,
            retries=1,
            batch=batch,
            **axes,
        )
        for seed in (0, 1)
        for axes in _SWEEP_AXES
    ]


def test_only_timed_axes_spread_injections():
    """Static failures alone inject every message at t=0 (one cohort);
    any timed axis spreads them over the horizon."""
    static = build_run(SweepTask("full-table", 14, messages=24, failures=3))
    assert {r.injected_at for r in static.kernel.run()} == {0.0}
    timed = build_run(
        SweepTask("full-table", 14, messages=24, failures=3, events=2)
    )
    times = [r.injected_at for r in timed.kernel.run()]
    assert len(set(times)) == 24
    assert max(times) <= 0.8 * timed.task.horizon


def test_sweep_digests_independent_of_worker_count():
    one = run_sweep(_sweep_tasks(), workers=1)
    many = run_sweep(_sweep_tasks(), workers=3)
    assert [r.record_digest for r in one] == [r.record_digest for r in many]
    assert [r.task for r in one] == [r.task for r in many]


def test_sweep_digests_independent_of_batch_flag():
    """The flag reaches every axis's kernel and changes no outcome.

    Timed tasks inject at uniform random times, so their cohorts hold one
    row and both flags step them identically; the same kernels are also
    fed their pairs as one t=0 cohort.
    """
    batched = run_sweep(_sweep_tasks(batch=True), workers=1)
    scalar = run_sweep(_sweep_tasks(batch=False), workers=1)
    for fast, slow in zip(batched, scalar):
        assert fast.record_digest == slow.record_digest
        assert replace(fast.task, batch=False) == slow.task
    for task in _sweep_tasks():
        runs = {}
        for batch in (True, False):
            run = build_run(replace(task, batch=batch, messages=0))
            for source, destination in _pairs(task, run.graph):
                run.kernel.inject(source, destination, 0.0)
            runs[batch] = run.kernel.run()
        assert runs[True] == runs[False], task


# -- disabled-tracing overhead ------------------------------------------------


def test_disabled_tracing_kernel_overhead():
    """A NULL_TRACER kernel run must cost the same as tracer=None.

    Mirrors the BENCH_observability acceptance budget (≤5%), widened to
    the bench's own smoke budget of 1.25x because short CI timings run
    noisy; the structural claim is that a disabled tracer collapses to
    `None` at construction so the kernel's fast lane pays zero per-hop.
    """
    graph = gnp_random_graph(48, seed=83)
    scheme = build_scheme("full-table", graph, II_ALPHA)
    injections = _injections(graph, 600, seed=29, horizon=0.0)
    timings = {"untraced": [], "disabled": []}
    baseline = None
    for _ in range(5):
        start = time.perf_counter()
        records = _run(scheme, injections, True)
        timings["untraced"].append(time.perf_counter() - start)
        baseline = records
        start = time.perf_counter()
        records = _run(scheme, injections, True, tracer=NULL_TRACER)
        timings["disabled"].append(time.perf_counter() - start)
        assert records == baseline
    ratio = min(timings["disabled"]) / min(timings["untraced"])
    assert ratio <= 1.25, (
        f"disabled tracing cost {ratio:.3f}x the untraced kernel"
    )
