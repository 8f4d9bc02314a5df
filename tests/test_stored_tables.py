"""One stored table per node: corruption, heals and churn installs act on
the table the node actually holds.

Two staggered-repair regressions on G(32, 1/2) seed 4 (a heal inside the
repair window, and a forward from a table whose plan a newer mutation
superseded), the heal of an installed scheme's table leaving no record
(so the network is quiescent again), a hypothesis property of
:class:`~repro.simulator.network.Network` on its own, and the record
digests of composed runs with instantaneous repair, recorded before the
per-node storage became one record.
"""

from __future__ import annotations

from typing import Dict

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.core import RoutingScheme, build_scheme, plan_repair
from repro.core.repair import RepairPlan
from repro.graphs import gnp_random_graph, path_graph
from repro.integrity import FramingPolicy, IntegrityWrapper
from repro.models import Knowledge, Labeling, RoutingModel
from repro.simulator import (
    BatchKernel,
    ChurnSchedule,
    DropReason,
    FaultEvent,
    FaultSchedule,
    MutationKind,
    Network,
    RetryPolicy,
    TableMutation,
    TopologyMutation,
    random_churn,
)
from repro.simulator.sweep import SweepTask, run_task

IA_ALPHA = RoutingModel(Knowledge.IA, Labeling.ALPHA)
II_ALPHA = RoutingModel(Knowledge.II, Labeling.ALPHA)

_RATE = 50.0
_TICK = 6.0
"""A mutation at t=1 plus the default 5-unit churn repair delay."""


def _g32():
    return gnp_random_graph(32, seed=4)


def _install_time(plan: RepairPlan, node: int) -> float:
    """When ``node``'s staggered install lands, accumulated as the kernel
    accumulates it."""
    elapsed = 0.0
    for dirty, bits in plan.table_bits:
        elapsed += bits / _RATE
        if dirty == node:
            return _TICK + elapsed
    raise AssertionError(f"node {node} is not dirty")


def test_heal_inside_the_repair_window_keeps_the_repaired_table():
    graph = _g32()
    scheme = build_scheme("full-table", graph, IA_ALPHA)
    removal = TopologyMutation.edge_remove(1.0, 1, 4)
    plan = plan_repair(scheme, removal.apply(graph))
    installed = _install_time(plan, 1)
    converged = _TICK + plan.bits_rewritten / _RATE
    assert installed + 1.0 < converged
    flip = TableMutation(MutationKind.BIT_FLIP, offsets=(0,))
    kernel = BatchKernel(
        scheme,
        churn_schedule=ChurnSchedule([removal]),
        churn_repair_rate=_RATE,
        fault_schedule=FaultSchedule([
            FaultEvent.table_corrupt(installed + 0.5, 1, flip),
            FaultEvent.table_repair(installed + 1.0, 1),
        ]),
    )
    for destination in range(2, 33):
        kernel.inject(1, destination, at_time=converged + 1.0)
    records = kernel.run()
    network = kernel.network
    assert kernel.churn_summary()["converged"]
    assert network.corruption_summary()["healed"] == 1
    final = network.scheme
    distances = final.ctx.distances()
    for record in records:
        destination = record.destination
        assert record.delivered, record
        assert record.path[1] == final.function(1).next_hop(destination).next_node
        assert record.hops == distances[0, destination - 1]
    assert len(records) == 31


@pytest.mark.parametrize("retries", [False, True])
def test_superseded_table_forward_drops_link_down(retries):
    graph = _g32()
    assert not graph.has_edge(1, 2)
    scheme = build_scheme("full-table", graph, IA_ALPHA)
    addition = TopologyMutation.edge_add(1.0, 1, 2)
    installed = _install_time(plan_repair(scheme, addition.apply(graph)), 1)
    churn = ChurnSchedule([
        addition, TopologyMutation.edge_remove(installed + 0.5, 1, 2),
    ])
    kernel = BatchKernel(
        scheme,
        churn_schedule=churn,
        churn_repair_rate=_RATE,
        retry_policy=(
            RetryPolicy(max_attempts=4, base_delay=5) if retries else None
        ),
    )
    kernel.inject(1, 2, at_time=installed + 1.0)
    (record,) = kernel.run()
    if retries:
        assert record.delivered, record
        assert record.retries > 0
    else:
        assert record.drop_reason is DropReason.LINK_DOWN, record
        assert record.path == (1,)


def _framed_path(n):
    return IntegrityWrapper(
        build_scheme("full-table", path_graph(n), II_ALPHA), FramingPolicy.CRC8
    )


def test_heal_of_the_installed_table_leaves_the_network_quiescent():
    scheme = _framed_path(5)
    network = Network(scheme)
    network.corrupt_table(3, TableMutation(MutationKind.BIT_FLIP, offsets=(0,)))
    assert not network.quiescent
    assert network.heal_table(3)
    assert network.quiescent
    assert network.holder(3) is scheme
    assert not network.corrupted_nodes
    assert network.corruption_summary() == {
        "injected": 1, "detected": 0, "undetected": 0, "healed": 1,
    }


def test_traffic_after_a_heal_takes_the_quiescent_drain():
    """A burst after the last heal drains off the next-hop matrix and
    routes exactly as the all-scalar reference."""
    scheme = _framed_path(8)
    flip = TableMutation(MutationKind.BIT_FLIP, offsets=(0,))
    runs = {}
    for batch in (True, False):
        kernel = BatchKernel(
            scheme,
            batch=batch,
            fault_schedule=FaultSchedule([
                FaultEvent.table_corrupt(1.0, 4, flip),
                FaultEvent.table_repair(2.0, 4),
            ]),
        )
        for _ in range(16):  # a cohort large enough for the drain
            kernel.inject(1, 8, at_time=5.0)
        runs[batch] = list(kernel.run())
        assert kernel.network.quiescent
        # The drain derived its matrix, so it ran after the heal.
        assert (kernel._matrix_scheme is scheme) == batch
    assert runs[True] == runs[False]
    assert all(r.delivered and r.hops == 7 for r in runs[True])


_TABLE_MUTATIONS = st.one_of(
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
    st.builds(
        TableMutation,
        kind=st.just(MutationKind.TRUNCATE),
        span=st.integers(1, 8),
    ),
)

def _decision(network: Network, node: int, destination: int) -> int:
    # The network's one forwarding decision, plain addressing.
    return network._choose_hop(node, destination, None, destination).next_node


@settings(max_examples=30)
@given(
    graph_seed=st.integers(0, 2**16),
    churn_seed=st.integers(0, 2**16),
    steps=st.lists(
        st.tuples(
            st.sampled_from(("corrupt", "heal", "install", "swap")),
            # Two nodes only, so each meets several operations.
            st.integers(1, 2),
            _TABLE_MUTATIONS,
        ),
        min_size=6,
        max_size=16,
    ),
)
def test_network_acts_on_the_table_each_node_holds(
    graph_seed, churn_seed, steps
):
    graph = gnp_random_graph(12, seed=graph_seed)
    assume(graph.is_connected())
    scheme = build_scheme("full-table", graph, IA_ALPHA)
    churn = random_churn(graph, 1, horizon=1.0, seed=churn_seed)
    assume(len(churn) == 1)
    network = Network(scheme)
    network.apply_mutation(churn.mutations[0])
    successor = plan_repair(scheme, network.live_graph).new_scheme
    # Reference model: the scheme each node's storage was written from,
    # and the damage applied on top of it.
    installed: RoutingScheme = scheme
    holders: Dict[int, RoutingScheme] = {}
    damage: Dict[int, TableMutation] = {}
    # Every sequence ends converged.
    for op, node, mutation in [*steps, ("swap", 1, None)]:
        holder = holders.get(node, installed)
        if op == "corrupt":
            network.corrupt_table(node, mutation)
            holders[node] = holder
            damage[node] = mutation
        elif op == "heal":
            assert network.heal_table(node) == (node in damage)
            if damage.pop(node, None) is not None and holder is installed:
                # The installed scheme's own table leaves no record.
                del holders[node]
        elif op == "install":
            network.install_table(node, successor)
            if successor is installed:
                holders.pop(node, None)
            else:
                holders[node] = successor
            damage.pop(node, None)
        else:
            # Nodes that held the successor's table drop their records
            # and from here on route as the installed successor.
            network.install_scheme(successor)
            installed = successor
            holders = {
                u: s for u, s in holders.items()
                if s is not successor or u in damage
            }
        assert network.corrupted_nodes == set(damage)
        # Exactly the nodes off the installed scheme's own table keep a
        # record.
        assert set(network._tables) == set(holders)
        for u in graph.nodes:
            holder = holders.get(u, installed)
            assert network.holder(u) is holder
            if u in damage:
                pristine = holder.ctx.pristine_bits(holder, u)
                stored = network._tables[u].bits
                assert stored == damage[u].apply(pristine)
                continue
            function = holder.function(u)
            for w in graph.nodes:
                if w != u:
                    assert _decision(network, u, w) == (
                        function.next_hop(w).next_node
                    )


# Composed runs with instantaneous repair (renewal faults, CRC-8 framed
# corruption, three edge-churn events, two retries) on G(32, 1/2):
# (scheme, detour, seed, mutation) -> record digest.
_INSTANT_REPAIR_DIGESTS = {
    ("full-table", False, 0, "burst"):
        "23416c9083deb39468fa29781bf5bcdae41576c9c1d9842cfb157e395b8578f0",
    ("full-table", False, 1, "burst"):
        "76e6d8eb376c7d4e23ab17da53296a7c5dd9ab729db001feb9db7591b7ccb82d",
    ("full-table", False, 2, "burst"):
        "d8cbce6bbbb5cb3fd9c326db42a60c300daa17013a01001989a39fdcacdda2c0",
    ("full-table", True, 0, "burst"):
        "e7e8fdf81236578469db5864b98c91a33ff0609abdbc7ab48ad1d2751e31a279",
    ("full-table", True, 1, "burst"):
        "63621c2e7139fda967111719e1035ba7acded381ee8a484947e9813437192144",
    ("full-table", True, 2, "burst"):
        "17b9d6ab2997648e4a2cd4819169f6d68050bc54723b8fa0d23bc8411f8b65f6",
    ("full-information", False, 0, "burst"):
        "180eed52635b73ac841103f995e179d8bceaa040c3f2a65f7610fea871aedba2",
    ("full-information", False, 1, "burst"):
        "498e2723c2bb966a3c8adc8b7b0160cd75bad7b71352bf3cb1079f2ab8ac20f3",
    ("full-information", False, 2, "burst"):
        "7ed45fe190f3a7686cdf0fbdab737ace62a08548113ad756b0b91743d4f6ee77",
    ("full-information", False, 3, "bit-flip"):
        "040923f139232f2d36987bc5701049941b130567fd44fab0346e2f4f967d645c",
    ("full-information", False, 4, "bit-flip"):
        "c9050e6f0d492b431b128dfe162f04fb30dffb202f8c321f863f83f843ea2387",
    ("full-information", False, 5, "bit-flip"):
        "5d54504b03819004146fbd5321fda65a8cacb425684cad4af4e551456795d32a",
}


@pytest.mark.parametrize(
    "scheme,detour,seed,mutation", sorted(_INSTANT_REPAIR_DIGESTS)
)
def test_instant_repair_composed_runs_keep_their_records(
    scheme, detour, seed, mutation
):
    task = SweepTask(
        scheme, 32, seed=seed, schedule="renewal", corrupt_nodes=4,
        framing="crc8", mutation=mutation, detour=detour, events=3,
        retries=2,
    )
    assert run_task(task).record_digest == _INSTANT_REPAIR_DIGESTS[
        (scheme, detour, seed, mutation)
    ]
