"""Experiment CONGESTION — the hidden price of the Theorem 4 hub (extension).

Theorem 4 compresses the network's tables to ``n log log n + 6n`` bits by
funnelling every non-local message through one hub.  With a queueing model
(each node forwards one message at a time) that funnel becomes a
bottleneck: this bench pushes identical uniform traffic through the
Theorem 1 and Theorem 4 schemes and compares latency tails and per-node
forwarding load — the space/congestion trade-off the paper's space/stretch
menu does not (and does not claim to) capture.
"""

from __future__ import annotations

import numpy as np

from repro.core import build_scheme
from repro.graphs import gnp_random_graph
from repro.simulator import BatchKernel
from repro.simulator.workloads import uniform_pairs

N = 64
MESSAGES = 400
SERVICE = 0.2


def _run(scheme, pairs):
    sim = BatchKernel(scheme, link_latency=1.0, node_service_time=SERVICE)
    for i, (source, dest) in enumerate(pairs):
        sim.inject(source, dest, at_time=i * 0.05)
    records = sim.run()
    latencies = [r.latency for r in records if r.delivered]
    counts = sim.forward_counts
    return {
        "delivered": sum(r.delivered for r in records),
        "mean": float(np.mean(latencies)),
        "p95": float(np.percentile(latencies, 95)),
        "max": float(np.max(latencies)),
        "hottest_node": max(counts, key=counts.get),
        "hottest_count": max(counts.values()),
        "total_forwards": sum(counts.values()),
    }


def _measure(ii_alpha):
    graph = gnp_random_graph(N, seed=77)
    pairs = uniform_pairs(graph, MESSAGES, seed=5)
    two_level = build_scheme("thm1-two-level", graph, ii_alpha)
    hub = build_scheme("thm4-hub", graph, ii_alpha)
    return (
        _run(two_level, pairs),
        _run(hub, pairs),
        two_level.space_report().total_bits,
        hub.space_report().total_bits,
        hub.hub,
    )


def test_hub_congestion_tradeoff(benchmark, ii_alpha, write_result):
    stats_tl, stats_hub, bits_tl, bits_hub, hub_node = benchmark.pedantic(
        _measure, args=(ii_alpha,), rounds=1, iterations=1
    )
    lines = [
        f"Queueing congestion, G({N}, 1/2), {MESSAGES} uniform messages, "
        f"service {SERVICE}/hop",
        "",
        f"{'':14s} {'space (bits)':>13s} {'mean lat':>9s} {'p95 lat':>9s} "
        f"{'max lat':>9s} {'hottest node forwards':>22s}",
        f"  Theorem 1    {bits_tl:>13d} {stats_tl['mean']:>9.2f} "
        f"{stats_tl['p95']:>9.2f} {stats_tl['max']:>9.2f} "
        f"{stats_tl['hottest_count']:>22d}",
        f"  Theorem 4    {bits_hub:>13d} {stats_hub['mean']:>9.2f} "
        f"{stats_hub['p95']:>9.2f} {stats_hub['max']:>9.2f} "
        f"{stats_hub['hottest_count']:>22d}  (node {hub_node})",
        "",
        "  the hub scheme's ~30x space saving concentrates forwarding on one",
        "  node, inflating the latency tail — compact tables are not free.",
    ]
    write_result("congestion", "\n".join(lines))
    assert stats_tl["delivered"] == MESSAGES
    assert stats_hub["delivered"] == MESSAGES
    assert bits_hub < bits_tl / 5
    assert stats_hub["hottest_count"] > 2 * stats_tl["hottest_count"]
    assert stats_hub["p95"] >= 2 * stats_tl["p95"]


def test_queueing_kernel_speed(benchmark, ii_alpha):
    graph = gnp_random_graph(N, seed=77)
    scheme = build_scheme("thm1-two-level", graph, ii_alpha)
    pairs = uniform_pairs(graph, 100, seed=5)

    def run():
        sim = BatchKernel(scheme, node_service_time=0.1)
        for i, (source, dest) in enumerate(pairs):
            sim.inject(source, dest, at_time=i * 0.1)
        return sim.run()

    records = benchmark(run)
    assert all(r.delivered for r in records)
