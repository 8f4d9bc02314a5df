"""Experiment SIM — simulator throughput and full-information resilience.

The paper defines full-information schemes so that "alternative, shortest,
paths [can] be taken whenever an outgoing link is down".  This bench fails
an increasing number of links and compares delivery rates of the
full-information scheme against the single-path Theorem 1 scheme, plus raw
routing throughput of the timed kernel.
"""

from __future__ import annotations

from repro.core import build_scheme
from repro.graphs import gnp_random_graph
from repro.simulator import BatchKernel, sample_link_failures, summarize

N = 64
FAILURE_COUNTS = (0, 50, 100, 200, 400)


def _route(scheme, failures, pairs):
    kernel = BatchKernel(scheme, failed_links=failures)
    for u, w in pairs:
        kernel.inject(u, w)
    return kernel.run()


def _measure(ii_alpha):
    graph = gnp_random_graph(N, seed=83)
    pairs = [(u, w) for u in range(1, 17) for w in range(17, 65)]
    full_info = build_scheme("full-information", graph, ii_alpha)
    single = build_scheme("thm1-two-level", graph, ii_alpha)
    rows = []
    for count in FAILURE_COUNTS:
        failures = sample_link_failures(graph, count, seed=count)
        metrics_full = summarize(_route(full_info, failures, pairs), graph)
        metrics_single = summarize(_route(single, failures, pairs), graph)
        rows.append((count, metrics_full, metrics_single))
    return graph, rows


def test_full_information_resilience(benchmark, ii_alpha, write_result):
    graph, rows = benchmark.pedantic(
        _measure, args=(ii_alpha,), rounds=1, iterations=1
    )
    lines = [
        f"Failure resilience on G({N}, 1/2) ({graph.edge_count} links), "
        f"768 messages per point",
        "",
        "  failed links   delivered full-info   delivered single-path (Thm 1)",
    ]
    for count, metrics_full, metrics_single in rows:
        lines.append(
            f"  {count:12d}   {metrics_full.delivered_fraction:19.3f}   "
            f"{metrics_single.delivered_fraction:29.3f}"
        )
    lines += [
        "",
        "  full-information re-routes over alternative shortest edges and",
        "  dominates the single-path scheme at every failure level (§1).",
    ]
    write_result("simulator_resilience", "\n".join(lines))
    for count, metrics_full, metrics_single in rows:
        assert metrics_full.delivered_fraction >= metrics_single.delivered_fraction
        if count == 0:
            assert metrics_full.delivered_fraction == 1.0
        if metrics_full.delivered:
            assert metrics_full.max_stretch == 1.0  # still shortest paths


def test_timed_kernel_throughput(benchmark, ii_alpha):
    graph = gnp_random_graph(N, seed=83)
    scheme = build_scheme("thm4-hub", graph, ii_alpha)

    def run():
        sim = BatchKernel(scheme)
        for i in range(100):
            sim.inject(1 + i % 32, 33 + i % 32, at_time=float(i) * 0.1)
        return sim.run()

    records = benchmark(run)
    assert all(r.delivered for r in records)
