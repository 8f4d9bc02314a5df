"""Experiment T1-Slog — Theorem 5: O(n) bits at stretch O(log n).

Also measures the probe walk itself through the simulator: every message
must finish within ``2(c+3) log n`` edge traversals (c = 3).
"""

from __future__ import annotations

import math

from repro.analysis import best_law, mean_total_bits, run_size_sweep
from repro.core import ProbeScheme, build_scheme
from repro.graphs import gnp_random_graph
from repro.simulator import BatchKernel, summarize

NS = (64, 96, 128, 192, 256, 384)
SEEDS = (0, 1, 2)


def _measure(ii_alpha):
    points = run_size_sweep(
        "thm5-probe", ii_alpha, ns=NS, seeds=SEEDS, verify_pairs=300
    )
    # Hop distribution on one larger instance.
    graph = gnp_random_graph(256, seed=9)
    kernel = BatchKernel(build_scheme("thm5-probe", graph, ii_alpha))
    for u in range(1, 17):
        for w in range(17, 257):
            kernel.inject(u, w)
    return points, summarize(kernel.run(), graph)


def test_thm5_linear_size_log_stretch(benchmark, ii_alpha, write_result):
    points, metrics = benchmark.pedantic(
        _measure, args=(ii_alpha,), rounds=1, iterations=1
    )
    means = mean_total_bits(points)
    fits = best_law(
        list(means), list(means.values()),
        candidates=["n", "n log log n", "n log n"],
    )
    hop_budget = 2 * 6 * math.log2(256)
    lines = ["Theorem 5 (probe scheme), model II, G(n, 1/2), 3 seeds", ""]
    for n, mean in means.items():
        lines.append(f"  n={n:4d}  mean total bits = {mean:6.0f}  T/n = {mean / n:.2f}")
    lines += [
        "",
        f"  best-fit law : {fits[0].law} (constant {fits[0].constant:.2f})",
        f"  probe walk on n=256: mean hops {metrics.mean_hops:.2f}, "
        f"max stretch {metrics.max_stretch:.1f}, p95 {metrics.p95_stretch:.1f}",
        f"  hop budget 2(c+3) log n = {hop_budget:.0f} traversals (c = 3)",
        "  paper row: Corollary 1.5 — O(n) for s = 6 log n in model II",
    ]
    write_result("thm5_probe", "\n".join(lines))
    benchmark.extra_info["fit"] = fits[0].law
    assert fits[0].law == "n"
    assert metrics.delivered_fraction == 1.0
    assert metrics.max_stretch * 2 <= hop_budget


def test_thm5_probe_walk_speed(benchmark, ii_alpha):
    graph = gnp_random_graph(128, seed=7)
    scheme = ProbeScheme(graph, ii_alpha)
    target = graph.non_neighbors(1)[-1]

    def walk():
        kernel = BatchKernel(scheme)
        kernel.inject(1, target)
        return kernel.run()[0]

    assert benchmark(walk).delivered
