"""Experiment CTX — end-to-end speedup from the shared GraphContext.

PR acceptance criterion: a build → verify → simulate pipeline on one
graph must compute the all-pairs distance matrix exactly **once**.
Before the context layer every consumer derived it independently — the
builder, the verifier, and the metrics summary each paid the ``O(n·m)``
BFS sweep on the *same* immutable graph.

This bench times the identical pipeline — build an interval scheme,
verify it twice (two independent sampled audits), route a message
workload and summarize the records — in two configurations:

* ``shared``   — the post-refactor default: one :class:`GraphContext`
                 per graph, the first consumer computes the matrix and
                 every later stage reads the same memoised copy;
* ``isolated`` — the pre-refactor equivalent: the context is
                 ``invalidate()``-ed between stages, so each audit and
                 the metrics summary recompute their derivations.

Both runs are counter-audited through the process registry
(``repro_graph_ctx_total{kind="distances"}``): the shared pipeline must
show exactly one distance miss and at least two hits, the isolated one
a miss per consuming stage.  The run writes ``BENCH_context.json`` with the
timings, the speedup ratio, and the counter evidence, for CI to
validate and archive.

Run ``python benchmarks/bench_context_reuse.py --smoke`` for a quick
self-checking pass (counters only — small graphs drown the wall-time
delta in noise); ``--output PATH`` overrides the JSON location.
"""

from __future__ import annotations

import argparse
import pathlib
import random
import sys
import time

from repro.core import build_scheme, verify_scheme
from repro.graphs import clear_context_cache, gnp_random_graph
from repro.graphs.context import CTX_COUNTER
from repro.models import Knowledge, Labeling, RoutingModel
from repro.observability import (
    BenchMetric,
    BenchResult,
    BetterDirection,
    MetricsRegistry,
    RunManifest,
    set_registry,
    write_bench_result,
)
from repro.simulator import BatchKernel, summarize

II_BETA = RoutingModel(Knowledge.II, Labeling.BETA)

N = 256
VERIFY_PAIRS = 300
MESSAGES = 200
REPS = 7
SMOKE_N = 48
SMOKE_VERIFY_PAIRS = 60
SMOKE_MESSAGES = 40
SMOKE_REPS = 3
# Full runs must show a real end-to-end win; two extra O(n·m) sweeps at
# n = 256 clear this floor comfortably.
SPEEDUP_FLOOR = 1.05

DEFAULT_OUTPUT = pathlib.Path(__file__).resolve().parent.parent / (
    "BENCH_context.json"
)


def _distance_counts(registry):
    return {
        op: int(registry.counter(CTX_COUNTER, kind="distances", op=op).value)
        for op in ("hit", "miss")
    }


def _run_pipeline(n, verify_pairs, messages, shared):
    """One timed build → verify → simulate pass; returns (seconds, counts)."""
    graph = gnp_random_graph(n, seed=131)
    pairs = random.Random(37).sample(
        [(s, t) for s in graph.nodes for t in graph.nodes if s != t], messages
    )
    clear_context_cache()
    registry = MetricsRegistry()
    previous = set_registry(registry)
    try:
        start = time.perf_counter()
        scheme = build_scheme("interval", graph, II_BETA)
        for audit_seed in (7, 11):
            if not shared:
                scheme.ctx.invalidate()
            result = verify_scheme(
                scheme, sample_pairs=verify_pairs, seed=audit_seed
            )
            assert result.ok()
        if not shared:
            scheme.ctx.invalidate()
        # The scalar lane: the batch lane would first derive the n²
        # next-hop matrix, a cost this bench is not about.
        kernel = BatchKernel(scheme, batch=False)
        for s, t in pairs:
            kernel.inject(s, t)
        records = kernel.run()
        metrics = summarize(records, graph)
        elapsed = time.perf_counter() - start
    finally:
        set_registry(previous)
    assert metrics.delivered == len(records)
    return elapsed, _distance_counts(registry)


def measure(n=N, verify_pairs=VERIFY_PAIRS, messages=MESSAGES, reps=REPS):
    """Interleaved best-of-``reps`` timings for the two pipeline modes."""
    timings = {"shared": [], "isolated": []}
    counts = {}
    for _ in range(reps):
        for mode, shared in (("shared", True), ("isolated", False)):
            elapsed, distance_counts = _run_pipeline(
                n, verify_pairs, messages, shared
            )
            timings[mode].append(elapsed)
            counts[mode] = distance_counts
    best = {mode: min(values) for mode, values in timings.items()}
    return {
        "workload": {
            "n": n,
            "verify_pairs": verify_pairs,
            "messages": messages,
            "reps": reps,
        },
        "best_seconds": best,
        "all_seconds": timings,
        "speedup_ratio": best["isolated"] / best["shared"],
        "distance_computes": {
            mode: c["miss"] for mode, c in counts.items()
        },
        "distance_cache_hits": {
            mode: c["hit"] for mode, c in counts.items()
        },
    }


def check(result, smoke=False) -> None:
    computes = result["distance_computes"]
    hits = result["distance_cache_hits"]
    assert computes["shared"] == 1, (
        f"shared pipeline computed the distance matrix "
        f"{computes['shared']} times; the context must make it exactly one"
    )
    assert hits["shared"] >= 2, (
        f"shared pipeline shows {hits['shared']} distance cache hits; "
        f"the second audit and summarize must reuse the first's matrix"
    )
    assert computes["isolated"] >= 3, (
        f"isolated baseline computed only {computes['isolated']} times; "
        f"the invalidate() fences are not isolating the stages"
    )
    if not smoke:
        ratio = result["speedup_ratio"]
        assert ratio >= SPEEDUP_FLOOR, (
            f"shared pipeline is only {ratio:.3f}x faster than the "
            f"isolated baseline, floor {SPEEDUP_FLOOR:.2f}x"
        )


def _bench_result(result) -> BenchResult:
    """Wrap one measurement as a schema-versioned, gateable artifact."""
    workload = result["workload"]
    manifest = RunManifest.capture(
        "bench:context_reuse",
        seed=131,
        scheme="interval",
        n=workload["n"],
        params=workload,
        graph=gnp_random_graph(workload["n"], seed=131),
    )
    metrics = {
        "speedup_ratio": BenchMetric(
            result["speedup_ratio"], BetterDirection.HIGHER, tolerance=0.10
        ),
        # The counter evidence is exact, so it gates with zero slack.
        "distance_computes_shared": BenchMetric(
            float(result["distance_computes"]["shared"]),
            BetterDirection.LOWER,
            tolerance=0.0,
        ),
        "best_seconds_shared": BenchMetric(
            result["best_seconds"]["shared"], unit="s"
        ),
        "best_seconds_isolated": BenchMetric(
            result["best_seconds"]["isolated"], unit="s"
        ),
    }
    return BenchResult(
        bench="context_reuse",
        manifest=manifest,
        workload=workload,
        metrics=metrics,
        extra={key: value for key, value in result.items()
               if key != "workload"},
    )


def _format(result) -> str:
    work = result["workload"]
    best = result["best_seconds"]
    lines = [
        f"GraphContext reuse on a build→verify→simulate pipeline: "
        f"G({work['n']}, 1/2), 2x{work['verify_pairs']} verified pairs, "
        f"{work['messages']} routed messages, best of {work['reps']}",
        "",
        f"  shared context             {best['shared'] * 1e3:9.2f} ms"
        f"   ({result['distance_computes']['shared']} distance compute, "
        f"{result['distance_cache_hits']['shared']} hits)",
        f"  invalidated between stages {best['isolated'] * 1e3:9.2f} ms"
        f"   ({result['distance_computes']['isolated']} distance computes)",
        f"  speedup                    {result['speedup_ratio']:9.3f}x",
        "",
        "  every layer reads the one memoised matrix; the baseline is",
        "  what the pre-context stack paid by deriving per consumer.",
    ]
    return "\n".join(lines)


def test_context_reuse(benchmark, write_result):
    result = benchmark.pedantic(measure, rounds=1, iterations=1)
    write_result("context_reuse", _format(result))
    write_bench_result(_bench_result(result), DEFAULT_OUTPUT)
    check(result)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description=(
            "Time a build, verify and simulate pipeline with and without the shared"
            " GraphContext."
        )
    )
    parser.add_argument(
        "--smoke", action="store_true",
        help="small graph; gates on derivation counts, not the wall-time speedup",
    )
    parser.add_argument(
        "--output", type=pathlib.Path, default=DEFAULT_OUTPUT,
        help=f"where to write the BenchResult JSON (default: {DEFAULT_OUTPUT.name} "
        "at the repository root)",
    )
    args = parser.parse_args(argv)
    smoke, output = args.smoke, args.output
    started = time.perf_counter()
    if smoke:
        result = measure(SMOKE_N, SMOKE_VERIFY_PAIRS, SMOKE_MESSAGES, SMOKE_REPS)
    else:
        result = measure()
    bench = _bench_result(result)
    bench.manifest = bench.manifest.completed(time.perf_counter() - started)
    print(_format(result))
    write_bench_result(bench, output)
    print(f"\ntimings written to {output}")
    check(result, smoke=smoke)
    print("assertions ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
