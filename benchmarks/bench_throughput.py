"""Experiment THROUGHPUT — batched routing kernel vs. the scalar loop.

PR acceptance criterion: on the deep workload (a 256-node path graph,
where uniform pairs average ~85 hops per message) the batched lane of
``BatchKernel`` must route at least **100x** the messages/sec of the
scalar per-message loop, untraced.  Both lanes are timed at the batch
boundary (:meth:`BatchKernel.drain`): the loop that decides and applies
hops, exactly the code the vectorisation replaced.  The scalar epilogue
that materialises one frozen ``DeliveryRecord`` per row
(``list(finished.records())``: the view builds records only when read)
is identical in both modes — it is timed separately (best of the reps,
like both lanes) and reported as an end-to-end ratio, so nothing is
hidden, but it is not what the kernel parallelised.

The two lanes are the *same* kernel:

* ``scalar``  — ``batch=False``; every active row steps through
  ``_step_one``, the exact per-message step.  This is the reference
  implementation whose record stream defines correctness.
* ``batched`` — ``batch=True``; in-flight messages advance a whole
  generation per step through precomputed next-hop gathers, and (with
  no faults, churn or tracer) the quiescent drain walks the entire
  cohort to completion in pure gather/scatter steps.

Every timed pass asserts the two lanes' record streams are
bit-identical before any throughput number is reported.

Beside the ratio, the batched lane's own cost is gated as
``ns_per_hop_batched`` (its best drain over the workload's hops): the
ratio alone reads a faster scalar step as a loss and cannot tell a
slower drain from a faster scalar lane.

The run writes ``BENCH_throughput.json`` — a schema-versioned
``BenchResult`` with direction-annotated metrics and the embedded run
manifest — for CI to validate, regression-gate, and archive.

Run ``python benchmarks/bench_throughput.py --smoke`` for a quick
self-checking pass (small graph; gates on record equality, not the
speedup floor, because sub-100ms timings run noisy); ``--output PATH``
overrides the JSON location.
"""

from __future__ import annotations

import argparse
import pathlib
import random
import sys
import time

from repro.core import build_scheme
from repro.graphs import path_graph
from repro.models import Knowledge, Labeling, RoutingModel
from repro.observability import (
    BenchMetric,
    BenchResult,
    BetterDirection,
    RunManifest,
    write_bench_result,
)
from repro.simulator import BatchKernel

II_ALPHA = RoutingModel(Knowledge.II, Labeling.ALPHA)

N = 256
MESSAGES = 16384
REPS = 8
# The scalar lane takes seconds per pass; two passes pin the baseline
# without doubling the bench runtime for noise the batch side owns.
SCALAR_REPS = 2
SMOKE_N = 32
SMOKE_MESSAGES = 2048
SMOKE_REPS = 3
SMOKE_SCALAR_REPS = 2
# The acceptance floor for the full workload; the smoke floor only has
# to catch a vectorisation that silently fell back to the slow lane.
SPEEDUP_FLOOR = 100.0
SMOKE_SPEEDUP_FLOOR = 3.0

INJECT_SEED = 29

DEFAULT_OUTPUT = pathlib.Path(__file__).resolve().parent.parent / (
    "BENCH_throughput.json"
)


def _build_workload(n, messages):
    """A deep routing workload: uniform pairs on an n-node path graph.

    Injections all land at t=0 so the whole batch is one lockstep
    cohort — the shape the quiescent drain is built for.  The one-time
    next-hop matrix derivation is warmed here: it is scheme
    construction cost, paid identically by both lanes, not routing.
    """
    graph = path_graph(n)
    scheme = build_scheme("full-table", graph, II_ALPHA)
    scheme.ctx.next_hop_matrix(scheme)
    clock = random.Random(INJECT_SEED)
    nodes = sorted(graph.nodes)
    injections = [
        (*clock.sample(nodes, 2), 0.0) for _ in range(messages)
    ]
    return graph, scheme, injections


def _drain_once(scheme, injections, batch):
    """Time one kernel pass at the batch boundary (no record objects)."""
    kernel = BatchKernel(scheme, batch=batch)
    for source, destination, at_time in injections:
        kernel.inject(source, destination, at_time)
    start = time.perf_counter()
    finished = kernel.drain()
    return time.perf_counter() - start, finished


def measure(n=N, messages=MESSAGES, reps=REPS, scalar_reps=SCALAR_REPS):
    """Best-of-``reps`` drain timings for both lanes and for record
    materialisation, equality-checked."""
    graph, scheme, injections = _build_workload(n, messages)
    timings = {"batched": [], "scalar": []}
    reference = None
    materialize = float("inf")
    for rep in range(reps):
        elapsed, finished = _drain_once(scheme, injections, batch=True)
        timings["batched"].append(elapsed)
        start = time.perf_counter()
        records = list(finished.records())
        materialize = min(materialize, time.perf_counter() - start)
        if reference is None:
            reference = records
        else:
            assert records == reference
        if rep < scalar_reps:
            elapsed, finished = _drain_once(
                scheme, injections, batch=False
            )
            timings["scalar"].append(elapsed)
            assert finished.records() == reference
    best = {mode: min(values) for mode, values in timings.items()}
    speedup = best["scalar"] / best["batched"]
    hops = sum(record.hops for record in reference)
    return {
        "workload": {
            "n": n,
            "graph": "path",
            "scheme": "full-table",
            "messages": messages,
            "reps": reps,
            "scalar_reps": scalar_reps,
            "inject_seed": INJECT_SEED,
        },
        "best_seconds": best,
        "all_seconds": timings,
        "materialize_seconds": materialize,
        "messages_per_sec_batched": messages / best["batched"],
        "messages_per_sec_scalar": messages / best["scalar"],
        "hops_per_sec_batched": hops / best["batched"],
        "ns_per_hop_batched": best["batched"] / hops * 1e9,
        "speedup_ratio": speedup,
        "end_to_end_speedup": (best["scalar"] + materialize)
        / (best["batched"] + materialize),
        "total_hops": hops,
        "delivered": sum(1 for r in reference if r.delivered),
        "records": len(reference),
    }


def check(result, floor=SPEEDUP_FLOOR) -> None:
    speedup = result["speedup_ratio"]
    assert speedup >= floor, (
        f"batched lane is only {speedup:.1f}x the scalar per-message "
        f"loop, acceptance floor {floor:.0f}x"
    )
    assert result["delivered"] == result["records"], (
        "a fault-free path workload must deliver every message"
    )


def _bench_result(result) -> BenchResult:
    """Wrap one measurement as a schema-versioned, gateable artifact."""
    workload = result["workload"]
    manifest = RunManifest.capture(
        "bench:throughput",
        seed=INJECT_SEED,
        scheme="full-table",
        n=workload["n"],
        params=workload,
        graph=path_graph(workload["n"]),
    )
    higher = BetterDirection.HIGHER
    # Throughput and its quotients gate at a 30% relative tolerance:
    # absolute rates track machine speed and the ratios divide two
    # noisy timings.  The hard acceptance floor lives in check().
    metrics = {
        "messages_per_sec_batched": BenchMetric(
            result["messages_per_sec_batched"], higher, tolerance=0.30
        ),
        "messages_per_sec_scalar": BenchMetric(
            result["messages_per_sec_scalar"], higher, tolerance=0.30
        ),
        "speedup_ratio": BenchMetric(
            result["speedup_ratio"], higher, tolerance=0.30
        ),
        "ns_per_hop_batched": BenchMetric(
            result["ns_per_hop_batched"], BetterDirection.LOWER,
            tolerance=0.30,
        ),
        "end_to_end_speedup": BenchMetric(
            result["end_to_end_speedup"], higher, tolerance=0.30
        ),
        "delivered": BenchMetric(
            float(result["delivered"]), higher, tolerance=0.0
        ),
    }
    return BenchResult(
        bench="throughput",
        manifest=manifest,
        workload=workload,
        metrics=metrics,
        extra={key: value for key, value in result.items()
               if key != "workload"},
    )


def _format(result) -> str:
    work = result["workload"]
    best = result["best_seconds"]
    mat = result["materialize_seconds"]
    lines = [
        f"Batched kernel throughput: path({work['n']}), "
        f"{work['scheme']}, {work['messages']} messages "
        f"({result['total_hops']} hops), untraced, "
        f"best of {work['reps']} (scalar: {work['scalar_reps']})",
        "",
        f"  scalar lane (per-message)  {best['scalar']:9.3f} s"
        f"   ({result['messages_per_sec_scalar']:12,.0f} msg/s)",
        f"  batched lane (drain)       {best['batched']:9.3f} s"
        f"   ({result['messages_per_sec_batched']:12,.0f} msg/s, "
        f"{result['hops_per_sec_batched']:,.0f} hops/s, "
        f"{result['ns_per_hop_batched']:.1f} ns/hop)",
        f"  record materialisation     {mat:9.3f} s   (shared epilogue)",
        "",
        f"  speedup at the batch boundary   {result['speedup_ratio']:7.1f}x",
        f"  end to end (records included)   "
        f"{result['end_to_end_speedup']:7.1f}x",
        "",
        "  every pass asserts the batched and scalar lanes emit",
        "  bit-identical DeliveryRecord streams before timing counts.",
    ]
    return "\n".join(lines)


def test_throughput(benchmark, write_result):
    result = benchmark.pedantic(measure, rounds=1, iterations=1)
    write_result("throughput", _format(result))
    write_bench_result(_bench_result(result), DEFAULT_OUTPUT)
    check(result)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="Time the batched routing kernel against the scalar loop."
    )
    parser.add_argument(
        "--smoke", action="store_true",
        help="small graph; gates on record equality, not the speedup floor",
    )
    parser.add_argument(
        "--output", type=pathlib.Path, default=DEFAULT_OUTPUT,
        help=f"where to write the BenchResult JSON (default: {DEFAULT_OUTPUT.name} "
        "at the repository root)",
    )
    args = parser.parse_args(argv)
    smoke, output = args.smoke, args.output
    n = SMOKE_N if smoke else N
    messages = SMOKE_MESSAGES if smoke else MESSAGES
    reps = SMOKE_REPS if smoke else REPS
    scalar_reps = SMOKE_SCALAR_REPS if smoke else SCALAR_REPS
    started = time.perf_counter()
    result = measure(n, messages, reps, scalar_reps)
    bench = _bench_result(result)
    bench.manifest = bench.manifest.completed(time.perf_counter() - started)
    print(_format(result))
    write_bench_result(bench, output)
    print(f"\ntimings written to {output}")
    check(result, SMOKE_SPEEDUP_FLOOR if smoke else SPEEDUP_FLOOR)
    print("assertions ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
