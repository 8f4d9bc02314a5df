"""Experiment CHURN — convergence under live topology mutations.

A routing table is correct only for the topology it was computed on.
This bench drives the timed kernel while a seeded
:func:`~repro.simulator.churn.random_churn` schedule rewires the graph
mid-run, and measures what the incremental-repair path buys:

* **Convergence correctness** — after the last mutation's repair
  finishes, *probe* messages injected post-convergence must behave as if
  the scheme had been built on the final topology from scratch: 100%
  delivered, zero stale-table hop decisions, zero routing loops, and
  stretch exactly 1.0 against the post-churn distance matrix.
* **Incremental vs full rebuild** — each churn rate runs twice, once
  with selective repair (only the tables the mutations dirtied are
  re-encoded) and once with the rebuild-everything control arm.  At low
  churn the incremental arm must rewrite *strictly* fewer bits; it may
  never rewrite more.
* **Convergence latency and staleness** — per-mutation convergence
  times and the count of deliveries that routed on not-yet-repaired
  tables (stale deliveries: still delivered, possibly detoured).

The run writes ``BENCH_churn.json`` with the sweep for CI to validate
and archive.

Run ``python benchmarks/bench_churn_convergence.py --smoke`` for a quick
self-checking pass; ``--output PATH`` overrides the JSON location.
"""

from __future__ import annotations

import argparse
import pathlib
import random
import sys
import time

from repro.core import build_scheme
from repro.graphs import get_context, gnp_random_graph
from repro.models import Knowledge, Labeling, RoutingModel
from repro.observability import (
    BenchMetric,
    BenchResult,
    BetterDirection,
    RunManifest,
    write_bench_result,
)
from repro.simulator import (
    BatchKernel,
    DropReason,
    RetryPolicy,
    random_churn,
    summarize,
    uniform_pairs,
)

IA_ALPHA = RoutingModel(Knowledge.IA, Labeling.ALPHA)

N = 128
MESSAGES = 300
HORIZON = 60.0
CHURN_EVENTS = (2, 6, 12)
REPAIR_DELAY = 5.0
PROBES = 150
# Probes go in well after the last possible repair finished (instant
# installs: convergence lands at mutation time + REPAIR_DELAY).
PROBE_AT = HORIZON + 3 * REPAIR_DELAY
SMOKE_N = 32
SMOKE_MESSAGES = 120
SMOKE_CHURN_EVENTS = (2, 5)
SMOKE_PROBES = 60

DEFAULT_OUTPUT = pathlib.Path(__file__).resolve().parent.parent / (
    "BENCH_churn.json"
)


def _run_cell(scheme, schedule, pairs, times, probes, probe_times,
              incremental):
    """One kernel run; returns (pre-probe metrics, probe metrics, churn)."""
    sim = BatchKernel(
        scheme,
        retry_policy=RetryPolicy(max_attempts=4, base_delay=1.0),
        retry_seed=11,
        churn_schedule=schedule,
        churn_repair_delay=REPAIR_DELAY,
        incremental_repair=incremental,
    )
    for (source, destination), at_time in zip(pairs, times):
        sim.inject(source, destination, at_time)
    for (source, destination), at_time in zip(probes, probe_times):
        sim.inject(source, destination, at_time)
    records = sim.run()
    during = [r for r in records if r.injected_at < PROBE_AT]
    after = [r for r in records if r.injected_at >= PROBE_AT]
    final = sim.network.live_graph
    return summarize(during, final), summarize(after, final), sim.churn_summary()


def _loops(metrics) -> int:
    return metrics.drop_reasons.get(DropReason.ROUTING_LOOP, 0)


def _cell_dict(metrics, probe_metrics, churn) -> dict:
    times = churn["convergence_times"]
    return {
        "delivered_fraction": metrics.delivered_fraction,
        "stale_deliveries": metrics.stale_deliveries,
        "routing_loops": _loops(metrics),
        "probe_delivered_fraction": probe_metrics.delivered_fraction,
        "probe_stale_deliveries": probe_metrics.stale_deliveries,
        "probe_routing_loops": _loops(probe_metrics),
        "probe_max_stretch": probe_metrics.max_stretch,
        "converged": churn["converged"],
        "mean_convergence_time": (
            sum(times) / len(times) if times else 0.0
        ),
        "max_convergence_time": max(times) if times else 0.0,
        "mutations": churn["mutations"],
        "repairs": churn["repairs"],
        "tables_rebuilt": churn["tables_rebuilt"],
        "tables_reused": churn["tables_reused"],
        "bits_rewritten": churn["bits_rewritten"],
        "bits_full": churn["bits_full"],
    }


def measure(n=N, messages=MESSAGES, events_levels=CHURN_EVENTS,
            probes=PROBES):
    """Sweep churn rates; each rate runs incremental and full-rebuild."""
    graph = gnp_random_graph(n, seed=83)
    ctx = get_context(graph)
    scheme = build_scheme("full-table", graph, IA_ALPHA, ctx=ctx)
    pairs = uniform_pairs(graph, messages, seed=1)
    clock = random.Random(5)
    times = [clock.uniform(0.0, HORIZON * 0.8) for _ in pairs]

    sweep = []
    for events in events_levels:
        schedule = random_churn(
            graph, events, horizon=HORIZON, seed=events + 1
        )
        # Probe endpoints must be live in the final topology (a node
        # that left keeps its label but has no links).
        final = schedule.final_graph(graph)
        live = [u for u in final.nodes if final.degree(u) > 0]
        probe_rng = random.Random(13)
        probe_pairs = [tuple(probe_rng.sample(live, 2)) for _ in range(probes)]
        probe_times = [
            probe_rng.uniform(PROBE_AT, PROBE_AT + 10.0) for _ in probe_pairs
        ]
        row = {}
        for mode, incremental in (("incremental", True), ("full", False)):
            metrics, probe_metrics, churn = _run_cell(
                scheme, schedule, pairs, times, probe_pairs, probe_times,
                incremental,
            )
            row[mode] = _cell_dict(metrics, probe_metrics, churn)
        sweep.append({"churn_events": events, "by_mode": row})
    return {
        "workload": {
            "n": n,
            "messages": messages,
            "probes": probes,
            "horizon": HORIZON,
            "repair_delay": REPAIR_DELAY,
            "probe_at": PROBE_AT,
            "scheme": "full-table",
            "churn_events": list(events_levels),
        },
        "sweep": sweep,
    }


def check(result) -> None:
    """The acceptance assertions over one measurement."""
    lowest = min(row["churn_events"] for row in result["sweep"])
    for row in result["sweep"]:
        events = row["churn_events"]
        for mode, cell in row["by_mode"].items():
            tag = f"{events} events, {mode}"
            # Every repair converged before the run drained.
            assert cell["converged"], f"{tag}: did not converge"
            # Post-convergence traffic is indistinguishable from a
            # freshly built scheme on the final topology.
            assert cell["probe_delivered_fraction"] == 1.0, (
                f"{tag}: probes delivered only "
                f"{cell['probe_delivered_fraction']:.2%}"
            )
            assert cell["probe_stale_deliveries"] == 0, (
                f"{tag}: {cell['probe_stale_deliveries']} probes routed "
                f"on stale tables after convergence"
            )
            assert cell["probe_routing_loops"] == 0, (
                f"{tag}: {cell['probe_routing_loops']} probe routing loops"
            )
            assert cell["probe_max_stretch"] == 1.0, (
                f"{tag}: probe stretch {cell['probe_max_stretch']} on the "
                f"post-churn metric"
            )
        incremental = row["by_mode"]["incremental"]
        full = row["by_mode"]["full"]
        # The control arm rebuilds everything, every repair.
        assert full["tables_reused"] == 0
        assert full["bits_rewritten"] == full["bits_full"]
        # Selective repair never rewrites more than a full rebuild...
        assert incremental["bits_rewritten"] <= incremental["bits_full"], (
            f"{events} events: incremental rewrote "
            f"{incremental['bits_rewritten']} of "
            f"{incremental['bits_full']} full-rebuild bits"
        )
        # ...and at the lowest churn rate it is strictly cheaper.
        if events == lowest:
            assert incremental["bits_rewritten"] < incremental["bits_full"], (
                f"{events} events: incremental repair saved nothing "
                f"({incremental['bits_rewritten']} bits)"
            )
            assert incremental["tables_reused"] > 0


def _bench_result(result) -> BenchResult:
    """Wrap one measurement as a schema-versioned, gateable artifact."""
    workload = result["workload"]
    manifest = RunManifest.capture(
        "bench:churn_convergence",
        seed=83,
        scheme=workload["scheme"],
        n=workload["n"],
        params=workload,
        graph=gnp_random_graph(workload["n"], seed=83),
    )
    lowest = min(result["sweep"], key=lambda row: row["churn_events"])
    incremental = lowest["by_mode"]["incremental"]
    probe_min = min(
        cell["probe_delivered_fraction"]
        for row in result["sweep"]
        for cell in row["by_mode"].values()
    )
    metrics = {
        # Post-convergence correctness is all-or-nothing: gate exactly.
        "probe_delivered_fraction_min": BenchMetric(
            probe_min, BetterDirection.HIGHER, tolerance=0.0
        ),
        # The headline saving: fraction of the full-rebuild bits the
        # incremental arm rewrote at the lowest churn rate.
        "incremental_rewrite_fraction_low_churn": BenchMetric(
            incremental["bits_rewritten"] / incremental["bits_full"],
            BetterDirection.LOWER,
            tolerance=0.10,
        ),
        "max_convergence_time_low_churn": BenchMetric(
            incremental["max_convergence_time"], unit="sim-time"
        ),
    }
    return BenchResult(
        bench="churn_convergence",
        manifest=manifest,
        workload=workload,
        metrics=metrics,
        extra={key: value for key, value in result.items()
               if key != "workload"},
    )


def _format(result) -> str:
    workload = result["workload"]
    lines = [
        f"Live topology churn on G({workload['n']}, 1/2), "
        f"{workload['messages']} messages over {workload['horizon']:g} "
        f"time units, repair {workload['repair_delay']:g} after each "
        f"mutation, {workload['probes']} post-convergence probes",
        "",
        "   events   mode           delivered   stale   conv(mean/max)"
        "   bits rewritten",
    ]
    for row in result["sweep"]:
        for mode in ("incremental", "full"):
            cell = row["by_mode"][mode]
            lines.append(
                f"   {row['churn_events']:6d}   {mode:<12s}"
                f"   {cell['delivered_fraction']:9.3f}"
                f"   {cell['stale_deliveries']:5d}"
                f"   {cell['mean_convergence_time']:6.2f}/"
                f"{cell['max_convergence_time']:<6.2f}"
                f"   {cell['bits_rewritten']:8d} / {cell['bits_full']}"
            )
    probe_total = sum(
        cell["probe_delivered_fraction"]
        for row in result["sweep"]
        for cell in row["by_mode"].values()
    )
    cells = sum(len(row["by_mode"]) for row in result["sweep"])
    lines += [
        "",
        f"  post-convergence probes delivered {probe_total / cells:.1%}",
        "  across every cell with zero stale hops, zero loops, and",
        "  stretch 1.0 on the post-churn metric; selective repair",
        "  rewrote strictly fewer bits than the full-rebuild control",
        "  arm at low churn.",
    ]
    return "\n".join(lines)


def test_churn_convergence(benchmark, write_result):
    result = benchmark.pedantic(measure, rounds=1, iterations=1)
    write_result("churn_convergence", _format(result))
    write_bench_result(_bench_result(result), DEFAULT_OUTPUT)
    check(result)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="Measure convergence and repair cost under live topology churn."
    )
    parser.add_argument(
        "--smoke", action="store_true",
        help="small graph, fewer churn levels and probes",
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
    levels = SMOKE_CHURN_EVENTS if smoke else CHURN_EVENTS
    probes = SMOKE_PROBES if smoke else PROBES
    started = time.perf_counter()
    result = measure(n, messages, levels, probes)
    bench = _bench_result(result)
    bench.manifest = bench.manifest.completed(time.perf_counter() - started)
    print(_format(result))
    write_bench_result(bench, output)
    print(f"\nresults written to {output}")
    check(result)
    print("assertions ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
