"""Command-line interface: ``python -m repro <command>``.

Commands
--------

``schemes``
    List the registered routing schemes.
``certify N``
    Sample G(N, 1/2) and check the Lemma 1–3 randomness properties.
``build SCHEME N``
    Build a scheme on a sampled graph and print its space report
    (optionally ``--save`` the packed scheme to a file).
``route SCHEME N SRC DST``
    Build and route one message, printing the path.
``verify SCHEME N``
    Route sampled pairs and report delivery/stretch.
``simulate SCHEME N``
    Push a workload through the timed kernel.  The fault axes are off by
    default and compose freely: static ``--failures/--node-failures``;
    a ``--schedule`` of flapping links, MTBF/MTTR renewal churn or
    correlated regional outages; seeded table corruption
    (``--corrupt-nodes``) with the detection-triggered self-healer
    (``--repair-delay``); live topology churn (``--events``) with
    incremental repair after ``--churn-repair-delay``, staggered at
    ``--repair-rate`` bits per time unit (``--full-rebuild`` forces the
    rebuild-everything control arm).  ``--framing`` charges a CRC/parity
    integrity layer on every table and ``--detour`` adds the bounce-once
    wrapper; ``--retries`` enables source retry with backoff.  With only
    static failures on, every message is injected at t=0; with any timed
    axis on, injections are uniform over the first 80% of ``--horizon``.
    Reports delivery, stretch, retries and the drop-reason breakdown,
    plus the corruption lifecycle (injected / detected / undetected /
    healed, integrity bits) and churn convergence (times, stale
    deliveries, bits rewritten vs. a full rebuild) when those axes are
    on.  ``--seed`` (default 0) seeds the graph, failure samples,
    schedules, workload, retry jitter and injection clock alike;
    ``--workers N`` runs seed replicas through the sweep driver.
``store put|get|list|verify|recover|compact``
    Crash-safe durable scheme store (``--dir`` names the store
    directory).  ``put`` builds a scheme and appends a CRC-framed,
    manifest-carrying record to the journal (``--hot-swap`` additionally
    read-back-verifies the stored bits and atomically switches the
    active generation); ``get`` fetches a generation (``--output`` saves
    the packed blob); ``list`` shows generations and active pointers;
    ``verify`` audits the disk with a fresh recovery pass plus a deep
    decode of every blob, exiting 1 on any damage; ``recover`` rebuilds
    the catalog — quarantining corrupt records, dropping the torn tail,
    falling back to the last good snapshot — and can emit the
    quarantine report (``--report``); ``compact`` snapshots the catalog
    atomically and resets the journal.
``codec NAME N``
    Run an incompressibility codec against a sampled or structured graph.
``trace-report TRACE``
    Summarize a ``--trace-out`` JSONL file: hot nodes, hop latency
    percentiles, and fault-window attribution of every drop.
``bench-report --baseline FILE --fresh FILE``
    Diff a fresh schema-versioned bench artifact against a committed
    baseline and exit non-zero on any gated-metric regression beyond the
    per-metric (or ``--threshold``) tolerance — the CI regression gate.
``lint [PATH ...]``
    Run the repo-specific AST linter, one pass over each file: rules
    R001–R004 and R006–R009 (bit-accounting integrality, taxonomy
    exhaustiveness, tracer guards, seeded RNGs, exception hygiene,
    public annotations, mutable defaults, context-routed derivations)
    and the suppression audit R014.  ``--list-rules`` prints the
    catalogue; ``--format json``/``--output`` emit the structured report.

Observability flags: ``simulate`` and ``build`` accept ``--trace-out
FILE`` (hop-level JSONL spans), ``--metrics-out FILE`` (metrics-registry
dump — JSON, or Prometheus text when the file ends in ``.prom``), and
``simulate`` accepts ``--json`` for machine-readable
:class:`RoutingMetrics` on stdout.

Every artifact-writing invocation captures a
:class:`~repro.observability.manifest.RunManifest` (git sha, seeds, graph
fingerprint, toolchain versions, wall time) and embeds it in the trace
file (first JSONL row), the metrics dump (``manifest`` key, or a
``# manifest:`` comment in Prometheus text) and the ``--json`` summary,
so any emitted number is traceable to the exact run that produced it.

All sampling is seeded (``--seed``) and therefore reproducible.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
import time as _time
from typing import Dict, Optional, Sequence

from repro.core import (
    available_schemes,
    build_scheme,
    default_model,
    route_message,
    verify_scheme,
)
from repro.core.persistence import pack_scheme
from repro.errors import ReproError
from repro.graphs import (
    certify_random_graph,
    cycle_graph,
    gnp_random_graph,
    path_graph,
    randomness_deficiency,
    star_graph,
)
from repro.incompressibility import (
    Lemma1Codec,
    Lemma2Codec,
    Lemma3Codec,
    evaluate_codec,
)
from repro.integrity import FramingPolicy
from repro.models import Knowledge, Labeling, RoutingModel
from repro.observability import (
    JsonlTracer,
    RunManifest,
    TraceDecodeError,
    compare_runs,
    format_trace_report,
    get_registry,
    load_bench_result,
    read_trace,
    summarize_trace,
)
from repro.observability.bench import format_comparison as _format_bench_diff
from repro.simulator import (
    DeliveryRecord,
    RoutingMetrics,
    retry_histogram,
    summarize,
)
from repro.simulator.sweep import (
    CHURN_KINDS,
    MUTATIONS,
    SCHEDULES,
    WORKLOADS,
    Run,
    SweepTask,
    build_run,
    run_sweep,
    seed_replicas,
)
from repro.store import LocalFilesystem, SchemeStore

__all__ = ["main", "parse_model"]

_CODECS = {
    "lemma1": Lemma1Codec,
    "lemma2": Lemma2Codec,
    "lemma3": Lemma3Codec,
}

_STRUCTURED = {
    "random": None,  # handled via gnp
    "path": path_graph,
    "cycle": cycle_graph,
    "star": star_graph,
}


def parse_model(text: str) -> RoutingModel:
    """Parse ``II.alpha`` / ``ia.gamma`` style model names."""
    try:
        knowledge_text, labeling_text = text.split(".")
        knowledge = Knowledge[knowledge_text.upper()]
        labeling = Labeling[labeling_text.upper()]
    except (ValueError, KeyError) as exc:
        raise argparse.ArgumentTypeError(
            f"model must look like II.alpha (one of IA/IB/II and "
            f"alpha/beta/gamma), got {text!r}"
        ) from exc
    return RoutingModel(knowledge, labeling)


def _make_graph(kind: str, n: int, seed: int):
    if kind == "random":
        return gnp_random_graph(n, seed=seed)
    return _STRUCTURED[kind](n)


def _add_observability_flags(
    parser: argparse.ArgumentParser, json_flag: bool = True
) -> None:
    parser.add_argument(
        "--trace-out", type=str, default=None, metavar="FILE",
        help="write hop-level trace spans to this JSONL file",
    )
    parser.add_argument(
        "--metrics-out", type=str, default=None, metavar="FILE",
        help="dump the metrics registry here (JSON, or Prometheus text "
             "for a .prom file)",
    )
    if json_flag:
        parser.add_argument(
            "--json", action="store_true",
            help="print machine-readable RoutingMetrics JSON instead of text",
        )


def _run_manifest(args: argparse.Namespace, graph=None) -> RunManifest:
    """One RunManifest per CLI invocation, embedded in every artifact."""
    params = {
        key: value
        for key, value in vars(args).items()
        if key != "command"
    }
    command = args.command
    if getattr(args, "store_command", None):
        command = f"store-{args.store_command}"
    return RunManifest.capture(
        command=command,
        seed=getattr(args, "seed", None),
        scheme=getattr(args, "scheme", None),
        n=getattr(args, "n", None),
        params=params,
        graph=graph,
    )


def _open_tracer(
    args: argparse.Namespace, manifest: RunManifest
) -> Optional[JsonlTracer]:
    if getattr(args, "trace_out", None):
        return JsonlTracer(args.trace_out, manifest=manifest)
    return None


def _write_metrics_out(
    args: argparse.Namespace, manifest: RunManifest
) -> None:
    path = getattr(args, "metrics_out", None)
    if not path:
        return
    registry = get_registry()
    if path.endswith(".prom"):
        text = (
            f"# manifest: {manifest.to_json()}\n" + registry.to_prometheus()
        )
    else:
        text = json.dumps(
            {"manifest": manifest.to_dict(), "metrics": registry.snapshot()},
            indent=2,
            sort_keys=True,
        ) + "\n"
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(text)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Optimal Routing Tables (PODC 1996), executable.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("schemes", help="list registered routing schemes")

    certify = sub.add_parser("certify", help="certify a sampled random graph")
    certify.add_argument("n", type=int)
    certify.add_argument("--seed", type=int, default=0)
    certify.add_argument("--c", type=float, default=3.0)

    build = sub.add_parser("build", help="build a scheme and report its size")
    build.add_argument("scheme", choices=available_schemes())
    build.add_argument("n", type=int)
    build.add_argument("--seed", type=int, default=0)
    build.add_argument("--model", type=parse_model, default=None)
    build.add_argument("--save", type=str, default=None,
                       help="write the packed scheme blob to this file")
    _add_observability_flags(build, json_flag=False)

    route = sub.add_parser("route", help="route one message")
    route.add_argument("scheme", choices=available_schemes())
    route.add_argument("n", type=int)
    route.add_argument("source", type=int)
    route.add_argument("destination", type=int)
    route.add_argument("--seed", type=int, default=0)
    route.add_argument("--model", type=parse_model, default=None)

    verify = sub.add_parser("verify", help="verify delivery and stretch")
    verify.add_argument("scheme", choices=available_schemes())
    verify.add_argument("n", type=int)
    verify.add_argument("--seed", type=int, default=0)
    verify.add_argument("--pairs", type=int, default=500)
    verify.add_argument("--model", type=parse_model, default=None)

    simulate = sub.add_parser(
        "simulate",
        help="run a workload through the timed kernel under any mix of "
             "static failures, a fault schedule, table corruption and "
             "live topology churn (every axis off by default)",
    )
    simulate.add_argument("scheme", choices=available_schemes())
    simulate.add_argument("n", type=int)
    simulate.add_argument(
        "--seed", type=int, default=0,
        help="seeds the graph, failure samples, schedules, workload, retry "
             "jitter and injection clock (default: 0)",
    )
    simulate.add_argument("--model", type=parse_model, default=None)
    simulate.add_argument("--messages", type=int, default=200)
    simulate.add_argument("--workload", choices=WORKLOADS, default="uniform")
    static = simulate.add_argument_group("static failures")
    static.add_argument("--failures", type=int, default=0,
                        help="number of links to fail")
    static.add_argument("--node-failures", type=int, default=0,
                        help="number of nodes to crash")
    chaos = simulate.add_argument_group("fault schedule")
    chaos.add_argument("--schedule", choices=SCHEDULES, default="none",
                       help="fault-schedule generator (default: none)")
    chaos.add_argument(
        "--horizon", type=float, default=100.0,
        help="schedule horizon in simulated time units; with any timed "
             "axis on, messages are injected over its first 80%%",
    )
    chaos.add_argument("--chaos-links", type=int, default=None,
                       help="links under churn (default: half the edges)")
    chaos.add_argument("--chaos-nodes", type=int, default=0,
                       help="nodes under churn (renewal schedule only)")
    chaos.add_argument("--period", type=float, default=10.0,
                       help="flapping: down/up cycle length")
    chaos.add_argument("--duty", type=float, default=0.5,
                       help="flapping: fraction of each cycle spent down")
    chaos.add_argument("--mtbf", type=float, default=20.0,
                       help="renewal: mean time between failures")
    chaos.add_argument("--mttr", type=float, default=5.0,
                       help="renewal: mean time to repair")
    chaos.add_argument("--regions", type=int, default=2,
                       help="regional: number of correlated outages")
    chaos.add_argument("--radius", type=int, default=1,
                       help="regional: hop radius of each outage")
    chaos.add_argument("--outage", type=float, default=20.0,
                       help="regional: outage duration")
    corruption = simulate.add_argument_group("table corruption")
    corruption.add_argument(
        "--corrupt-nodes", type=int, default=0,
        help="how many distinct nodes suffer a table corruption (0 = off)",
    )
    corruption.add_argument(
        "--mutation", choices=tuple(MUTATIONS), default="bit-flip",
        help="damage model applied to the packed function bits",
    )
    corruption.add_argument("--flips", type=int, default=1,
                            help="bit-flip: independent flips per corruption")
    corruption.add_argument("--burst-span", type=int, default=8,
                            help="burst: contiguous bits flipped")
    corruption.add_argument("--truncate-bits", type=int, default=4,
                            help="truncate: trailing bits dropped")
    corruption.add_argument(
        "--repair-delay", type=float, default=10.0,
        help="self-heal rebuilds a table this long after detection "
             "(0 or negative disables healing)",
    )
    wrappers = simulate.add_argument_group("scheme wrappers")
    wrappers.add_argument(
        "--framing",
        choices=tuple(policy.value for policy in FramingPolicy),
        default=FramingPolicy.NONE.value,
        help="integrity framing charged on every table (default: none)",
    )
    wrappers.add_argument(
        "--detour", action="store_true",
        help="wrap the scheme in the bounce-once DetourWrapper "
             "(composes outside the integrity framing)",
    )
    churn = simulate.add_argument_group("live topology churn")
    churn.add_argument(
        "--events", type=int, default=0,
        help="topology mutations scheduled over the horizon (0 = off)",
    )
    churn.add_argument(
        "--kinds", choices=tuple(CHURN_KINDS), default="edges",
        help="mutation mix: edge add/remove, node leave/join, or all four",
    )
    churn.add_argument(
        "--churn-repair-delay", type=float, default=5.0,
        help="repair planning starts this long after a mutation "
             "(coalescing mutations that land in the window)",
    )
    churn.add_argument(
        "--repair-rate", type=float, default=None,
        help="stagger table installs at this many bits per time unit "
             "(default: install the whole repair plan instantly)",
    )
    churn.add_argument(
        "--full-rebuild", action="store_true",
        help="rebuild every table on each repair instead of only the "
             "dirtied ones (the control arm incremental repair is "
             "measured against)",
    )
    retry = simulate.add_argument_group("retries")
    retry.add_argument("--retries", type=int, default=0,
                       help="max re-transmissions per message (0 = none)")
    retry.add_argument("--backoff-base", type=float, default=1.0,
                       help="base retry backoff delay")
    retry.add_argument("--backoff-multiplier", type=float, default=2.0,
                       help="exponential backoff growth factor per retry")
    retry.add_argument("--max-delay", type=float, default=60.0,
                       help="cap on any single backoff delay")
    retry.add_argument("--jitter", type=float, default=0.1,
                       help="+/- fraction of seeded jitter on each delay")
    simulate.add_argument(
        "--workers", type=int, default=1, metavar="N",
        help="run N seed replicas (seed..seed+N-1) through the "
             "multiprocessing sweep driver and print aggregate results "
             "(--trace-out and --metrics-out are rejected)",
    )
    _add_observability_flags(simulate)

    codec = sub.add_parser("codec", help="run an incompressibility codec")
    codec.add_argument("name", choices=sorted(_CODECS))
    codec.add_argument("n", type=int)
    codec.add_argument("--seed", type=int, default=0)
    codec.add_argument("--graph", choices=sorted(_STRUCTURED), default="random")

    compare = sub.add_parser(
        "compare", help="build every scheme on one graph and tabulate"
    )
    compare.add_argument("n", type=int)
    compare.add_argument("--seed", type=int, default=0)
    compare.add_argument("--pairs", type=int, default=300)

    bootstrap = sub.add_parser(
        "bootstrap", help="simulate disseminating a scheme's tables"
    )
    bootstrap.add_argument("scheme", choices=available_schemes())
    bootstrap.add_argument("n", type=int)
    bootstrap.add_argument("--seed", type=int, default=0)
    bootstrap.add_argument("--model", type=parse_model, default=None)
    bootstrap.add_argument("--root", type=int, default=1)
    bootstrap.add_argument("--rate", type=float, default=10_000.0,
                           help="link rate in bits per time unit")

    report = sub.add_parser(
        "report",
        help="aggregate benchmarks/results/*.txt into one reproduction report",
    )
    report.add_argument(
        "--results-dir", type=str, default="benchmarks/results",
    )
    report.add_argument("--output", type=str, default=None,
                        help="write the report here instead of stdout")

    lint = sub.add_parser(
        "lint",
        help="run the repo-specific AST linter over source paths",
    )
    lint.add_argument(
        "paths", nargs="*", default=["src"], metavar="PATH",
        help="files or directories to lint (default: src)",
    )
    lint.add_argument(
        "--format", choices=("text", "json"), default="text",
        help="findings rendering (default: text)",
    )
    lint.add_argument(
        "--output", type=str, default=None, metavar="FILE",
        help="also write the JSON report to this file",
    )
    lint.add_argument(
        "--select", type=str, default=None, metavar="IDS",
        help="comma-separated rule ids to run (default: all)",
    )
    lint.add_argument(
        "--fail-on", choices=("error", "warning", "never"), default="warning",
        help="lowest severity that fails the build (default: warning, "
             "i.e. any finding)",
    )
    lint.add_argument(
        "--list-rules", action="store_true",
        help="print the rule catalogue and exit",
    )

    bench_report = sub.add_parser(
        "bench-report",
        help="diff a fresh bench artifact against a committed baseline "
             "and exit non-zero on gated-metric regressions",
    )
    bench_report.add_argument(
        "--baseline", type=str, required=True, metavar="FILE",
        help="committed schema-versioned BENCH_*.json baseline",
    )
    bench_report.add_argument(
        "--fresh", type=str, required=True, metavar="FILE",
        help="freshly generated bench artifact to judge",
    )
    bench_report.add_argument(
        "--threshold", type=float, default=0.10,
        help="default relative tolerance for metrics that declare none "
             "(default: 0.10)",
    )
    bench_report.add_argument(
        "--json", action="store_true",
        help="print the comparison as JSON instead of the table",
    )
    bench_report.add_argument(
        "--output", type=str, default=None, metavar="FILE",
        help="also write the comparison JSON (with manifest) here",
    )

    store = sub.add_parser(
        "store",
        help="crash-safe durable scheme store: journaled puts, snapshots, "
             "verified hot-swap, audited recovery",
    )
    store_sub = store.add_subparsers(dest="store_command", required=True)

    store_put = store_sub.add_parser(
        "put", help="build a scheme and durably store a new generation"
    )
    store_put.add_argument("scheme", choices=available_schemes())
    store_put.add_argument("n", type=int)
    store_put.add_argument("--dir", type=str, required=True, metavar="DIR",
                           help="store directory (created on first use)")
    store_put.add_argument("--seed", type=int, default=0)
    store_put.add_argument("--model", type=parse_model, default=None)
    store_put.add_argument("--name", type=str, default=None,
                           help="store key (default: the scheme name)")
    store_put.add_argument(
        "--hot-swap", action="store_true",
        help="verified hot-swap: store, read back bit-exact, then switch "
             "the active generation (failure leaves the old one serving)",
    )
    store_put.add_argument(
        "--snapshot-every", type=int, default=8,
        help="compact into a snapshot after this many puts (default: 8)",
    )
    _add_observability_flags(store_put, json_flag=False)

    store_get = store_sub.add_parser(
        "get", help="fetch a stored generation (active by default)"
    )
    store_get.add_argument("name", type=str, help="store key")
    store_get.add_argument("--dir", type=str, required=True, metavar="DIR")
    store_get.add_argument("--generation", type=int, default=None)
    store_get.add_argument("--output", type=str, default=None, metavar="FILE",
                           help="write the packed scheme blob to this file")

    store_list = store_sub.add_parser(
        "list", help="list stored schemes, generations and active pointers"
    )
    store_list.add_argument("--dir", type=str, required=True, metavar="DIR")
    store_list.add_argument("--json", action="store_true")

    store_verify = store_sub.add_parser(
        "verify",
        help="audit the disk: fresh recovery pass + deep blob decode, "
             "diffed against the catalog (exit 1 on any damage)",
    )
    store_verify.add_argument("--dir", type=str, required=True, metavar="DIR")
    store_verify.add_argument("--json", action="store_true")

    store_recover = store_sub.add_parser(
        "recover",
        help="rebuild the catalog from disk, quarantining damaged records "
             "and falling back to the last good snapshot",
    )
    store_recover.add_argument("--dir", type=str, required=True, metavar="DIR")
    store_recover.add_argument("--json", action="store_true")
    store_recover.add_argument(
        "--report", type=str, default=None, metavar="FILE",
        help="write the quarantine/recovery report JSON here (CI artifact)",
    )
    _add_observability_flags(store_recover, json_flag=False)

    store_compact = store_sub.add_parser(
        "compact",
        help="snapshot the catalog atomically and reset the journal",
    )
    store_compact.add_argument("--dir", type=str, required=True, metavar="DIR")

    trace_report = sub.add_parser(
        "trace-report",
        help="summarize a --trace-out JSONL file (hot nodes, hop latency "
             "percentiles, fault-window drop attribution)",
    )
    trace_report.add_argument("trace", type=str, help="JSONL trace file")
    trace_report.add_argument("--top", type=int, default=10,
                              help="how many hot nodes / fault subjects to list")
    trace_report.add_argument("--json", action="store_true",
                              help="print the summary as JSON")
    return parser


def _cmd_schemes(_: argparse.Namespace) -> int:
    for name in available_schemes():
        print(name)
    return 0


def _cmd_certify(args: argparse.Namespace) -> int:
    graph = gnp_random_graph(args.n, seed=args.seed)
    cert = certify_random_graph(graph, c=args.c)
    print(f"G({args.n}, 1/2) seed {args.seed}: {graph.edge_count} edges")
    print(f"  degrees within Lemma 1 band : {cert.degrees_in_band} "
          f"(max deviation {cert.max_degree_deviation}, "
          f"scale {cert.lemma1_scale:.1f})")
    print(f"  diameter 2 (Lemma 2)        : {cert.diameter_two}")
    print(f"  cover prefix (Lemma 3)      : {cert.max_cover_prefix} "
          f"<= {cert.lemma3_scale:.1f}: {cert.cover_within_bound}")
    print(f"  estimated deficiency        : {randomness_deficiency(graph)} bits")
    print(f"  certified                   : {cert.certified}")
    return 0 if cert.certified else 1


def _cmd_build(args: argparse.Namespace) -> int:
    started = _time.perf_counter()
    model = args.model or default_model(args.scheme)
    graph = gnp_random_graph(args.n, seed=args.seed)
    manifest = _run_manifest(args, graph)
    scheme = build_scheme(args.scheme, graph, model)
    report = scheme.space_report()
    print(report.summary())
    if args.save:
        blob = pack_scheme(scheme)
        with open(args.save, "wb") as handle:
            handle.write(blob)
        print(f"packed scheme written to {args.save} ({len(blob)} bytes)")
    manifest = manifest.completed(_time.perf_counter() - started)
    if args.trace_out:
        # Builds emit no hop spans; a manifest-only trace file beats a
        # surprising missing one when scripts pass the flag uniformly.
        JsonlTracer(args.trace_out, manifest=manifest).close()
    _write_metrics_out(args, manifest)
    if args.metrics_out:
        print(f"metrics written to {args.metrics_out}")
    return 0


def _cmd_route(args: argparse.Namespace) -> int:
    model = args.model or default_model(args.scheme)
    graph = gnp_random_graph(args.n, seed=args.seed)
    scheme = build_scheme(args.scheme, graph, model)
    trace = route_message(scheme, args.source, args.destination)
    print(" -> ".join(map(str, trace.path)))
    print(f"{trace.hops} hops")
    return 0


def _cmd_verify(args: argparse.Namespace) -> int:
    model = args.model or default_model(args.scheme)
    graph = gnp_random_graph(args.n, seed=args.seed)
    scheme = build_scheme(args.scheme, graph, model)
    result = verify_scheme(scheme, sample_pairs=args.pairs, seed=args.seed)
    print(f"pairs: {result.pairs_checked}  delivered: {result.delivered}  "
          f"max stretch: {result.max_stretch:.2f}  "
          f"bound: {scheme.stretch_bound():.2f}  ok: {result.ok()}")
    return 0 if result.ok() else 1


def _task_of(args: argparse.Namespace) -> SweepTask:
    """The run description ``simulate``'s flags spell out."""
    return SweepTask(**{
        field.name: getattr(args, field.name)
        for field in dataclasses.fields(SweepTask)
        if hasattr(args, field.name)
    })


def _cmd_sweep_replicas(args: argparse.Namespace, task: SweepTask) -> int:
    """Shard ``--workers`` seed replicas of one run over worker processes.

    Replica ``k`` is the single run's task with ``seed + k`` on the same
    graph, built by the same builder, so replica 0 reproduces the single
    run.  Trace and metrics files are the only per-run artifacts a
    replica cannot write.  Records never cross the process boundary, only
    per-replica aggregates and record digests.
    """
    for flag in ("trace_out", "metrics_out"):
        if getattr(args, flag):
            print(f"--workers sweeps cannot forward --"
                  f"{flag.replace('_', '-')}; run a single replica for it",
                  file=sys.stderr)
            return 2
    results = run_sweep(seed_replicas(task, args.workers), workers=args.workers)
    if args.json:
        payload = [
            {
                "seed": result.task.seed,
                "messages": result.messages,
                "delivered": result.delivered,
                "dropped": result.dropped,
                "retries": result.retries,
                "stale": result.stale,
                "drop_reasons": dict(result.drop_reasons),
                "record_digest": result.record_digest,
            }
            for result in results
        ]
        print(json.dumps(payload, indent=2, sort_keys=True))
        return 0
    total = sum(r.messages for r in results)
    delivered = sum(r.delivered for r in results)
    print(f"{args.scheme} on G({args.n}, 1/2) x{args.workers} seed "
          f"replicas ({total} messages)")
    for result in results:
        print(f"  seed {result.task.seed}: {result.delivered}/"
              f"{result.messages} delivered, {result.retries} retries, "
              f"digest {result.record_digest[:12]}")
    fraction = delivered / total if total else 0.0
    print(f"aggregate: {delivered}/{total} delivered ({fraction:.1%})")
    return 0


def _axis_blocks(run: Run) -> Dict[str, dict]:
    """The corruption/churn lifecycle blocks of a finished run."""
    task = run.task
    blocks: Dict[str, dict] = {}
    if run.corruption is not None:
        blocks["corruption"] = {
            "framing": task.framing,
            "scheduled": len(run.corruption),
            "repair_delay": task.heal_delay,
            "integrity_bits": run.scheme.space_report().integrity_bits,
            **run.kernel.network.corruption_summary(),
        }
    if run.churn is not None:
        blocks["churn"] = {
            "scheduled": len(run.churn),
            "kinds": task.kinds,
            "repair_delay": task.churn_repair_delay,
            "repair_rate": task.repair_rate,
            "incremental": not task.full_rebuild,
            **run.kernel.churn_summary(),
        }
    return blocks


def _print_run(
    run: Run,
    metrics: RoutingMetrics,
    records: Sequence[DeliveryRecord],
    blocks: Dict[str, dict],
) -> None:
    task = run.task
    axes = []
    if task.failures or task.node_failures:
        axes.append(f"{task.failures} failed links, "
                    f"{task.node_failures} crashed nodes")
    if run.faults is not None:
        axes.append(f"{task.schedule} fault schedule "
                    f"({len(run.faults)} events)")
    if run.corruption is not None:
        axes.append(f"table corruption ({len(run.corruption)} scheduled)")
    if run.churn is not None:
        mode = "full-rebuild" if task.full_rebuild else "incremental"
        axes.append(f"live topology churn ({len(run.churn)} mutations, "
                    f"{mode} repair)")
    if task.timed:
        axes.append(f"horizon {task.horizon:g}")
    print(f"{run.scheme.scheme_name} on G({task.n}, 1/2): "
          f"{'; '.join(axes) or 'no faults'}")
    corruption = blocks.get("corruption")
    if corruption is not None:
        print(f"integrity framing: {corruption['framing']} "
              f"({corruption['integrity_bits']} bits total overhead)")
        print(f"corruption lifecycle: {corruption['injected']} injected, "
              f"{corruption['detected']} detected, "
              f"{corruption['undetected']} undetected, "
              f"{corruption['healed']} healed")
    churn = blocks.get("churn")
    if churn is not None:
        times = churn["convergence_times"]
        converged = "yes" if churn["converged"] else "NO"
        print(f"churn lifecycle: {churn['mutations']} applied, "
              f"{churn['repairs']} repairs, converged: {converged}")
        if times:
            print(f"  convergence time: mean {sum(times) / len(times):.2f}, "
                  f"max {max(times):.2f}")
        print(f"  tables rebuilt: {churn['tables_rebuilt']} "
              f"(reused {churn['tables_reused']})  "
              f"bits rewritten: {churn['bits_rewritten']} "
              f"of {churn['bits_full']} a full rebuild would touch")
    stale = (
        f"  stale deliveries: {metrics.stale_deliveries}" if churn else ""
    )
    print(f"messages: {metrics.messages}  delivered: {metrics.delivered} "
          f"({metrics.delivered_fraction:.1%}){stale}")
    if metrics.delivered:
        print(f"mean hops: {metrics.mean_hops:.2f}  "
              f"mean stretch: {metrics.mean_stretch:.2f}  "
              f"max stretch: {metrics.max_stretch:.2f}  "
              f"mean time-to-delivery: {metrics.mean_time_to_delivery:.2f}")
    print(f"retries: {metrics.total_retries} total, "
          f"{metrics.mean_retries:.2f} per message")
    histogram = retry_histogram(records)
    if len(histogram) > 1:
        spread = "  ".join(
            f"{count}x{retries}r" for retries, count in sorted(histogram.items())
        )
        print(f"  retry histogram: {spread}")
    for reason, count in sorted(metrics.drop_reasons.items()):
        print(f"  dropped ({count}): {reason.value}")


def _cmd_simulate(args: argparse.Namespace) -> int:
    task = _task_of(args)
    if args.workers != 1:
        return _cmd_sweep_replicas(args, task)
    started = _time.perf_counter()
    graph = task.graph()
    manifest = _run_manifest(args, graph)
    tracer = _open_tracer(args, manifest)
    run = build_run(task, tracer=tracer, graph=graph)
    records = run.kernel.run()
    if tracer is not None:
        tracer.close()
    # Stretch is judged against the live topology: under churn that is
    # the graph the converged scheme routes on.
    metrics = summarize(records, run.kernel.network.live_graph)
    blocks = _axis_blocks(run)
    manifest = manifest.completed(_time.perf_counter() - started)
    _write_metrics_out(args, manifest)
    if args.json:
        payload = metrics.to_dict()
        payload.update(blocks)
        payload["scheme"] = args.scheme
        payload["n"] = args.n
        payload["seed"] = args.seed
        payload["retry_histogram"] = {
            str(retries): count
            for retries, count in sorted(retry_histogram(records).items())
        }
        payload["manifest"] = manifest.to_dict()
        print(json.dumps(payload, indent=2, sort_keys=True))
        return 0
    _print_run(run, metrics, records, blocks)
    return 0


def _cmd_codec(args: argparse.Namespace) -> int:
    graph = _make_graph(args.graph, args.n, args.seed)
    codec = _CODECS[args.name]()
    try:
        report = evaluate_codec(codec, graph)
    except ReproError as exc:
        print(f"{codec.name}: inapplicable — {exc}")
        return 1
    print(f"{codec.name} on {args.graph} graph (n={args.n}):")
    print(f"  baseline E(G): {report.baseline_bits} bits")
    print(f"  encoded      : {report.encoded_bits} bits")
    print(f"  savings      : {report.savings} bits")
    print(f"  round trip   : {report.round_trip_ok}")
    return 0


def _cmd_compare(args: argparse.Namespace) -> int:
    from repro.analysis import compare_schemes, format_comparison

    graph = gnp_random_graph(args.n, seed=args.seed)
    rows = compare_schemes(graph, sample_pairs=args.pairs, seed=args.seed)
    print(f"G({args.n}, 1/2) seed {args.seed}: {graph.edge_count} edges\n")
    print(format_comparison(rows))
    return 0


def _cmd_bootstrap(args: argparse.Namespace) -> int:
    from repro.simulator import simulate_dissemination

    model = args.model or default_model(args.scheme)
    graph = gnp_random_graph(args.n, seed=args.seed)
    scheme = build_scheme(args.scheme, graph, model)
    result = simulate_dissemination(
        scheme, root=args.root, link_rate_bits=args.rate
    )
    print(f"{args.scheme} on G({args.n}, 1/2): "
          f"{result.total_payload_bits} payload bits")
    print(f"  control traffic : {result.total_bit_hops} bit-hops")
    print(f"  boot makespan   : {result.makespan:.2f} time units")
    print(f"  mean install    : {result.mean_install_time:.2f} time units")
    return 0


def _cmd_report(args: argparse.Namespace) -> int:
    import pathlib

    results_dir = pathlib.Path(args.results_dir)
    if not results_dir.is_dir():
        print(
            f"error: {results_dir} not found — run "
            f"`pytest benchmarks/ --benchmark-only` first",
            file=sys.stderr,
        )
        return 2
    blocks = []
    for path in sorted(results_dir.glob("*.txt")):
        title = path.stem.replace("_", " ")
        blocks.append(f"## {title}\n\n```\n{path.read_text().rstrip()}\n```")
    if not blocks:
        print(f"error: no result files in {results_dir}", file=sys.stderr)
        return 2
    text = (
        "# Reproduction report — Optimal Routing Tables (PODC 1996)\n\n"
        + "\n\n".join(blocks)
        + "\n"
    )
    if args.output:
        with open(args.output, "w") as handle:
            handle.write(text)
        print(f"report written to {args.output} ({len(blocks)} experiments)")
    else:
        print(text)
    return 0


def _cmd_lint(args: argparse.Namespace) -> int:
    # Imported lazily: the linter is a dev-facing subsystem and the other
    # subcommands should not pay for loading the rule registry.
    from repro.analysis.lint import (
        Severity,
        all_rules,
        describe_rules,
        lint_paths,
        render_json,
        render_text,
        rule_by_id,
    )

    if args.list_rules:
        print(describe_rules())
        return 0
    if args.select:
        try:
            active = tuple(
                rule_by_id(rule_id.strip())
                for rule_id in args.select.split(",")
                if rule_id.strip()
            )
        except KeyError as exc:
            known = ", ".join(rule.rule_id for rule in all_rules())
            print(
                f"error: unknown rule id {exc.args[0]!r}; known: {known}",
                file=sys.stderr,
            )
            return 2
    else:
        active = None
    result = lint_paths(args.paths, active_rules=active)
    if result.files_checked == 0:
        print(
            "error: no Python files found under: "
            + " ".join(args.paths),
            file=sys.stderr,
        )
        return 2
    if args.format == "json":
        print(render_json(result))
    else:
        print(render_text(result))
    if args.output:
        with open(args.output, "w", encoding="utf-8") as handle:
            handle.write(render_json(result))
            handle.write("\n")
    if any(f.rule_id == "R000" for f in result.findings):
        # Unreadable or unparseable input: a structured diagnostic, and a
        # usage-style exit code — the run could not honestly complete.
        return 2
    worst = result.worst_severity()
    if worst is None or args.fail_on == "never":
        return 0
    if args.fail_on == "error" and worst is not Severity.ERROR:
        return 0
    return 1


def _cmd_bench_report(args: argparse.Namespace) -> int:
    started = _time.perf_counter()
    try:
        baseline = load_bench_result(args.baseline)
        fresh = load_bench_result(args.fresh)
    except FileNotFoundError as exc:
        print(f"error: bench artifact not found: {exc.filename}",
              file=sys.stderr)
        return 2
    report = compare_runs(
        baseline, fresh, default_tolerance=args.threshold
    )
    manifest = _run_manifest(args).completed(_time.perf_counter() - started)
    payload = {"manifest": manifest.to_dict(), **report.to_dict()}
    if args.json:
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        print(_format_bench_diff(report))
    if args.output:
        with open(args.output, "w", encoding="utf-8") as handle:
            json.dump(payload, handle, indent=2, sort_keys=True)
            handle.write("\n")
    return 0 if report.ok() else 1


def _cmd_trace_report(args: argparse.Namespace) -> int:
    try:
        events = read_trace(args.trace)
    except FileNotFoundError:
        print(f"error: trace file {args.trace} not found", file=sys.stderr)
        return 2
    except (TraceDecodeError, ValueError, TypeError) as exc:
        print(f"error: malformed trace {args.trace}: {exc}", file=sys.stderr)
        return 2
    summary = summarize_trace(events, top=args.top)
    if args.json:
        print(json.dumps(summary.to_dict(), indent=2, sort_keys=True))
    else:
        print(format_trace_report(summary))
    return 0


def _store_put(args: argparse.Namespace) -> int:
    started = _time.perf_counter()
    model = args.model or default_model(args.scheme)
    graph = gnp_random_graph(args.n, seed=args.seed)
    manifest = _run_manifest(args, graph)
    scheme = build_scheme(args.scheme, graph, model)
    blob = pack_scheme(scheme)
    name = args.name or args.scheme
    tracer = _open_tracer(args, manifest)
    store = SchemeStore.open(
        LocalFilesystem(args.dir),
        snapshot_every=args.snapshot_every,
        tracer=tracer,
    )
    manifest = manifest.completed(_time.perf_counter() - started)
    if args.hot_swap:
        generation = store.hot_swap(name, blob, manifest=manifest.to_dict())
        action = "hot-swapped"
    else:
        generation = store.put(name, blob, manifest=manifest.to_dict())
        action = "stored"
    if tracer is not None:
        tracer.close()
    _write_metrics_out(args, manifest)
    print(f"{action} {name}@{generation} ({8 * len(blob)} bits, "
          f"active generation {store.active_generation(name)})")
    return 0


def _store_get(args: argparse.Namespace) -> int:
    store = SchemeStore.open(LocalFilesystem(args.dir))
    entry = store.get(args.name, args.generation)
    if args.output:
        with open(args.output, "wb") as handle:
            handle.write(entry.blob)
        print(f"{entry.name}@{entry.generation} ({entry.blob_bits} bits) "
              f"written to {args.output}")
    else:
        print(f"{entry.name}@{entry.generation}: {entry.blob_bits} bits, "
              f"manifest {'present' if entry.manifest else 'absent'}")
    return 0


def _store_list(args: argparse.Namespace) -> int:
    store = SchemeStore.open(LocalFilesystem(args.dir))
    rows = store.list()
    if args.json:
        print(json.dumps(rows, indent=2, sort_keys=True))
        return 0
    if not rows:
        print("store is empty")
        return 0
    for row in rows:
        generations = ", ".join(map(str, row["generations"]))
        print(f"{row['name']}: active @{row['active_generation']} "
              f"({row['active_blob_bits']} bits), generations [{generations}]")
    return 0


def _store_verify(args: argparse.Namespace) -> int:
    # Read-only audit: recover WITHOUT self-healing, so damage on disk is
    # reported instead of silently compacted away before we look at it.
    store = SchemeStore(LocalFilesystem(args.dir))
    store.recover(heal=False)
    report = store.verify()
    if args.json:
        print(json.dumps(report, indent=2, sort_keys=True))
    elif report["ok"]:
        print(f"store verified clean "
              f"({report['recovery']['records_replayed']} records, "
              f"{len(store.list())} schemes)")
    else:
        print(f"store verification FAILED ({len(report['problems'])} problems):")
        for problem in report["problems"]:
            print(f"  - {problem}")
    return 0 if report["ok"] else 1


def _store_recover(args: argparse.Namespace) -> int:
    manifest = _run_manifest(args)
    tracer = _open_tracer(args, manifest)
    store = SchemeStore.open(LocalFilesystem(args.dir), tracer=tracer)
    report = store.last_recovery
    assert report is not None  # open() always recovers
    if tracer is not None:
        tracer.close()
    _write_metrics_out(args, manifest)
    if args.report:
        with open(args.report, "w", encoding="utf-8") as handle:
            json.dump(
                {"manifest": manifest.to_dict(), "recovery": report.to_dict()},
                handle, indent=2, sort_keys=True,
            )
            handle.write("\n")
    if args.json:
        print(json.dumps(report.to_dict(), indent=2, sort_keys=True))
    else:
        print(f"recovered from {report.source}: "
              f"{report.records_applied}/{report.records_replayed} records "
              f"applied, {len(report.quarantined)} quarantined, "
              f"{report.torn_tail_bytes} torn-tail bytes, "
              f"{len(report.snapshots_rejected)} snapshots rejected")
    # Degraded-but-recovered is still success: the catalog is consistent.
    return 0


def _store_compact(args: argparse.Namespace) -> int:
    store = SchemeStore.open(LocalFilesystem(args.dir))
    target = store.compact()
    print(f"catalog compacted into {target} "
          f"({store.catalog.total_entries} entries)")
    return 0


_STORE_COMMANDS = {
    "put": _store_put,
    "get": _store_get,
    "list": _store_list,
    "verify": _store_verify,
    "recover": _store_recover,
    "compact": _store_compact,
}


def _cmd_store(args: argparse.Namespace) -> int:
    return _STORE_COMMANDS[args.store_command](args)


_COMMANDS = {
    "schemes": _cmd_schemes,
    "certify": _cmd_certify,
    "build": _cmd_build,
    "route": _cmd_route,
    "verify": _cmd_verify,
    "simulate": _cmd_simulate,
    "codec": _cmd_codec,
    "bootstrap": _cmd_bootstrap,
    "compare": _cmd_compare,
    "report": _cmd_report,
    "lint": _cmd_lint,
    "bench-report": _cmd_bench_report,
    "trace-report": _cmd_trace_report,
    "store": _cmd_store,
}


def main(argv: Optional[Sequence[str]] = None) -> int:
    """CLI entry point; returns a process exit code."""
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
