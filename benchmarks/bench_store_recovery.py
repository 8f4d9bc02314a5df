"""Experiment STORE — crash-safe durable store: detection and recovery.

A routing scheme that survives in memory but not on disk is one power
cut away from a cold rebuild.  This bench drives the :mod:`repro.store`
subsystem through its failure envelope and quantifies three things:

* **Detection rate** — flip single bits of a populated journal
  (exhaustive when the journal is small, a seeded 8 192-position sample
  otherwise) and run the scanner; count the flips that surface as
  damage (a quarantined record, a torn tail, or a record that no longer
  replays).  Every record is CRC-16 framed, so the acceptance criterion
  pins the rate at exactly 100%: no single-bit flip may install
  silently.
* **Recovery success across crash points** — a seeded sweep truncates
  the journal after every write-prefix length drawn from a seeded grid
  (a crash can stop a write wherever it likes), plus torn-write and
  lost-fsync faults injected through the seeded
  :class:`~repro.store.FaultyFilesystem` shim.  Every crash point must
  recover to an internally consistent catalog, and the recovered active
  scheme must route **bit-exact**: the same path as the pristine scheme
  for every sampled pair.  Acceptance: 100% recovery success.
* **Journal vs snapshot** — bytes on disk and recovery time for the
  same catalog held as a replayed journal vs a compacted snapshot,
  quantifying what compaction buys on the recovery path.

The run writes ``BENCH_store.json`` (schema v2) with the rates, the
crash-point sweep, and the journal/snapshot accounting, for CI to
validate and archive.

Run ``python benchmarks/bench_store_recovery.py --smoke`` for a quick
self-checking pass; ``--output PATH`` overrides the JSON location.
"""

from __future__ import annotations

import argparse
import pathlib
import random
import sys
import time

from repro.core import build_scheme, route_message
from repro.core.persistence import pack_scheme, restore_scheme
from repro.errors import CodecError, StoreError
from repro.graphs import gnp_random_graph
from repro.models import Knowledge, Labeling, RoutingModel
from repro.observability import (
    BenchMetric,
    BenchResult,
    BetterDirection,
    RunManifest,
    write_bench_result,
)
from repro.observability.registry import MetricsRegistry
from repro.store import (
    JOURNAL_NAME,
    FaultyFilesystem,
    MemoryFilesystem,
    RecoveryManager,
    SchemeStore,
    SimulatedCrash,
    StoreFault,
    StoreFaultKind,
    scan_journal,
)

II_ALPHA = RoutingModel(Knowledge.II, Labeling.ALPHA)

N = 32
PUTS = 4
CRASH_POINTS = 64
DETECTION_FLIPS = 8192
FAULT_SEEDS = 24
ROUTE_PAIRS = 40
SMOKE_N = 16
SMOKE_PUTS = 2
SMOKE_CRASH_POINTS = 12
SMOKE_FAULT_SEEDS = 6

# The acceptance criteria: CRC framing catches every single-bit flip,
# and every crash point recovers to a consistent, bit-exact catalog.
DETECTION_FLOOR = 1.0
RECOVERY_FLOOR = 1.0

DEFAULT_OUTPUT = pathlib.Path(__file__).resolve().parent.parent / (
    "BENCH_store.json"
)


def _build_schemes(n, puts):
    """``puts`` distinct full-table schemes over G(n, 1/2) graphs."""
    schemes = []
    for seed in range(puts):
        graph = gnp_random_graph(n, seed=100 + seed)
        schemes.append((graph, build_scheme("full-table", graph, II_ALPHA)))
    return schemes


def _populate(fs, schemes):
    """A store holding every scheme, latest generation active."""
    store = SchemeStore.open(
        fs, registry=MetricsRegistry(), snapshot_every=1000
    )
    for index, (_, scheme) in enumerate(schemes):
        store.hot_swap("ft", pack_scheme(scheme), manifest={"seed": index})
    return store


def _routes_bit_exact(blob, graph, scheme, pairs):
    """The recovered blob restores and routes the same path as the
    pristine scheme."""
    try:
        restored = restore_scheme(blob, graph, II_ALPHA)
    except CodecError:
        return False
    for source, destination in pairs:
        if (
            route_message(restored, source, destination).path
            != route_message(scheme, source, destination).path
        ):
            return False
    return True


def _detection_sweep(journal, max_flips=DETECTION_FLIPS):
    """Flip single journal bits; count the flips surfacing as damage.

    Exhaustive over every bit when the journal is small enough,
    otherwise a seeded sample of ``max_flips`` distinct positions —
    each scan is O(journal), so the exhaustive product is quadratic.
    """
    baseline = scan_journal(journal)
    total_bits = 8 * len(journal)
    if total_bits <= max_flips:
        positions = range(total_bits)
        mode = "exhaustive"
    else:
        positions = random.Random(29).sample(range(total_bits), max_flips)
        mode = "sampled"
    attempts = 0
    detected = 0
    for position in positions:
        mutated = bytearray(journal)
        mutated[position // 8] ^= 1 << (7 - position % 8)
        scan = scan_journal(bytes(mutated))
        attempts += 1
        damage_surfaced = (
            scan.quarantined
            or scan.torn_tail_bytes
            or len(scan.records) < len(baseline.records)
        )
        if damage_surfaced:
            detected += 1
    return attempts, detected, mode


def _crash_point_sweep(journal, schemes, pairs, crash_points):
    """Truncate the journal on a seeded grid of byte prefixes; recover."""
    rng = random.Random(17)
    cuts = sorted(
        {rng.randrange(len(journal) + 1) for _ in range(crash_points)}
        | {0, len(journal)}
    )
    successes = 0
    durations = []
    for cut in cuts:
        fs = MemoryFilesystem()
        fs.replace(JOURNAL_NAME, journal[:cut])
        started = time.perf_counter()
        catalog, report = RecoveryManager(
            fs, registry=MetricsRegistry()
        ).recover()
        durations.append(time.perf_counter() - started)
        ok = catalog.is_consistent()
        # Every surviving generation must route bit-exact against the
        # scheme that produced it (generation k came from schemes[k-1]).
        for generation in catalog.generations("ft") if ok else []:
            graph, scheme = schemes[generation - 1]
            entry = catalog.get("ft", generation)
            if not _routes_bit_exact(entry.blob, graph, scheme, pairs):
                ok = False
                break
        successes += bool(ok)
    return {
        "crash_points": len(cuts),
        "successes": successes,
        "rate": successes / len(cuts),
        "mean_recovery_s": sum(durations) / len(durations),
        "max_recovery_s": max(durations),
    }


def _fault_injection_sweep(schemes, pairs, fault_seeds):
    """Seeded torn-write / lost-fsync faults through the live store."""
    outcomes = {"injected": 0, "recovered": 0}
    for seed in range(fault_seeds):
        rng = random.Random(1000 + seed)
        inner = MemoryFilesystem()
        kind = (
            StoreFaultKind.TORN_WRITE
            if seed % 2 == 0
            else StoreFaultKind.LOST_FSYNC
        )
        fault = StoreFault(
            kind=kind,
            op_index=rng.randrange(len(schemes)),
            fraction=rng.random() * 0.9,
        )
        faulty = FaultyFilesystem(inner, [fault])
        store = SchemeStore.open(
            faulty, registry=MetricsRegistry(), snapshot_every=1000
        )
        survived = 0
        try:
            for index, (_, scheme) in enumerate(schemes):
                store.put("ft", pack_scheme(scheme), manifest={"seed": index})
                survived = index + 1
        except (SimulatedCrash, StoreError):
            pass
        inner.crash()  # power loss: only synced bytes survive
        outcomes["injected"] += 1
        recovered = SchemeStore.open(inner, registry=MetricsRegistry())
        ok = recovered.catalog.is_consistent()
        generations = (
            recovered.catalog.generations("ft")
            if "ft" in recovered.catalog.names()
            else []
        )
        # A lost fsync may legitimately lose the unsynced tail; what it
        # must never do is serve a damaged blob as if it were good.
        for generation in generations if ok else []:
            graph, scheme = schemes[generation - 1]
            entry = recovered.catalog.get("ft", generation)
            if not _routes_bit_exact(entry.blob, graph, scheme, pairs):
                ok = False
                break
        if ok and len(generations) <= survived:
            outcomes["recovered"] += 1
    outcomes["rate"] = outcomes["recovered"] / outcomes["injected"]
    return outcomes


def _journal_vs_snapshot(fs, store):
    """Disk bytes and recovery time, journal-replay vs compacted."""
    journal_bytes = len(fs.read(JOURNAL_NAME))
    started = time.perf_counter()
    RecoveryManager(fs, registry=MetricsRegistry()).recover()
    journal_recovery_s = time.perf_counter() - started

    target = store.compact()
    snapshot_bytes = len(fs.read(target))
    started = time.perf_counter()
    _, report = RecoveryManager(fs, registry=MetricsRegistry()).recover()
    snapshot_recovery_s = time.perf_counter() - started
    assert report.source == "snapshot"
    return {
        "journal_bytes": journal_bytes,
        "snapshot_bytes": snapshot_bytes,
        "journal_bits": 8 * journal_bytes,
        "snapshot_bits": 8 * snapshot_bytes,
        "journal_recovery_s": journal_recovery_s,
        "snapshot_recovery_s": snapshot_recovery_s,
    }


def measure(n=N, puts=PUTS, crash_points=CRASH_POINTS,
            fault_seeds=FAULT_SEEDS):
    """Detection, the crash-point sweep, and the snapshot accounting."""
    schemes = _build_schemes(n, puts)
    fs = MemoryFilesystem()
    store = _populate(fs, schemes)
    journal = fs.read(JOURNAL_NAME)
    pair_rng = random.Random(3)
    nodes = list(schemes[0][0].nodes)
    pairs = [tuple(pair_rng.sample(nodes, 2)) for _ in range(ROUTE_PAIRS)]

    attempts, detected, mode = _detection_sweep(journal)
    crash_sweep = _crash_point_sweep(journal, schemes, pairs, crash_points)
    faults = _fault_injection_sweep(schemes, pairs, fault_seeds)
    disk = _journal_vs_snapshot(fs, store)
    return {
        "workload": {
            "n": n,
            "puts": puts,
            "scheme": "full-table",
            "crash_points": crash_sweep["crash_points"],
            "fault_seeds": fault_seeds,
            "route_pairs": ROUTE_PAIRS,
            "journal_bytes": len(journal),
        },
        "detection": {
            "attempts": attempts,
            "detected": detected,
            "mode": mode,
            "rate": detected / attempts if attempts else 0.0,
        },
        "crash_sweep": crash_sweep,
        "fault_injection": faults,
        "disk": disk,
    }


def check(result) -> None:
    """The acceptance assertions over one measurement."""
    detection = result["detection"]
    assert detection["rate"] >= DETECTION_FLOOR, (
        f"only {detection['detected']}/{detection['attempts']} single-bit "
        "journal flips surfaced as damage"
    )
    crash = result["crash_sweep"]
    assert crash["rate"] >= RECOVERY_FLOOR, (
        f"only {crash['successes']}/{crash['crash_points']} crash points "
        "recovered to a consistent, bit-exact catalog"
    )
    faults = result["fault_injection"]
    assert faults["rate"] >= RECOVERY_FLOOR, (
        f"only {faults['recovered']}/{faults['injected']} injected "
        "torn-write/lost-fsync runs recovered cleanly"
    )
    disk = result["disk"]
    # Both layouts must hold the full catalog; sizes are reported, not
    # gated — a snapshot only wins once the journal accumulates
    # superseded records, not on a freshly-compacted history.
    assert disk["journal_bytes"] > 0 and disk["snapshot_bytes"] > 0


def _bench_result(result) -> BenchResult:
    """Wrap one measurement as a schema-versioned, gateable artifact."""
    workload = result["workload"]
    manifest = RunManifest.capture(
        "bench:store_recovery",
        seed=17,
        scheme=workload["scheme"],
        n=workload["n"],
        params=workload,
    )
    higher = BetterDirection.HIGHER
    metrics = {
        # Both rates are exhaustive/seeded enumerations over CRC-framed
        # records, so they gate with zero slack.
        "detection_rate": BenchMetric(
            result["detection"]["rate"], higher, tolerance=0.0
        ),
        "crash_recovery_rate": BenchMetric(
            result["crash_sweep"]["rate"], higher, tolerance=0.0
        ),
        "fault_recovery_rate": BenchMetric(
            result["fault_injection"]["rate"], higher, tolerance=0.0
        ),
        "mean_recovery_s": BenchMetric(result["crash_sweep"]["mean_recovery_s"]),
        "journal_bits": BenchMetric(result["disk"]["journal_bits"]),
        "snapshot_bits": BenchMetric(result["disk"]["snapshot_bits"]),
    }
    return BenchResult(
        bench="store_recovery",
        manifest=manifest,
        workload=workload,
        metrics=metrics,
        extra={key: value for key, value in result.items()
               if key != "workload"},
    )


def _format(result) -> str:
    workload = result["workload"]
    detection = result["detection"]
    crash = result["crash_sweep"]
    faults = result["fault_injection"]
    disk = result["disk"]
    return "\n".join([
        f"Durable store on G({workload['n']}, 1/2) full-table schemes, "
        f"{workload['puts']} generations journaled "
        f"({workload['journal_bytes']} bytes)",
        "",
        f"  single-bit-flip detection ({detection['mode']} over the "
        "journal's bits):",
        f"    {detection['rate']:7.2%} "
        f"({detection['detected']}/{detection['attempts']})",
        "",
        f"  crash-point sweep ({crash['crash_points']} seeded journal "
        "prefixes):",
        f"    {crash['rate']:7.2%} recovered consistent + routing "
        f"bit-exact ({crash['successes']}/{crash['crash_points']}), "
        f"mean recovery {1e3 * crash['mean_recovery_s']:.2f} ms",
        "",
        f"  live fault injection ({faults['injected']} seeded "
        "torn-write/lost-fsync runs):",
        f"    {faults['rate']:7.2%} recovered "
        f"({faults['recovered']}/{faults['injected']})",
        "",
        "  journal vs snapshot for the same catalog:",
        f"    journal  {disk['journal_bytes']:7d} bytes, "
        f"recovery {1e3 * disk['journal_recovery_s']:.2f} ms",
        f"    snapshot {disk['snapshot_bytes']:7d} bytes, "
        f"recovery {1e3 * disk['snapshot_recovery_s']:.2f} ms",
    ])


def test_store_recovery(benchmark, write_result):
    result = benchmark.pedantic(
        measure, rounds=1, iterations=1,
        kwargs={"n": SMOKE_N, "puts": SMOKE_PUTS,
                "crash_points": SMOKE_CRASH_POINTS,
                "fault_seeds": SMOKE_FAULT_SEEDS},
    )
    write_result("store_recovery", _format(result))
    check(result)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description=(
            "Sweep journal bit flips, crash points and injected faults through the "
            "durable store."
        )
    )
    parser.add_argument(
        "--smoke", action="store_true",
        help="small graph, fewer generations, crash points and fault seeds",
    )
    parser.add_argument(
        "--output", type=pathlib.Path, default=DEFAULT_OUTPUT,
        help=f"where to write the BenchResult JSON (default: {DEFAULT_OUTPUT.name} "
        "at the repository root)",
    )
    args = parser.parse_args(argv)
    smoke, output = args.smoke, args.output
    started = time.perf_counter()
    result = measure(
        n=SMOKE_N if smoke else N,
        puts=SMOKE_PUTS if smoke else PUTS,
        crash_points=SMOKE_CRASH_POINTS if smoke else CRASH_POINTS,
        fault_seeds=SMOKE_FAULT_SEEDS if smoke else FAULT_SEEDS,
    )
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
