"""Recovery: rebuild a consistent catalog from whatever the disk holds.

Opening a store *is* a recovery.  The :class:`RecoveryManager` never
assumes the bytes on disk are healthy; it earns the catalog back:

1. **Snapshots first.**  Snapshot files are tried newest → oldest; each
   must pass its whole-file CRC frame and decode cleanly.  A damaged
   snapshot is *rejected* (traced, counted) and the next older one is
   tried — falling back all the way to an empty base catalog.
2. **Journal replay.**  The journal is scanned defensively
   (:func:`~repro.store.journal.scan_journal`): verified records are
   replayed onto the base catalog — idempotently by
   ``(name, generation)``, so a journal that predates the snapshot it
   accompanies is harmless — while CRC-failed records are quarantined
   and a torn tail (the crash artifact) is measured and dropped.
3. **Graceful degradation.**  Damage never raises.  A SWAP whose target
   PUT was torn away is ignored (the previous generation keeps
   serving); a quarantined record costs exactly itself; the report
   carries every byte range that was not trusted so the operator — and
   the CI quarantine artifact — can see precisely what was lost.

Every pass emits a ``recover`` span (duration, source) plus ``reject``
spans per damaged range, and updates the ``repro_store_*`` metrics.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from repro.observability.profiling import timed
from repro.observability.registry import MetricsRegistry, get_registry
from repro.observability.tracer import Tracer
from repro.store.catalog import (
    Catalog,
    CatalogEntry,
    decode_snapshot,
    snapshot_sequence,
)
from repro.store.filesystem import Filesystem
from repro.store.journal import (
    JOURNAL_NAME,
    QuarantinedRange,
    RecordKind,
    scan_journal,
)
from repro.errors import StoreError

__all__ = ["RecoveryManager", "RecoveryReport"]


@dataclass
class RecoveryReport:
    """What one recovery pass found, trusted, and refused to trust."""

    source: str = "empty"
    """Where the catalog came from: ``journal`` | ``snapshot`` |
    ``snapshot+journal`` | ``empty``."""
    snapshot_used: Optional[str] = None
    snapshots_rejected: List[Tuple[str, str]] = field(default_factory=list)
    """(file name, reason) per snapshot that failed verification."""
    records_replayed: int = 0
    """Verified journal records inspected."""
    records_applied: int = 0
    """Records that changed the catalog (idempotent repeats excluded)."""
    swaps_ignored: int = 0
    """SWAP records whose target generation was missing (not trusted)."""
    quarantined: List[QuarantinedRange] = field(default_factory=list)
    torn_tail_bytes: int = 0
    journal_bytes: int = 0
    duration_s: float = 0.0

    @property
    def damage_count(self) -> int:
        """Quarantined ranges plus rejected snapshots (torn tails excluded:
        a torn tail is the *expected* artifact of a crash mid-append)."""
        return len(self.quarantined) + len(self.snapshots_rejected)

    @property
    def clean(self) -> bool:
        """Whether nothing at all had to be distrusted or dropped."""
        return self.damage_count == 0 and self.torn_tail_bytes == 0

    def to_dict(self) -> Dict[str, Any]:
        """JSON-ready form (the CI quarantine-report artifact)."""
        return {
            "source": self.source,
            "snapshot_used": self.snapshot_used,
            "snapshots_rejected": [
                {"file": name, "reason": reason}
                for name, reason in self.snapshots_rejected
            ],
            "records_replayed": self.records_replayed,
            "records_applied": self.records_applied,
            "swaps_ignored": self.swaps_ignored,
            "quarantined": [item.to_dict() for item in self.quarantined],
            "torn_tail_bytes": self.torn_tail_bytes,
            "journal_bytes": self.journal_bytes,
            "duration_s": self.duration_s,
            "clean": self.clean,
        }


class RecoveryManager:
    """Rebuilds a consistent :class:`~repro.store.catalog.Catalog` from disk."""

    def __init__(
        self,
        fs: Filesystem,
        tracer: Optional[Tracer] = None,
        registry: Optional[MetricsRegistry] = None,
    ) -> None:
        self.fs = fs
        self.tracer = tracer if tracer is not None and tracer.enabled else None
        self.registry = registry if registry is not None else get_registry()

    # -- helpers --------------------------------------------------------------

    def _reject(self, reason: str, detail: str) -> None:
        if self.tracer is not None:
            self.tracer.reject(reason, detail=detail)
        self.registry.counter(
            "repro_store_quarantined_total", reason=reason
        ).inc()

    def _load_snapshot(
        self, report: RecoveryReport
    ) -> Tuple[Catalog, int]:
        """Newest verifiable snapshot (or an empty catalog), plus its bits."""
        candidates = sorted(
            (
                name
                for name in self.fs.list()
                if snapshot_sequence(name) is not None
            ),
            key=lambda name: snapshot_sequence(name) or 0,
            reverse=True,
        )
        for name in candidates:
            try:
                data = self.fs.read(name)
                catalog = decode_snapshot(data)
            except StoreError as exc:
                report.snapshots_rejected.append((name, str(exc)))
                self._reject("snapshot", f"{name}: {exc}")
                continue
            report.snapshot_used = name
            return catalog, 8 * len(data)
        return Catalog(), 0

    def _replay_journal(
        self, catalog: Catalog, report: RecoveryReport
    ) -> None:
        if not self.fs.exists(JOURNAL_NAME):
            return
        data = self.fs.read(JOURNAL_NAME)
        report.journal_bytes = len(data)
        scan = scan_journal(data)
        report.quarantined.extend(scan.quarantined)
        report.torn_tail_bytes = scan.torn_tail_bytes
        for damage in scan.quarantined:
            self._reject("record", damage.reason)
        report.records_replayed = len(scan.records)
        for record in scan.records:
            if record.kind is RecordKind.PUT:
                applied = catalog.apply_put(
                    CatalogEntry(
                        name=record.name,
                        generation=record.generation,
                        blob=record.blob if record.blob is not None else b"",
                        manifest=record.manifest,
                    )
                )
                if applied:
                    report.records_applied += 1
            else:
                if catalog.apply_swap(record.name, record.generation):
                    report.records_applied += 1
                else:
                    report.swaps_ignored += 1
                    self._reject(
                        "swap",
                        f"SWAP to missing generation {record.generation} "
                        f"of {record.name!r} at offset {record.offset}",
                    )

    # -- entry point ----------------------------------------------------------

    @timed("store.recover")
    def recover(self) -> Tuple[Catalog, RecoveryReport]:
        """Rebuild the catalog; damage is reported, never raised."""
        started = time.perf_counter()
        report = RecoveryReport()
        catalog, snapshot_bits = self._load_snapshot(report)
        from_snapshot = report.snapshot_used is not None
        self._replay_journal(catalog, report)
        if from_snapshot and report.records_replayed:
            report.source = "snapshot+journal"
        elif from_snapshot:
            report.source = "snapshot"
        elif report.records_replayed:
            report.source = "journal"
        else:
            report.source = "empty"
        report.duration_s = time.perf_counter() - started
        self.registry.counter(
            "repro_store_recoveries_total", source=report.source
        ).inc()
        self.registry.histogram("repro_store_recovery_seconds").observe(
            report.duration_s
        )
        self.registry.gauge("repro_store_journal_bits").set(
            8 * report.journal_bytes
        )
        self.registry.gauge("repro_store_snapshot_bits").set(snapshot_bits)
        if self.tracer is not None:
            self.tracer.recover(
                detail=report.source,
                duration=report.duration_s,
                reason="degraded" if not report.clean else None,
            )
        return catalog, report
