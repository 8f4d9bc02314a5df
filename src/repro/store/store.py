"""The scheme store facade: journaled puts, snapshots, verified hot-swap.

:class:`SchemeStore` ties the layers together.  All state-changing paths
follow the same durability discipline:

* **put / swap** — encode one CRC-framed record, append it to the
  journal, ``fsync``; only then is the in-memory catalog updated.  A
  crash between append and sync loses at most the torn tail the scanner
  is built to drop.
* **snapshot / compact** — serialise the whole catalog as one framed
  super-record and install it atomically (write-temp + fsync + rename),
  then reset the journal.  A failed journal reset is tolerated: replay
  is idempotent by ``(name, generation)``, so re-applying the stale
  journal over the snapshot changes nothing.
* **hot-swap** — the new blob must *prove* itself before it serves:
  it is unpacked, durably PUT, re-read **from disk** (a fresh recovery
  pass over snapshot + journal, never the in-memory catalog), compared
  bit-exact per node against the candidate, and only then SWAPped
  active.  Any failure leaves the previously active generation serving.

``verify`` re-reads the disk from scratch (a fresh recovery pass plus a
deep decode of every blob) and diffs it against the in-memory catalog,
so post-hoc bit rot is caught even when it strikes bytes the store has
no other reason to touch.
"""

from __future__ import annotations

import time
from typing import Any, Dict, List, Optional

from repro.core.persistence import unpack_blob
from repro.errors import CodecError, StoreError
from repro.observability.profiling import timed
from repro.observability.registry import MetricsRegistry, get_registry
from repro.observability.tracer import Tracer
from repro.store.catalog import (
    Catalog,
    CatalogEntry,
    encode_snapshot,
    snapshot_name,
    snapshot_sequence,
)
from repro.store.filesystem import Filesystem
from repro.store.journal import JOURNAL_NAME, encode_put, encode_swap
from repro.store.recovery import RecoveryManager, RecoveryReport

__all__ = ["SchemeStore"]


class SchemeStore:
    """Crash-safe, generation-numbered home for packed routing schemes."""

    def __init__(
        self,
        fs: Filesystem,
        *,
        snapshot_every: int = 8,
        keep_snapshots: int = 2,
        tracer: Optional[Tracer] = None,
        registry: Optional[MetricsRegistry] = None,
    ) -> None:
        if snapshot_every < 1:
            raise StoreError(
                f"snapshot_every must be >= 1, got {snapshot_every}"
            )
        if keep_snapshots < 1:
            raise StoreError(
                f"keep_snapshots must be >= 1, got {keep_snapshots}"
            )
        self.fs = fs
        self.snapshot_every = snapshot_every
        self.keep_snapshots = keep_snapshots
        self.tracer = tracer if tracer is not None and tracer.enabled else None
        self.registry = registry if registry is not None else get_registry()
        self.catalog = Catalog()
        self.last_recovery: Optional[RecoveryReport] = None
        self._puts_since_snapshot = 0
        # Journal length mirror, kept so the journal-size gauge never
        # needs to re-read the file (that would make puts O(n^2) in
        # total I/O).  Reset on recover/compact, bumped per append.
        self._journal_bytes = 0

    # -- lifecycle ------------------------------------------------------------

    @classmethod
    def open(
        cls,
        fs: Filesystem,
        *,
        snapshot_every: int = 8,
        keep_snapshots: int = 2,
        tracer: Optional[Tracer] = None,
        registry: Optional[MetricsRegistry] = None,
    ) -> "SchemeStore":
        """Open a store directory: every open is a full recovery pass."""
        store = cls(
            fs,
            snapshot_every=snapshot_every,
            keep_snapshots=keep_snapshots,
            tracer=tracer,
            registry=registry,
        )
        store.recover()
        return store

    def recover(self, *, heal: bool = True) -> RecoveryReport:
        """(Re)build the in-memory catalog from disk; returns the report.

        A degraded recovery (torn tail, quarantined records, rejected
        snapshots) self-heals afterwards: the recovered catalog is
        snapshotted and the journal reset, so later appends never land
        behind damaged bytes.  The report still describes the damage as
        found — healing changes the disk, not the diagnosis.  Pass
        ``heal=False`` for a read-only pass (audits want to *see* the
        damage, not erase it).
        """
        manager = RecoveryManager(
            self.fs, tracer=self.tracer, registry=self.registry
        )
        self.catalog, self.last_recovery = manager.recover()
        self._puts_since_snapshot = 0
        self._journal_bytes = self.last_recovery.journal_bytes
        if heal and not self.last_recovery.clean:
            try:
                self.compact()
            except StoreError:
                # Healing is best-effort; the catalog is already correct
                # in memory and the next successful compact will land it.
                pass
        return self.last_recovery

    # -- queries --------------------------------------------------------------

    def get(self, name: str, generation: Optional[int] = None) -> CatalogEntry:
        """The given (default: active) generation of ``name``."""
        return self.catalog.get(name, generation)

    def active_generation(self, name: str) -> int:
        """The generation currently serving for ``name``."""
        if name not in self.catalog.active:
            raise StoreError(f"no scheme named {name!r} in the store")
        return self.catalog.active[name]

    def list(self) -> List[Dict[str, Any]]:
        """One JSON-ready summary row per stored scheme name."""
        rows: List[Dict[str, Any]] = []
        for name in self.catalog.names():
            active = self.catalog.active[name]
            rows.append(
                {
                    "name": name,
                    "active_generation": active,
                    "generations": self.catalog.generations(name),
                    "active_blob_bits": self.catalog.get(name, active).blob_bits,
                }
            )
        return rows

    # -- durable mutations ----------------------------------------------------

    def _append_record(self, record: bytes) -> None:
        self.fs.append(JOURNAL_NAME, record)
        self.fs.sync(JOURNAL_NAME)
        self._journal_bytes += len(record)
        self.registry.gauge("repro_store_journal_bits").set(
            8 * self._journal_bytes
        )

    def put(
        self,
        name: str,
        blob: bytes,
        manifest: Optional[Dict[str, Any]] = None,
    ) -> int:
        """Durably store a new generation of ``name``; returns its number.

        ``blob`` is a :func:`~repro.core.persistence.pack_scheme` byte
        string; it is structurally validated before any byte is written.
        The first generation of a name becomes active immediately.
        """
        return self._put(name, blob, manifest, validate=True)

    @timed("store.put")
    def _put(
        self,
        name: str,
        blob: bytes,
        manifest: Optional[Dict[str, Any]],
        *,
        validate: bool,
    ) -> int:
        """:meth:`put`; ``validate=False`` when the caller has already
        decoded ``blob`` (hot-swap's candidate)."""
        if validate:
            try:
                unpack_blob(blob)
            except CodecError as exc:
                raise StoreError(
                    f"refusing to store undecodable blob for {name!r}: {exc}"
                ) from exc
        generation = self.catalog.next_generation(name)
        record = encode_put(name, generation, manifest or {}, blob)
        self._append_record(record)
        self.catalog.apply_put(
            CatalogEntry(
                name=name, generation=generation, blob=blob, manifest=manifest
            )
        )
        self.registry.counter("repro_store_records_total", op="put").inc()
        if self.tracer is not None:
            self.tracer.persist("put", detail=f"{name}@{generation}")
        self._puts_since_snapshot += 1
        if self._puts_since_snapshot >= self.snapshot_every:
            self.compact()
        return generation

    def swap(self, name: str, generation: int) -> None:
        """Durably switch ``name``'s active pointer to ``generation``."""
        # Validates the target exists before a record is written.
        self.catalog.get(name, generation)
        self._append_record(encode_swap(name, generation))
        self.catalog.apply_swap(name, generation)
        self.registry.counter("repro_store_records_total", op="swap").inc()
        self.registry.counter("repro_store_swaps_total").inc()
        if self.tracer is not None:
            self.tracer.persist("swap", detail=f"{name}@{generation}")
            self.tracer.swap(f"{name}@{generation}")

    @timed("store.hot_swap")
    def hot_swap(
        self,
        name: str,
        blob: bytes,
        manifest: Optional[Dict[str, Any]] = None,
    ) -> int:
        """Build new → verify → atomically switch; returns the generation.

        The candidate blob is decoded once, up front (the PUT reuses
        that validation), durably PUT, then
        re-read **from disk** — a fresh recovery pass over snapshot plus
        journal, deliberately not the in-memory catalog (which still
        holds the very bytes object just written and would make the
        comparison vacuous) — and compared **byte for byte** against the
        candidate before the SWAP record is written; equal bytes decode
        to equal tables, so the read-back is not decoded again.  Any
        failure raises :class:`~repro.errors.StoreError` and leaves the
        previously active generation serving (the
        stored-but-never-activated generation remains visible in
        ``list`` for forensics).
        """
        try:
            unpack_blob(blob)
        except CodecError as exc:
            raise StoreError(
                f"hot-swap candidate for {name!r} failed verification: {exc}"
            ) from exc
        generation = self._put(name, blob, manifest, validate=False)
        # Scratch tracer/registry: this read-back is an internal proof
        # step, not an operator-visible recovery.
        audit = RecoveryManager(
            self.fs, tracer=None, registry=MetricsRegistry()
        )
        disk_catalog, _ = audit.recover()
        try:
            stored = disk_catalog.get(name, generation)
        except StoreError as exc:
            raise StoreError(
                f"hot-swap PUT of {name}@{generation} did not survive a "
                f"disk read-back: {exc}"
            ) from exc
        if stored.blob != blob:
            raise StoreError(
                f"hot-swap read-back of {name}@{generation} from disk is "
                "not byte-identical to the candidate; active generation "
                "left untouched"
            )
        self.swap(name, generation)
        return generation

    def compact(self) -> str:
        """Snapshot the catalog atomically, reset the journal; returns the
        snapshot file name.

        The snapshot install is the only step that must succeed; a failed
        journal reset or old-snapshot cleanup is tolerated because replay
        over a snapshot is idempotent.
        """
        existing = [
            seq
            for seq in (snapshot_sequence(n) for n in self.fs.list())
            if seq is not None
        ]
        sequence = max(existing, default=0) + 1
        target = snapshot_name(sequence)
        data = encode_snapshot(self.catalog)
        self.fs.replace(target, data)
        self.registry.counter("repro_store_snapshots_total").inc()
        self.registry.gauge("repro_store_snapshot_bits").set(8 * len(data))
        if self.tracer is not None:
            self.tracer.persist("snapshot", detail=target)
        self._puts_since_snapshot = 0
        try:
            self.fs.replace(JOURNAL_NAME, b"")
            self._journal_bytes = 0
            self.registry.gauge("repro_store_journal_bits").set(0)
            for seq in sorted(existing, reverse=True)[self.keep_snapshots - 1:]:
                self.fs.delete(snapshot_name(seq))
        except StoreError:
            # Stale journal / extra snapshots are safe: replay is
            # idempotent and recovery always prefers the newest snapshot.
            pass
        if self.tracer is not None:
            self.tracer.persist("compact", detail=target)
        return target

    # -- audit ----------------------------------------------------------------

    def verify(self) -> Dict[str, Any]:
        """Audit the disk against the in-memory catalog; never raises.

        Runs a fresh read-only recovery pass, deep-decodes every stored
        blob, and diffs the result against what this store believes —
        catching post-hoc bit rot, lost writes, and divergence between
        memory and disk.  Returns a JSON-ready report with ``ok``.
        """
        started = time.perf_counter()
        manager = RecoveryManager(
            self.fs, tracer=self.tracer, registry=self.registry
        )
        disk_catalog, report = manager.recover()
        problems: List[str] = []
        for damage in report.quarantined:
            problems.append(f"journal damage: {damage.reason}")
        for name, reason in report.snapshots_rejected:
            problems.append(f"snapshot damage: {name}: {reason}")
        for name in disk_catalog.names():
            for generation in disk_catalog.generations(name):
                entry = disk_catalog.get(name, generation)
                try:
                    unpack_blob(entry.blob)
                except CodecError as exc:
                    problems.append(
                        f"blob {name}@{generation} is undecodable: {exc}"
                    )
        if disk_catalog.active != self.catalog.active:
            problems.append(
                f"active pointers diverge: disk {disk_catalog.active} "
                f"vs memory {self.catalog.active}"
            )
        for name in self.catalog.names():
            for generation in self.catalog.generations(name):
                memory_entry = self.catalog.get(name, generation)
                try:
                    disk_entry = disk_catalog.get(name, generation)
                except StoreError:
                    problems.append(
                        f"{name}@{generation} present in memory, "
                        "missing on disk"
                    )
                    continue
                if disk_entry.blob != memory_entry.blob:
                    problems.append(
                        f"{name}@{generation} differs between disk and memory"
                    )
        if not disk_catalog.is_consistent():
            problems.append("disk catalog is internally inconsistent")
        return {
            "ok": not problems,
            "problems": problems,
            "recovery": report.to_dict(),
            "duration_s": time.perf_counter() - started,
        }
