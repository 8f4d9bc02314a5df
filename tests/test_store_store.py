"""SchemeStore end-to-end: puts, snapshots, hot-swap, recovery, audit."""

from __future__ import annotations

import pytest

from repro.core import build_scheme, route_message, verify_scheme
from repro.core.persistence import pack_scheme, restore_scheme
from repro.errors import StoreError
from repro.observability import phase_breakdown, set_registry
from repro.observability.registry import MetricsRegistry
from repro.observability.tracer import RecordingTracer
from repro.store import (
    FaultyFilesystem,
    JOURNAL_NAME,
    LocalFilesystem,
    MemoryFilesystem,
    SchemeStore,
    SimulatedCrash,
    StoreFault,
    StoreFaultKind,
)


@pytest.fixture(scope="module")
def scheme(random_graph_32, model_ii_alpha):
    return build_scheme("full-table", random_graph_32, model_ii_alpha)


@pytest.fixture(scope="module")
def blob(scheme):
    return pack_scheme(scheme)


def open_store(fs, **kwargs):
    kwargs.setdefault("registry", MetricsRegistry())
    kwargs.setdefault("snapshot_every", 100)  # disable auto-compact
    return SchemeStore.open(fs, **kwargs)


class TestBasics:
    def test_open_empty(self):
        store = open_store(MemoryFilesystem())
        assert store.last_recovery.source == "empty"
        assert store.last_recovery.clean
        assert store.list() == []

    def test_put_get_roundtrip(self, blob):
        store = open_store(MemoryFilesystem())
        generation = store.put("ft", blob, manifest={"seed": 101})
        assert generation == 1
        entry = store.get("ft")
        assert entry.blob == blob
        assert entry.manifest == {"seed": 101}
        assert store.active_generation("ft") == 1

    def test_put_rejects_garbage_blob(self):
        store = open_store(MemoryFilesystem())
        with pytest.raises(StoreError, match="undecodable"):
            store.put("junk", b"not a packed scheme")
        assert store.list() == []

    def test_generations_are_monotone(self, blob):
        store = open_store(MemoryFilesystem())
        assert store.put("ft", blob) == 1
        assert store.put("ft", blob) == 2
        assert store.put("other", blob) == 1
        assert store.catalog.generations("ft") == [1, 2]
        # First put auto-activates; later puts do not steal the pointer.
        assert store.active_generation("ft") == 1

    def test_swap_and_validation(self, blob):
        store = open_store(MemoryFilesystem())
        store.put("ft", blob)
        store.put("ft", blob)
        store.swap("ft", 2)
        assert store.active_generation("ft") == 2
        with pytest.raises(StoreError, match="generation"):
            store.swap("ft", 9)

    def test_get_missing(self, blob):
        store = open_store(MemoryFilesystem())
        with pytest.raises(StoreError, match="no scheme"):
            store.get("nope")
        store.put("ft", blob)
        with pytest.raises(StoreError, match="generation"):
            store.get("ft", 5)


class TestDurability:
    def test_reopen_replays_journal(self, blob):
        fs = MemoryFilesystem()
        store = open_store(fs)
        store.put("ft", blob)
        store.put("ft", blob)
        store.swap("ft", 2)
        reopened = open_store(fs)
        assert reopened.last_recovery.source == "journal"
        assert reopened.active_generation("ft") == 2
        assert reopened.get("ft").blob == blob

    def test_unsynced_put_does_not_survive_crash(self, blob):
        fs = MemoryFilesystem()
        store = open_store(
            FaultyFilesystem(
                fs, [StoreFault(kind=StoreFaultKind.LOST_FSYNC, op_index=0)]
            )
        )
        store.put("ft", blob)  # sync was a lie
        fs.crash()
        reopened = open_store(fs)
        assert reopened.list() == []

    def test_snapshot_after_threshold_and_reopen(self, blob):
        fs = MemoryFilesystem()
        store = open_store(fs, snapshot_every=2)
        store.put("ft", blob)
        store.put("ft", blob)  # triggers compact
        assert any(name.startswith("snapshot-") for name in fs.list())
        assert fs.read(JOURNAL_NAME) == b""
        reopened = open_store(fs)
        assert reopened.last_recovery.source == "snapshot"
        assert reopened.catalog.generations("ft") == [1, 2]
        assert reopened.get("ft").blob == blob

    def test_compact_prunes_old_snapshots(self, blob):
        fs = MemoryFilesystem()
        store = open_store(fs, keep_snapshots=2)
        store.put("ft", blob)
        for _ in range(4):
            store.compact()
        snapshots = [n for n in fs.list() if n.startswith("snapshot-")]
        assert len(snapshots) <= 2
        assert open_store(fs).get("ft").blob == blob

    def test_failed_journal_reset_is_harmless(self, blob):
        # Snapshot lands, journal reset fails: replay over the snapshot
        # must be idempotent.
        fs = MemoryFilesystem()
        store = open_store(fs)
        store.put("ft", blob)
        faulty = FaultyFilesystem(
            fs, [StoreFault(kind=StoreFaultKind.RENAME_FAIL, op_index=1)]
        )
        store_f = open_store(faulty)
        store_f.compact()  # replace 0 = snapshot OK, replace 1 = reset fails
        assert fs.read(JOURNAL_NAME) != b""  # stale journal left behind
        reopened = open_store(fs)
        assert reopened.last_recovery.source == "snapshot+journal"
        assert reopened.catalog.generations("ft") == [1]
        assert reopened.get("ft").blob == blob

    def test_failed_snapshot_install_leaves_store_usable(self, blob):
        fs = MemoryFilesystem()
        faulty = FaultyFilesystem(
            fs, [StoreFault(kind=StoreFaultKind.RENAME_FAIL, op_index=0)]
        )
        store = open_store(faulty)
        store.put("ft", blob)
        with pytest.raises(StoreError, match="rename fail"):
            store.compact()
        reopened = open_store(fs)
        assert reopened.get("ft").blob == blob

    def test_torn_put_recovers_to_previous_state(self, blob):
        fs = MemoryFilesystem()
        store = open_store(fs)
        store.put("ft", blob)
        faulty = FaultyFilesystem(
            fs,
            [StoreFault(kind=StoreFaultKind.TORN_WRITE, op_index=0,
                        fraction=0.6)],
        )
        store2 = open_store(faulty)
        with pytest.raises(SimulatedCrash):
            store2.put("ft", blob)
        fs.crash()
        reopened = open_store(fs)
        assert reopened.last_recovery.torn_tail_bytes > 0
        assert reopened.catalog.generations("ft") == [1]
        # Self-heal: the torn tail was compacted away, so appends are safe.
        reopened.put("ft", blob)
        assert reopened.verify()["ok"]


class TestHotSwap:
    def test_hot_swap_switches_active(self, blob):
        store = open_store(MemoryFilesystem())
        store.put("ft", blob)
        generation = store.hot_swap("ft", blob)
        assert generation == 2
        assert store.active_generation("ft") == 2

    def test_hot_swap_rejects_bad_candidate(self, blob):
        store = open_store(MemoryFilesystem())
        store.put("ft", blob)
        with pytest.raises(StoreError, match="failed verification"):
            store.hot_swap("ft", blob[:-7])
        assert store.active_generation("ft") == 1
        assert store.catalog.generations("ft") == [1]

    def test_hot_swap_emits_swap_span(self, blob):
        tracer = RecordingTracer()
        store = open_store(MemoryFilesystem(), tracer=tracer)
        store.hot_swap("ft", blob)
        assert [e.event for e in tracer.events if e.event == "swap"] == ["swap"]

    def test_hot_swap_read_back_comes_from_disk(self, blob):
        # A short write silently persists only a prefix of the PUT
        # record.  The in-memory catalog still holds the full blob, so
        # only a genuine disk read-back can notice — hot_swap must
        # refuse to activate and leave the old generation serving.
        fs = MemoryFilesystem()
        store = open_store(fs)
        store.put("ft", blob)  # append 0: healthy baseline
        faulty = FaultyFilesystem(
            fs,
            [StoreFault(kind=StoreFaultKind.SHORT_WRITE, op_index=0,
                        fraction=0.5)],
        )
        store2 = open_store(faulty)
        with pytest.raises(StoreError, match="read-back"):
            store2.hot_swap("ft", blob)
        assert store2.active_generation("ft") == 1
        # Recovery over the damaged journal also serves generation 1.
        reopened = open_store(fs)
        assert reopened.active_generation("ft") == 1


    def test_hot_swap_phase_counts(self, scheme):
        # Only the candidate is decoded: the disk read-back is compared
        # byte for byte.  Only the read-back runs a recovery pass.
        registry = MetricsRegistry()
        previous = set_registry(registry)
        try:
            store = SchemeStore(MemoryFilesystem(), registry=MetricsRegistry())
            store.hot_swap("ft", pack_scheme(scheme))
        finally:
            set_registry(previous)
        calls = {
            phase: row["calls"]
            for phase, row in phase_breakdown(registry).items()
            if phase.startswith(("persist.", "store."))
        }
        assert calls == {
            "persist.pack": 1,
            "persist.unpack": 1,
            "store.put": 1,
            "store.hot_swap": 1,
            "store.recover": 1,
        }


class TestVerifyAndRot:
    def test_verify_clean(self, blob):
        store = open_store(MemoryFilesystem())
        store.put("ft", blob)
        report = store.verify()
        assert report["ok"] and report["problems"] == []

    def test_verify_detects_journal_bit_rot(self, blob):
        fs = MemoryFilesystem()
        store = open_store(fs)
        store.put("ft", blob)
        fs.corrupt_bit(JOURNAL_NAME, 999)
        report = store.verify()
        assert not report["ok"]
        assert any("damage" in p or "missing" in p for p in report["problems"])

    def test_verify_detects_snapshot_bit_rot(self, blob):
        fs = MemoryFilesystem()
        store = open_store(fs)
        store.put("ft", blob)
        target = store.compact()
        fs.corrupt_bit(target, 4321)
        report = store.verify()
        assert not report["ok"]

    def test_recover_after_rot_falls_back_and_degrades(self, blob):
        fs = MemoryFilesystem()
        store = open_store(fs)
        store.put("ft", blob)
        store.compact()          # snapshot holds generation 1
        store.put("ft", blob)    # generation 2 lives only in the journal
        fs.corrupt_bit(JOURNAL_NAME, 40)
        report = store.recover()
        assert report.quarantined
        # Generation 2's record was damaged: serve the last good snapshot.
        assert store.catalog.generations("ft") == [1]
        assert store.get("ft").blob == blob

    def test_metrics_updated(self, blob):
        registry = MetricsRegistry()
        fs = MemoryFilesystem()
        store = open_store(fs, registry=registry)
        store.put("ft", blob)
        prom = registry.to_prometheus()
        assert "repro_store_records_total" in prom
        assert "repro_store_recoveries_total" in prom
        assert "repro_store_journal_bits" in prom


class TestOnRealDisk:
    def test_stale_temp_files_are_hidden_and_swept(self, tmp_path, blob):
        root = tmp_path / "store"
        fs = LocalFilesystem(str(root))
        store = open_store(fs)
        store.put("ft", blob)
        target = store.compact()
        # A crash between mkstemp and os.replace leaves a scratch file.
        stale = root / (target + ".tmpdeadbeef")
        stale.write_bytes(b"half-written snapshot")
        assert stale.name not in fs.list()  # invisible to the store
        reopened = open_store(LocalFilesystem(str(root)))
        assert not stale.exists()  # swept on open
        assert reopened.get("ft").blob == blob

    def test_local_filesystem_roundtrip(self, tmp_path, blob, scheme,
                                        random_graph_32, model_ii_alpha):
        fs = LocalFilesystem(str(tmp_path / "store"))
        store = open_store(fs)
        store.put("ft", blob)
        store.compact()
        reopened = open_store(LocalFilesystem(str(tmp_path / "store")))
        recovered = reopened.get("ft").blob
        assert recovered == blob
        # The recovered scheme routes bit-exact: same path for every pair.
        restored = restore_scheme(
            recovered, random_graph_32, model_ii_alpha
        )
        report = verify_scheme(restored, sample_pairs=50, seed=5)
        assert report.ok()
        for source, destination in ((1, 9), (4, 30), (17, 2)):
            assert (
                route_message(restored, source, destination).path
                == route_message(scheme, source, destination).path
            )
