"""The generation-numbered catalog of stored schemes, and its snapshots.

The catalog is the store's in-memory truth: for every scheme *name*, a
monotone sequence of generations (each a packed blob plus the
:class:`~repro.observability.manifest.RunManifest` of the run that built
it) and a pointer to the *active* generation.  It is rebuilt from bytes
on every open — journal replay and snapshot load both funnel through
:meth:`Catalog.apply` — and its update rule is deliberately prefix-closed:

* a ``PUT`` adds (or idempotently re-adds) a generation; the *first*
  generation of a name auto-activates, so a name is never present yet
  unservable;
* a ``SWAP`` moves the active pointer, and only to a generation already
  present.

Because every journal prefix is a prefix of the same PUT/SWAP history,
replaying any crash truncation of the journal yields a catalog that is
internally consistent — the invariant the hypothesis crash-point
property pins down.  Idempotent replay by ``(name, generation)`` also
makes a stale journal re-applied over a snapshot harmless, which is what
lets compaction survive a failed journal reset.

A snapshot is the whole catalog as **one** CRC-framed journal-style
super-record installed atomically (write-temp + fsync + rename), so it
is either entirely present or entirely absent — never torn.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

from repro.bitio import BitArray
from repro.errors import StoreError
from repro.integrity import FramingPolicy, verify_frame

__all__ = [
    "CatalogEntry",
    "Catalog",
    "encode_snapshot",
    "decode_snapshot",
    "snapshot_name",
    "snapshot_sequence",
]

SNAPSHOT_PREFIX = "snapshot-"
SNAPSHOT_SUFFIX = ".snap"

_SNAP_MAGIC = 0xA8
_SNAP_VERSION = 1


@dataclass(frozen=True)
class CatalogEntry:
    """One stored generation of one scheme."""

    name: str
    generation: int
    blob: bytes
    manifest: Optional[Dict[str, Any]] = None

    @property
    def blob_bits(self) -> int:
        """Size of the packed scheme blob, in the paper's currency."""
        return 8 * len(self.blob)


@dataclass
class Catalog:
    """All stored generations plus each name's active pointer."""

    entries: Dict[str, Dict[int, CatalogEntry]] = field(default_factory=dict)
    active: Dict[str, int] = field(default_factory=dict)

    # -- queries --------------------------------------------------------------

    def names(self) -> List[str]:
        """Sorted scheme names present in the catalog."""
        return sorted(self.entries)

    def generations(self, name: str) -> List[int]:
        """Sorted generation numbers stored for ``name``."""
        return sorted(self.entries.get(name, ()))

    def get(self, name: str, generation: Optional[int] = None) -> CatalogEntry:
        """The given (default: active) generation of ``name``."""
        versions = self.entries.get(name)
        if not versions:
            raise StoreError(f"no scheme named {name!r} in the store")
        if generation is None:
            generation = self.active[name]
        entry = versions.get(generation)
        if entry is None:
            raise StoreError(
                f"scheme {name!r} has no generation {generation} "
                f"(stored: {self.generations(name)})"
            )
        return entry

    def next_generation(self, name: str) -> int:
        """The generation number a fresh PUT of ``name`` should use."""
        versions = self.entries.get(name)
        return max(versions) + 1 if versions else 1

    @property
    def total_entries(self) -> int:
        """Number of stored (name, generation) pairs."""
        return sum(len(versions) for versions in self.entries.values())

    def is_consistent(self) -> bool:
        """Structural invariant: every active pointer names a stored entry."""
        for name, generation in self.active.items():
            if generation not in self.entries.get(name, ()):
                return False
        return all(name in self.active for name in self.entries)

    # -- updates --------------------------------------------------------------

    def apply_put(self, entry: CatalogEntry) -> bool:
        """Add a generation; returns False when it was already present.

        The first generation of a name activates automatically, so the
        catalog never holds an unservable name.
        """
        versions = self.entries.setdefault(entry.name, {})
        if entry.generation in versions:
            return False
        versions[entry.generation] = entry
        if entry.name not in self.active:
            self.active[entry.name] = entry.generation
        return True

    def apply_swap(self, name: str, generation: int) -> bool:
        """Move a name's active pointer; False if the target is absent.

        A SWAP whose target generation is missing (its PUT was torn away
        or quarantined) is ignored rather than trusted — the previous
        active generation keeps serving.
        """
        if generation not in self.entries.get(name, ()):
            return False
        self.active[name] = generation
        return True


# -- snapshots ----------------------------------------------------------------


def snapshot_name(sequence: int) -> str:
    """File name of the ``sequence``-th snapshot (zero-padded, sortable)."""
    return f"{SNAPSHOT_PREFIX}{sequence:06d}{SNAPSHOT_SUFFIX}"


def snapshot_sequence(name: str) -> Optional[int]:
    """Parse a snapshot file name back to its sequence (None if not one)."""
    if not (name.startswith(SNAPSHOT_PREFIX) and name.endswith(SNAPSHOT_SUFFIX)):
        return None
    digits = name[len(SNAPSHOT_PREFIX) : -len(SNAPSHOT_SUFFIX)]
    return int(digits) if digits.isdigit() else None


def encode_snapshot(catalog: Catalog) -> bytes:
    """Serialise a catalog as one CRC-framed super-record.

    Layout: ``magic(1) | version(1) | index length(4) | JSON index |
    concatenated blobs | CRC-16(2)``, where the index carries every
    entry's name, generation, manifest, and blob extent into the blob
    region.  One frame over the whole file means *any* single flip or
    truncation fails verification and recovery falls back to the next
    older snapshot.
    """
    index: List[Dict[str, Any]] = []
    blobs = bytearray()
    for name in catalog.names():
        for generation in catalog.generations(name):
            entry = catalog.get(name, generation)
            index.append(
                {
                    "name": entry.name,
                    "generation": entry.generation,
                    "manifest": entry.manifest,
                    "blob_offset": len(blobs),
                    "blob_length": len(entry.blob),
                }
            )
            blobs.extend(entry.blob)
    body = json.dumps(
        {"active": catalog.active, "index": index}, sort_keys=True
    ).encode("utf-8")
    head = (
        bytes((_SNAP_MAGIC, _SNAP_VERSION))
        + len(body).to_bytes(4, "big")
        + body
        + bytes(blobs)
    )
    bits = BitArray._from_packed(head, 8 * len(head))
    return head + FramingPolicy.CRC16.checksum(bits).to_bytes()


def decode_snapshot(data: bytes) -> Catalog:
    """Parse and verify a snapshot; raises StoreError on any damage."""
    if len(data) < 8:
        raise StoreError("snapshot too short to be framed")
    framed = BitArray._from_packed(data, 8 * len(data))
    if not verify_frame(framed, FramingPolicy.CRC16):
        raise StoreError("snapshot failed its CRC-16 integrity check")
    if data[0] != _SNAP_MAGIC:
        raise StoreError(f"bad snapshot magic 0x{data[0]:02x}")
    if data[1] != _SNAP_VERSION:
        raise StoreError(f"unsupported snapshot version {data[1]}")
    body_len = int.from_bytes(data[2:6], "big")
    if 6 + body_len + 2 > len(data):
        raise StoreError("snapshot index length exceeds file")
    try:
        header = json.loads(data[6 : 6 + body_len].decode("utf-8"))
        blob_region = data[6 + body_len : -2]
        catalog = Catalog()
        for item in header["index"]:
            start = item["blob_offset"]
            end = start + item["blob_length"]
            if end > len(blob_region):
                raise ValueError("blob extent exceeds snapshot blob region")
            catalog.apply_put(
                CatalogEntry(
                    name=item["name"],
                    generation=item["generation"],
                    blob=bytes(blob_region[start:end]),
                    manifest=item.get("manifest"),
                )
            )
        for name, generation in header["active"].items():
            if not catalog.apply_swap(name, generation):
                raise ValueError(
                    f"snapshot activates missing generation {generation} "
                    f"of {name!r}"
                )
    except (ValueError, KeyError, TypeError, UnicodeDecodeError) as exc:
        raise StoreError(
            f"undecodable snapshot ({type(exc).__name__}: {exc})"
        ) from exc
    return catalog
