"""The run ledger: a manifest identifying the exact run behind an artifact.

Every CLI invocation and every benchmark run constructs one
:class:`RunManifest` and embeds it in the artifacts it writes — trace
JSONL files (first row), metrics dumps, ``--json`` summaries, and the
schema-versioned BENCH results — so any number committed to the repo is
traceable to the git revision, seeds, graph, and toolchain that produced
it.

The manifest is a frozen value object: :meth:`RunManifest.capture` fills
in the environment (git sha, interpreter, numpy, platform, timestamp),
callers supply the run's identity (command, scheme, ``n``, seed, free-form
parameters, optionally the graph for a structural fingerprint), and
:meth:`RunManifest.completed` stamps the final wall time by returning an
updated copy.  ``to_dict``/``from_dict`` round-trip losslessly through
JSON.
"""

from __future__ import annotations

import dataclasses
import json
import platform as _platform
import subprocess
import sys
import time as _time
import uuid
from dataclasses import dataclass, field
from typing import Any, Dict, Mapping, Optional, Tuple

from repro.errors import ReproError

__all__ = [
    "MANIFEST_SCHEMA_VERSION",
    "ManifestError",
    "RunManifest",
    "embedded_manifest",
]

MANIFEST_SCHEMA_VERSION = 1
"""Bumped when the manifest's field set changes incompatibly."""


class ManifestError(ReproError):
    """An artifact's embedded manifest is missing or malformed."""


_GIT_SHA_CACHE: Optional[str] = None


def _git_sha() -> str:
    """Best-effort ``HEAD`` sha of the working tree (cached per process)."""
    global _GIT_SHA_CACHE
    if _GIT_SHA_CACHE is None:
        try:
            out = subprocess.run(
                ["git", "rev-parse", "HEAD"],
                capture_output=True,
                text=True,
                timeout=5.0,
                check=False,
            )
            sha = out.stdout.strip()
            _GIT_SHA_CACHE = sha if out.returncode == 0 and sha else "unknown"
        except OSError:
            _GIT_SHA_CACHE = "unknown"
    return _GIT_SHA_CACHE


def _numpy_version() -> Optional[str]:
    try:
        import numpy
    except ImportError:  # pragma: no cover - numpy is a hard dep today
        return None
    return str(numpy.__version__)


def _clean_params(params: Mapping[str, Any]) -> Dict[str, Any]:
    """JSON-safe copy of free-form parameters (non-primitives stringified)."""
    cleaned: Dict[str, Any] = {}
    for key, value in sorted(params.items()):
        if isinstance(value, (str, int, float, bool)) or value is None:
            cleaned[str(key)] = value
        elif isinstance(value, (list, tuple)):
            cleaned[str(key)] = [
                item
                if isinstance(item, (str, int, float, bool)) or item is None
                else repr(item)
                for item in value
            ]
        else:
            cleaned[str(key)] = repr(value)
    return cleaned


@dataclass(frozen=True)
class RunManifest:
    """Identity card of one run: what ran, on what, with which toolchain."""

    run_id: str
    """Unique id of this invocation (random, for cross-artifact joins)."""
    command: str
    """What ran: a CLI subcommand (``simulate``, ``store-put``) or ``bench:<name>``."""
    seed: Optional[int] = None
    scheme: Optional[str] = None
    n: Optional[int] = None
    params: Dict[str, Any] = field(default_factory=dict)
    """Free-form run parameters (sanitised to JSON-safe values)."""
    graph_fingerprint: Optional[Tuple[int, int, int]] = None
    """``(n, edge_count, adjacency crc32)`` from ``structural_fingerprint``."""
    git_sha: str = "unknown"
    python_version: str = ""
    numpy_version: Optional[str] = None
    platform: str = ""
    created_at: str = ""
    """ISO-8601 UTC timestamp of manifest capture."""
    wall_time_s: Optional[float] = None
    """Total wall time of the run; stamped at the end via :meth:`completed`."""
    schema_version: int = MANIFEST_SCHEMA_VERSION

    @classmethod
    def capture(
        cls,
        command: str,
        *,
        seed: Optional[int] = None,
        scheme: Optional[str] = None,
        n: Optional[int] = None,
        params: Optional[Mapping[str, Any]] = None,
        graph: Optional[Any] = None,
        graph_fingerprint: Optional[Tuple[int, int, int]] = None,
    ) -> "RunManifest":
        """Snapshot the environment around a run that is about to start."""
        if graph is not None and graph_fingerprint is None:
            # Imported lazily: repro.graphs pulls in the observability
            # package for its context tracing, so a module-level import
            # here would be circular.
            from repro.graphs.context import structural_fingerprint

            graph_fingerprint = structural_fingerprint(graph)
        return cls(
            # The run id only names a run; no result derives from it.
            run_id=uuid.uuid4().hex[:12],  # repro-lint: disable=R004
            command=command,
            seed=seed,
            scheme=scheme,
            n=n,
            params=_clean_params(params or {}),
            graph_fingerprint=graph_fingerprint,
            git_sha=_git_sha(),
            python_version=_platform.python_version(),
            numpy_version=_numpy_version(),
            platform=f"{sys.platform}/{_platform.machine()}",
            created_at=_time.strftime(
                "%Y-%m-%dT%H:%M:%SZ", _time.gmtime()
            ),
        )

    def completed(self, wall_time_s: float) -> "RunManifest":
        """Copy of this manifest with the final wall time stamped in."""
        return dataclasses.replace(self, wall_time_s=wall_time_s)

    def to_dict(self) -> Dict[str, Any]:
        """JSON-safe dict (tuples become lists; round-trips via from_dict)."""
        row = dataclasses.asdict(self)
        if self.graph_fingerprint is not None:
            row["graph_fingerprint"] = list(self.graph_fingerprint)
        return row

    @classmethod
    def from_dict(cls, row: Mapping[str, Any]) -> "RunManifest":
        """Rebuild a manifest from a JSON row (unknown keys rejected)."""
        if not isinstance(row, Mapping):
            raise ManifestError(
                f"manifest must be an object, got {type(row).__name__}"
            )
        data = dict(row)
        fingerprint = data.get("graph_fingerprint")
        if fingerprint is not None:
            if len(fingerprint) != 3:
                raise ManifestError(
                    "graph_fingerprint must have exactly 3 components, "
                    f"got {len(fingerprint)}"
                )
            data["graph_fingerprint"] = tuple(int(x) for x in fingerprint)
        try:
            return cls(**data)
        except TypeError as exc:
            raise ManifestError(f"bad manifest row ({exc})") from exc

    def to_json(self) -> str:
        """Compact single-line JSON (for ``# manifest:`` comment rows)."""
        return json.dumps(self.to_dict(), sort_keys=True)


def embedded_manifest(payload: Mapping[str, Any]) -> RunManifest:
    """Extract and parse the ``"manifest"`` key of an artifact payload.

    Raises :class:`ManifestError` when the artifact carries no manifest —
    the loader-side half of the "every artifact embeds a RunManifest"
    guarantee.
    """
    if "manifest" not in payload:
        raise ManifestError("artifact has no embedded 'manifest' key")
    return RunManifest.from_dict(payload["manifest"])
