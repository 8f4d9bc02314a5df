"""Structured linter findings.

A finding is one rule violation at one source location.  Findings are
value objects: reporters sort them (path, line, col, rule id) so text and
JSON output are deterministic across runs and platforms.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Any, Dict, Tuple

__all__ = ["Severity", "Finding"]


class Severity(str, enum.Enum):
    """How bad a finding is.

    ``ERROR`` findings break paper semantics (bit accounting, taxonomy
    exhaustiveness, reproducibility); ``WARNING`` findings break repo
    conventions that degrade gracefully.  The CLI's ``--fail-on`` flag
    chooses which level fails the build (default: any finding).
    """

    ERROR = "error"
    WARNING = "warning"

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.value


@dataclass(frozen=True)
class Finding:
    """One rule violation: ``file:line:col rule-id message``."""

    path: str
    """Path of the offending file, as given to the runner."""
    line: int
    """1-based source line."""
    col: int
    """0-based column (matches ``ast`` node offsets)."""
    rule_id: str
    """Stable rule identifier (a registered id, ``R000`` for read or parse errors)."""
    severity: Severity
    message: str

    @property
    def sort_key(self) -> Tuple[str, int, int, str]:
        """Deterministic ordering: path, then position, then rule."""
        return (self.path, self.line, self.col, self.rule_id)

    def format(self) -> str:
        """The canonical one-line rendering."""
        return (
            f"{self.path}:{self.line}:{self.col}: "
            f"{self.rule_id} [{self.severity.value}] {self.message}"
        )

    def to_dict(self) -> Dict[str, Any]:
        """JSON-reporter row."""
        return {
            "path": self.path,
            "line": self.line,
            "col": self.col,
            "rule": self.rule_id,
            "severity": self.severity.value,
            "message": self.message,
        }
