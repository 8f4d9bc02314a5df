"""Inline suppression comments.

Two scopes:

``# repro-lint: disable=R001`` (or ``disable=R001,R003``)
    Suppresses the named rules on that physical line only.  Put it on the
    line the finding points at.

``# repro-lint: disable-file=R001``
    Anywhere in the file: suppresses the named rules for the whole file.

``disable=all`` / ``disable-file=all`` suppress every rule.  Suppressions
are counted, so reporters can show how many findings were muted — a
suppression is a documented exception, not a deletion.

Each suppression comment is additionally tracked as a
:class:`SuppressionComment` with a use counter: one that silences zero
findings across a full run is stale, and the runner reports it as R014
so documented exceptions cannot outlive the code they excused.  So is
one naming a rule id the registry does not have (a typo, or a retired
rule): it can never match anything.
"""

from __future__ import annotations

import io
import re
import tokenize
from dataclasses import dataclass, field
from typing import Dict, FrozenSet, Iterator, List, Set, Tuple

__all__ = ["SuppressionIndex", "SuppressionComment"]

_LINE_RE = re.compile(r"#\s*repro-lint:\s*disable=([A-Za-z0-9_,\s]+)")
_FILE_RE = re.compile(r"#\s*repro-lint:\s*disable-file=([A-Za-z0-9_,\s]+)")

_ALL = "all"


def _parse_ids(blob: str) -> FrozenSet[str]:
    return frozenset(
        part.strip().upper() if part.strip().lower() != _ALL else _ALL
        for part in blob.split(",")
        if part.strip()
    )


def _comment_lines(source: str) -> Iterator[Tuple[int, str]]:
    """``(lineno, text)`` of every comment token in ``source``.

    Falls back to yielding raw lines when the source cannot be tokenised
    (e.g. a syntax error past the comment being looked for).
    """
    try:
        tokens = list(
            tokenize.generate_tokens(io.StringIO(source).readline)
        )
    except (tokenize.TokenError, IndentationError, SyntaxError, ValueError):
        for lineno, line in enumerate(source.splitlines(), start=1):
            yield lineno, line
        return
    for token in tokens:
        if token.type == tokenize.COMMENT:
            yield token.start[0], token.string


@dataclass
class SuppressionComment:
    """One ``# repro-lint: disable[-file]=...`` comment, with usage."""

    line: int
    """1-based line the comment sits on."""
    ids: FrozenSet[str]
    """Rule ids it names (the literal ``all`` keyword included verbatim)."""
    whole_file: bool
    used: int = 0
    """Findings this comment silenced during the run."""

    def display_ids(self) -> str:
        return ",".join(sorted(self.ids))

    def unknown_ids(self, known_ids: FrozenSet[str]) -> FrozenSet[str]:
        """The ids it names that are neither ``all`` nor in ``known_ids``."""
        return self.ids - known_ids - {_ALL}


@dataclass
class SuppressionIndex:
    """Per-file map of suppressed rules, built from raw source text."""

    per_line: Dict[int, FrozenSet[str]] = field(default_factory=dict)
    """1-based line number -> rule ids disabled on that line."""
    whole_file: FrozenSet[str] = frozenset()
    """Rule ids disabled for the entire file."""
    comments: List[SuppressionComment] = field(default_factory=list)
    """Every suppression comment in declaration order, with use counts."""

    @classmethod
    def from_source(cls, source: str) -> "SuppressionIndex":
        """Scan source text for suppression comments.

        Scanning is token-based: only genuine ``#`` comment tokens count,
        so a docstring *describing* the suppression syntax is not itself a
        suppression (and cannot be reported as a stale one).  Sources that
        fail to tokenise fall back to a plain line scan.
        """
        per_line: Dict[int, FrozenSet[str]] = {}
        file_ids: Set[str] = set()
        comments: List[SuppressionComment] = []
        for lineno, text in _comment_lines(source):
            if "repro-lint" not in text:
                continue
            file_match = _FILE_RE.search(text)
            if file_match:
                ids = _parse_ids(file_match.group(1))
                file_ids.update(ids)
                comments.append(
                    SuppressionComment(line=lineno, ids=ids, whole_file=True)
                )
                continue
            line_match = _LINE_RE.search(text)
            if line_match:
                ids = _parse_ids(line_match.group(1))
                per_line[lineno] = ids
                comments.append(
                    SuppressionComment(line=lineno, ids=ids, whole_file=False)
                )
        return cls(
            per_line=per_line,
            whole_file=frozenset(file_ids),
            comments=comments,
        )

    def is_suppressed(self, rule_id: str, line: int) -> bool:
        """Whether ``rule_id`` is muted at ``line`` (uses are recorded)."""
        hit = False
        for comment in self.comments:
            if comment.whole_file:
                if _ALL in comment.ids or rule_id in comment.ids:
                    comment.used += 1
                    hit = True
            elif comment.line == line and (
                _ALL in comment.ids or rule_id in comment.ids
            ):
                comment.used += 1
                hit = True
        return hit

    def unused(self, active_ids: FrozenSet[str], full_registry: bool) -> List[SuppressionComment]:
        """Comments that silenced nothing and whose rules all ran.

        A comment naming a rule outside ``active_ids`` is skipped — a
        ``--select R001`` run cannot judge a ``disable=R008`` comment.
        The ``all`` keyword is only judged when the full registry ran.
        """
        stale: List[SuppressionComment] = []
        for comment in self.comments:
            if comment.used:
                continue
            if _ALL in comment.ids:
                if not full_registry:
                    continue
            elif not comment.ids <= active_ids:
                continue
            stale.append(comment)
        return stale
