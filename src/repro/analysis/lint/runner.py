"""Lint driver: discover files, parse, run rules, apply suppressions.

The runner is deliberately import-free with respect to the linted code —
everything is a source-text pass, so a module with a runtime-only import
problem still gets linted (and a syntax error becomes an ``R000`` finding
rather than a crash).

Every active rule judges each parsed file on its own; a finding on a
line (or in a file) its suppression comments mute is counted, not
reported.  Afterwards the runner audits those comments (R014): one that
names a rule id no registered rule has can never match anything, and
one whose use counter stayed at zero is stale.
"""

from __future__ import annotations

import ast
import os
from dataclasses import dataclass, field
from typing import Dict, FrozenSet, Iterable, Iterator, List, Optional, Sequence

from repro.analysis.lint.findings import Finding, Severity
from repro.analysis.lint.registry import LintRule, ModuleContext, all_rules
from repro.analysis.lint.suppressions import SuppressionIndex

# Importing the rules module populates the registry.
from repro.analysis.lint import rules as _rules  # noqa: F401

__all__ = ["LintResult", "lint_paths", "lint_source", "iter_python_files"]

_PARSE_ERROR_RULE = "R000"
_UNUSED_SUPPRESSION_RULE = "R014"


@dataclass
class LintResult:
    """Outcome of one lint run."""

    findings: List[Finding] = field(default_factory=list)
    files_checked: int = 0
    suppressed: int = 0
    """Findings muted by ``# repro-lint: disable`` comments."""

    @property
    def counts_by_rule(self) -> Dict[str, int]:
        """Finding counts per rule id (sorted keys)."""
        counts: Dict[str, int] = {}
        for finding in self.findings:
            counts[finding.rule_id] = counts.get(finding.rule_id, 0) + 1
        return dict(sorted(counts.items()))

    @property
    def counts_by_severity(self) -> Dict[str, int]:
        """Finding counts per severity."""
        counts: Dict[str, int] = {}
        for finding in self.findings:
            key = finding.severity.value
            counts[key] = counts.get(key, 0) + 1
        return dict(sorted(counts.items()))

    def worst_severity(self) -> Optional[Severity]:
        """The most severe finding present, or None for a clean run."""
        if any(f.severity is Severity.ERROR for f in self.findings):
            return Severity.ERROR
        if self.findings:
            return Severity.WARNING
        return None

    def extend(self, other: "LintResult") -> None:
        """Merge another result into this one."""
        self.findings.extend(other.findings)
        self.files_checked += other.files_checked
        self.suppressed += other.suppressed


def iter_python_files(paths: Sequence[str]) -> Iterator[str]:
    """Expand files/directories into a sorted stream of ``.py`` paths."""
    seen = set()
    collected: List[str] = []
    for path in paths:
        if os.path.isdir(path):
            for dirpath, dirnames, filenames in os.walk(path):
                dirnames[:] = sorted(
                    d for d in dirnames if d not in ("__pycache__", ".git")
                )
                for filename in sorted(filenames):
                    if filename.endswith(".py"):
                        collected.append(os.path.join(dirpath, filename))
        elif path.endswith(".py"):
            collected.append(path)
    for path in sorted(collected):
        if path not in seen:
            seen.add(path)
            yield path


def _module_name(path: str) -> str:
    """Dotted module name derived from the path (rooted at ``repro``)."""
    normalized = os.path.normpath(path).replace(os.sep, "/")
    without_ext = normalized[:-3] if normalized.endswith(".py") else normalized
    parts = without_ext.split("/")
    if parts and parts[-1] == "__init__":
        parts = parts[:-1]
    if "repro" in parts:
        parts = parts[parts.index("repro"):]
    return ".".join(parts)


@dataclass(frozen=True)
class _Plan:
    """The active rules of one run, and what R014 may judge."""

    rules: Sequence[LintRule]
    active_ids: FrozenSet[str]
    known_ids: FrozenSet[str]
    """Every registered rule id: a suppression naming any other id is
    reported in every run, since no rule can ever match it."""
    full_registry: bool
    """Whether every registered rule runs (only then is ``all`` judged)."""


def _plan(active_rules: Optional[Iterable[LintRule]]) -> _Plan:
    registry = all_rules()
    rules = registry if active_rules is None else tuple(active_rules)
    return _Plan(
        rules=rules,
        active_ids=frozenset(rule.rule_id for rule in rules),
        known_ids=frozenset(rule.rule_id for rule in registry),
        full_registry=len(rules) == len(registry),
    )


def _error(path: str, line: int, col: int, message: str) -> Finding:
    """An ``R000`` finding: the file could not be read or parsed."""
    return Finding(
        path=path,
        line=line,
        col=col,
        rule_id=_PARSE_ERROR_RULE,
        severity=Severity.ERROR,
        message=message,
    )


def _audit_suppressions(
    path: str, suppressions: SuppressionIndex, plan: _Plan
) -> Iterator[Finding]:
    """R014 findings for the comments that name unknown ids or are stale."""
    stale = {
        id(comment)
        for comment in suppressions.unused(plan.active_ids, plan.full_registry)
    }
    for comment in suppressions.comments:
        unknown = comment.unknown_ids(plan.known_ids)
        if unknown:
            verdict = (
                f"names unknown rule id(s) {', '.join(sorted(unknown))}, "
                "which no rule can match; remove them"
            )
        elif id(comment) in stale:
            verdict = "matched no findings in this run; remove the stale comment"
        else:
            continue
        scope = "disable-file" if comment.whole_file else "disable"
        yield Finding(
            path=path,
            line=comment.line,
            col=0,
            rule_id=_UNUSED_SUPPRESSION_RULE,
            severity=Severity.WARNING,
            message=(
                f"suppression `# repro-lint: {scope}="
                f"{comment.display_ids()}` {verdict}"
            ),
        )


def _lint_file(
    path: str, source: str, module: Optional[str], plan: _Plan
) -> LintResult:
    result = LintResult(files_checked=1)
    try:
        tree = ast.parse(source, filename=path)
    except SyntaxError as exc:
        result.findings.append(
            _error(
                path,
                exc.lineno or 1,
                (exc.offset or 1) - 1,
                f"syntax error: {exc.msg}",
            )
        )
        return result
    context = ModuleContext(
        path=path,
        source=source,
        tree=tree,
        module=module if module is not None else _module_name(path),
        lines=source.splitlines(),
    )
    suppressions = SuppressionIndex.from_source(source)

    def add(finding: Finding) -> None:
        if suppressions.is_suppressed(finding.rule_id, finding.line):
            result.suppressed += 1
        else:
            result.findings.append(finding)

    for rule in plan.rules:
        for finding in rule.check(context):
            add(finding)
    # The audit runs last: a comment's use counter is final only once
    # every other rule has reported.
    if _UNUSED_SUPPRESSION_RULE in plan.active_ids:
        for finding in list(_audit_suppressions(path, suppressions, plan)):
            add(finding)
    return result


def lint_source(
    source: str,
    path: str = "<string>",
    active_rules: Optional[Iterable[LintRule]] = None,
    module: Optional[str] = None,
) -> LintResult:
    """Lint one in-memory source blob (the testing entry point)."""
    result = _lint_file(path, source, module, _plan(active_rules))
    result.findings.sort(key=lambda finding: finding.sort_key)
    return result


def lint_paths(
    paths: Sequence[str],
    active_rules: Optional[Iterable[LintRule]] = None,
) -> LintResult:
    """Lint every Python file under ``paths``."""
    plan = _plan(active_rules)
    result = LintResult()
    for path in iter_python_files(paths):
        try:
            with open(path, "r", encoding="utf-8") as handle:
                source = handle.read()
        except OSError as exc:
            result.files_checked += 1
            result.findings.append(_error(path, 1, 0, f"cannot read file: {exc}"))
            continue
        result.extend(_lint_file(path, source, None, plan))
    result.findings.sort(key=lambda finding: finding.sort_key)
    return result
