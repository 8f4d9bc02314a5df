"""`repro.analysis.lint` — repo-specific static analysis.

An AST-based linter (stdlib :mod:`ast` only, one pass over each file on
its own) enforcing the invariants the paper's bookkeeping depends on:
integral bit accounting (R001), exhaustive dispatches over the closed
taxonomies (R002), the nullable-tracer idiom in hot paths (R003), seeded
explicit RNGs and no clock or entropy reads (R004), no swallowed
failures (R006), a typed public API (R007), no mutable defaults (R008),
and context-routed graph derivations with no adjacency writes outside
``repro.graphs`` (R009).  Finally the runner audits the suppression
comments themselves (R014: stale suppressions and unknown rule ids).

Run it as ``repro lint src`` (or ``python -m repro.cli lint src``); see
``docs/STATIC_ANALYSIS.md`` for the rule catalogue, the gates that took
over the retired rules, and suppression syntax
(``# repro-lint: disable=R001``).
"""

from repro.analysis.lint.findings import Finding, Severity
from repro.analysis.lint.registry import (
    LintRule,
    ModuleContext,
    all_rules,
    register_rule,
    rule_by_id,
)
from repro.analysis.lint.reporters import (
    describe_rules,
    render_json,
    render_text,
    report_dict,
)
from repro.analysis.lint.runner import (
    LintResult,
    iter_python_files,
    lint_paths,
    lint_source,
)
from repro.analysis.lint.suppressions import SuppressionComment, SuppressionIndex

__all__ = [
    "Finding",
    "Severity",
    "LintRule",
    "ModuleContext",
    "all_rules",
    "register_rule",
    "rule_by_id",
    "describe_rules",
    "render_json",
    "render_text",
    "report_dict",
    "LintResult",
    "iter_python_files",
    "lint_paths",
    "lint_source",
    "SuppressionComment",
    "SuppressionIndex",
]
