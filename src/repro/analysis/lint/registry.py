"""Rule registry and the context object rules inspect.

Rules are classes registered by decorator; the registry keeps them sorted
by rule id so ``--list-rules`` output and reporter summaries are stable.
Each rule sees one :class:`ModuleContext` at a time — the parsed AST plus
enough metadata (path, package-relative module name, raw lines) to scope
itself to the subtrees it cares about.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Tuple, Type

from repro.analysis.lint.findings import Finding, Severity

__all__ = [
    "ModuleContext",
    "LintRule",
    "register_rule",
    "all_rules",
    "rule_by_id",
]


@dataclass
class ModuleContext:
    """One parsed source file, as presented to every rule."""

    path: str
    """Path as given to the runner (used verbatim in findings)."""
    source: str
    tree: ast.Module
    module: str = ""
    """Dotted module name relative to the lint root (e.g.
    ``repro.simulator.network``); empty when it cannot be derived."""
    lines: List[str] = field(default_factory=list)

    def in_package(self, *packages: str) -> bool:
        """Whether this module lives under any of the dotted prefixes."""
        for package in packages:
            if self.module == package or self.module.startswith(package + "."):
                return True
        return False


class LintRule:
    """Base class for one registered rule."""

    rule_id: str = "R000"
    name: str = "abstract"
    severity: Severity = Severity.ERROR
    description: str = ""
    rationale: str = ""
    """Paper-level justification, shown by ``--list-rules``."""

    def check(self, context: ModuleContext) -> Iterator[Finding]:
        """Yield findings for one module."""
        raise NotImplementedError

    def finding(
        self, context: ModuleContext, node: ast.AST, message: str
    ) -> Finding:
        """Build a finding anchored at an AST node."""
        return Finding(
            path=context.path,
            line=getattr(node, "lineno", 1),
            col=getattr(node, "col_offset", 0),
            rule_id=self.rule_id,
            severity=self.severity,
            message=message,
        )


_REGISTRY: Dict[str, Type[LintRule]] = {}


def register_rule(cls: Type[LintRule]) -> Type[LintRule]:
    """Class decorator: add a rule to the registry (ids must be unique)."""
    if cls.rule_id in _REGISTRY:
        raise ValueError(f"duplicate lint rule id {cls.rule_id}")
    _REGISTRY[cls.rule_id] = cls
    return cls


def all_rules() -> Tuple[LintRule, ...]:
    """Fresh instances of every registered rule, sorted by id."""
    return tuple(_REGISTRY[rule_id]() for rule_id in sorted(_REGISTRY))


def rule_by_id(rule_id: str) -> LintRule:
    """Instantiate one rule (KeyError for unknown ids)."""
    return _REGISTRY[rule_id.upper()]()
