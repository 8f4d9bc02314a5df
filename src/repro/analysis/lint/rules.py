"""The repo-specific per-file rules (R001–R009) and the suppression
audit (R014); the cross-module flow rules R010–R013 live in
:mod:`repro.analysis.flow.rules`.

Each rule encodes an invariant the paper's bookkeeping or the simulator's
design depends on; ``rationale`` strings say which.  Rules are pure AST
passes over the linted code.  Two vocabularies are read from the
package itself: R002's taxonomies (the members of the seven enums it
guards) and R003's span methods (the public methods of
:class:`~repro.observability.tracer.Tracer`).
"""

from __future__ import annotations

import ast
from typing import (
    Dict,
    FrozenSet,
    Iterator,
    List,
    Optional,
    Sequence,
    Set,
    Tuple,
)

from repro.analysis.lint.findings import Finding, Severity
from repro.analysis.lint.registry import LintRule, ModuleContext, register_rule
from repro.observability.bench import BetterDirection
from repro.observability.tracer import Tracer
from repro.simulator.chaos import FaultKind, MutationKind
from repro.simulator.churn import TopologyMutationKind
from repro.simulator.message import DropReason
from repro.store.faults import StoreFaultKind
from repro.store.journal import RecordKind

__all__ = [
    "BitIntegerArithmeticRule",
    "DropReasonExhaustiveRule",
    "TracerGuardRule",
    "SeededRngRule",
    "SchemeContractRule",
    "NoSilentExceptRule",
    "PublicAnnotationsRule",
    "NoMutableDefaultRule",
    "ContextRoutedDerivationsRule",
]


# -- shared AST helpers -------------------------------------------------------


def _dotted_name(node: ast.AST) -> Optional[str]:
    """``a.b.c`` for Name/Attribute chains, else None."""
    parts: List[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None


def _root_identifier(node: ast.AST) -> Optional[str]:
    """The identifier a value expression is named by, if any.

    ``total_bits`` for both the bare name and ``report.total_bits``; the
    *attribute* is what carries the accounting meaning.
    """
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return node.attr
    return None


_BIT_SUFFIX = "_bits"
_BIT_PREFIX = "bits_"


def _is_bit_identifier(name: Optional[str]) -> bool:
    """Identifier naming a bit count under the paper's accounting."""
    if not name:
        return False
    return name == "bits" or name.endswith(_BIT_SUFFIX) or name.startswith(_BIT_PREFIX)


def _is_terminal(statements: Sequence[ast.stmt]) -> bool:
    """Whether a block unconditionally leaves the enclosing flow."""
    if not statements:
        return False
    return isinstance(statements[-1], (ast.Return, ast.Raise, ast.Continue, ast.Break))


# -- R001 ---------------------------------------------------------------------


@register_rule
class BitIntegerArithmeticRule(LintRule):
    """Bit accounting must stay integral."""

    rule_id = "R001"
    name = "bit-integer-arithmetic"
    severity = Severity.ERROR
    description = (
        "no true division or float values on bit-accounting identifiers "
        "(`bits`, `*_bits`, `bits_*`); use `//`, `bit_length()`, or "
        "`minimal_label_bits`-style integer helpers"
    )
    rationale = (
        "Table 1 of the paper is an exact bits-count grid; one float in a "
        "`*_bits` quantity silently falsifies the headline constants. "
        "Intentional ratio diagnostics carry a line suppression."
    )

    def check(self, context: ModuleContext) -> Iterator[Finding]:
        for node in ast.walk(context.tree):
            if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Div):
                for side in (node.left, node.right):
                    name = _root_identifier(side)
                    if _is_bit_identifier(name):
                        yield self.finding(
                            context,
                            node,
                            f"true division on bit quantity {name!r}; bit "
                            f"counts are integers — use `//` or an integer "
                            f"helper (suppress if this is a deliberate "
                            f"ratio diagnostic)",
                        )
                        break
            elif isinstance(node, ast.AugAssign) and isinstance(node.op, ast.Div):
                name = _root_identifier(node.target)
                if _is_bit_identifier(name):
                    yield self.finding(
                        context,
                        node,
                        f"`/=` on bit quantity {name!r}; use `//=`",
                    )
            elif isinstance(node, ast.Assign):
                for target in node.targets:
                    name = _root_identifier(target)
                    if not _is_bit_identifier(name):
                        continue
                    if isinstance(node.value, ast.Constant) and isinstance(
                        node.value.value, float
                    ):
                        yield self.finding(
                            context,
                            node,
                            f"float literal assigned to bit quantity "
                            f"{name!r}; bit counts are integers",
                        )
                    elif self._has_unflagged_division(node.value):
                        yield self.finding(
                            context,
                            node,
                            f"true-division result assigned to bit "
                            f"quantity {name!r}; bit counts are integers "
                            f"— use `//`",
                        )
            elif isinstance(node, ast.AnnAssign):
                name = _root_identifier(node.target)
                if _is_bit_identifier(name) and (
                    isinstance(node.annotation, ast.Name)
                    and node.annotation.id == "float"
                ):
                    yield self.finding(
                        context,
                        node,
                        f"bit quantity {name!r} annotated `float`; bit "
                        f"counts are integers",
                    )

    @staticmethod
    def _has_unflagged_division(value: ast.expr) -> bool:
        """A `/` in the assigned value none of whose operands is bit-named.

        Divisions with a bit-named operand are already reported by the
        BinOp pass; this catches `total_bits = a / b` without double
        reporting `total_bits = other_bits / 2`.
        """
        for node in ast.walk(value):
            if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Div):
                if not any(
                    _is_bit_identifier(_root_identifier(side))
                    for side in (node.left, node.right)
                ):
                    return True
        return False


# -- R002 ---------------------------------------------------------------------

# The closed vocabularies dispatched over, read from the enums themselves
# so a member is covered the moment it is added.
_TAXONOMIES: Dict[str, FrozenSet[str]] = {
    enum_cls.__name__: frozenset(member.name for member in enum_cls)
    for enum_cls in (
        DropReason,
        FaultKind,
        MutationKind,
        TopologyMutationKind,
        BetterDirection,
        StoreFaultKind,
        RecordKind,
    )
}


def _taxonomy_member(node: ast.AST) -> Optional[Tuple[str, str]]:
    """``<Taxonomy>.X`` -> ``("<Taxonomy>", "X")`` for known taxonomies."""
    if (
        isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and node.value.id in _TAXONOMIES
    ):
        return node.value.id, node.attr
    return None


def _branch_members(
    test: ast.expr,
) -> Optional[Tuple[Optional[str], str, FrozenSet[str]]]:
    """Decode one branch test into (subject, taxonomy, members), if it is one.

    Handles ``x == Enum.M``, ``Enum.M == x``, ``x is Enum.M`` and
    ``x in (Enum.A, Enum.B)`` for every registered taxonomy.
    """
    if not (isinstance(test, ast.Compare) and len(test.ops) == 1):
        return None
    left, op, right = test.left, test.ops[0], test.comparators[0]
    if isinstance(op, (ast.Eq, ast.Is)):
        decoded = _taxonomy_member(right)
        if decoded is not None:
            return _dotted_name(left), decoded[0], frozenset({decoded[1]})
        decoded = _taxonomy_member(left)
        if decoded is not None:
            return _dotted_name(right), decoded[0], frozenset({decoded[1]})
        return None
    if isinstance(op, ast.In) and isinstance(right, (ast.Tuple, ast.Set, ast.List)):
        decoded_members = [_taxonomy_member(elt) for elt in right.elts]
        if decoded_members and all(d is not None for d in decoded_members):
            enums = {d[0] for d in decoded_members}  # type: ignore[index]
            if len(enums) != 1:
                return None  # mixed taxonomies: not a dispatch branch
            return (
                _dotted_name(left),
                next(iter(enums)),
                frozenset(d[1] for d in decoded_members),  # type: ignore[misc]
            )
    return None


@register_rule
class DropReasonExhaustiveRule(LintRule):
    """Dispatches over a closed taxonomy must cover every member
    (DropReason, FaultKind, MutationKind, TopologyMutationKind,
    BetterDirection, StoreFaultKind, RecordKind)."""

    rule_id = "R002"
    name = "dropreason-exhaustive"
    severity = Severity.ERROR
    description = (
        "`if`/`elif` chains, `match` statements and dict literals "
        "dispatching on a closed taxonomy (`DropReason`, `FaultKind`, "
        "`MutationKind`, `TopologyMutationKind`, `BetterDirection`, "
        "`StoreFaultKind`, `RecordKind`) must handle every member or end "
        "in an explicit default branch"
    )
    rationale = (
        "The taxonomies grow PR over PR (QUEUE_OVERFLOW arrived after the "
        "first five drop reasons, ROUTING_LOOP with churn); a dispatch "
        "that silently ignores a new member mis-buckets events and skews "
        "every resilience experiment."
    )

    def check(self, context: ModuleContext) -> Iterator[Finding]:
        elif_children: Set[int] = set()
        for node in ast.walk(context.tree):
            if isinstance(node, ast.If):
                if len(node.orelse) == 1 and isinstance(node.orelse[0], ast.If):
                    elif_children.add(id(node.orelse[0]))
        for node in ast.walk(context.tree):
            if isinstance(node, ast.If) and id(node) not in elif_children:
                yield from self._check_chain(context, node)
            elif isinstance(node, ast.Match):
                yield from self._check_match(context, node)
            elif isinstance(node, ast.Dict):
                yield from self._check_dict(context, node)

    def _check_chain(
        self, context: ModuleContext, head: ast.If
    ) -> Iterator[Finding]:
        covered: Set[str] = set()
        subjects: Set[Optional[str]] = set()
        enums: Set[str] = set()
        branches = 0
        node: ast.stmt = head
        while isinstance(node, ast.If):
            decoded = _branch_members(node.test)
            if decoded is None:
                return  # mixed chain: not a pure taxonomy dispatch
            subject, enum_name, branch_members = decoded
            subjects.add(subject)
            enums.add(enum_name)
            covered.update(branch_members)
            branches += 1
            if not node.orelse:
                break
            if len(node.orelse) == 1 and isinstance(node.orelse[0], ast.If):
                node = node.orelse[0]
                continue
            return  # explicit else branch: defaulted, exhaustive enough
        if branches < 2 or len(subjects) != 1 or len(enums) != 1:
            return  # single test or inconsistent subject: not a dispatch
        enum_name = next(iter(enums))
        missing = _TAXONOMIES[enum_name] - covered
        if missing:
            yield self.finding(
                context,
                head,
                f"{enum_name} dispatch does not handle "
                f"{', '.join(sorted(missing))} and has no `else` default",
            )

    def _check_dict(
        self, context: ModuleContext, node: ast.Dict
    ) -> Iterator[Finding]:
        """A dict literal keyed entirely by one taxonomy is a dispatch
        table: a missing key silently falls through `.get` defaults the
        same way a missing `elif` does.  Comprehensions and dicts with
        `**` spreads or non-taxonomy keys are left alone (their coverage
        cannot be read off the literal)."""
        if len(node.keys) < 2 or any(key is None for key in node.keys):
            return  # too small to be a table, or has a ** spread
        decoded = [_taxonomy_member(key) for key in node.keys]
        if any(d is None for d in decoded):
            return  # not purely taxonomy-keyed
        enums = {d[0] for d in decoded}  # type: ignore[index]
        if len(enums) != 1:
            return  # mixed taxonomies: not a dispatch table
        enum_name = next(iter(enums))
        covered = {d[1] for d in decoded}  # type: ignore[index]
        missing = _TAXONOMIES[enum_name] - covered
        if missing:
            yield self.finding(
                context,
                node,
                f"{enum_name}-keyed dict literal omits "
                f"{', '.join(sorted(missing))}; cover every member or "
                f"build the table from the enum",
            )

    def _check_match(
        self, context: ModuleContext, node: ast.Match
    ) -> Iterator[Finding]:
        covered: Set[str] = set()
        enums: Set[str] = set()
        for case in node.cases:
            patterns = (
                case.pattern.patterns
                if isinstance(case.pattern, ast.MatchOr)
                else [case.pattern]
            )
            for pattern in patterns:
                if isinstance(pattern, ast.MatchValue):
                    decoded = _taxonomy_member(pattern.value)
                    if decoded is not None:
                        enums.add(decoded[0])
                        covered.add(decoded[1])
                elif isinstance(pattern, ast.MatchAs) and pattern.pattern is None:
                    return  # wildcard / capture-all default
        if len(enums) != 1:
            return  # no taxonomy values, or mixed taxonomies
        enum_name = next(iter(enums))
        missing = _TAXONOMIES[enum_name] - covered
        if missing:
            yield self.finding(
                context,
                node,
                f"`match` over {enum_name} does not handle "
                f"{', '.join(sorted(missing))} and has no `case _:` "
                f"default",
            )


# -- R003 ---------------------------------------------------------------------

_SPAN_METHODS = frozenset(
    name
    for name, member in vars(Tracer).items()
    if callable(member) and not name.startswith("_")
)
"""Every public :class:`Tracer` method: the span emitters, plus the
sampling protocol's ``wants``/``promote``, read from the class so a new
emitter is covered the day it lands."""


def _positive_guards(test: ast.expr) -> FrozenSet[str]:
    """Names proven non-None when ``test`` is true."""
    names: Set[str] = set()
    if isinstance(test, ast.BoolOp) and isinstance(test.op, ast.And):
        for value in test.values:
            names.update(_positive_guards(value))
    elif isinstance(test, ast.Compare) and len(test.ops) == 1:
        if isinstance(test.ops[0], ast.IsNot) and _is_none(test.comparators[0]):
            name = _dotted_name(test.left)
            if name:
                names.add(name)
    elif isinstance(test, (ast.Name, ast.Attribute)):
        name = _dotted_name(test)
        if name:
            names.add(name)
    return frozenset(names)


def _negative_guards(test: ast.expr) -> FrozenSet[str]:
    """Names proven None when ``test`` is true (early-return guards)."""
    if isinstance(test, ast.Compare) and len(test.ops) == 1:
        if isinstance(test.ops[0], ast.Is) and _is_none(test.comparators[0]):
            name = _dotted_name(test.left)
            if name:
                return frozenset({name})
    return frozenset()


def _is_none(node: ast.AST) -> bool:
    return isinstance(node, ast.Constant) and node.value is None


def _is_tracer_receiver(name: str) -> bool:
    last = name.rsplit(".", maxsplit=1)[-1].lower()
    return "tracer" in last


@register_rule
class TracerGuardRule(LintRule):
    """Span emission in hot paths must use the nullable-tracer idiom."""

    rule_id = "R003"
    name = "tracer-guarded"
    severity = Severity.ERROR
    description = (
        "in `repro.simulator`, `repro.core` and `repro.store`, tracer span "
        "calls (`inject`/`hop`/`drop`/`deliver`/`persist`/`recover`/… "
        "/`emit`) must sit under `if tracer is not None` (or after an "
        "`is None` early return)"
    )
    rationale = (
        "The observability PR's zero-overhead guarantee is a single "
        "`is None` test per event site; an unconditional span call in the "
        "forwarding loop reintroduces tracer cost for every untraced run."
    )

    def check(self, context: ModuleContext) -> Iterator[Finding]:
        if not context.in_package(
            "repro.simulator", "repro.core", "repro.store"
        ):
            return
        yield from self._scan_block(context, context.tree.body, frozenset())

    def _scan_block(
        self,
        context: ModuleContext,
        statements: Sequence[ast.stmt],
        guards: FrozenSet[str],
    ) -> Iterator[Finding]:
        for statement in statements:
            if isinstance(statement, ast.If):
                yield from self._scan_expression(context, statement.test, guards)
                positive = _positive_guards(statement.test)
                yield from self._scan_block(
                    context, statement.body, guards | positive
                )
                yield from self._scan_block(context, statement.orelse, guards)
                if _is_terminal(statement.body):
                    guards = guards | _negative_guards(statement.test)
            elif isinstance(
                statement, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
            ):
                # Fresh scope: guards do not cross function boundaries.
                yield from self._scan_block(context, statement.body, frozenset())
            elif isinstance(statement, (ast.For, ast.AsyncFor)):
                yield from self._scan_expression(context, statement.iter, guards)
                yield from self._scan_block(context, statement.body, guards)
                yield from self._scan_block(context, statement.orelse, guards)
            elif isinstance(statement, ast.While):
                yield from self._scan_expression(context, statement.test, guards)
                positive = _positive_guards(statement.test)
                yield from self._scan_block(
                    context, statement.body, guards | positive
                )
                yield from self._scan_block(context, statement.orelse, guards)
            elif isinstance(statement, (ast.With, ast.AsyncWith)):
                for item in statement.items:
                    yield from self._scan_expression(
                        context, item.context_expr, guards
                    )
                yield from self._scan_block(context, statement.body, guards)
            elif isinstance(statement, ast.Try):
                yield from self._scan_block(context, statement.body, guards)
                for handler in statement.handlers:
                    yield from self._scan_block(context, handler.body, guards)
                yield from self._scan_block(context, statement.orelse, guards)
                yield from self._scan_block(context, statement.finalbody, guards)
            elif isinstance(statement, ast.Match):
                yield from self._scan_expression(context, statement.subject, guards)
                for case in statement.cases:
                    yield from self._scan_block(context, case.body, guards)
            else:
                for child in ast.iter_child_nodes(statement):
                    if isinstance(child, ast.expr):
                        yield from self._scan_expression(context, child, guards)

    def _scan_expression(
        self,
        context: ModuleContext,
        expression: ast.expr,
        guards: FrozenSet[str],
    ) -> Iterator[Finding]:
        for node in ast.walk(expression):
            if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)):
                continue
            if node.func.attr not in _SPAN_METHODS:
                continue
            receiver = _dotted_name(node.func.value)
            if receiver is None or not _is_tracer_receiver(receiver):
                continue
            if receiver not in guards:
                yield self.finding(
                    context,
                    node,
                    f"unguarded tracer span call "
                    f"`{receiver}.{node.func.attr}(...)`; wrap it in "
                    f"`if {receiver} is not None:` (nullable-tracer idiom)",
                )


# -- R004 ---------------------------------------------------------------------

_RANDOM_ALLOWED = frozenset({"Random", "SystemRandom"})
_NP_RANDOM_ALLOWED = frozenset(
    {"default_rng", "Generator", "SeedSequence", "RandomState", "BitGenerator", "PCG64"}
)


@register_rule
class SeededRngRule(LintRule):
    """No ambient module-level RNG state."""

    rule_id = "R004"
    name = "seeded-rng"
    severity = Severity.ERROR
    description = (
        "no module-level `random.*` / `np.random.*` draws in `src/repro`; "
        "construct a seeded `random.Random(seed)` or "
        "`np.random.default_rng(seed)` and thread it explicitly"
    )
    rationale = (
        "Every experiment in the repo is a claim about G(n, 1/2) samples; "
        "ambient RNG state makes runs irreproducible and lets two "
        "subsystems silently correlate their draws."
    )

    def check(self, context: ModuleContext) -> Iterator[Finding]:
        for node in ast.walk(context.tree):
            if isinstance(node, ast.Attribute):
                if (
                    isinstance(node.value, ast.Name)
                    and node.value.id == "random"
                    and node.attr not in _RANDOM_ALLOWED
                ):
                    yield self.finding(
                        context,
                        node,
                        f"module-level `random.{node.attr}` uses ambient "
                        f"global RNG state; thread a seeded "
                        f"`random.Random(seed)` instead",
                    )
                else:
                    inner = node.value
                    if (
                        isinstance(inner, ast.Attribute)
                        and inner.attr == "random"
                        and isinstance(inner.value, ast.Name)
                        and inner.value.id in ("np", "numpy")
                        and node.attr not in _NP_RANDOM_ALLOWED
                    ):
                        yield self.finding(
                            context,
                            node,
                            f"global `{inner.value.id}.random.{node.attr}` "
                            f"draw; use a seeded "
                            f"`np.random.default_rng(seed)` generator",
                        )
            elif isinstance(node, ast.ImportFrom) and node.module == "random":
                for alias in node.names:
                    if alias.name not in _RANDOM_ALLOWED:
                        yield self.finding(
                            context,
                            node,
                            f"`from random import {alias.name}` imports an "
                            f"ambient-state RNG function; import the module "
                            f"and construct `random.Random(seed)`",
                        )


# -- R005 ---------------------------------------------------------------------

# method name -> number of positional parameters (including self).
_SCHEME_REQUIRED = {
    "_build_function": 2,
    "encode_function": 2,
    "decode_function": 3,
    "stretch_bound": 1,
}
# Concrete base-class methods a subclass may override, with the positional
# arity the callers (space_report, verification, simulator) rely on.
_SCHEME_OVERRIDABLE = {
    "space_report": 1,
    "label_bits": 2,
    "aux_bits": 2,
    "integrity_bits": 2,
    "address_of": 2,
    "node_of_address": 2,
    "hop_limit": 1,
}


def _is_abstract_class(node: ast.ClassDef) -> bool:
    for base in node.bases:
        name = _dotted_name(base)
        if name and name.rsplit(".", maxsplit=1)[-1] in ("ABC", "ABCMeta"):
            return True
    for item in node.body:
        if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
            for decorator in item.decorator_list:
                name = _dotted_name(decorator)
                if name and name.rsplit(".", maxsplit=1)[-1] == "abstractmethod":
                    return True
    return False


def _positional_arity(node: ast.FunctionDef) -> int:
    return len(node.args.posonlyargs) + len(node.args.args)


@register_rule
class SchemeContractRule(LintRule):
    """Direct RoutingScheme subclasses must implement the full contract."""

    rule_id = "R005"
    name = "scheme-contract"
    severity = Severity.ERROR
    description = (
        "direct `RoutingScheme` subclasses must define `_build_function`, "
        "`encode_function(u)`, `decode_function(u, bits)` and "
        "`stretch_bound()` with the contract arities; overridden "
        "accounting hooks must keep their signatures"
    )
    rationale = (
        "`space_report` and the verification walker call the contract "
        "blindly over every registered scheme; a missing or re-shaped "
        "method turns a Table 1 column into a runtime error (or worse, a "
        "default 0-bit charge)."
    )

    def check(self, context: ModuleContext) -> Iterator[Finding]:
        for node in ast.walk(context.tree):
            if not isinstance(node, ast.ClassDef):
                continue
            base_names = {
                _dotted_name(base).rsplit(".", maxsplit=1)[-1]
                for base in node.bases
                if _dotted_name(base)
            }
            if "RoutingScheme" not in base_names:
                continue
            if _is_abstract_class(node):
                continue
            methods = {
                item.name: item
                for item in node.body
                if isinstance(item, ast.FunctionDef)
            }
            for required, arity in _SCHEME_REQUIRED.items():
                method = methods.get(required)
                if method is None:
                    yield self.finding(
                        context,
                        node,
                        f"scheme class {node.name} does not implement "
                        f"`{required}` (RoutingScheme contract)",
                    )
                elif _positional_arity(method) != arity:
                    yield self.finding(
                        context,
                        method,
                        f"{node.name}.{required} takes "
                        f"{_positional_arity(method)} positional args, "
                        f"contract expects {arity}",
                    )
            for overridable, arity in _SCHEME_OVERRIDABLE.items():
                method = methods.get(overridable)
                if method is not None and _positional_arity(method) != arity:
                    yield self.finding(
                        context,
                        method,
                        f"{node.name}.{overridable} takes "
                        f"{_positional_arity(method)} positional args, "
                        f"base contract expects {arity}",
                    )


# -- R006 ---------------------------------------------------------------------


def _is_silent_body(body: Sequence[ast.stmt]) -> bool:
    for statement in body:
        if isinstance(statement, ast.Pass):
            continue
        if isinstance(statement, ast.Expr) and isinstance(
            statement.value, ast.Constant
        ):
            continue  # docstring or `...`
        return False
    return True


def _catches_broad(handler_type: Optional[ast.expr]) -> bool:
    if handler_type is None:
        return True
    if isinstance(handler_type, ast.Tuple):
        return any(_catches_broad(elt) for elt in handler_type.elts)
    name = _dotted_name(handler_type)
    return name is not None and name.rsplit(".", maxsplit=1)[-1] in (
        "Exception",
        "BaseException",
    )


@register_rule
class NoSilentExceptRule(LintRule):
    """No swallowed failures in routing, simulation, or recovery paths."""

    rule_id = "R006"
    name = "no-silent-except"
    severity = Severity.ERROR
    description = (
        "no bare `except:`, and no `except Exception:`/`BaseException:` "
        "whose body only passes — failures must be recorded as structured "
        "drops or re-raised"
    )
    rationale = (
        "The chaos engine's drop taxonomy exists so every failure is "
        "attributable; a swallowed exception is a drop with no "
        "DropReason, invisible to the resilience metrics."
    )

    def check(self, context: ModuleContext) -> Iterator[Finding]:
        for node in ast.walk(context.tree):
            if not isinstance(node, ast.ExceptHandler):
                continue
            if node.type is None:
                yield self.finding(
                    context,
                    node,
                    "bare `except:` catches SystemExit/KeyboardInterrupt "
                    "too; name the exception types",
                )
            elif _catches_broad(node.type) and _is_silent_body(node.body):
                yield self.finding(
                    context,
                    node,
                    "broad exception handler silently swallows the "
                    "failure; record a structured drop or re-raise",
                )


# -- R007 ---------------------------------------------------------------------


@register_rule
class PublicAnnotationsRule(LintRule):
    """Public API is fully typed."""

    rule_id = "R007"
    name = "public-annotations"
    severity = Severity.ERROR
    description = (
        "public module- and class-level functions in `src/repro` must "
        "annotate every parameter (self/cls and *args/**kwargs excepted) "
        "and the return type"
    )
    rationale = (
        "The mypy strict gate (`disallow_untyped_defs`) holds on the "
        "accounting-critical packages; annotations are how refactors keep "
        "bits `int` end to end."
    )

    def check(self, context: ModuleContext) -> Iterator[Finding]:
        yield from self._scan(context, context.tree.body, in_class=False)

    def _scan(
        self,
        context: ModuleContext,
        body: Sequence[ast.stmt],
        in_class: bool,
    ) -> Iterator[Finding]:
        for statement in body:
            if isinstance(statement, ast.ClassDef):
                yield from self._scan(context, statement.body, in_class=True)
            elif isinstance(statement, (ast.FunctionDef, ast.AsyncFunctionDef)):
                if statement.name.startswith("_"):
                    continue
                yield from self._check_function(context, statement, in_class)

    def _check_function(
        self,
        context: ModuleContext,
        node: ast.FunctionDef,
        in_class: bool,
    ) -> Iterator[Finding]:
        arguments = node.args
        positional = list(arguments.posonlyargs) + list(arguments.args)
        if in_class and positional and not self._is_static(node):
            positional = positional[1:]  # self / cls by position
        missing = [
            argument.arg
            for argument in positional + list(arguments.kwonlyargs)
            if argument.annotation is None
        ]
        if missing:
            yield self.finding(
                context,
                node,
                f"public function {node.name} has unannotated "
                f"parameter(s): {', '.join(missing)}",
            )
        if node.returns is None:
            yield self.finding(
                context,
                node,
                f"public function {node.name} has no return annotation",
            )

    @staticmethod
    def _is_static(node: ast.FunctionDef) -> bool:
        for decorator in node.decorator_list:
            name = _dotted_name(decorator)
            if name and name.rsplit(".", maxsplit=1)[-1] == "staticmethod":
                return True
        return False


# -- R008 ---------------------------------------------------------------------

_MUTABLE_CALLS = frozenset({"list", "dict", "set", "bytearray", "defaultdict", "deque"})


def _is_mutable_default(node: ast.expr) -> bool:
    if isinstance(node, (ast.List, ast.Dict, ast.Set, ast.ListComp, ast.DictComp, ast.SetComp)):
        return True
    if isinstance(node, ast.Call):
        name = _dotted_name(node.func)
        if name and name.rsplit(".", maxsplit=1)[-1] in _MUTABLE_CALLS:
            return True
    return False


@register_rule
class NoMutableDefaultRule(LintRule):
    """No shared mutable default arguments."""

    rule_id = "R008"
    name = "no-mutable-default"
    severity = Severity.ERROR
    description = (
        "no mutable default argument values (`[]`, `{}`, `set()`, ...); "
        "default to `None` and construct inside the function"
    )
    rationale = (
        "A mutable default is process-global state: one simulator run's "
        "leftovers leak into the next, which is exactly the class of "
        "irreproducibility R004 exists to kill."
    )

    def check(self, context: ModuleContext) -> Iterator[Finding]:
        for node in ast.walk(context.tree):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            defaults = list(node.args.defaults) + [
                default for default in node.args.kw_defaults if default is not None
            ]
            for default in defaults:
                if _is_mutable_default(default):
                    yield self.finding(
                        context,
                        default,
                        f"mutable default argument in {node.name}; use "
                        f"`None` and construct per call",
                    )


# -- R009 ---------------------------------------------------------------------

_RAW_DERIVATIONS = frozenset({"distance_matrix", "_bfs_tree"})


@register_rule
class ContextRoutedDerivationsRule(LintRule):
    """Derived graph computations go through the shared GraphContext."""

    rule_id = "R009"
    name = "context-routed-derivations"
    severity = Severity.ERROR
    description = (
        "outside `repro.graphs`, no direct `distance_matrix(...)` or "
        "`_bfs_tree(...)` calls; derive through a `GraphContext` "
        "(`ctx.distances()`, `ctx.bfs_tree(root)`) so the result is "
        "memoized once per graph"
    )
    rationale = (
        "The GraphContext refactor made the distance matrix a "
        "compute-once-per-graph quantity; a raw call reintroduces an "
        "O(n·m) BFS sweep per call site and splits the corruption "
        "self-healer from its single pristine source. Deliberate "
        "cache-bypass measurements carry a line suppression."
    )

    def check(self, context: ModuleContext) -> Iterator[Finding]:
        if context.in_package("repro.graphs"):
            return
        for node in ast.walk(context.tree):
            if not isinstance(node, ast.Call):
                continue
            if isinstance(node.func, ast.Name):
                callee = node.func.id
            elif isinstance(node.func, ast.Attribute):
                callee = node.func.attr
            else:
                continue
            if callee in _RAW_DERIVATIONS:
                yield self.finding(
                    context,
                    node,
                    f"direct `{callee}(...)` call outside `repro.graphs`; "
                    f"go through the shared context "
                    f"(`get_context(graph)` / `scheme.ctx`) so the "
                    f"derivation is computed once per graph",
                )


@register_rule
class UnusedSuppressionRule(LintRule):
    """R014: a suppression comment that silences nothing is stale."""

    rule_id = "R014"
    name = "unused-suppression"
    severity = Severity.WARNING
    description = (
        "a `# repro-lint: disable=RXXX` comment that suppresses zero "
        "findings is reported so documented exceptions cannot outlive the "
        "code they excused"
    )
    rationale = (
        "Suppressions are the audit trail of deliberate rule exceptions; "
        "once the excused code is rewritten, a leftover comment silently "
        "grants future violations a free pass. The runner counts every "
        "suppression's uses across the whole run (flow rules included) and "
        "flags the ones that earned none."
    )

    def check(self, context: ModuleContext) -> Iterator[Finding]:
        # Driven by the runner after all other rules have recorded their
        # suppression uses; per-module checking cannot see flow findings.
        return iter(())
