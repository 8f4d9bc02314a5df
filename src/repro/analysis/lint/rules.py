"""The repo-specific rules (R001–R004, R006–R009) and the suppression
audit (R014).

Each rule encodes an invariant the paper's bookkeeping or the simulator's
design depends on; ``rationale`` strings say which.  Rules are pure AST
passes over one linted file at a time.  Two vocabularies are read from
the package itself: R002's taxonomies (the members of the seven enums it
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


def _import_aliases(tree: ast.Module) -> Dict[str, str]:
    """Local name -> the dotted target an import binds it to.

    ``import time as _time`` binds ``_time`` to ``time``, ``import
    numpy.random as npr`` binds ``npr`` to ``numpy.random`` and ``from
    math import log2`` binds ``log2`` to ``math.log2``.  ``np`` means
    numpy even where a snippet omits the import.
    """
    aliases: Dict[str, str] = {"np": "numpy"}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.asname:
                    aliases[alias.asname] = alias.name
                else:
                    head = alias.name.split(".", maxsplit=1)[0]
                    aliases[head] = head
        elif isinstance(node, ast.ImportFrom) and node.module and not node.level:
            for alias in node.names:
                aliases[alias.asname or alias.name] = f"{node.module}.{alias.name}"
    return aliases


def _resolved_name(node: ast.AST, aliases: Dict[str, str]) -> Optional[str]:
    """``_dotted_name`` with its leading name resolved through the imports."""
    dotted = _dotted_name(node)
    if dotted is None:
        return None
    head, dot, rest = dotted.partition(".")
    return aliases.get(head, head) + dot + rest


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

_FLOAT_CALLS = frozenset(
    {
        "float",
        "math.log", "math.log2", "math.log10", "math.log1p", "math.sqrt",
        "math.exp", "math.pow", "math.lgamma",
        "statistics.mean", "statistics.fmean", "statistics.median",
        "statistics.stdev", "statistics.pstdev", "statistics.variance",
        "numpy.mean", "numpy.average", "numpy.log", "numpy.log2",
        "numpy.sqrt",
    }
)
"""Calls (import-resolved) whose value is a float."""
_INTEGERIZERS = frozenset({"int", "round", "math.ceil", "math.floor"})
"""Calls that turn whatever they wrap back into an integer."""


def _names_float(annotation: Optional[ast.expr]) -> bool:
    """Whether an annotation mentions ``float`` (``float``, ``Dict[int, float]``)."""
    return annotation is not None and any(
        isinstance(node, ast.Name) and node.id == "float"
        for node in ast.walk(annotation)
    )


def _float_calls(
    value: ast.expr, aliases: Dict[str, str]
) -> Iterator[Tuple[ast.Call, str]]:
    """``(call, callee)`` for each float-valued call no integeriser wraps."""
    stack: List[ast.AST] = [value]
    while stack:
        node = stack.pop()
        if isinstance(node, ast.Call):
            if (
                isinstance(node.func, ast.Attribute)
                and node.func.attr == "bit_length"
            ):
                continue
            callee = _resolved_name(node.func, aliases)
            if callee in _INTEGERIZERS:
                continue
            if callee in _FLOAT_CALLS:
                yield node, _dotted_name(node.func) or callee
                continue
        stack.extend(ast.iter_child_nodes(node))


def _own_statements(body: Sequence[ast.stmt]) -> Iterator[ast.stmt]:
    """The statements of a function body, not descending into nested defs."""
    stack: List[ast.stmt] = list(body)
    while stack:
        statement = stack.pop()
        if isinstance(
            statement, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
        ):
            continue
        yield statement
        stack.extend(
            child
            for child in ast.iter_child_nodes(statement)
            if isinstance(child, ast.stmt)
        )


@register_rule
class BitIntegerArithmeticRule(LintRule):
    """Bit accounting must stay integral."""

    rule_id = "R001"
    name = "bit-integer-arithmetic"
    severity = Severity.ERROR
    description = (
        "no true division, float literals or float-valued calls "
        "(`math.log2`, `float`, `np.mean`, ...) on bit-accounting "
        "identifiers (`bits`, `*_bits`, `bits_*`) or in the return of a "
        "`*_bits` function; use `//`, `bit_length()`, an integeriser "
        "(`int`, `round`, `math.ceil`, `math.floor`) or "
        "`minimal_label_bits`-style integer helpers"
    )
    rationale = (
        "Table 1 of the paper is an exact bits-count grid; one float in a "
        "`*_bits` quantity silently falsifies the headline constants. "
        "Intentional ratio diagnostics carry a line suppression, and a "
        "`*_bits` function annotated to return a float is one."
    )

    def check(self, context: ModuleContext) -> Iterator[Finding]:
        aliases = _import_aliases(context.tree)
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
            elif isinstance(node, ast.AugAssign):
                name = _root_identifier(node.target)
                if not _is_bit_identifier(name):
                    continue
                if isinstance(node.op, ast.Div):
                    yield self.finding(
                        context,
                        node,
                        f"`/=` on bit quantity {name!r}; use `//=`",
                    )
                yield from self._float_valued(context, node.value, name, aliases)
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
                    yield from self._float_valued(
                        context, node.value, name, aliases
                    )
            elif isinstance(node, ast.AnnAssign):
                name = _root_identifier(node.target)
                if not _is_bit_identifier(name):
                    continue
                if isinstance(node.annotation, ast.Name) and (
                    node.annotation.id == "float"
                ):
                    yield self.finding(
                        context,
                        node,
                        f"bit quantity {name!r} annotated `float`; bit "
                        f"counts are integers",
                    )
                elif node.value is not None:
                    yield from self._float_valued(
                        context, node.value, name, aliases
                    )
            elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                if _is_bit_identifier(node.name) and not _names_float(
                    node.returns
                ):
                    for statement in _own_statements(node.body):
                        if isinstance(statement, ast.Return) and statement.value:
                            yield from self._float_valued(
                                context,
                                statement.value,
                                f"{node.name}()",
                                aliases,
                            )

    def _float_valued(
        self,
        context: ModuleContext,
        value: ast.expr,
        name: Optional[str],
        aliases: Dict[str, str],
    ) -> Iterator[Finding]:
        for call, callee in _float_calls(value, aliases):
            yield self.finding(
                context,
                call,
                f"float-valued call `{callee}(...)` feeds bit quantity "
                f"{name!r}; bit counts are integers — wrap it in an "
                f"integeriser (`math.ceil`, `int`, ...) or annotate a "
                f"deliberate diagnostic `-> float`",
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
_RNG_SEED_KEYWORDS: Dict[str, str] = {
    "random.Random": "x",
    "numpy.random.default_rng": "seed",
    "numpy.random.RandomState": "seed",
    "numpy.random.SeedSequence": "entropy",
    "numpy.random.PCG64": "seed",
}
"""Seeded RNG constructors -> the keyword of their seed argument
(``SystemRandom`` has no seed by design and is not one of them)."""
_SEED_WRAPPERS = frozenset({"int", "abs", "hash"})
"""The only calls a seed argument may contain."""
_AMBIENT_READS = frozenset(
    {
        "time.time", "time.time_ns", "os.urandom", "os.getrandom",
        "uuid.uuid1", "uuid.uuid4", "datetime.datetime.now",
        "datetime.datetime.utcnow", "datetime.date.today",
    }
)
"""Wall-clock and entropy reads (every ``secrets.*`` call is one too).
Duration clocks (``perf_counter``, ``monotonic``) are not: they time a
run without feeding its results."""


def _is_ambient_read(callee: Optional[str]) -> bool:
    return callee is not None and (
        callee in _AMBIENT_READS or callee.startswith("secrets.")
    )


@register_rule
class SeededRngRule(LintRule):
    """Every RNG is explicitly seeded; nothing reads the clock or entropy."""

    rule_id = "R004"
    name = "seeded-rng"
    severity = Severity.ERROR
    description = (
        "no module-level `random.*` / `np.random.*` draws, no RNG "
        "constructed without a seed or from a seed that calls anything but "
        "`int`/`abs`/`hash`, and no wall-clock or entropy reads "
        "(`time.time`, `os.urandom`, `secrets.*`, `uuid.uuid4`, "
        "`datetime.now`) in `src/repro`, import aliases resolved; "
        "construct `random.Random(seed)` or `np.random.default_rng(seed)` "
        "and thread it explicitly"
    )
    rationale = (
        "Every experiment in the repo is a claim about seeded G(n, 1/2) "
        "samples, and the RunManifest replays them from recorded seeds; "
        "ambient RNG state, an unseeded generator or a clock-derived seed "
        "makes runs irreproducible and lets two subsystems silently "
        "correlate their draws."
    )

    def check(self, context: ModuleContext) -> Iterator[Finding]:
        aliases = _import_aliases(context.tree)
        for node in ast.walk(context.tree):
            if isinstance(node, ast.Attribute):
                yield from self._check_draw(context, node, aliases)
            elif isinstance(node, ast.Call):
                yield from self._check_call(context, node, aliases)
            elif (
                isinstance(node, ast.ImportFrom)
                and node.module in ("random", "numpy.random")
                and not node.level
            ):
                allowed = (
                    _RANDOM_ALLOWED if node.module == "random"
                    else _NP_RANDOM_ALLOWED
                )
                for alias in node.names:
                    if alias.name not in allowed:
                        yield self.finding(
                            context,
                            node,
                            f"`from {node.module} import {alias.name}` "
                            f"imports an ambient-state RNG function; import "
                            f"the module and construct a seeded generator",
                        )

    def _check_draw(
        self,
        context: ModuleContext,
        node: ast.Attribute,
        aliases: Dict[str, str],
    ) -> Iterator[Finding]:
        target = _resolved_name(node, aliases)
        if target is None:
            return
        module, _, attr = target.rpartition(".")
        if (module == "random" and attr not in _RANDOM_ALLOWED) or (
            module == "numpy.random" and attr not in _NP_RANDOM_ALLOWED
        ):
            written = _dotted_name(node)
            via = "" if written == target else f" (`{target}`)"
            yield self.finding(
                context,
                node,
                f"module-level `{written}`{via} draws from ambient global "
                f"RNG state; thread a seeded `random.Random(seed)` or "
                f"`np.random.default_rng(seed)` instead",
            )

    def _check_call(
        self,
        context: ModuleContext,
        node: ast.Call,
        aliases: Dict[str, str],
    ) -> Iterator[Finding]:
        callee = _resolved_name(node.func, aliases)
        written = _dotted_name(node.func)
        if _is_ambient_read(callee):
            yield self.finding(
                context,
                node,
                f"`{written}()` reads the wall clock or OS entropy; results "
                f"must derive from explicit seeds (time a run with "
                f"`time.perf_counter`)",
            )
            return
        keyword = _RNG_SEED_KEYWORDS.get(callee or "")
        if keyword is None:
            return
        seed: Optional[ast.expr] = node.args[0] if node.args else next(
            (kw.value for kw in node.keywords if kw.arg == keyword), None
        )
        if seed is None or (
            isinstance(seed, ast.Constant) and seed.value is None
        ):
            yield self.finding(
                context,
                node,
                f"`{written}` constructed without a seed; pass an explicit "
                f"seed (a parameter, RunManifest field or constant)",
            )
            return
        for inner in ast.walk(seed):
            if not isinstance(inner, ast.Call):
                continue
            inner_callee = _resolved_name(inner.func, aliases)
            if inner_callee in _SEED_WRAPPERS or _is_ambient_read(inner_callee):
                continue  # an ambient read is reported at its own call
            yield self.finding(
                context,
                node,
                f"seed of `{written}` calls "
                f"`{_dotted_name(inner.func) or '<expression>'}(...)`; a "
                f"seed must trace to an explicit parameter or constant "
                f"(only `int`/`abs`/`hash` may wrap it)",
            )
            return


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
_ADJ_PREFIX = "_adj"
"""The adjacency family of ``LabeledGraph`` (``_adj_edges``, ``_adj_sets``,
``_adj_sorted``)."""
_MUTATOR_METHODS = frozenset(
    {
        "add", "append", "appendleft", "clear", "discard", "extend",
        "insert", "pop", "popleft", "remove", "setdefault", "update",
        "__setitem__",
    }
)


def _store_targets(target: ast.expr) -> Iterator[ast.expr]:
    """The individual targets of a (possibly unpacking) store."""
    if isinstance(target, (ast.Tuple, ast.List)):
        for element in target.elts:
            yield from _store_targets(element)
    elif isinstance(target, ast.Starred):
        yield from _store_targets(target.value)
    else:
        yield target


def _adj_attribute(target: ast.expr) -> Optional[str]:
    """The ``_adj*`` attribute a target writes through, if any."""
    node: ast.expr = target
    while isinstance(node, (ast.Attribute, ast.Subscript)):
        if isinstance(node, ast.Attribute) and node.attr.startswith(_ADJ_PREFIX):
            return node.attr
        node = node.value
    return None


@register_rule
class ContextRoutedDerivationsRule(LintRule):
    """Derived graph computations go through the shared GraphContext, and
    only ``repro.graphs`` writes a graph's adjacency."""

    rule_id = "R009"
    name = "context-routed-derivations"
    severity = Severity.ERROR
    description = (
        "outside `repro.graphs`, no direct `distance_matrix(...)` or "
        "`_bfs_tree(...)` calls — derive through a `GraphContext` "
        "(`ctx.distances()`, `ctx.bfs_tree(root)`) so the result is "
        "memoized once per graph — and no store, `del` or mutating method "
        "call on an `_adj*` attribute"
    )
    rationale = (
        "The GraphContext refactor made the distance matrix a "
        "compute-once-per-graph quantity; a raw call reintroduces an "
        "O(n·m) BFS sweep per call site and splits the corruption "
        "self-healer from its single pristine source. The memo is sound "
        "only because a graph's adjacency never changes: `with_edge` and "
        "`without_edge` return new graphs, so a write to `_adj*` anywhere "
        "else would serve stale derivations. Deliberate cache-bypass "
        "measurements carry a line suppression."
    )

    def check(self, context: ModuleContext) -> Iterator[Finding]:
        if context.in_package("repro.graphs"):
            return
        for node in ast.walk(context.tree):
            if isinstance(node, (ast.Assign, ast.Delete)):
                targets = node.targets
            elif isinstance(node, ast.AugAssign) or (
                isinstance(node, ast.AnnAssign) and node.value is not None
            ):
                targets = [node.target]
            elif isinstance(node, ast.Call):
                yield from self._check_call(context, node)
                continue
            else:
                continue
            for target in targets:
                for leaf in _store_targets(target):
                    attribute = _adj_attribute(leaf)
                    if attribute is not None:
                        yield self._adjacency_write(context, node, attribute)

    def _check_call(
        self, context: ModuleContext, node: ast.Call
    ) -> Iterator[Finding]:
        if isinstance(node.func, ast.Name):
            callee = node.func.id
        elif isinstance(node.func, ast.Attribute):
            callee = node.func.attr
            if callee in _MUTATOR_METHODS:
                attribute = _adj_attribute(node.func.value)
                if attribute is not None:
                    yield self._adjacency_write(context, node, attribute)
                    return
        else:
            return
        if callee in _RAW_DERIVATIONS:
            yield self.finding(
                context,
                node,
                f"direct `{callee}(...)` call outside `repro.graphs`; "
                f"go through the shared context "
                f"(`get_context(graph)` / `scheme.ctx`) so the "
                f"derivation is computed once per graph",
            )

    def _adjacency_write(
        self, context: ModuleContext, node: ast.AST, attribute: str
    ) -> Finding:
        return self.finding(
            context,
            node,
            f"write to graph adjacency `{attribute}` outside `repro.graphs`; "
            f"graphs are immutable — build a new one (`with_edge` / "
            f"`without_edge`) so no GraphContext serves stale derivations",
        )


@register_rule
class UnusedSuppressionRule(LintRule):
    """R014: a suppression comment that silences nothing is stale."""

    rule_id = "R014"
    name = "unused-suppression"
    severity = Severity.WARNING
    description = (
        "a `# repro-lint: disable=RXXX` comment that suppresses zero "
        "findings, or names an unknown rule id, is reported so documented "
        "exceptions cannot outlive the code they excused"
    )
    rationale = (
        "Suppressions are the audit trail of deliberate rule exceptions; "
        "once the excused code is rewritten, a leftover comment silently "
        "grants future violations a free pass. The runner counts every "
        "suppression's uses in the run and flags the ones that earned "
        "none, and, in every run, the ones naming a rule id that does not "
        "exist (a typo or a retired rule), which can never earn any."
    )

    def check(self, context: ModuleContext) -> Iterator[Finding]:
        # Driven by the runner after every other rule has recorded its
        # suppression uses for the file.
        return iter(())
