"""Positive and negative fixtures for each per-file lint rule (R001–R009)."""

from __future__ import annotations

import textwrap

from repro.analysis.lint import lint_source, rule_by_id


def findings_for(rule_id, source, module="repro.fixture"):
    result = lint_source(
        textwrap.dedent(source),
        path="fixture.py",
        active_rules=[rule_by_id(rule_id)],
        module=module,
    )
    return result.findings


# -- R001: bit accounting stays integral -------------------------------------


def test_r001_flags_true_division_on_bit_identifier():
    findings = findings_for(
        "R001",
        """
        total_bits = 10
        half = total_bits / 2
        """,
    )
    assert len(findings) == 1
    assert findings[0].rule_id == "R001"
    assert findings[0].line == 3
    assert "total_bits" in findings[0].message


def test_r001_flags_attribute_operands_float_literals_and_annotations():
    findings = findings_for(
        "R001",
        """
        report.routing_bits /= 4
        label_bits = 3.5
        aux_bits: float = 0
        mean = report.total_bits / report.n
        """,
    )
    assert [f.line for f in findings] == [2, 3, 4, 5]


def test_r001_allows_integer_arithmetic_and_unrelated_division():
    findings = findings_for(
        "R001",
        """
        total_bits = 10
        half = total_bits // 2
        ratio = latency / 2.0
        label_bits = header.bit_length()
        """,
    )
    assert findings == []


def test_r001_flags_float_valued_call_in_bits_return():
    findings = findings_for(
        "R001",
        """
        import math

        def table_bits(n: int):
            return math.log2(n) + 7
        """,
    )
    assert [f.line for f in findings] == [5]
    assert "math.log2" in findings[0].message


def test_r001_flags_float_call_in_bits_assignment():
    findings = findings_for(
        "R001",
        """
        from math import log2 as lg

        def report(n: int) -> int:
            header_bits = lg(n)
            header_bits += float(n)
            return int(header_bits)
        """,
    )
    assert [f.line for f in findings] == [5, 6]
    assert "lg" in findings[0].message
    assert "float" in findings[1].message


def test_r001_allows_integerised_calls_and_float_annotated_returns():
    findings = findings_for(
        "R001",
        """
        import math
        from typing import Dict

        def table_bits(n: int) -> int:
            return n * 3 + len(str(n))

        def ratio_bits(n: int) -> float:
            # Annotated float: a deliberate diagnostic, not a charge.
            return math.log2(n)

        def mean_total_bits(totals) -> Dict[int, float]:
            return {n: float(sum(t)) for n, t in totals.items()}

        def ceil_bits(n: int) -> int:
            label_bits = round(math.sqrt(n))
            return math.ceil(math.log2(n)) + int(math.log(n)) + label_bits

        def width_bits(n: int) -> int:
            return max(1, n.bit_length())
        """,
    )
    assert findings == []


# -- R002: DropReason dispatches are exhaustive ------------------------------


def test_r002_flags_incomplete_if_elif_chain_without_default():
    findings = findings_for(
        "R002",
        """
        def bucket(reason):
            if reason == DropReason.LINK_DOWN:
                return "link"
            elif reason == DropReason.NODE_DOWN:
                return "node"
        """,
    )
    assert len(findings) == 1
    assert "HOP_LIMIT" in findings[0].message
    assert "QUEUE_OVERFLOW" in findings[0].message


def test_r002_accepts_chain_with_default_or_full_coverage():
    defaulted = findings_for(
        "R002",
        """
        def bucket(reason):
            if reason == DropReason.LINK_DOWN:
                return "link"
            elif reason == DropReason.NODE_DOWN:
                return "node"
            else:
                return "other"
        """,
    )
    assert defaulted == []
    complete = findings_for(
        "R002",
        """
        def bucket(reason):
            if reason in (DropReason.LINK_DOWN, DropReason.NODE_DOWN,
                          DropReason.ENDPOINT_DOWN, DropReason.TABLE_CORRUPT):
                return "fault"
            elif reason in (DropReason.HOP_LIMIT, DropReason.NO_ROUTE,
                            DropReason.INVALID_FORWARD,
                            DropReason.ROUTING_LOOP,
                            DropReason.QUEUE_OVERFLOW):
                return "routing"
        """,
    )
    assert complete == []


def test_r002_flags_dispatch_missing_table_corrupt():
    # Seeded violation for the corruption drop reason specifically: a chain
    # covering every *other* member must be flagged, and the finding must
    # name the missing TABLE_CORRUPT member.
    findings = findings_for(
        "R002",
        """
        def bucket(reason):
            if reason in (DropReason.LINK_DOWN, DropReason.NODE_DOWN,
                          DropReason.ENDPOINT_DOWN):
                return "fault"
            elif reason in (DropReason.HOP_LIMIT, DropReason.NO_ROUTE,
                            DropReason.INVALID_FORWARD,
                            DropReason.QUEUE_OVERFLOW):
                return "routing"
        """,
    )
    assert len(findings) == 1
    assert "TABLE_CORRUPT" in findings[0].message


def test_r002_flags_dispatch_missing_routing_loop():
    # Seeded violation for the churn loop-detection reason: the full
    # pre-churn vocabulary is no longer exhaustive.
    findings = findings_for(
        "R002",
        """
        def bucket(reason):
            if reason in (DropReason.LINK_DOWN, DropReason.NODE_DOWN,
                          DropReason.ENDPOINT_DOWN, DropReason.TABLE_CORRUPT):
                return "fault"
            elif reason in (DropReason.HOP_LIMIT, DropReason.NO_ROUTE,
                            DropReason.INVALID_FORWARD,
                            DropReason.QUEUE_OVERFLOW):
                return "routing"
        """,
    )
    assert len(findings) == 1
    assert "ROUTING_LOOP" in findings[0].message


def test_r002_flags_incomplete_fault_kind_dispatch():
    # Seeded violation over the chaos taxonomy: `is` comparisons count as
    # dispatch branches, and the finding names the taxonomy.
    findings = findings_for(
        "R002",
        """
        def apply(event):
            if event.kind is FaultKind.LINK_DOWN:
                return "down"
            elif event.kind is FaultKind.LINK_UP:
                return "up"
            elif event.kind is FaultKind.NODE_DOWN:
                return "crash"
            elif event.kind is FaultKind.NODE_UP:
                return "recover"
        """,
    )
    assert len(findings) == 1
    assert "FaultKind" in findings[0].message
    assert "TABLE_CORRUPT" in findings[0].message
    assert "TABLE_REPAIR" in findings[0].message


def test_r002_flags_incomplete_topology_mutation_dispatch():
    # Seeded violation over the churn taxonomy.
    findings = findings_for(
        "R002",
        """
        def apply(mutation):
            if mutation.kind is TopologyMutationKind.EDGE_ADD:
                return "add"
            elif mutation.kind is TopologyMutationKind.EDGE_REMOVE:
                return "remove"
        """,
    )
    assert len(findings) == 1
    assert "TopologyMutationKind" in findings[0].message
    assert "NODE_JOIN" in findings[0].message
    assert "NODE_LEAVE" in findings[0].message


def test_r002_flags_incomplete_store_fault_kind_dispatch():
    # Seeded violation over the storage-fault taxonomy: a handler that
    # forgets BIT_ROT would never check for post-hoc corruption.
    findings = findings_for(
        "R002",
        """
        def inject(fault):
            if fault.kind is StoreFaultKind.TORN_WRITE:
                return "tear"
            elif fault.kind is StoreFaultKind.SHORT_WRITE:
                return "truncate"
            elif fault.kind is StoreFaultKind.LOST_FSYNC:
                return "forget"
            elif fault.kind is StoreFaultKind.RENAME_FAIL:
                return "refuse"
        """,
    )
    assert len(findings) == 1
    assert "StoreFaultKind" in findings[0].message
    assert "BIT_ROT" in findings[0].message


def test_r002_flags_incomplete_record_kind_dispatch():
    # Seeded violation over the journal record taxonomy: a `match` that
    # replays only PUTs drops every active-pointer switch on recovery.
    findings = findings_for(
        "R002",
        """
        def replay(record):
            match record.kind:
                case RecordKind.PUT:
                    return "put"
        """,
    )
    assert len(findings) == 1
    assert "RecordKind" in findings[0].message
    assert "SWAP" in findings[0].message


def test_r002_accepts_complete_store_fault_kind_dispatch():
    findings = findings_for(
        "R002",
        """
        def inject(fault):
            if fault.kind is StoreFaultKind.TORN_WRITE:
                return "tear"
            elif fault.kind is StoreFaultKind.SHORT_WRITE:
                return "truncate"
            elif fault.kind is StoreFaultKind.LOST_FSYNC:
                return "forget"
            elif fault.kind is StoreFaultKind.RENAME_FAIL:
                return "refuse"
            elif fault.kind is StoreFaultKind.BIT_ROT:
                return "rot"
        """,
    )
    assert findings == []


def test_r002_flags_incomplete_better_direction_dispatch():
    # Seeded violation over the bench-gating taxonomy: a comparator that
    # forgets NEUTRAL would gate on wall-clock seconds.
    findings = findings_for(
        "R002",
        """
        def gate(metric):
            if metric.direction is BetterDirection.HIGHER:
                return "regress-if-lower"
            elif metric.direction is BetterDirection.LOWER:
                return "regress-if-higher"
        """,
    )
    assert len(findings) == 1
    assert "BetterDirection" in findings[0].message
    assert "NEUTRAL" in findings[0].message


def test_r002_accepts_complete_better_direction_dispatch():
    findings = findings_for(
        "R002",
        """
        def gate(metric):
            if metric.direction is BetterDirection.HIGHER:
                return "regress-if-lower"
            elif metric.direction is BetterDirection.LOWER:
                return "regress-if-higher"
            elif metric.direction is BetterDirection.NEUTRAL:
                return "informational"
        """,
    )
    assert findings == []


def test_r002_accepts_complete_mutation_kind_match():
    findings = findings_for(
        "R002",
        """
        def label(kind):
            match kind:
                case MutationKind.BIT_FLIP:
                    return "flip"
                case MutationKind.BURST:
                    return "burst"
                case MutationKind.TRUNCATE:
                    return "truncate"
        """,
    )
    assert findings == []


def test_r002_mixed_taxonomy_chain_is_not_a_dispatch():
    # A chain comparing against two different taxonomies is heuristically
    # not a single-vocabulary dispatch and must not be flagged.
    findings = findings_for(
        "R002",
        """
        def weird(event):
            if event.kind is FaultKind.LINK_DOWN:
                return "fault"
            elif event.reason is DropReason.LINK_DOWN:
                return "drop"
        """,
    )
    assert findings == []


def test_r002_single_membership_test_is_not_a_dispatch():
    findings = findings_for(
        "R002",
        """
        def is_link(reason):
            if reason == DropReason.LINK_DOWN:
                return True
            return False
        """,
    )
    assert findings == []


def test_r002_match_statement_needs_wildcard_or_full_coverage():
    findings = findings_for(
        "R002",
        """
        def bucket(reason):
            match reason:
                case DropReason.LINK_DOWN:
                    return "link"
                case DropReason.NODE_DOWN:
                    return "node"
        """,
    )
    assert len(findings) == 1
    assert "case _" in findings[0].message
    covered = findings_for(
        "R002",
        """
        def bucket(reason):
            match reason:
                case DropReason.LINK_DOWN:
                    return "link"
                case _:
                    return "other"
        """,
    )
    assert covered == []


def test_r002_flags_incomplete_taxonomy_dict_literal():
    # The batch kernel builds lookup tables as dict literals; a partial
    # table silently mis-buckets the members it omits.
    findings = findings_for(
        "R002",
        """
        WEIGHTS = {
            DropReason.NO_ROUTE: 1.0,
            DropReason.LINK_DOWN: 2.0,
        }
        """,
    )
    assert len(findings) == 1
    assert "omits" in findings[0].message
    assert "HOP_LIMIT" in findings[0].message


def test_r002_complete_or_spread_dict_literals_are_clean():
    members = ", ".join(
        f"DropReason.{name}: 0"
        for name in (
            "ENDPOINT_DOWN", "LINK_DOWN", "NODE_DOWN", "HOP_LIMIT",
            "NO_ROUTE", "INVALID_FORWARD", "QUEUE_OVERFLOW",
            "TABLE_CORRUPT", "ROUTING_LOOP",
        )
    )
    assert findings_for("R002", f"FULL = {{{members}}}") == []
    # A ** spread may supply the rest; not statically decidable.
    assert (
        findings_for(
            "R002",
            """
            PARTIAL = {
                DropReason.NO_ROUTE: 1.0,
                DropReason.LINK_DOWN: 2.0,
                **EXTRA,
            }
            """,
        )
        == []
    )
    # Non-taxonomy and mixed-taxonomy dicts are not dispatch tables.
    assert (
        findings_for(
            "R002",
            """
            MIXED = {
                DropReason.NO_ROUTE: 1.0,
                FaultKind.LINK_DOWN: 2.0,
            }
            """,
        )
        == []
    )


# -- R003: nullable-tracer idiom in hot paths --------------------------------


def test_r003_flags_unguarded_span_call_in_simulator():
    findings = findings_for(
        "R003",
        """
        def route(tracer, msg):
            tracer.hop(msg, 1, 2, 0)
        """,
        module="repro.simulator.fake",
    )
    assert len(findings) == 1
    assert "tracer.hop" in findings[0].message


def test_r003_flags_unguarded_sample_and_converged_spans():
    # Seeded violations for the end-of-run span names: the sampler's
    # summary and the churn convergence spans are hot-path emissions
    # like any other.
    findings = findings_for(
        "R003",
        """
        def finish(self):
            self._tracer.sample("rate=0.01", time=9.0)
            self._tracer.converged(time=9.0, duration=4.0)
        """,
        module="repro.simulator.fake",
    )
    assert len(findings) == 2
    assert "tracer.sample" in findings[0].message
    assert "tracer.converged" in findings[1].message


def test_r003_span_vocabulary_is_read_from_the_tracer():
    # Seeded violation: a SamplingTracer turns `promote` into an inject
    # span, so an unguarded promote costs an untraced run what an
    # unguarded inject does; both must be flagged.
    findings = findings_for(
        "R003",
        """
        def retry(tracer, msg):
            tracer.promote(msg, 1, 2)
            tracer.inject(msg, 1, 2)
        """,
        module="repro.simulator.fake",
    )
    assert [f.message.split("`")[1] for f in findings] == [
        "tracer.promote(...)",
        "tracer.inject(...)",
    ]


def test_r003_accepts_guard_early_return_and_and_guard():
    findings = findings_for(
        "R003",
        """
        def route(tracer, msg):
            if tracer is not None:
                tracer.hop(msg, 1, 2, 0)

        def finish(self, msg):
            tracer = self._tracer
            if tracer is None:
                return None
            tracer.deliver(msg, 3)

        def fault(self, event):
            if self._tracer is not None and self._tracer.enabled:
                self._tracer.fault("link", ("link", "1", "2"), 0.0)
        """,
        module="repro.simulator.fake",
    )
    assert findings == []


def test_r003_guard_does_not_cross_function_boundaries():
    findings = findings_for(
        "R003",
        """
        def outer(tracer, msg):
            if tracer is not None:
                def inner():
                    tracer.drop(msg, 1, "NO_ROUTE")
                inner()
        """,
        module="repro.core.fake",
    )
    assert len(findings) == 1


def test_r003_out_of_scope_packages_are_ignored():
    findings = findings_for(
        "R003",
        """
        def report(tracer, msg):
            tracer.emit(msg)
        """,
        module="repro.observability.fake",
    )
    assert findings == []


def test_r003_flags_unguarded_store_spans_in_store_package():
    # Seeded violations for the durable-store spans: persist, reject,
    # recover and swap are hot-path emissions, and repro.store is in
    # the rule's scanned package set.
    findings = findings_for(
        "R003",
        """
        def put(self, record):
            self.tracer.persist("put", "ft@1", time=0.0, duration=0.1)

        def quarantine(self, damage):
            self.tracer.reject("crc mismatch", "offset 40", time=0.0)

        def reopen(self):
            self.tracer.recover("journal", time=0.0, duration=0.2)
            self.tracer.swap("ft@2", time=0.0, cause="hot-swap")
        """,
        module="repro.store.fake",
    )
    assert [f.message.split("`")[1] for f in findings] == [
        "self.tracer.persist(...)",
        "self.tracer.reject(...)",
        "self.tracer.recover(...)",
        "self.tracer.swap(...)",
    ]


def test_r003_accepts_guarded_store_spans():
    findings = findings_for(
        "R003",
        """
        def put(self, record):
            if self.tracer is not None:
                self.tracer.persist("put", "ft@1", time=0.0, duration=0.1)
        """,
        module="repro.store.fake",
    )
    assert findings == []


def test_r003_covers_the_batch_kernel_module():
    # Seeded violation: the kernel module lives in repro.simulator, so an
    # unguarded span in a kernel-shaped fast path cannot slip past R003.
    findings = findings_for(
        "R003",
        """
        def _step_cohort(self, batch, now):
            tracer = self._tracer
            for i in batch.rows:
                tracer.hop(int(batch.msg_id[i]), 1, 2, now)
        """,
        module="repro.simulator.kernel",
    )
    assert len(findings) == 1
    assert "tracer.hop" in findings[0].message
    guarded = findings_for(
        "R003",
        """
        def _step_cohort(self, batch, now):
            tracer = self._tracer
            for i in batch.rows:
                if tracer is not None:
                    tracer.hop(int(batch.msg_id[i]), 1, 2, now)
        """,
        module="repro.simulator.kernel",
    )
    assert guarded == []


# -- R004: explicit seeded RNGs ----------------------------------------------


def test_r004_flags_module_level_random_and_from_imports():
    findings = findings_for(
        "R004",
        """
        import random
        import random as r
        import numpy.random as npr
        from random import shuffle
        from numpy.random import permutation

        def sample():
            return random.randint(1, 6) + r.random() + npr.rand()
        """,
    )
    messages = [f.message for f in findings]
    assert len(findings) == 5
    assert any("from random import shuffle" in m for m in messages)
    assert any("from numpy.random import permutation" in m for m in messages)
    assert any("random.randint" in m for m in messages)
    assert any("`r.random` (`random.random`)" in m for m in messages)
    assert any("`npr.rand` (`numpy.random.rand`)" in m for m in messages)


def test_r004_flags_global_numpy_draws_but_allows_generators():
    findings = findings_for(
        "R004",
        """
        import numpy as np

        def bad(n):
            return np.random.rand(n)

        def good(n, seed):
            rng = np.random.default_rng(seed)
            return rng.random(n)
        """,
    )
    assert len(findings) == 1
    assert "np.random.rand" in findings[0].message


def test_r004_accepts_threaded_seeded_generator():
    findings = findings_for(
        "R004",
        """
        import random

        def sample(seed):
            rng = random.Random(seed)
            return rng.randint(1, 6)
        """,
    )
    assert findings == []


def test_r004_flags_unseeded_rng_construction():
    findings = findings_for(
        "R004",
        """
        import random
        import numpy as np

        def fresh() -> random.Random:
            return random.Random()

        def fresh_generator():
            return np.random.default_rng(None)

        def fresh_bits():
            return np.random.Generator(np.random.PCG64())

        def entropy() -> random.Random:
            return random.SystemRandom()
        """,
    )
    assert [f.line for f in findings] == [6, 9, 12]
    assert all("without a seed" in f.message for f in findings)


def test_r004_flags_clock_read_feeding_a_seed_helper():
    findings = findings_for(
        "R004",
        """
        import random
        import time as _time

        def make_rng(seed):
            return random.Random(seed)

        def runner():
            return make_rng(_time.time())
        """,
    )
    assert [f.line for f in findings] == [9]
    assert "`_time.time()` reads the wall clock" in findings[0].message


def test_r004_flags_clock_and_entropy_reads_anywhere():
    findings = findings_for(
        "R004",
        """
        import os
        import secrets
        import time
        import uuid
        from datetime import datetime

        def stamp():
            return (time.time_ns(), os.urandom(4), secrets.token_hex(),
                    uuid.uuid4(), datetime.now())

        def elapsed(start):
            return time.perf_counter() - start
        """,
    )
    assert len(findings) == 5
    assert {f.line for f in findings} == {9, 10}


def test_r004_flags_seed_derived_from_a_call():
    findings = findings_for(
        "R004",
        """
        import random
        import time

        def fresh(config):
            return random.Random(config.pick())

        def timed():
            return random.Random(int(time.perf_counter()))
        """,
    )
    assert [f.line for f in findings] == [6, 9]
    assert "config.pick" in findings[0].message
    assert "time.perf_counter" in findings[1].message


def test_r004_accepts_param_and_constant_seeds():
    findings = findings_for(
        "R004",
        """
        import random
        import numpy as np

        DEFAULT_SEED = 1996

        def from_param(seed):
            return random.Random(seed)

        def from_constant():
            return random.Random(DEFAULT_SEED)

        def derived(seed, name):
            return random.Random(seed * 2 + abs(hash((seed, name))))

        def generator(seed):
            return np.random.default_rng(seed=int(seed))
        """,
    )
    assert findings == []


def test_r004_accepts_seed_threaded_through_helpers():
    findings = findings_for(
        "R004",
        """
        import random

        def make_rng(seed):
            return random.Random(seed)

        def outer(seed):
            return make_rng(seed + 1)
        """,
    )
    assert findings == []


# -- R006: no silent exception swallowing ------------------------------------


def test_r006_flags_bare_except_and_silent_broad_handler():
    findings = findings_for(
        "R006",
        """
        def f():
            try:
                risky()
            except:
                pass

        def g():
            try:
                risky()
            except Exception:
                pass
        """,
    )
    assert len(findings) == 2


def test_r006_accepts_narrow_or_handled_exceptions():
    findings = findings_for(
        "R006",
        """
        def f():
            try:
                risky()
            except ValueError:
                pass

        def g():
            try:
                risky()
            except Exception as exc:
                record_drop(exc)
                raise
        """,
    )
    assert findings == []


# -- R007: typed public API ---------------------------------------------------


def test_r007_flags_unannotated_public_functions():
    findings = findings_for(
        "R007",
        """
        def public(x):
            return x

        class Thing:
            def method(self, value) -> None:
                self.value = value
        """,
    )
    messages = "\n".join(f.message for f in findings)
    assert "public has unannotated parameter(s): x" in messages
    assert "public has no return annotation" in messages
    assert "method has unannotated parameter(s): value" in messages


def test_r007_skips_private_nested_and_fully_annotated():
    findings = findings_for(
        "R007",
        """
        def _private(x):
            return x

        def public(x: int, *args, **kwargs) -> int:
            def nested(y):
                return y
            return nested(x)

        class Thing:
            @staticmethod
            def build(n: int) -> "Thing":
                return Thing()
        """,
    )
    assert findings == []


# -- R008: no mutable defaults ------------------------------------------------


def test_r008_flags_mutable_default_values():
    findings = findings_for(
        "R008",
        """
        def f(items=[]):
            return items

        def g(*, table={}, tags=set()):
            return table, tags
        """,
    )
    assert len(findings) == 3


def test_r008_accepts_none_and_immutable_defaults():
    findings = findings_for(
        "R008",
        """
        def f(items=None, pair=(), name="x", count=0):
            return items or []
        """,
    )
    assert findings == []


# -- R009: derived computations go through the GraphContext -------------------


def test_r009_flags_raw_derivation_calls_outside_graphs():
    findings = findings_for(
        "R009",
        """
        from repro.graphs import distance_matrix

        def eccentricities(graph):
            dist = distance_matrix(graph)
            tree = bootstrap._bfs_tree(graph, 1)
            return dist.max(axis=1), tree
        """,
        module="repro.simulator.fixture",
    )
    assert [f.line for f in findings] == [5, 6]
    assert all(f.rule_id == "R009" for f in findings)
    assert "once per graph" in findings[0].message


def test_r009_allows_context_accessors_and_graphs_internals():
    findings = findings_for(
        "R009",
        """
        def eccentricities(graph):
            ctx = get_context(graph)
            return ctx.distances().max(axis=1), ctx.bfs_tree(1)
        """,
        module="repro.simulator.fixture",
    )
    assert findings == []

    # Inside the graphs package the raw call IS the implementation.
    findings = findings_for(
        "R009",
        """
        def helper(graph):
            return distance_matrix(graph)
        """,
        module="repro.graphs.properties",
    )
    assert findings == []


def test_r009_flags_adjacency_store_outside_graphs():
    findings = findings_for(
        "R009",
        """
        def corrupt(graph, ctx):
            graph._adj_sets = ()
            return ctx.distances()
        """,
        module="repro.fake.mutator",
    )
    assert [f.line for f in findings] == [3]
    assert "_adj_sets" in findings[0].message


def test_r009_flags_adjacency_store_even_when_invalidated():
    # No write to a graph's adjacency belongs outside repro.graphs, so
    # invalidating the context afterwards does not excuse it.
    findings = findings_for(
        "R009",
        """
        def repaired(graph, ctx):
            graph._adj_sets = ()
            ctx.invalidate()
            return ctx.distances()
        """,
        module="repro.fake.mutator",
    )
    assert [f.line for f in findings] == [3]


def test_r009_flags_adjacency_store_in_a_helper():
    findings = findings_for(
        "R009",
        """
        def mutate(graph, u, v):
            graph._adj_sets[u].add(v)
            graph._adj_sorted, other = (), 1
            graph._adj_sets += ()
            del graph._adj_sorted[u]

        def pipeline(graph, ctx):
            mutate(graph, 1, 2)
            return ctx.distances()
        """,
        module="repro.fake.pipeline",
    )
    assert [f.line for f in findings] == [3, 4, 5, 6]


def test_r009_allows_scheme_cache_fills():
    findings = findings_for(
        "R009",
        """
        class Scheme:
            def __init__(self, ctx):
                self._function_cache = {}
                self._ctx = ctx
                self._scheme_adj = None

            def function(self, u):
                if u not in self._function_cache:
                    self._function_cache[u] = u * 2
                return self._function_cache[u]

            def read(self, graph):
                self._scheme_adj = graph._adj_sets
                return self._ctx.distances()
        """,
        module="repro.fake.scheme",
    )
    assert findings == []

    # Inside the graphs package the adjacency IS the implementation.
    findings = findings_for(
        "R009",
        """
        def build(graph):
            graph._adj_sets = ()
        """,
        module="repro.graphs.graph",
    )
    assert findings == []
