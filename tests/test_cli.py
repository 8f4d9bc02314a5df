"""Tests for the command-line interface."""

from __future__ import annotations

import argparse
import json
import pathlib

import pytest

from repro.cli import _build_parser, _task_of, main, parse_model
from repro.models import Knowledge, Labeling
from repro.simulator import SweepTask


class TestParseModel:
    def test_parses_all_nine(self):
        for knowledge in ("IA", "IB", "II"):
            for labeling in ("alpha", "beta", "gamma"):
                model = parse_model(f"{knowledge}.{labeling}")
                assert model.knowledge == Knowledge[knowledge]
                assert model.labeling == Labeling[labeling.upper()]

    def test_case_insensitive(self):
        model = parse_model("ii.GAMMA")
        assert model.knowledge is Knowledge.II
        assert model.labeling is Labeling.GAMMA

    def test_rejects_garbage(self):
        with pytest.raises(argparse.ArgumentTypeError):
            parse_model("fancy-model")
        with pytest.raises(argparse.ArgumentTypeError):
            parse_model("IA.delta")


class TestCommands:
    def test_schemes_lists_registry(self, capsys):
        assert main(["schemes"]) == 0
        out = capsys.readouterr().out
        assert "thm1-two-level" in out
        assert "full-information" in out

    def test_certify_random_graph(self, capsys):
        assert main(["certify", "48", "--seed", "3"]) == 0
        out = capsys.readouterr().out
        assert "certified" in out
        assert "True" in out

    def test_certify_prints_every_check(self, capsys):
        assert main(["certify", "128", "--seed", "7"]) == 0
        assert capsys.readouterr().out == (
            "G(128, 1/2) seed 7: 4087 edges\n"
            "  degrees within Lemma 1 band : True (max deviation 17, scale 63.0)\n"
            "  diameter 2 (Lemma 2)        : True\n"
            "  cover prefix (Lemma 3)      : 16 <= 42.0: True\n"
            "  estimated deficiency        : 0 bits\n"
            "  certified                   : True\n"
        )

    def test_certify_flags_structured_failure(self, capsys):
        # Seed picked so the small sample has diameter 3 → not certified.
        assert main(["certify", "10", "--seed", "1"]) == 1
        assert capsys.readouterr().out == (
            "G(10, 1/2) seed 1: 20 edges\n"
            "  degrees within Lemma 1 band : True (max deviation 3, scale 12.4)\n"
            "  diameter 2 (Lemma 2)        : False\n"
            "  cover prefix (Lemma 3)      : 10 <= 19.9: True\n"
            "  estimated deficiency        : 0 bits\n"
            "  certified                   : False\n"
        )

    def test_build_prints_report(self, capsys):
        assert main(["build", "thm1-two-level", "48", "--seed", "0"]) == 0
        out = capsys.readouterr().out
        assert "bits total" in out

    def test_build_without_model_uses_the_scheme_default(self, capsys):
        assert main(["build", "tree-cover", "24"]) == 0
        assert "II ∧ γ" in capsys.readouterr().out

    def test_build_saves_blob(self, tmp_path, capsys):
        target = tmp_path / "scheme.blob"
        assert main(
            ["build", "thm4-hub", "32", "--seed", "0", "--save", str(target)]
        ) == 0
        assert target.exists()
        from repro.core import restore_scheme, verify_scheme
        from repro.graphs import gnp_random_graph
        from repro.models import RoutingModel

        graph = gnp_random_graph(32, seed=0)
        model = RoutingModel(Knowledge.II, Labeling.ALPHA)
        scheme = restore_scheme(target.read_bytes(), graph, model)
        assert verify_scheme(scheme, sample_pairs=100).ok()

    def test_route_prints_path(self, capsys):
        assert main(["route", "full-table", "24", "1", "20", "--seed", "2"]) == 0
        out = capsys.readouterr().out
        assert "hops" in out
        assert out.strip().splitlines()[0].startswith("1 ")

    def test_verify_reports_ok(self, capsys):
        assert main(
            ["verify", "thm3-centers", "48", "--pairs", "100", "--seed", "0"]
        ) == 0
        out = capsys.readouterr().out
        assert "ok: True" in out

    def test_simulate_uniform(self, capsys):
        assert main(
            ["simulate", "thm1-two-level", "32", "--messages", "40"]
        ) == 0
        out = capsys.readouterr().out
        assert "delivered" in out

    def test_simulate_with_failures(self, capsys):
        assert main(
            ["simulate", "full-information", "32", "--messages", "40",
             "--failures", "30"]
        ) == 0

    def test_simulate_workloads(self, capsys):
        for workload in ("hotspot", "all-to-one", "one-to-all", "permutation"):
            assert main(
                ["simulate", "thm4-hub", "24", "--workload", workload]
            ) == 0

    def test_codec_on_structured_graph(self, capsys):
        assert main(["codec", "lemma2", "16", "--graph", "path"]) == 0
        out = capsys.readouterr().out
        assert "round trip   : True" in out

    def test_codec_refusal_is_reported(self, capsys):
        code = main(["codec", "lemma2", "48", "--seed", "0"])
        out = capsys.readouterr().out
        assert code == 1
        assert "inapplicable" in out

    def test_model_override(self, capsys):
        assert main(
            ["build", "thm1-two-level", "32", "--model", "IB.alpha"]
        ) == 0
        out = capsys.readouterr().out
        assert "IB" in out

    def test_unknown_scheme_rejected(self):
        with pytest.raises(SystemExit):
            main(["build", "no-such-scheme", "16"])


class TestObservabilityFlags:
    def test_simulate_json_output(self, capsys):
        assert main(
            ["simulate", "thm1-two-level", "32", "--messages", "40", "--json"]
        ) == 0
        import json

        payload = json.loads(capsys.readouterr().out)
        assert payload["messages"] == 40
        assert payload["scheme"] == "thm1-two-level"
        assert "drop_breakdown" in payload
        assert "retry_histogram" in payload
        assert payload["retry_histogram"] == {"0": 40}

    def test_simulate_chaos_json_output(self, capsys):
        assert main(
            ["simulate", "interval", "24", "--messages", "60",
             "--schedule", "flapping", "--retries", "2", "--json"]
        ) == 0
        import json

        payload = json.loads(capsys.readouterr().out)
        assert payload["messages"] == 60
        assert set(payload["drop_breakdown"]) <= {
            "ENDPOINT_DOWN", "LINK_DOWN", "NODE_DOWN", "HOP_LIMIT",
            "NO_ROUTE", "INVALID_FORWARD", "QUEUE_OVERFLOW",
        }
        assert sum(payload["retry_histogram"].values()) == 60

    def test_trace_out_and_trace_report_round_trip(self, tmp_path, capsys):
        trace = tmp_path / "trace.jsonl"
        metrics = tmp_path / "metrics.json"
        assert main(
            ["simulate", "interval", "24", "--messages", "60",
             "--schedule", "flapping", "--retries", "1",
             "--trace-out", str(trace),
             "--metrics-out", str(metrics), "--json"]
        ) == 0
        import json

        payload = json.loads(capsys.readouterr().out)
        rows = [json.loads(line) for line in trace.read_text().splitlines()]
        assert rows, "trace file must not be empty"
        # the run ledger rides along: first row of the trace, a key in the
        # metrics dump and the summary, all naming the same invocation
        assert "manifest" in rows[0]
        assert rows[0]["manifest"]["command"] == "simulate"
        assert payload["manifest"]["run_id"] == rows[0]["manifest"]["run_id"]
        drops = [row for row in rows if row.get("event") == "drop"]
        # acceptance: every drop in drop_breakdown has an annotated span
        assert len(drops) == sum(payload["drop_breakdown"].values())
        assert all("reason" in row for row in drops)
        registry_dump = json.loads(metrics.read_text())
        assert registry_dump["manifest"]["run_id"] == payload["manifest"]["run_id"]
        assert "repro_messages_routed_total" in registry_dump["metrics"]

        assert main(["trace-report", str(trace)]) == 0
        out = capsys.readouterr().out
        assert "trace:" in out
        assert "hot nodes" in out

        assert main(["trace-report", str(trace), "--json"]) == 0
        summary = json.loads(capsys.readouterr().out)
        assert summary["dropped"] == len(drops)
        assert summary["span_violations"] == 0

    def test_trace_report_missing_file(self, capsys):
        assert main(["trace-report", "/nonexistent/trace.jsonl"]) == 2
        assert "not found" in capsys.readouterr().err

    def test_build_metrics_out_json(self, tmp_path, capsys):
        target = tmp_path / "metrics.json"
        assert main(
            ["build", "interval", "24", "--metrics-out", str(target)]
        ) == 0
        import json

        payload = json.loads(target.read_text())
        assert "repro_scheme_table_bits" in payload["metrics"]
        assert "repro_phase_seconds" in payload["metrics"]
        from repro.observability import embedded_manifest

        manifest = embedded_manifest(payload)
        assert manifest.command == "build"
        assert manifest.n == 24
        assert manifest.wall_time_s is not None

    def test_simulate_metrics_out_carries_lane_tallies(self, tmp_path, capsys):
        """A fault-free run drains its t=0 burst; static failures keep
        every cohort on the scalar step as ``not_quiescent``."""
        import json

        from repro.observability import MetricsRegistry, set_registry

        tallies = {}
        for flags in ((), ("--failures", "2")):
            target = tmp_path / "metrics.json"
            previous = set_registry(MetricsRegistry())
            try:
                assert main(
                    ["simulate", "full-table", "24", "--messages", "40",
                     *flags, "--metrics-out", str(target)]
                ) == 0
            finally:
                set_registry(previous)
            metrics = json.loads(target.read_text())["metrics"]
            tallies[flags] = (
                {e["labels"]["lane"]: e["value"]
                 for e in metrics["repro_kernel_rows_total"]},
                {e["labels"]["reason"]: e["value"]
                 for e in metrics.get("repro_kernel_drain_skips_total", [])},
            )
        capsys.readouterr()
        assert tallies[()] == ({"drain": 40, "scalar": 0}, {})
        rows, skips = tallies[("--failures", "2")]
        assert rows["drain"] == 0 and rows["scalar"] >= 40
        assert skips["not_quiescent"] >= 1

    def test_simulate_metrics_out_carries_drain_exits(self, tmp_path, capsys):
        """Every drain publishes its exit tallies with HELP text: a
        fault-free full-table run delivers every drained row, so each
        reason reads 0."""
        from repro.observability import MetricsRegistry, set_registry

        target = tmp_path / "metrics.prom"
        previous = set_registry(MetricsRegistry())
        try:
            assert main(
                ["simulate", "full-table", "24", "--messages", "40",
                 "--metrics-out", str(target)]
            ) == 0
        finally:
            set_registry(previous)
        capsys.readouterr()
        lines = target.read_text().splitlines()
        assert any(
            line.startswith("# HELP repro_kernel_drain_exits_total ")
            for line in lines
        )
        exits = {
            line.split('"')[1]: line.rsplit(" ", 1)[1]
            for line in lines
            if line.startswith("repro_kernel_drain_exits_total{")
        }
        assert exits == {"no_entry": "0", "header_state": "0", "hop_limit": "0"}

    def test_build_metrics_out_prometheus(self, tmp_path, capsys):
        target = tmp_path / "metrics.prom"
        assert main(
            ["build", "thm4-hub", "32", "--metrics-out", str(target)]
        ) == 0
        text = target.read_text()
        assert text.startswith("# manifest: ")
        import json

        from repro.observability import RunManifest

        manifest = RunManifest.from_dict(
            json.loads(text.splitlines()[0][len("# manifest: "):])
        )
        assert manifest.scheme == "thm4-hub"
        assert "# TYPE repro_scheme_table_bits gauge" in text
        assert "# HELP repro_scheme_table_bits" in text
        assert 'scheme="thm4-hub"' in text


class TestBenchReport:
    """The regression gate: `repro bench-report` exit codes and output."""

    @staticmethod
    def _result(value, tolerance=0.10):
        from repro.observability import (
            BenchMetric,
            BenchResult,
            BetterDirection,
            RunManifest,
        )

        return BenchResult(
            bench="context_reuse",
            manifest=RunManifest.capture("bench:context_reuse", seed=0),
            workload={"n": 256},
            metrics={
                "speedup_ratio": BenchMetric(
                    value, BetterDirection.HIGHER, tolerance
                ),
                "best_seconds": BenchMetric(0.25),
            },
        )

    def test_clean_run_passes(self, tmp_path, capsys):
        from repro.observability import write_bench_result

        baseline = tmp_path / "baseline.json"
        fresh = tmp_path / "fresh.json"
        write_bench_result(self._result(1.10), baseline)
        write_bench_result(self._result(1.08), fresh)
        assert main(
            ["bench-report", "--baseline", str(baseline), "--fresh", str(fresh)]
        ) == 0
        out = capsys.readouterr().out
        assert "OK: no regressions" in out

    def test_doctored_regression_fails(self, tmp_path, capsys):
        # acceptance: a >10% speedup_ratio regression exits non-zero
        from repro.observability import write_bench_result

        baseline = tmp_path / "baseline.json"
        doctored = tmp_path / "doctored.json"
        write_bench_result(self._result(1.10), baseline)
        write_bench_result(self._result(1.10 * 0.85), doctored)
        assert main(
            ["bench-report", "--baseline", str(baseline),
             "--fresh", str(doctored)]
        ) == 1
        out = capsys.readouterr().out
        assert "REGRESSION" in out
        assert "speedup_ratio" in out

    def test_doctored_committed_baseline_fails(self, tmp_path, capsys):
        # The same check against the real committed BENCH_context.json.
        import json
        import pathlib

        committed = pathlib.Path(__file__).parents[1] / "BENCH_context.json"
        row = json.loads(committed.read_text())
        row["metrics"]["speedup_ratio"]["value"] *= 0.85
        doctored = tmp_path / "doctored.json"
        doctored.write_text(json.dumps(row))
        assert main(
            ["bench-report", "--baseline", str(committed),
             "--fresh", str(doctored)]
        ) == 1
        assert "speedup_ratio" in capsys.readouterr().out

    def test_missing_gated_metric_fails(self, tmp_path, capsys):
        from repro.observability import write_bench_result

        baseline = tmp_path / "baseline.json"
        fresh = tmp_path / "fresh.json"
        write_bench_result(self._result(1.10), baseline)
        gutted = self._result(1.10)
        del gutted.metrics["speedup_ratio"]
        write_bench_result(gutted, fresh)
        assert main(
            ["bench-report", "--baseline", str(baseline), "--fresh", str(fresh)]
        ) == 1

    def test_schema_less_json_rejected(self, tmp_path, capsys):
        import json

        baseline = tmp_path / "baseline.json"
        legacy = tmp_path / "legacy.json"
        from repro.observability import write_bench_result

        write_bench_result(self._result(1.10), baseline)
        legacy.write_text(json.dumps({"workload": {}, "speedup_ratio": 1.0}))
        assert main(
            ["bench-report", "--baseline", str(baseline),
             "--fresh", str(legacy)]
        ) == 2
        assert "schema" in capsys.readouterr().err

    def test_json_and_output_embed_manifest(self, tmp_path, capsys):
        import json

        from repro.observability import embedded_manifest, write_bench_result

        baseline = tmp_path / "baseline.json"
        out_file = tmp_path / "comparison.json"
        write_bench_result(self._result(1.10), baseline)
        assert main(
            ["bench-report", "--baseline", str(baseline),
             "--fresh", str(baseline), "--json", "--output", str(out_file)]
        ) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["ok"] is True
        assert embedded_manifest(payload).command == "bench-report"
        written = json.loads(out_file.read_text())
        assert embedded_manifest(written).command == "bench-report"
        assert written["deltas"] == payload["deltas"]

    def test_missing_file_exits_2(self, capsys):
        assert main(
            ["bench-report", "--baseline", "/nonexistent/b.json",
             "--fresh", "/nonexistent/f.json"]
        ) == 2
        assert "not found" in capsys.readouterr().err


GOLDENS = json.loads(
    (pathlib.Path(__file__).parent / "data" / "simulate_goldens.json").read_text()
)


class TestSimulateGoldens:
    """Each retired command's ``--json`` output (manifest removed),
    recorded before the four commands became one, equals its
    ``simulate`` invocation's today.

    A golden's ``parent_axis`` names the command that produced it,
    ``simulate-<axis>`` (``static``: ``simulate --batch``), and
    ``parent_args`` its arguments; ``argv`` is the ``simulate``
    invocation replacing it.
    """

    @pytest.mark.parametrize(
        "golden", GOLDENS, ids=[golden["name"] for golden in GOLDENS]
    )
    def test_simulate_reproduces_the_retired_command(self, golden, capsys):
        assert main(golden["argv"] + ["--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        payload.pop("manifest")
        assert payload == golden["output"]


class TestInputValidation:
    def test_flag_defaults_are_the_run_description_defaults(self):
        args = _build_parser().parse_args(["simulate", "full-table", "16"])
        assert _task_of(args) == SweepTask("full-table", 16)

    @pytest.mark.parametrize(
        "flags",
        [["--messages", "-3"], ["--workers", "0"], ["--workers", "-4"],
         ["--retries", "-2"]],
    )
    def test_out_of_range_input_exits_2(self, flags, capsys):
        assert main(["simulate", "full-table", "16"] + flags) == 2
        assert capsys.readouterr().err.startswith("error: ")


class TestWorkerReplicas:
    """``--workers`` replica 0 reproduces the single run it shards."""

    COMMANDS = {
        "plain": ["simulate", "full-table", "24", "--messages", "120",
                  "--failures", "25", "--node-failures", "2"],
        "chaos": ["simulate", "full-table", "24", "--messages", "80",
                  "--schedule", "renewal", "--chaos-nodes", "2",
                  "--retries", "2"],
        "corruption": ["simulate", "full-table", "24", "--messages", "120",
                       "--corrupt-nodes", "5", "--framing", "crc8"],
        "churn": ["simulate", "full-table", "24", "--messages", "80",
                  "--events", "3", "--retries", "2"],
        "composed": ["simulate", "full-table", "24", "--messages", "120",
                     "--schedule", "renewal", "--corrupt-nodes", "4",
                     "--framing", "crc8", "--mutation", "burst", "--detour",
                     "--events", "3", "--repair-rate", "500",
                     "--retries", "2"],
        # Every axis off: the kernel must get no (empty) churn schedule,
        # which it would reject for a model-gamma labelling.
        "gamma-labels": ["simulate", "thm2-neighbor-labels", "24",
                         "--messages", "80"],
    }

    @pytest.mark.parametrize("variant", sorted(COMMANDS))
    def test_replica_zero_matches_the_single_run(self, variant, capsys):
        argv = self.COMMANDS[variant]
        assert main(argv + ["--json"]) == 0
        single = json.loads(capsys.readouterr().out)
        assert main(argv + ["--workers", "2", "--json"]) == 0
        replica = json.loads(capsys.readouterr().out)[0]
        assert replica["seed"] == single["seed"]
        assert replica["messages"] == single["messages"]
        assert replica["delivered"] == single["delivered"]
        assert replica["retries"] == single["total_retries"]
        assert replica["drop_reasons"] == single["drop_breakdown"]
        if variant == "corruption":
            # Under crc8 framing corruption is detected and drops; an
            # unframed replica would deliver everything.
            assert single["drop_breakdown"].get("TABLE_CORRUPT", 0) > 0
        if variant == "composed":
            assert single["churn"]["converged"] is True
            assert single["corruption"]["injected"] >= 1

    @pytest.mark.parametrize(
        "argv, flag",
        [
            (["simulate", "full-table", "16", "--trace-out", "t.jsonl"],
             "--trace-out"),
            (["simulate", "full-table", "16", "--metrics-out", "m.json"],
             "--metrics-out"),
        ],
    )
    def test_flags_a_replica_cannot_carry_are_rejected(
        self, argv, flag, capsys
    ):
        assert main(argv + ["--workers", "2"]) == 2
        err = capsys.readouterr().err
        assert flag in err
        assert "--workers" in err
