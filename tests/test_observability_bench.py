"""Tests for the unified bench artifact schema and regression comparator."""

from __future__ import annotations

import importlib.util
import json
import pathlib
import re

import pytest

from repro.observability import (
    BENCH_SCHEMA_VERSION,
    BenchMetric,
    BenchResult,
    BenchSchemaError,
    BetterDirection,
    RunManifest,
    compare_runs,
    format_comparison,
    load_bench_result,
    write_bench_result,
)


def _result(**metrics):
    return BenchResult(
        bench="demo",
        manifest=RunManifest.capture("bench:demo", seed=1),
        workload={"n": 8},
        metrics=metrics,
        extra={"sweep": [1, 2, 3]},
    )


class TestSchema:
    def test_write_load_round_trip(self, tmp_path):
        path = tmp_path / "bench.json"
        original = _result(
            speed=BenchMetric(2.0, BetterDirection.HIGHER, tolerance=0.2),
            seconds=BenchMetric(0.5, unit="s"),
        )
        write_bench_result(original, path)
        loaded = load_bench_result(path)
        assert loaded.bench == "demo"
        assert loaded.schema_version == BENCH_SCHEMA_VERSION
        assert loaded.manifest == original.manifest
        assert loaded.workload == {"n": 8}
        assert loaded.metrics["speed"] == original.metrics["speed"]
        assert loaded.metrics["seconds"].unit == "s"
        assert loaded.extra == {"sweep": [1, 2, 3]}

    def test_schema_less_json_rejected(self, tmp_path):
        path = tmp_path / "legacy.json"
        path.write_text(json.dumps({"workload": {}, "speedup_ratio": 1.1}))
        with pytest.raises(BenchSchemaError, match="schema-less"):
            load_bench_result(path)

    def test_wrong_version_rejected(self, tmp_path):
        path = tmp_path / "future.json"
        row = _result().to_dict()
        row["schema_version"] = BENCH_SCHEMA_VERSION + 1
        path.write_text(json.dumps(row))
        with pytest.raises(BenchSchemaError, match="schema_version"):
            load_bench_result(path)

    def test_not_json_rejected(self, tmp_path):
        path = tmp_path / "garbage.json"
        path.write_text("{truncated")
        with pytest.raises(BenchSchemaError, match="not valid JSON"):
            load_bench_result(path)

    def test_missing_manifest_rejected(self):
        row = _result().to_dict()
        del row["manifest"]
        with pytest.raises(BenchSchemaError, match="manifest"):
            BenchResult.from_dict(row)

    def test_unknown_direction_rejected(self):
        with pytest.raises(BenchSchemaError, match="direction"):
            BenchMetric.from_dict({"value": 1.0, "direction": "sideways"})

    def test_committed_artifacts_load(self):
        import pathlib

        root = pathlib.Path(__file__).parents[1]
        for name in (
            "BENCH_observability.json",
            "BENCH_context.json",
            "BENCH_corruption.json",
            "BENCH_churn.json",
        ):
            result = load_bench_result(root / name)
            assert result.manifest.command.startswith("bench:")
            assert result.metrics, f"{name} has no gated metrics"


class TestCompareRuns:
    def test_higher_metric_regression(self):
        baseline = _result(speed=BenchMetric(2.0, BetterDirection.HIGHER))
        fresh = _result(speed=BenchMetric(1.7, BetterDirection.HIGHER))
        report = compare_runs(baseline, fresh)
        assert not report.ok()
        assert report.regressions[0].metric == "speed"
        assert report.regressions[0].relative_change == pytest.approx(-0.15)

    def test_lower_metric_regression(self):
        baseline = _result(overhead=BenchMetric(1.0, BetterDirection.LOWER))
        fresh = _result(overhead=BenchMetric(1.2, BetterDirection.LOWER))
        assert not compare_runs(baseline, fresh).ok()

    def test_within_tolerance_is_ok(self):
        baseline = _result(speed=BenchMetric(2.0, BetterDirection.HIGHER))
        fresh = _result(speed=BenchMetric(1.85, BetterDirection.HIGHER))
        report = compare_runs(baseline, fresh)  # -7.5% vs default 10%
        assert report.ok()
        assert report.deltas[0].verdict == "ok"

    def test_baseline_tolerance_beats_default(self):
        baseline = _result(
            speed=BenchMetric(2.0, BetterDirection.HIGHER, tolerance=0.01)
        )
        fresh = _result(speed=BenchMetric(1.9, BetterDirection.HIGHER))
        assert not compare_runs(baseline, fresh, default_tolerance=0.5).ok()

    def test_improvement_is_reported_not_failed(self):
        baseline = _result(speed=BenchMetric(2.0, BetterDirection.HIGHER))
        fresh = _result(speed=BenchMetric(3.0, BetterDirection.HIGHER))
        report = compare_runs(baseline, fresh)
        assert report.ok()
        assert report.improvements[0].metric == "speed"

    def test_neutral_metric_never_gates(self):
        baseline = _result(seconds=BenchMetric(0.1))
        fresh = _result(seconds=BenchMetric(5.0))
        assert compare_runs(baseline, fresh).ok()

    def test_missing_directed_metric_fails(self):
        baseline = _result(speed=BenchMetric(2.0, BetterDirection.HIGHER))
        report = compare_runs(baseline, _result())
        assert not report.ok()
        assert report.regressions[0].verdict == "missing"

    def test_missing_neutral_metric_is_ok(self):
        baseline = _result(seconds=BenchMetric(0.1))
        assert compare_runs(baseline, _result()).ok()

    def test_zero_baseline_change_is_infinite(self):
        baseline = _result(errs=BenchMetric(0.0, BetterDirection.LOWER))
        fresh = _result(errs=BenchMetric(1.0, BetterDirection.LOWER))
        report = compare_runs(baseline, fresh)
        assert report.deltas[0].relative_change == float("inf")
        assert not report.ok()

    def test_different_benches_refuse_to_compare(self):
        baseline = _result()
        other = BenchResult(
            bench="other",
            manifest=RunManifest.capture("bench:other"),
        )
        with pytest.raises(BenchSchemaError, match="different benchmarks"):
            compare_runs(baseline, other)

    def test_negative_default_tolerance_rejected(self):
        with pytest.raises(ValueError):
            compare_runs(_result(), _result(), default_tolerance=-0.1)


class TestFormatting:
    def test_format_marks_regressions(self):
        baseline = _result(speed=BenchMetric(2.0, BetterDirection.HIGHER))
        fresh = _result(speed=BenchMetric(1.0, BetterDirection.HIGHER))
        text = format_comparison(compare_runs(baseline, fresh))
        assert "REGRESSION" in text
        assert "!speed" in text
        assert "-50.0%" in text

    def test_format_ok_run(self):
        text = format_comparison(compare_runs(_result(), _result()))
        assert "OK: no regressions" in text

    def test_report_to_dict_is_json_safe(self):
        baseline = _result(speed=BenchMetric(2.0, BetterDirection.HIGHER))
        payload = compare_runs(baseline, baseline).to_dict()
        json.dumps(payload)
        assert payload["ok"] is True
        assert payload["deltas"][0]["direction"] == "higher"


BENCH_MAINS = sorted(
    path
    for path in (pathlib.Path(__file__).parents[1] / "benchmarks").glob("bench_*.py")
    if re.search(r"^def main\(", path.read_text(), re.MULTILINE)
)
"""Every bench script with a command-line ``main``."""


class TestBenchFlags:
    """Every bench with a ``main`` parses its flags: ``--help`` and an
    unknown flag exit without measuring or rewriting the committed
    artifact (where the bench writes one)."""

    @pytest.fixture(params=BENCH_MAINS, ids=lambda path: path.stem)
    def bench(self, request, monkeypatch):
        spec = importlib.util.spec_from_file_location(
            request.param.stem, request.param
        )
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)

        def refuse(*args, **kwargs):
            raise AssertionError("the bench measured")

        monkeypatch.setattr(module, "measure", refuse)
        output = getattr(module, "DEFAULT_OUTPUT", None)
        before = output.read_bytes() if output else None
        yield module
        if output:
            assert output.read_bytes() == before

    def test_help_prints_usage_and_exits_zero(self, bench, capsys):
        with pytest.raises(SystemExit) as exited:
            bench.main(["--help"])
        assert exited.value.code == 0
        assert capsys.readouterr().out.startswith("usage:")

    def test_unknown_flag_exits_two(self, bench, capsys):
        with pytest.raises(SystemExit) as exited:
            bench.main(["--smoke", "--no-such-flag"])
        assert exited.value.code == 2
        assert "unrecognized arguments: --no-such-flag" in capsys.readouterr().err
