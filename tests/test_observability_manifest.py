"""Tests for the run ledger: RunManifest capture, round-trip, embedding."""

from __future__ import annotations

import json

import pytest

from repro.graphs import gnp_random_graph
from repro.graphs.context import structural_fingerprint
from repro.observability import ManifestError, RunManifest, embedded_manifest
from repro.observability.manifest import MANIFEST_SCHEMA_VERSION


class TestCapture:
    def test_fills_environment(self):
        manifest = RunManifest.capture(
            "simulate", seed=7, scheme="interval", n=32,
            params={"messages": 100},
        )
        assert manifest.command == "simulate"
        assert manifest.seed == 7
        assert manifest.scheme == "interval"
        assert manifest.n == 32
        assert manifest.params == {"messages": 100}
        assert len(manifest.run_id) == 12
        assert manifest.python_version
        assert manifest.platform
        assert manifest.created_at.endswith("Z")
        assert manifest.schema_version == MANIFEST_SCHEMA_VERSION
        assert manifest.wall_time_s is None

    def test_run_ids_are_unique(self):
        a = RunManifest.capture("build")
        b = RunManifest.capture("build")
        assert a.run_id != b.run_id

    def test_graph_fingerprint_from_graph(self):
        graph = gnp_random_graph(16, seed=3)
        manifest = RunManifest.capture("build", graph=graph)
        assert manifest.graph_fingerprint == structural_fingerprint(graph)

    def test_params_are_sanitised_to_json(self):
        manifest = RunManifest.capture(
            "build", params={"obj": object(), "xs": (1, "a", None)}
        )
        json.dumps(manifest.to_dict())  # must not raise
        assert manifest.params["xs"] == [1, "a", None]
        assert isinstance(manifest.params["obj"], str)

    def test_completed_stamps_wall_time(self):
        manifest = RunManifest.capture("build")
        done = manifest.completed(1.25)
        assert done.wall_time_s == 1.25
        assert manifest.wall_time_s is None  # frozen original untouched
        assert done.run_id == manifest.run_id


class TestRoundTrip:
    def test_dict_round_trip_is_lossless(self):
        graph = gnp_random_graph(12, seed=5)
        manifest = RunManifest.capture(
            "bench:x", seed=1, scheme="hub", n=12,
            params={"k": 2}, graph=graph,
        ).completed(0.5)
        again = RunManifest.from_dict(
            json.loads(json.dumps(manifest.to_dict()))
        )
        assert again == manifest

    def test_to_json_is_single_line(self):
        text = RunManifest.capture("build").to_json()
        assert "\n" not in text
        assert json.loads(text)["command"] == "build"

    def test_unknown_keys_rejected(self):
        row = RunManifest.capture("build").to_dict()
        row["surprise"] = 1
        with pytest.raises(ManifestError):
            RunManifest.from_dict(row)

    def test_bad_fingerprint_arity_rejected(self):
        row = RunManifest.capture("build").to_dict()
        row["graph_fingerprint"] = [1, 2]
        with pytest.raises(ManifestError):
            RunManifest.from_dict(row)

    def test_non_mapping_rejected(self):
        with pytest.raises(ManifestError):
            RunManifest.from_dict(["not", "a", "mapping"])


class TestEmbeddedManifest:
    def test_extracts_from_payload(self):
        manifest = RunManifest.capture("simulate")
        payload = {"manifest": manifest.to_dict(), "metrics": {}}
        assert embedded_manifest(payload) == manifest

    def test_missing_key_raises(self):
        with pytest.raises(ManifestError):
            embedded_manifest({"metrics": {}})
