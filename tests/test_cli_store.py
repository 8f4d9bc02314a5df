"""CLI surface of the durable store, plus the shared retry flags."""

from __future__ import annotations

import json

import pytest

from repro.cli import _build_parser, _task_of, main
from repro.store import JOURNAL_NAME, LocalFilesystem


@pytest.fixture()
def store_dir(tmp_path):
    return str(tmp_path / "store")


def put(store_dir, *extra):
    return main(["store", "put", "full-table", "16", "--dir", store_dir,
                 "--seed", "7", *extra])


class TestStoreCommands:
    def test_put_then_get(self, store_dir, capsys, tmp_path):
        assert put(store_dir) == 0
        out = capsys.readouterr().out
        assert "stored full-table@1" in out
        assert "active generation 1" in out

        target = tmp_path / "out.blob"
        assert main(["store", "get", "full-table", "--dir", store_dir,
                     "--output", str(target)]) == 0
        assert target.stat().st_size > 0
        assert "written to" in capsys.readouterr().out

    def test_put_hot_swap_switches_active(self, store_dir, capsys):
        assert put(store_dir) == 0
        assert put(store_dir, "--hot-swap") == 0
        out = capsys.readouterr().out
        assert "hot-swapped full-table@2" in out
        assert "active generation 2" in out

    def test_list_json(self, store_dir, capsys):
        assert put(store_dir) == 0
        capsys.readouterr()
        assert main(["store", "list", "--dir", store_dir, "--json"]) == 0
        rows = json.loads(capsys.readouterr().out)
        assert rows == [{
            "name": "full-table",
            "active_generation": 1,
            "generations": [1],
            "active_blob_bits": rows[0]["active_blob_bits"],
        }]
        assert rows[0]["active_blob_bits"] > 0

    def test_list_empty(self, store_dir, capsys):
        assert main(["store", "list", "--dir", store_dir]) == 0
        assert "store is empty" in capsys.readouterr().out

    def test_verify_clean_exit_zero(self, store_dir, capsys):
        assert put(store_dir) == 0
        assert main(["store", "verify", "--dir", store_dir]) == 0
        assert "verified clean" in capsys.readouterr().out

    def test_verify_detects_bit_rot_exit_one(self, store_dir, capsys):
        assert put(store_dir) == 0
        fs = LocalFilesystem(store_dir)
        damaged = bytearray(fs.read(JOURNAL_NAME))
        damaged[80] ^= 0x10
        fs.replace(JOURNAL_NAME, bytes(damaged))
        assert main(["store", "verify", "--dir", store_dir]) == 1
        out = capsys.readouterr().out
        assert "FAILED" in out

    def test_recover_writes_report_artifact(self, store_dir, capsys,
                                            tmp_path):
        assert put(store_dir) == 0
        capsys.readouterr()
        report_file = tmp_path / "recovery.json"
        assert main(["store", "recover", "--dir", store_dir,
                     "--report", str(report_file), "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["clean"] is True
        assert payload["source"] == "journal"
        artifact = json.loads(report_file.read_text())
        assert artifact["recovery"]["clean"] is True
        assert artifact["manifest"]["command"] == "store-recover"

    def test_recover_from_damaged_journal_still_exits_zero(self, store_dir,
                                                           capsys):
        assert put(store_dir) == 0
        assert put(store_dir) == 0
        fs = LocalFilesystem(store_dir)
        journal = fs.read(JOURNAL_NAME)
        fs.replace(JOURNAL_NAME, journal[: len(journal) - 5])  # torn tail
        assert main(["store", "recover", "--dir", store_dir]) == 0
        out = capsys.readouterr().out
        assert "recovered from" in out
        # Degraded recovery self-heals; a fresh verify is clean again.
        assert main(["store", "verify", "--dir", store_dir]) == 0

    def test_compact_creates_snapshot(self, store_dir, capsys):
        assert put(store_dir) == 0
        assert main(["store", "compact", "--dir", store_dir]) == 0
        out = capsys.readouterr().out
        assert "compacted into snapshot-" in out
        fs = LocalFilesystem(store_dir)
        assert fs.read(JOURNAL_NAME) == b""
        assert main(["store", "verify", "--dir", store_dir]) == 0


class TestSharedRetryFlags:
    AXES = {
        "chaos": ["simulate", "interval", "16", "--schedule", "flapping"],
        "corruption": ["simulate", "interval", "16", "--corrupt-nodes", "4"],
        "churn": ["simulate", "full-table", "16", "--events", "3"],
    }
    # Keyed by the per-axis command each case was written against before
    # the axes merged into ``simulate``, which keeps the test ids stable.
    SIMULATORS = {f"simulate-{axis}": argv for axis, argv in AXES.items()}

    @pytest.mark.parametrize("command", sorted(SIMULATORS))
    def test_every_simulator_accepts_the_full_retry_surface(self, command):
        parser = _build_parser()
        args = parser.parse_args(
            self.SIMULATORS[command]
            + ["--retries", "3", "--backoff-base", "0.5",
               "--backoff-multiplier", "3.0", "--max-delay", "20.0",
               "--jitter", "0.25"]
        )
        policy = _task_of(args).retry_policy()
        assert policy is not None
        assert policy.max_attempts == 4
        assert policy.base_delay == 0.5
        assert policy.multiplier == 3.0
        assert policy.max_delay == 20.0
        assert policy.jitter == 0.25

    @pytest.mark.parametrize("command", sorted(SIMULATORS))
    def test_retries_off_means_no_policy(self, command):
        args = _build_parser().parse_args(self.SIMULATORS[command])
        assert _task_of(args).retry_policy() is None

    def test_multiplier_flag_changes_behaviour_end_to_end(self, capsys):
        assert main(
            ["simulate", "interval", "16", "--messages", "20",
             "--schedule", "flapping", "--retries", "2",
             "--backoff-multiplier", "4.0", "--max-delay", "5.0",
             "--jitter", "0.0", "--json"]
        ) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["messages"] == 20
